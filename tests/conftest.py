import numpy as np
import pytest

from losstree import build_tree, gen_random_tree


@pytest.fixture
def fig_tree():
    """3-leaf tree with two internal links and the identity-left matrix."""
    return build_tree([(4, 0), (5, 4), (3, 4), (1, 5), (2, 5)], root=0)


@pytest.fixture
def one_complex():
    """Single internal node with three leaf children."""
    return build_tree([(4, 0), (1, 4), (2, 4), (3, 4)], root=0)


def caterpillar_edges(m):
    """(edges, root) of a spine of m-1 internal nodes, each with one leaf; the last has two."""
    edges = [("s1", "r")]
    for k in range(1, m - 1):
        edges += [(f"l{k}", f"s{k}"), (f"s{k + 1}", f"s{k}")]
    edges += [(f"l{m - 1}", f"s{m - 1}"), (f"l{m}", f"s{m - 1}")]
    return edges, "r"


def caterpillar(m):
    return build_tree(*caterpillar_edges(m))


def star(m):
    """One internal link above m leaves: the smallest top-down pass."""
    return build_tree([("s", "r")] + [(f"l{j}", "s") for j in range(1, m + 1)], root="r")


def random_small_trees(count, seed, m_range=(2, 8), max_branching=4):
    """Deterministic stream of random trees for property tests."""
    rng = np.random.default_rng(seed)
    trees = []
    for _ in range(count):
        m = int(rng.integers(m_range[0], m_range[1] + 1))
        trees.append(gen_random_tree(m, max_branching, int(rng.integers(0, 2**31))))
    return trees


def random_sparse_x(tree, rng, k=None, lo=0.01, hi=0.2):
    """Random non-negative link vector with k lossy links."""
    if k is None:
        k = int(rng.integers(1, tree.n + 1))
    x = np.zeros(tree.n)
    sup = rng.choice(tree.n, size=min(k, tree.n), replace=False)
    x[sup] = rng.uniform(lo, hi, size=len(sup))
    return x


# Spellings of one value in an interval or observation file.  The byte read takes the
# first list, most of which json reads but json.dumps never writes; it must leave the
# second to json.loads: numbers json rejects, ints beyond float, and non-numbers.
READ_FROM_BYTES = ["0.0", "1E5", "1e+5", "1e-400", "1e400", "-1e400", "-0", "-0.0", "0.00", "-1",
                   "3", "0", "1180591620717411303424", "0.30000000000000004", "5e-324",
                   "1.7976931348623157e308", "2.2250738585072014e-308", "123456789012345678901"]
LEFT_TO_JSON = ["1" + "0" * 400, "Infinity", "-Infinity", "NaN", "01", "-01", "+1", "1.", ".5",
                "1_0", "1e", "1e+", "--1", "-", "1.0.0", "0x1", "1ee5", '"0.5"', '"inf"', '"Inf"',
                "null", "true", "[0.5]"]
