"""Array kernels against plain per-path loops, and experiment output goldens.

The reference implementations below walk every root-to-leaf path link by
link, the way the kernels' results are defined; the kernels must match
them exactly, not just within a tolerance.  The golden CSVs under
``tests/data/`` were written by the per-node loop implementations that
the kernels replaced.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losstree import build_tree, closed_form, cover_intervals, gen_random_tree, scfs
from losstree.cli import main
from losstree.simulation import path_loss_probabilities

DATA = Path(__file__).parent / "data"
CATERPILLAR = str(DATA / "caterpillar40.tree")


def caterpillar(m):
    """Spine of m-1 internal nodes, each with one leaf; the last has two."""
    edges = [("s1", "r")]
    for k in range(1, m - 1):
        edges += [(f"l{k}", f"s{k}"), (f"s{k + 1}", f"s{k}")]
    edges += [(f"l{m - 1}", f"s{m - 1}"), (f"l{m}", f"s{m - 1}")]
    return build_tree(edges, root="r")


def path_links(tree, j):
    """Links on the root-to-leaf-j path, top down, by walking up from j."""
    chain = []
    v = j
    while v != 0:
        chain.append(v)
        v = int(tree.parent[v])
    return chain[::-1]


def ref_closed_form(tree, y):
    gamma = np.full(tree.n + 1, np.inf)
    gamma[0] = 0.0
    for j in tree.leaves:
        for v in path_links(tree, j):
            gamma[v] = min(gamma[v], y[j - 1])
    return np.array([gamma[v] - gamma[tree.parent[v]] for v in range(1, tree.n + 1)])


def ref_path_loss_probabilities(tree, b):
    p = np.empty(tree.m)
    for j in tree.leaves:
        q = 1.0
        for v in path_links(tree, j):
            q *= 1.0 - b[v - 1]
        p[j - 1] = 1.0 - q
    return p


def ref_scfs(tree, bad):
    all_bad = np.ones(tree.n + 1, dtype=bool)
    all_bad[0] = False
    for j in tree.leaves:
        for v in path_links(tree, j):
            all_bad[v] &= bool(bad[j - 1])
    return {
        v for v in range(1, tree.n + 1) if all_bad[v] and not all_bad[tree.parent[v]]
    }


@st.composite
def trees(draw):
    m = draw(st.integers(2, 60))
    if draw(st.booleans()):
        return caterpillar(m)
    return gen_random_tree(m, draw(st.integers(2, 6)), draw(st.integers(0, 2**31 - 1)))


class TestKernelsMatchPathLoops:
    @settings(max_examples=60, deadline=None)
    @given(tree=trees(), seed=st.integers(0, 2**31 - 1))
    def test_closed_form(self, tree, seed):
        rng = np.random.default_rng(seed)
        # Rounded draws make ties between subtree minima common.
        ys = np.round(rng.uniform(0.0, 1.0, (3, tree.m)), 1)
        batch = closed_form(tree, ys)
        assert batch.shape == (3, tree.n)
        for y, row in zip(ys, batch):
            expected = ref_closed_form(tree, y)
            assert np.array_equal(closed_form(tree, y), expected)
            assert np.array_equal(row, expected)

    @settings(max_examples=60, deadline=None)
    @given(tree=trees(), seed=st.integers(0, 2**31 - 1))
    def test_path_loss_probabilities(self, tree, seed):
        rng = np.random.default_rng(seed)
        b = np.where(rng.random(tree.n) < 0.5, rng.uniform(0.0, 0.3, tree.n), 0.0)
        assert np.array_equal(
            path_loss_probabilities(tree, b), ref_path_loss_probabilities(tree, b)
        )

    @settings(max_examples=60, deadline=None)
    @given(tree=trees(), seed=st.integers(0, 2**31 - 1))
    def test_scfs(self, tree, seed):
        rng = np.random.default_rng(seed)
        bad = rng.random(tree.m) < rng.uniform(0.0, 1.0)
        assert scfs(tree, bad) == ref_scfs(tree, bad)


def test_kernels_never_build_the_path_lists():
    tree = caterpillar(300)
    rng = np.random.default_rng(0)
    b = np.where(rng.random(tree.n) < 0.1, 0.05, 0.0)
    closed_form(tree, rng.uniform(0.0, 1.0, tree.m))
    closed_form(tree, rng.uniform(0.0, 1.0, (4, tree.m)))
    path_loss_probabilities(tree, b)
    cover_intervals(tree, b, 0.01)
    scfs(tree, rng.random(tree.m) < 0.5)
    assert "paths" not in tree.__dict__


GOLDEN_RUNS = {
    "experiment_ternary13_upsparse.csv": (
        "ternary:13", "1-3", "100,1000,inf", "20", "upsparse", "t-ci"),
    "experiment_ternary13_min-l1-among-l0.csv": (
        "ternary:13", "1-3", "100,1000,inf", "20", "min-l1-among-l0", "t-ci"),
    "experiment_caterpillar40_upsparse.csv": (
        CATERPILLAR, "1,3,5", "100,1000,inf", "10", "upsparse", "t-ci"),
    "experiment_caterpillar40_min-l1-among-l0.csv": (
        CATERPILLAR, "1,3,5", "100,1000,inf", "10", "min-l1-among-l0", "t-ci"),
    "experiment_caterpillar40_cover.csv": (
        CATERPILLAR, "1,3,5", "1000", "10", "min-l1-among-l0", "cover"),
}


@pytest.mark.parametrize("golden", sorted(GOLDEN_RUNS))
def test_experiment_csv_matches_golden(golden, capsys, tmp_path):
    tree, k, probes, trials, mode, interval_mode = GOLDEN_RUNS[golden]
    out = tmp_path / golden
    code = main([
        "experiment", "--tree", tree, "--K", k, "--probes", probes,
        "--trials", trials, "--seed", "7", "--mode", mode,
        "--interval-mode", interval_mode, "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    assert out.read_bytes() == (DATA / golden).read_bytes()
