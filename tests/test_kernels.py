"""Array kernels against plain loops, and experiment and oracle output goldens.

The reference implementations below either walk every root-to-leaf path
link by link, the way the kernels' results are defined, or are the
per-node and per-sample loops the kernels replaced; the kernels must
match them exactly, not just within a tolerance.  The golden CSVs under
``tests/data/`` were written by the per-node loop implementations, and
the ``verify`` and ``census`` goldens by the per-sample l1 check with one
support scanner per call.
"""

import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from losstree import (
    IntervalObservation,
    addloss,
    build_tree,
    classify_complexes,
    closed_form,
    cover_intervals,
    forward,
    gen_random_tree,
    gen_ternary_tree,
    l1_sampling_check,
    measurement_matrix,
    receiver_solution,
    recovery_condition,
    sample_feasible,
    scfs,
    solution_report,
    sparsest_enumerate,
    unique_sparsest,
    upsparse,
    upsparse_plus,
    z_stats,
)
from losstree.cli import main
from losstree.errors import CycleDetected, DegreeViolation, DisconnectedInput
from losstree.lossmodel import DEFAULT_TOL, plant_hotspots
from losstree.noiseless import DOWN, MIXED, UP, ComplexState
from losstree.noisy import MIN_L1, MIN_L1_AMONG_L0, MODES
from losstree.oracle import FEAS_TOL, SupportScanner
from losstree.simulation import path_loss_probabilities
from losstree.topology import ROOT, LogicalTree

from conftest import caterpillar, random_sparse_x, star

DATA = Path(__file__).parent / "data"
CATERPILLAR = str(DATA / "caterpillar40.tree")


def path_links(tree, j):
    """Links on the root-to-leaf-j path, top down, by walking up from j."""
    chain = []
    v = j
    while v != 0:
        chain.append(v)
        v = int(tree.parent[v])
    return chain[::-1]


def depth_order(tree):
    """Nodes 1..n by depth, then label: the top-down order of the per-node loops."""
    return (np.argsort(tree.depth[1:], kind="stable") + 1).tolist()


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


def ref_classify_complexes(tree, x, tol=DEFAULT_TOL):
    out = []
    for i in tree.internal:
        kid_vals = x[[c - 1 for c in tree.children[i]]]
        delta = float(kid_vals.min())
        lossless = int((kid_vals <= tol).sum())
        if delta <= tol:
            state = UP
        elif x[i - 1] <= tol:
            state = DOWN
        else:
            state = MIXED
        out.append(ComplexState(node=i, state=state, delta=delta, lossless_children=lossless))
    return out


def ref_unique_sparsest(tree, x_star, tol=DEFAULT_TOL):
    for i in tree.internal:
        if x_star[i - 1] <= tol:
            continue
        kid_vals = x_star[[c - 1 for c in tree.children[i]]]
        if (kid_vals <= tol).sum() < 2:
            return False
    return True


def ref_recovery_condition(tree, x_true, tol=DEFAULT_TOL):
    for i in tree.internal:
        kid_vals = x_true[[c - 1 for c in tree.children[i]]]
        if kid_vals.min() > tol:
            return False
    return True


def ref_sample_feasible(tree, y, rng):
    x = np.zeros(tree.n)
    used = np.zeros(tree.n + 1)
    for v in depth_order(tree):
        if not tree.is_internal(v):
            continue
        lo, hi = tree.leaf_span[v]
        cap = (y[lo - 1 : hi - 1] - used[v]).min()
        x[v - 1] = rng.uniform(0.0, max(cap, 0.0))
        for c in tree.children[v]:
            used[c] = used[v] + x[v - 1]
    for j in tree.leaves:
        x[j - 1] = max(y[j - 1] - used[j], 0.0)
    return x


def ref_l1_sampling_check(tree, y, x_star, samples, seed, tol=DEFAULT_TOL):
    """One single draw at a time, leaving at the first sample that undercuts x_star."""
    l1_star = np.asarray(x_star, dtype=float).sum()
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    for _ in range(samples):
        x_s = ref_sample_feasible(tree, y, rng)
        l1_s = x_s.sum()
        if l1_s < l1_star - 1e-12:
            return False
        if np.abs(x_s - x_star).max() > tol and not l1_s > l1_star:
            return False
    return True


def ref_z_stats(tree, lo, hi):
    """(min_upper, max_lower, max_lower_within) from each leaf set, path by path."""
    below = [[] for _ in range(tree.n + 1)]
    for j in tree.leaves:
        for v in path_links(tree, j):
            below[v].append(j - 1)
    stats = np.empty((3, tree.n))
    for v in range(1, tree.n + 1):
        u = min(hi[below[v]])
        stats[:, v - 1] = u, max(lo[below[v]]), max(lo[j] for j in below[v] if lo[j] <= u)
    return stats


def ref_upsparse_plus(tree, lo, hi, mode):
    """(x, y, z) from the per-node loop, with the statistics of ``ref_z_stats``."""
    min_upper, max_lower, max_lower_within = ref_z_stats(tree, lo, hi)
    z = np.zeros(tree.n + 1)
    x = np.zeros(tree.n)
    for v in depth_order(tree):
        zf = z[tree.parent[v]]
        if mode == MIN_L1:
            thr = min(max_lower[v - 1], min_upper[v - 1])
        else:
            thr = max_lower_within[v - 1]
        if mode == MIN_L1_AMONG_L0 and thr > zf and min_upper[v - 1] < max_lower[v - 1]:
            thr = min_upper[v - 1]
        if thr > zf:
            x[v - 1] = thr - zf
            z[v] = thr
        else:
            x[v - 1] = 0.0
            z[v] = zf
    return x, z[1 : tree.m + 1], z[1:]


def ref_upsparse(tree, x0):
    """The level-by-level loop: deepest level first, label order within a level."""
    x = np.array(x0, dtype=float)
    for d in range(tree.height - 1, 0, -1):
        for v in np.flatnonzero(tree.depth == d).tolist():
            if tree.is_internal(v):
                kids = [c - 1 for c in tree.children[v]]
                delta = x[kids].min()
                x[kids] -= delta
                x[v - 1] += delta
    return x


def ref_sparsest_enumerate(tree, y):
    """(k*, supports, solutions, unique) from the scan before its prunes.

    Every support of each size is pseudo-inverted, and every one whose
    links cover at least the lossy paths is solved, dependent or not.
    """
    dense = measurement_matrix(tree).dense().astype(float)
    bits = 1 << np.arange(tree.m, dtype=np.int64)
    link_masks = bits @ (dense > 0)
    required = bits[y > FEAS_TOL].sum()
    for k in range(tree.m + 1):
        combos = list(itertools.combinations(range(tree.n), k))
        supports = np.array(combos, dtype=np.int64).reshape(len(combos), k)
        stacks = dense[:, supports].transpose(1, 0, 2)
        pinv = np.linalg.pinv(stacks)
        masks = np.bitwise_or.reduce(link_masks[supports], axis=1)
        solutions, found = [], []
        for i in np.flatnonzero((masks & required) == required):
            x = pinv[i] @ y
            if x.min(initial=0.0) < -FEAS_TOL or np.abs(stacks[i] @ x - y).max() > FEAS_TOL:
                continue
            full = np.zeros(tree.n)
            full[supports[i]] = np.maximum(x, 0.0)
            if all(np.abs(other - full).max() > 1e-6 for other in solutions):
                solutions.append(full)
                found.append(tuple(int(v) + 1 for v in supports[i]))
        if solutions:
            return k, found, solutions, len(solutions) == 1
    return None, [], [], False


def ref_build_tree(edges, root):
    """The per-node dict builder, with a walk up from every node to check reachability."""
    children: dict = {root: []}
    parent: dict = {}
    for child, par in edges:
        if child == root:
            raise CycleDetected(f"root {root!r} appears as a child")
        if child in parent:
            raise DisconnectedInput(f"node {child!r} has two parents")
        parent[child] = par
        children.setdefault(par, [])
        children.setdefault(child, [])
        children[par].append(child)
    if not parent:
        raise DegreeViolation("empty edge list")

    resolved = {root}
    for start in parent:
        trail = []
        v = start
        while v not in resolved:
            if v in trail:
                raise CycleDetected(f"cycle through node {v!r}")
            trail.append(v)
            if v != root and v not in parent:
                raise DisconnectedInput(f"node {v!r} has no path to the root")
            v = parent.get(v)
        resolved.update(trail)

    if len(children[root]) != 1:
        raise DegreeViolation(f"root must have exactly one child, found {len(children[root])}")
    for v, kids in children.items():
        if v != root and len(kids) == 1:
            raise DegreeViolation(f"internal node {v!r} has exactly one child")
    top = children[root][0]
    if not children[top]:
        raise DegreeViolation("root's child must be internal (n >= m+1)")

    leaf_order: list = []
    internal_order: list = []
    stack = [top]
    while stack:
        v = stack.pop()
        if children[v]:
            internal_order.append(v)
            stack.extend(reversed(children[v]))
        else:
            leaf_order.append(v)

    m = len(leaf_order)
    n = m + len(internal_order)
    label = {orig: j + 1 for j, orig in enumerate(leaf_order)}
    label.update({orig: m + 1 + i for i, orig in enumerate(internal_order)})
    parent_arr = np.full(n + 1, -1, dtype=np.int64)
    kids_canon: list = [()] * (n + 1)
    kids_canon[ROOT] = (label[top],)
    parent_arr[label[top]] = ROOT
    for orig, lab in label.items():
        kids_canon[lab] = tuple(label[c] for c in children[orig])
        if orig != top:
            parent_arr[lab] = label[parent[orig]]
    depth = np.zeros(n + 1, dtype=np.int64)
    for lab in range(1, n + 1):
        v = lab
        while v != ROOT:
            depth[lab] += 1
            v = parent_arr[v]
    alias = {lab: orig for orig, lab in label.items()}
    return LogicalTree(
        n=n, m=m, parent=parent_arr, children=tuple(kids_canon), depth=depth, alias=alias
    )


def interval_draw(rng, m):
    """Rounded bounds (ties are common), about 30% unbounded and 20% exact."""
    lo = np.round(rng.uniform(0.0, 1.0, m), 1)
    hi = lo + np.round(rng.uniform(0.0, 1.0, m), 1)
    hi[rng.random(m) < 0.3] = np.inf
    exact = rng.random(m) < 0.2
    hi[exact] = lo[exact]
    return lo, hi


def sparse_draw(rng, size):
    """Non-negative values, about half exactly zero; rounding makes ties common."""
    return np.where(rng.random(size) < 0.5, np.round(rng.uniform(0.0, 1.0, size), 1), 0.0)


# Leaf counts at and next to powers of two put span ends on every block boundary.
BLOCK_SIZES = st.sampled_from([2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65])


@st.composite
def trees(draw, sizes=st.integers(2, 60)):
    m = draw(sizes)
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


    @settings(max_examples=60, deadline=None)
    @given(tree=trees(), seed=st.integers(0, 2**31 - 1))
    def test_complex_diagnostics(self, tree, seed):
        rng = np.random.default_rng(seed)
        at_tol = rng.choice([0.0, DEFAULT_TOL, 2 * DEFAULT_TOL, 0.1, 0.2], tree.n)
        for x in (sparse_draw(rng, tree.n), closed_form(tree, sparse_draw(rng, tree.m)), at_tol):
            assert classify_complexes(tree, x) == ref_classify_complexes(tree, x)
            assert unique_sparsest(tree, x) is ref_unique_sparsest(tree, x)
            assert recovery_condition(tree, x) is ref_recovery_condition(tree, x)

    @settings(max_examples=60, deadline=None)
    @given(
        tree=st.one_of(trees(), st.integers(2, 9).map(star)),
        seed=st.integers(0, 2**31 - 1),
        size=st.integers(1, 7),
    )
    def test_sample_feasible(self, tree, seed, size):
        y = sparse_draw(np.random.default_rng(seed), tree.m)
        ours, ref = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        for _ in range(size):
            assert np.array_equal(sample_feasible(tree, y, ours), ref_sample_feasible(tree, y, ref))
        # The reference rejects a -0.0 cap, so -0.0 observations only test the batch.
        y[np.flatnonzero(y == 0.0)[::2]] = -0.0
        ours = np.random.default_rng(seed + 1)
        single = np.array([sample_feasible(tree, y, ours) for _ in range(size)])
        batch = sample_feasible(tree, y, np.random.default_rng(seed + 1), size=size)
        assert batch.shape == (size, tree.n)
        assert np.array_equal(batch, single)
        assert np.array_equal(np.signbit(batch), np.signbit(single))
        # Row sums, the l1 norms of the l1 check, round as a single draw's sum does.
        assert np.array_equal(batch.sum(axis=1), [x.sum() for x in single])

    @settings(max_examples=60, deadline=None)
    @given(
        tree=st.one_of(trees(st.integers(2, 30)), st.integers(2, 9).map(star)),
        seed=st.integers(0, 2**31 - 1),
        samples=st.sampled_from([1, 2, 9, 200]),
        scale=st.sampled_from([1e-12, 1e-9, 1e-6, 1e-2]),
    )
    def test_l1_sampling_check(self, tree, seed, samples, scale):
        rng = np.random.default_rng(seed)
        y = forward(tree, sparse_draw(rng, tree.n))
        # The sparsest of 20 other samples is beaten by some, not all, of the checked ones.
        pool = sample_feasible(tree, y, rng, size=20)
        best_of_pool = pool[pool.sum(axis=1).argmin()]
        for x in (closed_form(tree, y), receiver_solution(tree, y), best_of_pool):
            for x_star in (x, x + scale * rng.standard_normal(tree.n)):
                expected = ref_l1_sampling_check(tree, y, x_star, samples, seed)
                assert l1_sampling_check(tree, y, x_star, samples, seed) is expected

    @settings(max_examples=60, deadline=None)
    @given(tree=trees(), seed=st.integers(0, 2**31 - 1))
    def test_upsparse(self, tree, seed):
        rng = np.random.default_rng(seed)
        y = sparse_draw(rng, tree.m)
        # Bytes, not values: the sign of every zero must match too.
        ours = upsparse(tree, y).x
        assert ours.tobytes() == ref_upsparse(tree, receiver_solution(tree, y)).tobytes()
        x0 = sparse_draw(rng, tree.n)
        ours = upsparse(tree, forward(tree, x0), x0=x0).x
        assert ours.tobytes() == ref_upsparse(tree, x0).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(tree=trees(st.integers(2, 60) | BLOCK_SIZES))
    def test_span_blocks_tile_every_span(self, tree):
        link, base, starts, leaf_base = tree.span_blocks
        assert np.array_equal(starts, np.searchsorted(link, np.arange(tree.n)))
        for k, row in enumerate(leaf_base):
            assert row.tolist() == [(k * tree.m + p // 2**k) * tree.m for p in range(tree.m)]
        for v in range(1, tree.n + 1):
            covered, per_level = [], [0] * tree.m.bit_length()
            for key in base[link == v - 1] // tree.m:
                k, i = divmod(int(key), tree.m)
                covered += range(i << k, (i + 1) << k)
                per_level[k] += 1
            lo, hi = tree.leaf_span[v]
            assert sorted(covered) == list(range(lo - 1, hi - 1))
            assert max(per_level) <= 2

    @settings(max_examples=80, deadline=None)
    @given(tree=trees(st.integers(2, 60) | BLOCK_SIZES), seed=st.integers(0, 2**31 - 1))
    def test_z_stats(self, tree, seed):
        lo, hi = interval_draw(np.random.default_rng(seed), tree.m)
        stats = z_stats(tree, IntervalObservation(lo=lo, hi=hi))
        got = np.array([stats.min_upper, stats.max_lower, stats.max_lower_within])
        assert np.array_equal(got, ref_z_stats(tree, lo, hi))

    @settings(max_examples=80, deadline=None)
    @given(tree=trees(st.integers(2, 60) | BLOCK_SIZES), seed=st.integers(0, 2**31 - 1))
    def test_upsparse_plus(self, tree, seed):
        lo, hi = interval_draw(np.random.default_rng(seed), tree.m)
        intervals = IntervalObservation(lo=lo, hi=hi)
        for mode in MODES:
            sol = upsparse_plus(tree, intervals, mode)
            x, y, z = ref_upsparse_plus(tree, lo, hi, mode)
            assert np.array_equal(sol.x, x) and np.array_equal(sol.y, y)
            assert np.array_equal(sol.z, z)


    @settings(max_examples=60, deadline=None)
    @given(
        tree=st.one_of(trees(st.integers(2, 8)), st.integers(2, 9).map(star)),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_sparsest_enumerate(self, tree, seed):
        rng = np.random.default_rng(seed)
        density = rng.uniform(0.0, 0.5)
        # ties and many sparsest solutions: integers in {0, 1, 2}, 0.5 on every lossy link
        xs = [random_sparse_x(tree, rng, k=max(1, round(density * tree.n))),
              rng.integers(0, 3, tree.n), 0.5 * (rng.random(tree.n) < 0.5)]
        scanner = SupportScanner(tree)
        for x in xs:
            y = forward(tree, x)
            enum = sparsest_enumerate(tree, y, scanner=scanner)
            k_star, supports, solutions, unique = ref_sparsest_enumerate(tree, y)
            assert (enum.k_star, enum.supports, enum.unique) == (k_star, supports, unique)
            assert len(enum.solutions) == len(solutions)
            for ours, ref in zip(enum.solutions, solutions):
                assert np.abs(ours - ref).max() <= 1e-12

@st.composite
def tree_edges(draw):
    """(edges, root) of a random tree: mixed int and str ids, edges in shuffled order."""
    tree = draw(trees(st.integers(2, 30)))
    ident = draw(st.lists(st.booleans(), min_size=tree.n + 1, max_size=tree.n + 1))
    names = [v * 7 - 3 if as_int else f"v{v}" for v, as_int in enumerate(ident)]
    edges = [(names[v], names[tree.parent[v]]) for v in range(1, tree.n + 1)]
    return draw(st.permutations(edges)), names[ROOT]


def same_tree(a, b):
    return (
        (a.n, a.m) == (b.n, b.m)
        and a.parent.dtype == b.parent.dtype == a.depth.dtype == b.depth.dtype
        and np.array_equal(a.parent, b.parent)
        and a.children == b.children
        and np.array_equal(a.depth, b.depth)
        and list(a.alias.items()) == list(b.alias.items())
    )


def raised(build, edges, root):
    try:
        build(edges, root)
    except (CycleDetected, DegreeViolation, DisconnectedInput) as exc:
        return type(exc)
    return None


class TestBuildTreeMatchesDictBuilder:
    @settings(max_examples=80, deadline=None)
    @given(case=tree_edges())
    def test_same_tree_from_any_edge_order(self, case):
        edges, root = case
        assert same_tree(build_tree(edges, root), ref_build_tree(edges, root))

    FAULTS = {
        "cycle": CycleDetected,
        "second parent": DisconnectedInput,
        "orphan": DisconnectedInput,
        "one child": DegreeViolation,
        "two root children": DegreeViolation,
        "leaf under root": DegreeViolation,
    }

    @settings(max_examples=150, deadline=None)
    @given(case=tree_edges(), fault=st.sampled_from(sorted(FAULTS)), data=st.data())
    def test_same_error_for_each_single_fault(self, case, fault, data):
        edges, root = case
        father = dict(edges)
        kids = {}
        for c, p in edges:
            kids.setdefault(p, []).append(c)
        top = kids[root][0]
        internal = [v for v in kids if v not in (root, top)]
        leaves = [v for v in father if v not in kids]
        if fault == "cycle":
            assume(internal)
            # Hang a node below one of its own descendants.
            u = data.draw(st.sampled_from(internal))
            d = u
            while d in kids:
                d = kids[d][0]
            edges = [(c, d if c == u else p) for c, p in edges]
        elif fault == "second parent":
            c, _ = data.draw(st.sampled_from(edges))
            p = data.draw(st.sampled_from([v for v in kids if v != c]))
            edges = edges + [(c, p)]
        elif fault == "orphan":
            edges = edges + [("new", "nowhere")]
        elif fault == "one child":
            edges = edges + [("new", data.draw(st.sampled_from(leaves)))]
        elif fault == "two root children":
            edges = edges + [("new", root)]
        elif fault == "leaf under root":
            edges = [(data.draw(st.sampled_from(leaves)), root)]
        assert raised(ref_build_tree, edges, root) is self.FAULTS[fault]
        assert raised(build_tree, edges, root) is self.FAULTS[fault]


def test_interval_solver_on_a_long_caterpillar():
    """20,000 leaves: exact intervals reduce both solvers to the closed form."""
    tree = caterpillar(20000)
    y = sparse_draw(np.random.default_rng(5), tree.m)
    exact = IntervalObservation.exact(y)
    assert np.array_equal(z_stats(tree, exact).max_lower_within, tree.span_min(y))
    x = closed_form(tree, y)
    for mode in MODES:
        assert np.array_equal(upsparse_plus(tree, exact, mode).x, x)


def test_plant_hotspots_reproduces_the_inline_streams():
    """The three per-caller planting loops it replaced, draw for draw."""
    tree = gen_ternary_tree(13)
    lo, hi = loss_range = (0.01, 0.10)
    for seed, K, key in [(0, 1, 0), (7, 3, 5), (123, 4, 199), (5, 13, 2)]:
        b = plant_hotspots(tree, K, loss_range, seed, key)
        # simulation: the experiment's probability-scale instance
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(K, key)))
        expected = np.zeros(tree.n)
        sup = rng.choice(tree.n, size=K, replace=False)
        expected[sup] = rng.uniform(*loss_range, size=K)
        assert np.array_equal(b, expected)
        # oracle census (random placement) and the baseline comparison: addloss scale
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(K, key)))
        sup = rng.choice(tree.n, size=K, replace=False)
        x_true = np.zeros(tree.n)
        x_true[sup] = addloss(rng.uniform(lo, hi, size=K))
        assert np.array_equal(addloss(b), x_true)
        assert set((np.flatnonzero(b) + 1).tolist()) == {int(s) + 1 for s in sup}
    # oracle census, exhaustive placement: the support is given, only losses are drawn
    for key, fixed in enumerate([np.array([0, 4]), np.array([12, 3])]):
        rng = np.random.default_rng(np.random.SeedSequence(9, spawn_key=(2, key)))
        x_true = np.zeros(tree.n)
        x_true[fixed] = addloss(rng.uniform(lo, hi, size=2))
        assert np.array_equal(addloss(plant_hotspots(tree, 2, loss_range, 9, key, fixed)), x_true)


def test_kernels_never_build_the_path_lists():
    tree = caterpillar(300)
    rng = np.random.default_rng(0)
    b = np.where(rng.random(tree.n) < 0.1, 0.05, 0.0)
    y = rng.uniform(0.0, 1.0, tree.m)
    x = closed_form(tree, y)
    closed_form(tree, rng.uniform(0.0, 1.0, (4, tree.m)))
    path_loss_probabilities(tree, b)
    cover_intervals(tree, b, 0.01)
    scfs(tree, rng.random(tree.m) < 0.5)
    solution_report(tree, x)  # classify_complexes, unique_sparsest, recovery_condition
    sample_feasible(tree, y, rng)
    upsparse_plus(tree, IntervalObservation(lo=y, hi=y + 0.1))  # through z_stats
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


def test_l1_sampling_check_gives_both_verdicts_like_the_loop():
    """The closed form passes and the receiver solution fails, as in the loop."""
    verdicts = set()
    for tree in (gen_ternary_tree(13), caterpillar(8), star(4)):
        for seed in range(5):
            y = forward(tree, sparse_draw(np.random.default_rng(seed), tree.n))
            for x_star in (closed_form(tree, y), receiver_solution(tree, y)):
                verdict = l1_sampling_check(tree, y, x_star, 50, seed)
                assert verdict is ref_l1_sampling_check(tree, y, x_star, 50, seed)
                verdicts.add(verdict)
    assert verdicts == {True, False}


ORACLE_GOLDENS = {
    f"verify_{tree.replace(':', '_')}_seed{seed}.txt": (
        ["verify", "--tree", tree, "--trials", "10", "--seed", str(seed)])
    for tree in ("random:8:3:0", "regular:2:4") for seed in (0, 1)
}


@pytest.mark.parametrize("golden", sorted(ORACLE_GOLDENS))
def test_verify_stdout_matches_golden(golden, capsys):
    code = main(ORACLE_GOLDENS[golden])
    stdout = capsys.readouterr().out
    assert code == 0
    assert stdout.encode() == (DATA / golden).read_bytes()


def test_census_matches_golden(capsys, tmp_path):
    out = tmp_path / "census.csv"
    code = main(["census", "--tree", "ternary:13", "--K", "1-3", "--trials", "50",
                 "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert out.read_bytes() == (DATA / "census_ternary13.csv").read_bytes()
    assert stdout.encode() == (DATA / "census_ternary13.txt").read_bytes()
