"""Array kernels against plain loops, and experiment and oracle output goldens.

The reference implementations below either walk every root-to-leaf path
link by link, the way the kernels' results are defined, or are the
per-node, per-sample and per-repetition loops the kernels replaced; the
kernels must match them exactly, not just within a tolerance, except
where a kernel adds or multiplies in another order (``forward``,
``path_loss_probabilities`` and ``root_scan``'s sums), which must stay
within a rounding bound of the exact value.  The golden CSVs under
``tests/data/`` were written by the per-node loop implementations (the
cover golden's two ``e2_se`` values at K=3 and K=5 since moved in their
last digits, from the path product's scan order), and the ``verify`` and
``census`` goldens by the per-sample l1 check with one support scanner
per call.
"""

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from losstree import (
    ExperimentConfig,
    IntervalObservation,
    addloss,
    build_tree,
    classify_complexes,
    closed_form,
    confidence_intervals,
    cover_intervals,
    forward,
    gen_random_tree,
    gen_ternary_tree,
    inverse_addloss,
    l1_sampling_check,
    load_observations,
    load_topology,
    receiver_solution,
    recovery_condition,
    run_experiment,
    sample_feasible,
    scfs,
    simulate_probes,
    solution_report,
    sparsest_enumerate,
    unique_sparsest,
    uniqueness_census,
    upsparse,
    upsparse_plus,
    z_stats,
)
from losstree import lossmodel, noiseless, oracle, simulation
from losstree.cli import main
from losstree.errors import CycleDetected, DegreeViolation, DisconnectedInput
from losstree.lossmodel import DEFAULT_LOSS_RANGE, DEFAULT_TOL, plant_hotspots
from losstree.noiseless import DOWN, MIXED, UP, ComplexState
from losstree.noisy import MIN_L1, MIN_L1_AMONG_L0, MODES
from losstree.oracle import CensusResult, SupportScanner, _scan
from losstree.simulation import POINT_MODE, ExperimentRow, Metrics, path_loss_probabilities
from losstree.topology import ROOT, LogicalTree

from conftest import caterpillar, random_sparse_x, star
from topology_reference import EDGE_FAULTS, inject_edge_fault, same_tree
from topology_reference import build_tree as loop_build_tree

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
    """(exact p, exact q, links) per path, q the exact product of the float factors 1 - b."""
    out = []
    for j in tree.leaves:
        links = path_links(tree, j)
        q = math.prod(Fraction(1.0 - b[v - 1]) for v in links)
        out.append((1 - q, q, len(links)))
    return out


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
    """(min_upper, max_lower, l0_threshold) from each leaf set and a recursion over children.

    A leaf's threshold is its lower bound; a node's is the largest child
    threshold at or below its min_upper.
    """
    below = [[] for _ in range(tree.n + 1)]
    for j in tree.leaves:
        for v in path_links(tree, j):
            below[v].append(j - 1)
    stats = np.empty((3, tree.n))

    def threshold(v):
        if not tree.is_internal(v):
            return lo[v - 1]
        return max(t for t in map(threshold, tree.children[v]) if t <= min(hi[below[v]]))

    for v in range(1, tree.n + 1):
        stats[:, v - 1] = min(hi[below[v]]), max(lo[below[v]]), threshold(v)
    return stats


def ref_upsparse_plus(tree, lo, hi, mode):
    """(x, y, z) from the per-node loop, with the statistics of ``ref_z_stats``."""
    min_upper, max_lower, l0_threshold = ref_z_stats(tree, lo, hi)
    z = np.zeros(tree.n + 1)
    x = np.zeros(tree.n)
    for v in depth_order(tree):
        zf = z[tree.parent[v]]
        if mode == MIN_L1:
            thr = min(max_lower[v - 1], min_upper[v - 1])
        else:
            thr = l0_threshold[v - 1]
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
    """The level-by-level loop: deepest level first, label order within a level.

    Every -0.0 of x0 is made 0.0 first, so a tie's pick of zero cannot matter.
    """
    x = np.array(x0, dtype=float) + 0.0
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
    dense = forward(tree, np.eye(tree.n)).T
    bits = 1 << np.arange(tree.m, dtype=np.int64)
    link_masks = bits @ (dense > 0)
    required = bits[y > DEFAULT_TOL].sum()
    for k in range(tree.m + 1):
        combos = list(itertools.combinations(range(tree.n), k))
        supports = np.array(combos, dtype=np.int64).reshape(len(combos), k)
        stacks = dense[:, supports].transpose(1, 0, 2)
        pinv = np.linalg.pinv(stacks)
        masks = np.bitwise_or.reduce(link_masks[supports], axis=1)
        solutions, found = [], []
        for i in np.flatnonzero((masks & required) == required):
            x = pinv[i] @ y
            resid = np.abs(stacks[i] @ x - y).max()
            if x.min(initial=0.0) < -DEFAULT_TOL or resid > DEFAULT_TOL:
                continue
            full = np.zeros(tree.n)
            full[supports[i]] = np.maximum(x, 0.0)
            solutions.append(full)
            found.append(tuple(int(v) + 1 for v in supports[i]))
        if solutions:
            return k, found, solutions, len(solutions) == 1
    return None, [], [], False


def ref_census(tree, K, loss_range, trials, seed, placement):
    """The census one trial at a time, through the reference scan."""
    if placement == "exhaustive":
        picks = [np.array(sup, dtype=int) for sup in itertools.combinations(range(tree.n), K)]
    else:
        picks = [None] * trials
    unique = recovered = 0
    for i, sup in enumerate(picks):
        x_true = addloss(plant_hotspots(tree, K, loss_range, seed, i, sup))
        y = forward(tree, x_true)
        unique += ref_sparsest_enumerate(tree, y)[3]
        recovered += bool(np.abs(ref_closed_form(tree, y) - x_true).max() <= DEFAULT_TOL)
    return CensusResult(trials=len(picks), p_unique=unique / len(picks),
                        p_l1_recovers_true=recovered / len(picks))


def ref_metrics(b_true, b_hat):
    true_lossy = b_true > DEFAULT_TOL
    common = int((true_lossy & (b_hat > DEFAULT_TOL)).sum())
    if true_lossy.sum() == 0:
        e0 = 1.0 if (b_hat > DEFAULT_TOL).sum() == 0 else 0.0
    else:
        e0 = common / int(true_lossy.sum())
    norm_true = float(np.linalg.norm(b_true))
    if norm_true == 0.0:
        return Metrics(e0=e0, e2=float(np.linalg.norm(b_hat)), true_norm_zero=True)
    return Metrics(e0=e0, e2=float(np.linalg.norm(b_true - b_hat) / norm_true),
                   true_norm_zero=False)


def ref_score_one(tree, b_true, K, probes, rep, cfg):
    """One repetition probed, solved and scored on its own."""
    if probes is None:
        y_hat = forward(tree, addloss(b_true))
        run = None
    else:
        probe_rng = np.random.default_rng(
            np.random.SeedSequence(cfg.seed, spawn_key=(K, rep, probes))
        )
        run = simulate_probes(tree, b_true, probes, probe_rng)
        y_hat = run.y_hat
    if cfg.mode == POINT_MODE:
        x_hat = ref_closed_form(tree, y_hat)
    else:
        if cfg.interval_mode == "cover":
            intervals = cover_intervals(tree, b_true, cfg.cover_halfwidth)
        elif run is None:
            intervals = IntervalObservation.exact(y_hat)
        else:
            intervals = confidence_intervals(run, cfg.level)
        x_hat = upsparse_plus(tree, intervals, cfg.mode).x
    return ref_metrics(b_true, inverse_addloss(x_hat))


def ref_experiment_rows(tree, cfg):
    rows = []
    for K in cfg.k_values:
        instances = [
            plant_hotspots(tree, K, cfg.loss_range, cfg.seed, rep) for rep in range(cfg.reps)
        ]
        for probes in cfg.probe_counts:
            e0s = np.empty(cfg.reps)
            e2s = np.empty(cfg.reps)
            for rep, b_true in enumerate(instances):
                e0s[rep], e2s[rep] = ref_score_one(tree, b_true, K, probes, rep, cfg)[:2]
            sqrt_reps = np.sqrt(cfg.reps)
            rows.append(ExperimentRow(
                K=K, probes=probes, mode=cfg.mode, reps=cfg.reps,
                e0_mean=float(e0s.mean()),
                e0_se=float(e0s.std(ddof=1) / sqrt_reps) if cfg.reps > 1 else 0.0,
                e2_mean=float(e2s.mean()),
                e2_se=float(e2s.std(ddof=1) / sqrt_reps) if cfg.reps > 1 else 0.0,
                seed=cfg.seed,
            ))
    return rows


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
    span = np.tile([m + 1, 0], (n + 1, 1))  # leaves lo..hi-1 under each node, by walking up
    for j in range(1, m + 1):
        v = j
        while v != -1:
            span[v] = min(span[v, 0], j), max(span[v, 1], j + 1)
            v = parent_arr[v]
    alias = {lab: orig for orig, lab in label.items()}
    tree = LogicalTree(n=n, m=m, parent=parent_arr, depth=depth, leaf_span=span, alias=alias)
    tree.children = tuple(kids_canon)  # the builder's own lists, not the derived property
    return tree


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


def signed_zeros(rng, values):
    """``values`` with about half of its zeros made -0.0."""
    return np.where((values == 0) & (rng.random(values.shape) < 0.5), -0.0, values)


# Leaf counts at and next to powers of two put span ends on every window boundary
# of the sparse table behind ``span_min``.
BLOCK_SIZES = st.sampled_from([2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65])


@st.composite
def trees(draw, sizes=st.integers(2, 60)):
    m = draw(sizes)
    if draw(st.booleans()):
        return caterpillar(m)
    return gen_random_tree(m, draw(st.integers(2, 6)), draw(st.integers(0, 2**31 - 1)))


ORACLE_TREES = st.one_of(trees(st.integers(2, 8)), st.integers(2, 9).map(star))


def oracle_observations(tree, rng):
    """Observations of a sparse draw and of two tie-heavy ones.

    Integers in {0, 1, 2}, and 0.5 on every lossy link, give many sparsest solutions.
    """
    density = rng.uniform(0.0, 0.5)
    xs = [random_sparse_x(tree, rng, k=max(1, round(density * tree.n))),
          rng.integers(0, 3, tree.n), 0.5 * (rng.random(tree.n) < 0.5)]
    return np.array([forward(tree, x) for x in xs])


def assert_same_enumeration(enum, expected):
    k_star, supports, solutions, unique = expected
    assert (enum.k_star, enum.supports, enum.unique) == (k_star, supports, unique)
    assert len(enum.solutions) == len(solutions)
    for ours, ref in zip(enum.solutions, solutions):
        assert np.abs(ours - ref).max() <= 1e-12


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
        """Within one rounding per factor of the product and one of the final 1 - q."""
        rng = np.random.default_rng(seed)
        b = np.where(rng.random(tree.n) < 0.5, rng.uniform(0.0, 0.3, tree.n), 0.0)
        eps = Fraction(np.finfo(float).eps)
        for p, (exact, q, links) in zip(path_loss_probabilities(tree, b),
                                        ref_path_loss_probabilities(tree, b)):
            assert abs(Fraction(p) - exact) <= links * eps * q + eps * Fraction(p)

    @settings(max_examples=60, deadline=None)
    @given(tree=trees(), seed=st.integers(0, 2**31 - 1))
    def test_scfs(self, tree, seed):
        rng = np.random.default_rng(seed)
        bad = rng.random(tree.m) < rng.uniform(0.0, 1.0)
        assert scfs(tree, bad) == ref_scfs(tree, bad)


    @settings(max_examples=80, deadline=None)
    @given(tree=trees() | st.integers(2, 30).map(star), seed=st.integers(0, 2**31 - 1))
    def test_complex_states_are_the_reference_rows(self, tree, seed):
        # Ties, and links at the lossy threshold and at twice it.
        rng = np.random.default_rng(seed)
        ties = rng.choice([0.0, DEFAULT_TOL, 2 * DEFAULT_TOL, 0.1], tree.n)
        for x in (ties, closed_form(tree, ties[: tree.m]), sparse_draw(rng, tree.n)):
            states, ref = classify_complexes(tree, x), ref_classify_complexes(tree, x)
            assert len(states) == len(ref) == tree.n - tree.m
            assert list(states) == ref
            table = {name: [vars(row)[name] for row in ref] for name in vars(ref[0])}
            assert json.dumps(solution_report(tree, x).to_json()["states"]) == json.dumps(table)

    @settings(max_examples=60, deadline=None)
    @given(tree=trees(), seed=st.integers(0, 2**31 - 1))
    def test_complex_diagnostics(self, tree, seed):
        rng = np.random.default_rng(seed)
        at_tol = rng.choice([0.0, DEFAULT_TOL, 2 * DEFAULT_TOL, 0.1, 0.2], tree.n)
        for x in (sparse_draw(rng, tree.n), closed_form(tree, sparse_draw(rng, tree.m)), at_tol):
            assert list(classify_complexes(tree, x)) == ref_classify_complexes(tree, x)
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
        y = signed_zeros(rng, sparse_draw(rng, tree.m))
        # Bytes, not values: the sign of every zero must match too.
        ours = upsparse(tree, y).x
        assert ours.tobytes() == ref_upsparse(tree, receiver_solution(tree, y)).tobytes()
        assert upsparse(tree, np.full(tree.m, -0.0)).x.tobytes() == np.zeros(tree.n).tobytes()
        x0 = signed_zeros(rng, sparse_draw(rng, tree.n))
        ours = upsparse(tree, forward(tree, x0), x0=x0).x
        assert ours.tobytes() == ref_upsparse(tree, x0).tobytes()

    @settings(max_examples=80, deadline=None)
    @given(tree=trees(st.integers(2, 60) | BLOCK_SIZES), seed=st.integers(0, 2**31 - 1))
    def test_z_stats(self, tree, seed):
        lo, hi = interval_draw(np.random.default_rng(seed), tree.m)
        stats = z_stats(tree, IntervalObservation(lo=lo, hi=hi))
        got = np.array([stats.min_upper, stats.max_lower, stats.l0_threshold])
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
    @given(tree=ORACLE_TREES, seed=st.integers(0, 2**31 - 1))
    def test_sparsest_enumerate(self, tree, seed):
        scanner = SupportScanner(tree)
        for y in oracle_observations(tree, np.random.default_rng(seed)):
            enum = sparsest_enumerate(tree, y, scanner=scanner)
            assert_same_enumeration(enum, ref_sparsest_enumerate(tree, y))

    @settings(max_examples=60, deadline=None)
    @given(tree=ORACLE_TREES, seed=st.integers(0, 2**31 - 1))
    def test_feasible_supports_pass_the_step_prune(self, tree, seed):
        """Rows that no link of a feasible support tells apart carry equal observations."""
        on_path = np.array([[v in path_links(tree, j) for v in range(1, tree.n + 1)]
                            for j in range(1, tree.m + 1)])
        differs = on_path[:-1] != on_path[1:]  # (m - 1, n): link v starts or ends at step j
        assert SupportScanner(tree).step_masks.tolist() == [
            sum(1 << j for j in np.flatnonzero(column).tolist()) for column in differs.T
        ]
        for y in oracle_observations(tree, np.random.default_rng(seed)):
            steps = np.flatnonzero(np.abs(np.diff(y)) > 4 * DEFAULT_TOL)
            for sup in ref_sparsest_enumerate(tree, y)[1]:
                assert differs[steps][:, [v - 1 for v in sup]].any(axis=1).all()

    @settings(max_examples=40, deadline=None)
    @given(tree=ORACLE_TREES, seed=st.integers(0, 2**31 - 1), k_max=st.integers(0, 9),
           candidates=st.sampled_from([1, 20, 2**16]))
    def test_scan_of_a_stack_matches_each_row(self, tree, seed, k_max, candidates):
        """All rows at once, also in passes of one row or of at most 20 candidates."""
        rng = np.random.default_rng(seed)
        ys = np.concatenate([oracle_observations(tree, rng) for _ in range(3)])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_CANDIDATES", candidates)
            results = _scan(SupportScanner(tree), ys, min(k_max, tree.m))
        assert len(results) == len(ys)
        for y, enum in zip(ys, results):
            expected = ref_sparsest_enumerate(tree, y)
            if expected[0] > k_max:
                expected = None, [], [], False
            assert_same_enumeration(enum, expected)

    @settings(max_examples=40, deadline=None)
    @given(
        tree=st.one_of(trees(st.integers(2, 6)), st.integers(2, 6).map(star)),
        K=st.integers(0, 3),
        seed=st.integers(0, 2**31 - 1),
        trials=st.integers(1, 12),
        exhaustive=st.booleans(),
        tied=st.booleans(),
        block=st.integers(1, 4),
    )
    def test_uniqueness_census(self, tree, K, seed, trials, exhaustive, tied, block):
        """Trials in blocks of ``block``; equal losses on every lossy link make ties."""
        K = min(K, tree.m, 2 if exhaustive else 3)
        placement = "exhaustive" if exhaustive else "random"
        loss_range = (0.05, 0.05) if tied else DEFAULT_LOSS_RANGE
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lossmodel, "BLOCK_LINKS", block * tree.n)
            got = uniqueness_census(tree, K, loss_range, trials, seed, placement)
        assert got == ref_census(tree, K, loss_range, trials, seed, placement)


# Random trees and caterpillars, plus stars: the widest single complex.
BATCH_TREES = st.one_of(trees(st.integers(2, 60) | BLOCK_SIZES), st.integers(2, 20).map(star))


class TestBatchesMatchSingleRows:
    """Each row of a (B, ·) call equals the call on that row alone, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(tree=BATCH_TREES, seed=st.integers(0, 2**31 - 1), rows=st.integers(1, 5))
    def test_interval_solver(self, tree, seed, rows):
        rng = np.random.default_rng(seed)
        lo, hi = np.array([interval_draw(rng, tree.m) for _ in range(rows)]).transpose(1, 0, 2)
        lo[0, 0], hi[-1, -1] = 0.0, np.inf  # a zero lower and an unbounded upper end
        batch = IntervalObservation(lo=lo, hi=hi)
        singles = [IntervalObservation(lo=l, hi=h) for l, h in zip(lo, hi)]
        stats = z_stats(tree, batch)
        for field in ("min_upper", "max_lower", "l0_threshold"):
            got = getattr(stats, field)
            assert got.shape == (rows, tree.n)
            for row, single in zip(got, singles):
                assert np.array_equal(row, getattr(z_stats(tree, single), field))
        for mode in MODES:
            sol = upsparse_plus(tree, batch, mode)
            assert sol.x.shape == sol.z.shape == (rows, tree.n) and sol.y.shape == (rows, tree.m)
            for r, single in enumerate(singles):
                one = upsparse_plus(tree, single, mode)
                assert np.array_equal(sol.x[r], one.x) and np.array_equal(sol.y[r], one.y)
                assert np.array_equal(sol.z[r], one.z)
                assert sol.l0()[r] == one.l0() and sol.l1()[r] == one.l1()

    @settings(max_examples=60, deadline=None)
    @given(tree=BATCH_TREES, seed=st.integers(0, 2**31 - 1), rows=st.integers(1, 5))
    def test_path_loss_probabilities(self, tree, seed, rows):
        rng = np.random.default_rng(seed)
        b = np.where(rng.random((rows, tree.n)) < 0.5, rng.uniform(0.0, 0.3, (rows, tree.n)), 0.0)
        p = path_loss_probabilities(tree, b)
        assert p.shape == (rows, tree.m)
        for row, b_row in zip(p, b):
            assert np.array_equal(row, path_loss_probabilities(tree, b_row))

    @settings(max_examples=60, deadline=None)
    @given(tree=BATCH_TREES, seed=st.integers(0, 2**31 - 1), rows=st.integers(1, 5))
    def test_root_scan(self, tree, seed, rows):
        values = np.zeros((rows, tree.n + 1))  # column ROOT: 0, the identity of both ops
        values[:, 1:] = link_draws(tree, np.random.default_rng(seed), rows)
        for op in (np.maximum, np.add):
            batch = tree.root_scan(values, op)
            assert batch.shape == (rows, tree.n + 1)
            for row, single in zip(batch, values):
                assert np.array_equal(row, tree.root_scan(single, op))


@st.composite
def tree_edges(draw):
    """(edges, root) of a random tree: mixed int and str ids, edges in shuffled order."""
    tree = draw(trees(st.integers(2, 30)))
    ident = draw(st.lists(st.booleans(), min_size=tree.n + 1, max_size=tree.n + 1))
    names = [v * 7 - 3 if as_int else f"v{v}" for v, as_int in enumerate(ident)]
    edges = [(names[v], names[tree.parent[v]]) for v in range(1, tree.n + 1)]
    return draw(st.permutations(edges)), names[ROOT]


def raised(build, edges, root):
    """(type, message) of the exception ``build`` raises, or None."""
    try:
        build(edges, root)
    except (CycleDetected, DegreeViolation, DisconnectedInput) as exc:
        return type(exc), str(exc)
    return None


class TestBuildTreeMatchesDictBuilder:
    @settings(max_examples=80, deadline=None)
    @given(case=tree_edges())
    def test_same_tree_from_any_edge_order(self, case):
        edges, root = case
        expected = ref_build_tree(edges, root)
        assert same_tree(build_tree(edges, root), expected)

    @settings(max_examples=150, deadline=None)
    @given(case=tree_edges(), fault=st.sampled_from(sorted(EDGE_FAULTS)), data=st.data())
    def test_same_error_for_each_single_fault(self, case, fault, data):
        edges, root = case
        edges = inject_edge_fault(edges, root, fault, data.draw)
        assert raised(ref_build_tree, edges, root)[0] is EDGE_FAULTS[fault]
        error = raised(build_tree, edges, root)
        assert error[0] is EDGE_FAULTS[fault]
        assert error == raised(loop_build_tree, edges, root)


def test_interval_solver_on_a_long_caterpillar():
    """20,000 leaves: exact intervals reduce both solvers to the closed form."""
    tree = caterpillar(20000)
    y = sparse_draw(np.random.default_rng(5), tree.m)
    exact = IntervalObservation.exact(y)
    assert np.array_equal(z_stats(tree, exact).l0_threshold, tree.span_min(y))
    x = closed_form(tree, y)
    for mode in MODES:
        assert np.array_equal(upsparse_plus(tree, exact, mode).x, x)


def test_interval_solver_reads_negative_zero_bounds_as_zero():
    """As in the sequential pass, no -0.0 reaches x, y or z (JSON would print it)."""
    tree = caterpillar(9)
    lo, hi = np.full(tree.m, -0.0), np.ones(tree.m)
    hi[0], lo[4] = 0.2, 0.5  # hi_1 < lo_5 keeps lo_5 off the top link, whose z stays zero
    for mode in MODES:
        sol = upsparse_plus(tree, IntervalObservation(lo=lo, hi=hi), mode)
        assert not np.signbit(np.concatenate((sol.x, sol.y, sol.z))).any()


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


FORWARD_TREES = st.one_of(trees(), st.integers(2, 30).map(star))  # caterpillar paths reach 59 links


def link_draws(tree, rng, rows):
    """(rows, n) link values over eight decades, about half of them zero, so sums round."""
    scale = 10.0 ** rng.uniform(-6.0, 2.0, (rows, tree.n))
    return rng.uniform(0.0, 1.0, (rows, tree.n)) * scale * (rng.random((rows, tree.n)) < 0.5)


class TestForwardRows:
    @settings(max_examples=80, deadline=None)
    @given(tree=FORWARD_TREES, rows=st.integers(1, 6), seed=st.integers(0, 2**31 - 1))
    def test_every_row_sums_as_a_single_call(self, tree, rows, seed):
        xs = link_draws(tree, np.random.default_rng(seed), rows)
        batch = forward(tree, xs)
        for r in range(rows):
            single = forward(tree, xs[r])
            assert np.array_equal(batch[r], single)
            assert np.array_equal(forward(tree, xs[r : r + 1])[0], single)

    @settings(max_examples=60, deadline=None)
    @given(tree=FORWARD_TREES, seed=st.integers(0, 2**31 - 1))
    def test_within_rounding_of_exact_path_sums(self, tree, seed):
        """Each path sum lies within n·eps of its exact value, relative to that value."""
        xs = link_draws(tree, np.random.default_rng(seed), 3)
        exact = np.array([
            [math.fsum(x[v - 1] for v in path_links(tree, j)) for j in range(1, tree.m + 1)]
            for x in xs
        ])
        assert np.all(np.abs(forward(tree, xs) - exact) <= tree.n * np.finfo(float).eps * exact)


# A caterpillar with m leaves has height m; heights of 2**k and 2**k + 1 take k and k + 1 rounds.
SCAN_TREES = st.one_of(
    trees(), st.integers(2, 20).map(star),
    st.sampled_from([2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65]).map(caterpillar),
)


class TestRootScan:
    @settings(max_examples=80, deadline=None)
    @given(tree=SCAN_TREES, seed=st.integers(0, 2**31 - 1))
    def test_matches_each_root_path(self, tree, seed):
        """Max exactly, sums within (links on the path)·eps of the exact sum, at every node."""
        values = np.zeros(tree.n + 1)  # column ROOT: 0, the identity of both ops
        values[1:] = link_draws(tree, np.random.default_rng(seed), 1)[0]
        top, total = tree.root_scan(values, np.maximum), tree.root_scan(values, np.add)
        assert top[ROOT] == total[ROOT] == 0.0
        for v in range(1, tree.n + 1):
            path = values[path_links(tree, v)]
            exact = math.fsum(path)
            assert top[v] == path.max()
            assert abs(total[v] - exact) <= len(path) * np.finfo(float).eps * exact


EXPERIMENT_TREES = {
    "ternary13": lambda: gen_ternary_tree(13),
    "random9": lambda: gen_random_tree(9, 4, 3),
    "random14": lambda: gen_random_tree(14, 3, 11),
    "caterpillar9": lambda: caterpillar(9),
    "caterpillar40": lambda: load_topology(CATERPILLAR),
}
EXPERIMENT_MODES = [(POINT_MODE, "t-ci")] + [
    (mode, interval_mode) for mode in MODES for interval_mode in ("t-ci", "cover")
]


@pytest.mark.parametrize("reps", [1, 2, 7])
@pytest.mark.parametrize("mode, interval_mode", EXPERIMENT_MODES,
                         ids=[f"{m}-{i}" for m, i in EXPERIMENT_MODES])
@pytest.mark.parametrize("tree_name", sorted(EXPERIMENT_TREES))
def test_experiment_rows_match_the_per_repetition_scorer(tree_name, mode, interval_mode, reps):
    tree = EXPERIMENT_TREES[tree_name]()
    probes = [1, 100, 1000, None] if mode == POINT_MODE else [100, 1000, None]
    cfg = ExperimentConfig(
        tree=tree_name, k_values=[1, 3], probe_counts=probes, reps=reps, mode=mode,
        interval_mode=interval_mode, seed=5,
    )
    assert run_experiment(cfg, tree) == ref_experiment_rows(tree, cfg)


@pytest.mark.parametrize("mode, interval_mode", EXPERIMENT_MODES,
                         ids=[f"{m}-{i}" for m, i in EXPERIMENT_MODES])
def test_blocks_of_repetitions_keep_the_rows(monkeypatch, mode, interval_mode):
    """Cells cut into blocks of 1, 2 or 3 repetitions give the same rows."""
    tree = gen_ternary_tree(13)
    cfg = ExperimentConfig(tree="ternary:13", k_values=[2], probe_counts=[100, None], reps=7,
                           mode=mode, interval_mode=interval_mode, seed=5)
    for block in (1, 2, 3):
        monkeypatch.setattr(lossmodel, "BLOCK_LINKS", block * tree.n + tree.n - 1)
        assert run_experiment(cfg, tree) == ref_experiment_rows(tree, cfg)


def count_calls(monkeypatch, names, module=simulation) -> dict:
    """Call counts of the ``module`` functions ``names``, as the module's own code calls them."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name))
    return calls


def test_solve_from_the_receiver_start_runs_no_moves(monkeypatch, capsys):
    """``solve`` takes the closed form; only a given start runs the up-moves."""
    calls = count_calls(monkeypatch, ["_pull_up", "closed_form"], noiseless)
    obs = DATA / "report_caterpillar40.obs.json"
    assert main(["solve", "--tree", CATERPILLAR, "--obs", str(obs)]) == 0
    golden = DATA / "report_solve_caterpillar40.json"
    assert capsys.readouterr().out.encode() == golden.read_bytes()
    assert calls == {"_pull_up": 0, "closed_form": 1}
    tree, y = load_topology(CATERPILLAR), load_observations(obs)
    upsparse(tree, y, x0=receiver_solution(tree, y))
    assert calls == {"_pull_up": 1, "closed_form": 1}


@pytest.mark.parametrize("mode, solves, intervals", [(POINT_MODE, 6, 0), (MIN_L1_AMONG_L0, 0, 3)])
def test_experiment_solves_and_scores_once_per_cell(monkeypatch, mode, solves, intervals):
    """Six (K, N) cells of six repetitions: one batched call each, not one per row."""
    calls = count_calls(monkeypatch, ["closed_form", "metrics", "confidence_intervals"])
    cfg = ExperimentConfig(tree="ternary:13", k_values=[1, 2, 3], probe_counts=[100, None],
                           reps=6, mode=mode)
    assert len(run_experiment(cfg)) == 6
    # N = inf takes exact intervals, so only the three N = 100 cells build t intervals
    assert calls == {"closed_form": solves, "metrics": 6, "confidence_intervals": intervals}


@pytest.mark.parametrize("interval_mode, probe_runs, probability_passes",
                         [("t-ci", 6, 6), ("cover", 0, 12)])
def test_interval_experiment_solves_once_per_cell_block(
    monkeypatch, interval_mode, probe_runs, probability_passes
):
    """Four (K, N) cells of seven repetitions in blocks of 3, 3 and 1: one call per block.

    Only the N = 100 cells probe; cover intervals take the path probabilities directly.
    """
    tree = gen_ternary_tree(13)
    cfg = ExperimentConfig(tree="ternary:13", k_values=[1, 2], probe_counts=[100, None], reps=7,
                           mode=MIN_L1_AMONG_L0, interval_mode=interval_mode)
    expected = ref_experiment_rows(tree, cfg)
    monkeypatch.setattr(lossmodel, "BLOCK_LINKS", 3 * tree.n)
    calls = count_calls(monkeypatch, ["upsparse_plus", "simulate_probes", "path_loss_probabilities"])
    assert run_experiment(cfg, tree) == expected
    assert calls == {"upsparse_plus": 12, "simulate_probes": probe_runs,
                     "path_loss_probabilities": probability_passes}


@pytest.mark.parametrize("mode, interval_mode, observations",
                         [(POINT_MODE, "t-ci", 6), (MIN_L1_AMONG_L0, "t-ci", 6),
                          (MIN_L1_AMONG_L0, "cover", 0)])
def test_exact_observations_once_per_cell_block(monkeypatch, mode, interval_mode, observations):
    """Two N = inf cells of seven repetitions in blocks of 3, 3 and 1: one ``forward`` each.

    Cover intervals come from the path probabilities and observe nothing.
    """
    tree = gen_ternary_tree(13)
    cfg = ExperimentConfig(tree="ternary:13", k_values=[1, 2], probe_counts=[100, None], reps=7,
                           mode=mode, interval_mode=interval_mode)
    expected = ref_experiment_rows(tree, cfg)
    monkeypatch.setattr(lossmodel, "BLOCK_LINKS", 3 * tree.n)
    calls = count_calls(monkeypatch, ["forward"])
    assert run_experiment(cfg, tree) == expected
    assert calls == {"forward": observations}


def test_experiment_plants_one_block_at_a_time(monkeypatch):
    """Seven repetitions in blocks of 3, 3 and 1: each block is planted once for all counts.

    The repeated probe count keeps its own row.
    """
    tree = gen_ternary_tree(13)
    cfg = ExperimentConfig(tree="ternary:13", k_values=[1, 2], probe_counts=[100, None, 100],
                           reps=7, seed=5)
    expected = ref_experiment_rows(tree, cfg)
    monkeypatch.setattr(lossmodel, "BLOCK_LINKS", 3 * tree.n)
    planted = []
    original = lossmodel.plant_hotspots

    def plant(tree, K, loss_range, seed, key, sup=None):
        planted.append(len(key))
        return original(tree, K, loss_range, seed, key, sup)

    monkeypatch.setattr(lossmodel, "plant_hotspots", plant)
    assert run_experiment(cfg, tree) == expected
    assert planted == [3, 3, 1, 3, 3, 1]


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
