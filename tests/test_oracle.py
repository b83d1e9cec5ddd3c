"""Brute-force enumeration, census, sampling and exact interval checks, null constructions."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losstree import (
    IntervalObservation,
    MIN_L0,
    MIN_L1,
    MIN_L1_AMONG_L0,
    binarize,
    build_tree,
    closed_form,
    forward,
    gen_random_tree,
    gen_regular_tree,
    l1_sampling_check,
    lemma1_construct,
    noisy_exact_check,
    receiver_solution,
    save_observations,
    sparsest_enumerate,
    uniqueness_census,
    unique_sparsest,
    upsparse,
    upsparse_plus,
    z_stats,
)
from losstree import cli
from losstree.cli import main
from losstree.errors import (
    InstanceTooLarge,
    KTooSmall,
    NotBranchNode,
    OutOfDomain,
    ParameterOutOfRange,
)
from losstree import lossmodel, oracle
from losstree.lossmodel import DEFAULT_TOL
from losstree.noisy import NoisySolution
from losstree.oracle import SupportScanner, _interval_optimum
from losstree.topology import ROOT, tree_from_spec

from conftest import caterpillar, random_small_trees, random_sparse_x, star

INF = math.inf


def brute_force_k_star(tree, y, tol=1e-7):
    """Reference scan: plain loops and lstsq, no shared machinery."""
    a = forward(tree, np.eye(tree.n)).T
    y = np.asarray(y, dtype=float)
    for k in range(tree.m + 1):
        for sup in itertools.combinations(range(tree.n), k):
            if k == 0:
                if np.abs(y).max(initial=0.0) <= tol:
                    return 0
                continue
            cols = a[:, list(sup)]
            x, *_ = np.linalg.lstsq(cols, y, rcond=None)
            if x.min() >= -tol and np.abs(cols @ x - y).max() <= tol:
                return k
    return None


def ref_min_lossy_links(tree, lo, hi):
    """Fewest lossy links with lo <= A x <= hi and x >= 0, by a plain DP.

    Some optimum takes every node's path loss from S = {0} and the lower
    bounds: lowering each group of nodes joined by lossless links, top down,
    to the larger of its father's value and its largest lower bound keeps
    every bound and adds no lossy link.  f(v)[i] is the fewest lossy links at
    and under v when v's father has path loss S[i]: a leaf costs 1 below its
    interval, 0 in it and infinity above it; an internal node either keeps
    its father's value (g, the sum over its children) or takes a larger one
    at the cost of one lossy link.
    """
    s = np.unique(np.concatenate(([0.0], lo)))

    def f(v):
        if not tree.is_internal(v):
            return np.where(s > hi[v - 1], INF, (s < lo[v - 1]).astype(float))
        g = sum(f(c) for c in tree.children[v])
        larger = np.append(np.minimum.accumulate(g[::-1])[::-1][1:], INF)  # min over S[i'] > S[i]
        return np.minimum(g, 1 + larger)

    return int(sum(f(c) for c in tree.children[ROOT])[0])


# Bounds on a coarse grid, so that sibling paths often share values and
# sparser answers need exactly those ties.
BOUND_GRID = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]


def grid_intervals(rng, m):
    """Intervals with both ends on BOUND_GRID; about one upper end in five is infinite."""
    ends = np.sort(rng.choice(BOUND_GRID, (m, 2)), axis=1)
    return IntervalObservation(lo=ends[:, 0], hi=np.where(rng.random(m) < 0.2, INF, ends[:, 1]))


@st.composite
def interval_instances(draw):
    m = draw(st.integers(2, 9))
    shape = draw(st.sampled_from(["random", "caterpillar", "star"]))
    if shape == "random":
        tree = gen_random_tree(m, draw(st.integers(2, 4)), draw(st.integers(0, 2**31 - 1)))
    else:
        tree = caterpillar(m) if shape == "caterpillar" else star(m)
    return tree, grid_intervals(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), tree.m)


@st.composite
def interval_batches(draw):
    """(tree, intervals): 1-5 rows of grid intervals, (B, m), on one tree of ``interval_instances``."""
    tree, first = draw(interval_instances())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = [first] + [grid_intervals(rng, tree.m) for _ in range(draw(st.integers(0, 4)))]
    return tree, IntervalObservation(lo=[r.lo for r in rows], hi=[r.hi for r in rows])


def sequential_bump(tree, iv):
    """min-l1-among-l0's path losses z by one top-down loop over the nodes.

    A node whose threshold exceeds its father's z takes min_upper when its
    subtree cannot realize max_lower, else the threshold; other nodes keep
    the father's z.
    """
    stats = z_stats(tree, iv)
    z = np.zeros(tree.n + 1)
    for v in [*tree.internal, *tree.leaves]:  # internal labels in preorder, then the leaves
        z_father, thr = z[tree.parent[v]], stats.l0_threshold[v - 1]
        if thr <= z_father:
            z[v] = z_father
        else:
            bump = stats.min_upper[v - 1] < stats.max_lower[v - 1]
            z[v] = stats.min_upper[v - 1] if bump else thr
    return z[1:]


@st.composite
def planted_batches(draw):
    """(tree, ys, kinds, k_max): T = 1-6 rows on a random tree, caterpillar or star.

    A row is all zero (k* = 0), a sparse planted one, or a tied one: lemma 1's
    pattern at a branch node, which has more than one sparsest solution.
    """
    m = draw(st.integers(2, 7))
    shape = draw(st.sampled_from(["random", "caterpillar", "star"]))
    if shape == "random":
        tree = gen_random_tree(m, draw(st.integers(2, 4)), draw(st.integers(0, 2**31 - 1)))
    else:
        tree = caterpillar(m) if shape == "caterpillar" else star(m)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["zero", "sparse", "tied"]), min_size=1, max_size=6))
    rows = []
    for kind in kinds:
        if kind == "zero":
            x = np.zeros(tree.n)
        elif kind == "sparse":
            x = random_sparse_x(tree, rng, k=int(rng.integers(1, 4)))
        else:
            i = int(rng.choice(tree.internal))
            x = lemma1_construct(tree, i, len(tree.children[i]), rng.uniform(0.01, 0.2))[0]
        rows.append(forward(tree, x))
    return tree, np.array(rows), kinds, draw(st.integers(0, 4))


@st.composite
def theorem_instances(draw):
    """(tree, ys): a random tree, caterpillar or star of at most 20 links and 1-6 planted rows.

    A row plants a support of any size 0..n with losses in [0.01, 0.2], or
    is lemma 1's u at a branch node (A u = A v in units of the weight), with
    weight in [0.01, 0.2] and a K from the node's fan-out up to every link.
    """
    shape = draw(st.sampled_from(["random", "caterpillar", "star"]))
    if shape == "random":  # at most 2m - 1 links
        tree = gen_random_tree(draw(st.integers(2, 10)), draw(st.integers(2, 4)),
                               draw(st.integers(0, 2**31 - 1)))
    elif shape == "caterpillar":
        tree = caterpillar(draw(st.integers(2, 10)))
    else:
        tree = star(draw(st.integers(2, 19)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            x = random_sparse_x(tree, rng, k=draw(st.integers(0, tree.n)))
        else:
            i = draw(st.sampled_from(tree.internal))
            fan = len(tree.children[i])
            x = lemma1_construct(tree, i, draw(st.integers(fan, tree.n)), rng.uniform(0.01, 0.2))[0]
        rows.append(forward(tree, x))
    return tree, np.array(rows)


class TestTheoremAgainstScan:
    @settings(max_examples=100, deadline=None)
    @given(theorem_instances())
    def test_unique_sparsest_matches_the_scan(self, instance):
        """The O(n) uniqueness condition on the closed form agrees with the exhaustive scan."""
        tree, ys = instance
        for y, enum in zip(ys, sparsest_enumerate(tree, ys)):
            assert unique_sparsest(tree, closed_form(tree, y)) == enum.unique


class TestSparsestEnumerate:
    def test_three_leaf_instance(self, fig_tree):
        enum = sparsest_enumerate(fig_tree, [2.0, 3.0, 4.0])
        assert enum.k_star == 3
        found = [np.allclose(s, [0, 1, 2, 2, 0]) for s in enum.solutions]
        assert any(found)
        # The down move at the upper node gives equal-sparsity alternatives
        # (receiver solution among them), so this instance is not unique.
        assert len(enum.solutions) == 3
        assert not enum.unique

    @pytest.mark.parametrize("y1, supports", [
        (5e-10, [(2,)]), (5e-7, [(1, 2), (2, 3)]), (5e-6, [(1, 2), (2, 3)])
    ])
    def test_close_solutions_of_two_supports_stay_apart(self, y1, supports):
        """Each feasible support at k* gives its own solution, however close two of them are."""
        tree = build_tree([(3, 0), (1, 3), (2, 3)], root=0)
        enum = sparsest_enumerate(tree, [y1, 0.05])
        assert (enum.k_star, enum.supports, enum.unique) == (len(supports[0]), supports, y1 < 1e-9)
        expected = [[0.0, 0.05, 0.0]] if y1 < 1e-9 else [[y1, 0.05, 0.0], [0.0, 0.05 - y1, y1]]
        assert np.abs(np.array(enum.solutions) - expected).max() <= 1e-15

    def test_verify_accepts_two_close_sparsest_solutions(self, tmp_path, capsys):
        tree_path, obs = tmp_path / "band.tree", tmp_path / "band.obs.json"
        tree_path.write_text("root 0\n3 0\n1 3\n2 3\n")
        save_observations([5e-7, 0.05], obs)
        assert main(["verify", "--tree", str(tree_path), "--obs", str(obs)]) == 0
        assert "oracle_k=2 unique=False l1_minimal=True [ok]" in capsys.readouterr().out

    def test_zero_observations(self, fig_tree):
        enum = sparsest_enumerate(fig_tree, np.zeros(3))
        assert enum.k_star == 0
        assert enum.unique
        assert np.array_equal(enum.solutions[0], np.zeros(5))

    def test_uniform_observations_unique_top_link(self):
        tree = gen_regular_tree(2, 3)
        enum = sparsest_enumerate(tree, np.full(tree.m, 0.5))
        assert enum.k_star == 1
        assert enum.unique
        top = next(v for v in range(1, tree.n + 1) if tree.parent[v] == 0)
        assert enum.supports[0] == (top,)

    def test_solutions_are_feasible_and_sparsest(self):
        rng = np.random.default_rng(0)
        for tree in random_small_trees(10, seed=1):
            y = forward(tree, random_sparse_x(tree, rng, k=2))
            enum = sparsest_enumerate(tree, y)
            for x in enum.solutions:
                assert x.min() >= 0
                assert np.abs(forward(tree, x) - y).max() < 1e-6
                assert (x > 1e-7).sum() <= enum.k_star

    def test_matches_plain_loop_reference(self):
        rng = np.random.default_rng(2)
        for tree in random_small_trees(8, seed=3, m_range=(2, 5)):
            for _ in range(3):
                y = forward(tree, random_sparse_x(tree, rng, k=2))
                enum = sparsest_enumerate(tree, y)
                assert enum.k_star == brute_force_k_star(tree, y)

    def test_agrees_with_solver_l0(self):
        rng = np.random.default_rng(4)
        for tree in random_small_trees(20, seed=5):
            y = forward(tree, random_sparse_x(tree, rng))
            enum = sparsest_enumerate(tree, y)
            report = upsparse(tree, y)
            assert enum.k_star == report.l0
            if enum.unique:
                assert np.abs(enum.solutions[0] - report.x).max() < 1e-9

    def test_uniqueness_flag_matches_diagnostic(self):
        rng = np.random.default_rng(6)
        for tree in random_small_trees(20, seed=7):
            y = forward(tree, random_sparse_x(tree, rng, k=2))
            enum = sparsest_enumerate(tree, y)
            assert enum.unique == unique_sparsest(tree, closed_form(tree, y))

    def test_size_limit(self):
        tree = gen_regular_tree(3, 4)  # 40 links
        with pytest.raises(InstanceTooLarge):
            sparsest_enumerate(tree, np.zeros(tree.m))
        scanner = SupportScanner(tree)
        with pytest.raises(InstanceTooLarge):
            sparsest_enumerate(tree, np.zeros(tree.m), scanner=scanner)
        assert "dense" not in vars(scanner)  # rejected before any matrix is built

    def test_supports_at_k_star_have_full_rank(self):
        # Degenerate losses (integers in {0, 1, 2}, or 0.5 on every lossy link) give ties
        # and many sparsest solutions, yet every support reported at k* has independent
        # columns: a dependent one would leave a smaller feasible support.
        rng = np.random.default_rng(8)
        trees = [t for t in random_small_trees(60, seed=9, m_range=(2, 8)) if t.n <= 14]
        non_unique = 0
        for tree in trees:
            dense = forward(tree, np.eye(tree.n)).T
            scanner = SupportScanner(tree)
            for x in (rng.integers(0, 3, tree.n), 0.5 * (rng.random(tree.n) < 0.5)):
                enum = sparsest_enumerate(tree, forward(tree, x), scanner=scanner)
                non_unique += not enum.unique
                for sup in enum.supports:
                    cols = dense[:, [v - 1 for v in sup]]
                    assert np.linalg.matrix_rank(cols) == enum.k_star == len(sup)
        assert len(trees) >= 30 and non_unique >= 20

    @pytest.mark.parametrize("y", [[2.0, 3.0], [2.0, 3.0, 4.0, 5.0], [2.0, math.nan, 4.0],
                                   [2.0, 3.0, INF], [[[2.0, 3.0, 4.0]]]])
    def test_bad_observations_rejected(self, fig_tree, y):
        with pytest.raises(OutOfDomain):
            sparsest_enumerate(fig_tree, y)

    @pytest.mark.parametrize("k_max", [-1, 2.5, True, "2"])
    def test_bad_k_max_rejected(self, fig_tree, k_max):
        with pytest.raises(ParameterOutOfRange):
            sparsest_enumerate(fig_tree, [2.0, 3.0, 4.0], k_max=k_max)

    def test_k_max_below_k_star_finds_nothing(self, fig_tree):
        enum = sparsest_enumerate(fig_tree, [2.0, 3.0, 4.0], k_max=np.int64(2))
        assert (enum.k_star, enum.supports, enum.unique) == (None, [], False)

    @given(batch=planted_batches())
    @settings(max_examples=100, deadline=None)
    def test_batch_rows_match_single_calls(self, batch):
        """Row r of a (T, m) call is the (m,) call on y[r]; k_max bounds every row."""
        tree, ys, kinds, k_max = batch
        scanner = SupportScanner(tree)
        unbounded = sparsest_enumerate(tree, ys, scanner=scanner)
        assert isinstance(unbounded, list) and len(unbounded) == len(ys)
        for kind, res in zip(kinds, unbounded):
            if kind == "zero":
                assert res.k_star == 0 and res.unique
            elif kind == "tied":
                assert not res.unique
        for bound in (None, k_max):
            results = sparsest_enumerate(tree, ys, k_max=bound, scanner=scanner)
            for y, full, res in zip(ys, unbounded, results):
                single = sparsest_enumerate(tree, y, k_max=bound)
                assert (res.k_star, res.supports, res.unique) == (
                    single.k_star, single.supports, single.unique
                )
                assert len(res.solutions) == len(single.solutions)
                for x, x_single in zip(res.solutions, single.solutions):
                    assert np.abs(x - x_single).max() <= 1e-12
                if bound is not None and bound < full.k_star:
                    assert (res.k_star, res.supports, res.unique) == (None, [], False)
                else:
                    assert (res.k_star, res.supports) == (full.k_star, full.supports)
        nan = ys.copy()
        nan[-1, 0] = np.nan
        for bad in (ys[:, :-1], np.pad(ys, ((0, 0), (0, 1))), ys[None], nan):
            with pytest.raises(OutOfDomain):
                sparsest_enumerate(tree, bad, scanner=scanner)


class TestUniquenessCensus:
    def test_one_hotspot_always_unique(self):
        res = uniqueness_census(gen_regular_tree(3, 3), K=1, trials=60, seed=0)
        assert res.p_unique == 1.0
        assert res.p_l1_recovers_true == 1.0

    def test_two_hotspots_always_unique_on_ternary(self):
        res = uniqueness_census(gen_regular_tree(3, 3), K=2, trials=60, seed=1)
        assert res.p_unique == 1.0

    def test_reproducible(self):
        tree = gen_regular_tree(3, 3)
        a = uniqueness_census(tree, K=3, trials=40, seed=9)
        b = uniqueness_census(tree, K=3, trials=40, seed=9)
        assert a == b

    def test_exhaustive_placement(self):
        tree = gen_regular_tree(2, 2)  # 3 links
        res = uniqueness_census(tree, K=1, placement="exhaustive", seed=2)
        assert res.trials == 3
        assert res.p_unique == 1.0

    @pytest.mark.parametrize("kwargs", [
        dict(trials=0), dict(trials=2.5), dict(K=-1), dict(K=5), dict(K=1.5), dict(K=True),
        dict(loss_range=(0.0, 0.1)), dict(placement="grid"), dict(seed=-1), dict(seed=1.5),
        dict(seed=np.random.SeedSequence(0)), dict(loss_range=(0.1,)),
    ])
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ParameterOutOfRange):
            uniqueness_census(gen_regular_tree(2, 3), **{"K": 1, **kwargs})

    def test_shared_scanner_gives_the_same_census(self):
        tree = gen_regular_tree(3, 3)
        scanner = SupportScanner(tree)
        for k in (3, 1, 2):
            shared = uniqueness_census(tree, K=k, trials=30, seed=4, scanner=scanner)
            assert shared == uniqueness_census(tree, K=k, trials=30, seed=4)

    def test_scanner_of_another_tree_rejected(self):
        tree = gen_regular_tree(3, 3)
        with pytest.raises(ParameterOutOfRange):
            uniqueness_census(tree, K=1, trials=5, scanner=SupportScanner(gen_regular_tree(3, 3)))

    def test_size_limit_checked_before_planting(self, monkeypatch):
        monkeypatch.setattr(lossmodel, "plant_hotspots", None)  # planting would raise TypeError
        with pytest.raises(InstanceTooLarge):
            uniqueness_census(gen_regular_tree(3, 4), K=1, trials=5)
        tree = gen_regular_tree(3, 3)
        with pytest.raises(ParameterOutOfRange):
            uniqueness_census(tree, K=1, trials=5, scanner=SupportScanner(gen_regular_tree(3, 3)))

    @pytest.mark.parametrize("K", [5, 8], ids=["extended level", "complement level"])
    def test_exhaustive_sweep_over_the_limit_builds_no_level(self, monkeypatch, K):
        """The scanner refuses the sweep's level by its size before building any level."""
        tree = tree_from_spec("random:8:3:0")  # 14 links
        monkeypatch.setattr(oracle, "_SCAN_LIMIT", math.comb(tree.n, 4))
        scanner = SupportScanner(tree)
        message = f"{math.comb(tree.n, K)} supports of size {K} on {tree.n} links"
        with pytest.raises(InstanceTooLarge, match=message):
            uniqueness_census(tree, K=K, placement="exhaustive", scanner=scanner)
        assert scanner._levels == {}

    @pytest.mark.parametrize("block, calls", [(None, 1), (3, 10)])
    def test_one_batched_call_per_block(self, monkeypatch, block, calls):
        """30 trials plant, observe, scan and solve in one block, or in ten of three trials."""
        tree = gen_regular_tree(3, 3)
        expected = uniqueness_census(tree, K=2, trials=30, seed=6)
        counts = dict.fromkeys(
            ["plant_hotspots", "addloss", "forward", "_feasible_counts", "closed_form"], 0
        )

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in counts:  # planting happens in lossmodel's block loop, the rest in oracle
            module = lossmodel if name == "plant_hotspots" else oracle
            monkeypatch.setattr(module, name, counted(module, name))
        if block is not None:
            monkeypatch.setattr(lossmodel, "BLOCK_LINKS", block * tree.n)
        assert uniqueness_census(tree, K=2, trials=30, seed=6) == expected
        assert counts == dict.fromkeys(counts, calls)

    def test_recovery_needs_a_lossless_child(self):
        # On the two-leaf tree, two hotspots are never uniquely sparsest
        # (one lossless link at the fork), yet placements touching the top
        # link stay in up state and are still recovered.
        tree = gen_regular_tree(2, 2)
        res = uniqueness_census(tree, K=2, trials=90, seed=3)
        assert res.p_unique == 0.0
        assert 0.4 < res.p_l1_recovers_true < 0.9


class TestSupportScanner:
    @pytest.mark.parametrize("k", [-1, 1.5, True, False, np.float64(2), "2", None])
    def test_size_must_be_a_whole_number(self, k):
        with pytest.raises(ParameterOutOfRange, match="support size must be a whole number >= 0"):
            SupportScanner(tree_from_spec("random:8:3:0")).level(k)

    @pytest.mark.parametrize("ys", [
        np.zeros(15), np.zeros((1, 16)), np.zeros((1, 14)), np.zeros((2, 3, 15)),
        np.full((1, 15), math.nan), np.full((1, 15), INF), [["a"] * 15],
    ], ids=["1-D", "long row", "short row", "3-D", "nan", "inf", "word"])
    def test_bad_observations_rejected(self, ys):
        scanner = SupportScanner(gen_random_tree(15, 3, 1))
        with pytest.raises(OutOfDomain):
            scanner.feasible_at(ys, 1)

    def test_levels_over_the_limit_are_never_built(self, monkeypatch):
        """With 1001 supports allowed on 14 links, levels 5-9 are refused, and none is built."""
        tree = tree_from_spec("random:8:3:0")
        monkeypatch.setattr(oracle, "_SCAN_LIMIT", math.comb(tree.n, 4))
        scanner = SupportScanner(tree)
        for k in range(5):
            assert len(scanner.level(k)[0]) == math.comb(tree.n, k)
        with pytest.raises(InstanceTooLarge, match="2002 supports of size 5"):
            scanner.level(5)
        for k in (tree.n, 11, 10):  # complements of levels 0, 3 and 4
            assert len(scanner.level(k)[0]) == math.comb(tree.n, k)
        with pytest.raises(InstanceTooLarge, match="2002 supports of size 9"):
            scanner.level(9)
        assert sorted(scanner._levels) == [0, 1, 2, 3, 4, 10, 11, tree.n]
        fresh = SupportScanner(tree)
        assert len(fresh.level(10)[0]) == math.comb(tree.n, 10)
        assert sorted(fresh._levels) == [0, 1, 2, 3, 4, 10]


class TestL1SamplingCheck:
    def test_solver_output_passes(self, fig_tree):
        y = np.array([2.0, 3.0, 4.0])
        assert l1_sampling_check(fig_tree, y, upsparse(fig_tree, y).x, samples=300)

    def test_receiver_solution_fails_under_shared_loss(self, fig_tree):
        y = np.array([2.0, 3.0, 4.0])
        assert not l1_sampling_check(
            fig_tree, y, receiver_solution(fig_tree, y), samples=300
        )

    def test_zero_instance_trivially_passes(self, fig_tree):
        y = np.zeros(3)
        assert l1_sampling_check(fig_tree, y, np.zeros(5), samples=50)

    @pytest.mark.parametrize("x_star", [[0, 1, 2, 2], [0, 1, 2, 2, 0, 0], [0, 1, 2, math.nan, 0],
                                        [0, 1, 2, 2, -INF], "01220"])
    def test_bad_solution_rejected(self, fig_tree, x_star):
        with pytest.raises(OutOfDomain):
            l1_sampling_check(fig_tree, [2.0, 3.0, 4.0], x_star)

    @pytest.mark.parametrize("y", [[2.0, 3.0], [2.0, math.nan, 4.0]])
    def test_bad_observations_rejected(self, fig_tree, y):
        with pytest.raises(OutOfDomain):
            l1_sampling_check(fig_tree, y, [0, 1, 2, 2, 0])

    @pytest.mark.parametrize("samples", [0, -5, 2.5, np.float64(3), True])
    def test_needs_a_sample(self, fig_tree, samples):
        with pytest.raises(ParameterOutOfRange):
            l1_sampling_check(fig_tree, [2.0, 3.0, 4.0], [0, 1, 2, 2, 0], samples=samples)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_seed_must_be_a_whole_number(self, fig_tree, seed):
        with pytest.raises(ParameterOutOfRange, match="seed must be a whole number"):
            l1_sampling_check(fig_tree, [2.0, 3.0, 4.0], [0, 1, 2, 2, 0], seed=seed)

    @pytest.mark.parametrize("seed", [0, [0], [0, 1, 2], (0,), iter([0, 1])])
    def test_one_seed_per_row(self, fig_tree, seed):
        with pytest.raises(ParameterOutOfRange, match="need one seed for each of the 2 rows of y"):
            l1_sampling_check(fig_tree, [[2.0, 3.0, 4.0]] * 2, [[0, 1, 2, 2, 0]] * 2, seed=seed)

    @pytest.mark.parametrize("seed", [[0, -1], [0, 1.5]])
    def test_every_seed_must_be_a_whole_number(self, fig_tree, seed):
        with pytest.raises(ParameterOutOfRange, match="seed must be a whole number"):
            l1_sampling_check(fig_tree, [[2.0, 3.0, 4.0]] * 2, [[0, 1, 2, 2, 0]] * 2, seed=seed)

    @pytest.mark.parametrize("x_star", [[0, 1, 2, 2, 0], [[0, 1, 2, 2, 0]] * 3],
                             ids=["one row", "three rows"])
    def test_one_solution_per_row(self, fig_tree, x_star):
        with pytest.raises(OutOfDomain, match="one x_star row per row of y"):
            l1_sampling_check(fig_tree, [[2.0, 3.0, 4.0]] * 2, x_star, seed=[0, 1])

    def test_each_row_draws_from_its_own_seed(self, fig_tree):
        """Against one drawn solution, one sample beats it for some seeds and not for others."""
        y = np.array([2.0, 3.0, 4.0])
        x_star = lossmodel.sample_feasible(fig_tree, y, np.random.default_rng(0))
        singles = [l1_sampling_check(fig_tree, y, x_star, samples=1, seed=s) for s in range(20)]
        assert True in singles and False in singles
        batch = l1_sampling_check(fig_tree, [y] * 20, [x_star] * 20, samples=1, seed=list(range(20)))
        assert batch.tolist() == singles

    def test_batch_verdicts(self, fig_tree):
        y = [[2.0, 3.0, 4.0]] * 2
        x = [upsparse(fig_tree, y[0]).x, receiver_solution(fig_tree, y[0])]
        verdicts = l1_sampling_check(fig_tree, y, x, samples=300, seed=[0, 1])
        assert verdicts.dtype == bool and verdicts.tolist() == [True, False]
        assert l1_sampling_check(fig_tree, np.zeros((0, 3)), np.zeros((0, 5)), seed=[]).shape == (0,)


@pytest.mark.parametrize("argv", [
    ["verify", "--tree", "random:8:3:0", "--trials", "10"],
    ["census", "--tree", "ternary:13", "--K", "1-3", "--trials", "20"],
])
def test_each_support_size_inverted_once_per_command(argv, monkeypatch, capsys):
    """One scanner serves the whole command, so each size level is listed once;
    the rank test runs only on candidates that pass the cover and step prunes."""
    listed, ranked, solved, pinv_calls = [], [], [], []
    det, solve = np.linalg.det, SupportScanner._solved
    constructors = {name: getattr(SupportScanner, name) for name in ("_extension", "_complement")}

    def listing(name):
        def build(self, k, count):
            listed.append(k)
            return constructors[name](self, k, count)
        return build

    def counting_det(a):
        ranked.append(len(a))
        return det(a)

    def pruned_solve(self, y, sup):
        # each candidate covers exactly its row's lossy paths and steps wherever the row does
        cover = np.bitwise_or.reduce(self.link_masks[sup], axis=1)
        assert np.array_equal(cover, (y > DEFAULT_TOL) @ self.path_bits)
        steps = np.bitwise_or.reduce(self.step_masks[sup], axis=1)
        ysteps = (np.abs(np.diff(y, axis=1)) > 4 * DEFAULT_TOL) @ self.path_bits[:-1]
        assert np.array_equal(steps & ysteps, ysteps)
        solved.append(len(sup))
        return solve(self, y, sup)

    for name in constructors:
        monkeypatch.setattr(SupportScanner, name, listing(name))
    monkeypatch.setattr(np.linalg, "det", counting_det)
    monkeypatch.setattr(SupportScanner, "_solved", pruned_solve)
    monkeypatch.setattr(np.linalg, "pinv", lambda *args, **kwargs: pinv_calls.append(args))
    assert main(argv) == 0
    capsys.readouterr()
    assert listed and ranked and not pinv_calls
    assert len(listed) == len(set(listed)), sorted(listed)
    assert ranked == solved


@pytest.mark.parametrize("obs", [False, True], ids=["random instances", "--obs"])
def test_verify_scans_all_instances_in_one_call(obs, tmp_path, monkeypatch, capsys):
    """verify calls the oracle once for all its instances, so each size level is solved once."""
    argv = ["verify", "--tree", "random:8:3:0", "--trials", "10"]
    if obs:
        tree = tree_from_spec("random:8:3:0")
        save_observations(forward(tree, np.linspace(0.0, 0.1, tree.n)), tmp_path / "y.json")
        argv += ["--obs", str(tmp_path / "y.json")]
    enumerated, levels = [], []
    enumerate_, feasible_at = cli.sparsest_enumerate, SupportScanner.feasible_at

    def counting_enumerate(tree, y, *args, **kwargs):
        enumerated.append(np.shape(y))
        return enumerate_(tree, y, *args, **kwargs)

    def counting_feasible_at(self, ys, k):
        levels.append(k)
        return feasible_at(self, ys, k)

    monkeypatch.setattr(cli, "sparsest_enumerate", counting_enumerate)
    monkeypatch.setattr(SupportScanner, "feasible_at", counting_feasible_at)
    assert main(argv) == 0
    assert capsys.readouterr().out.count("[ok]") == (1 if obs else 10)
    assert enumerated == [(1, 8) if obs else (10, 8)]
    assert levels == list(range(len(levels))), levels


@pytest.mark.parametrize("tree", [
    tree_from_spec("random:8:3:0"), tree_from_spec("regular:2:4"), caterpillar(7)
], ids=["random:8:3:0", "regular:2:4", "caterpillar(7)"])
def test_gram_determinant_is_an_exact_rank_test(tree):
    """A_S has consecutive ones in each column, so det(A_SᵀA_S) counts its nonsingular minors."""
    dense = forward(tree, np.eye(tree.n)).T
    scanner = SupportScanner(tree)
    assert np.array_equal(scanner.dense, dense)  # built from the leaf spans
    for k in range(1, tree.n + 1):
        stacks = dense[:, list(itertools.combinations(range(tree.n), k))].transpose(1, 0, 2)
        det = np.linalg.det(stacks.transpose(0, 2, 1) @ stacks)
        assert np.abs(det - np.round(det)).max() <= 1e-6
        assert np.array_equal(det >= 1 - 1e-6, np.linalg.matrix_rank(stacks) == k)
    for i in tree.internal:
        # father link minus all child links is a null vector of A
        dependent = sorted([i - 1] + [c - 1 for c in tree.children[i]])
        supports = scanner.level(len(dependent))[0]
        assert len(supports) == math.comb(tree.n, len(dependent))
        # y = A_S 1 makes every restricted system consistent, so only the rank test rejects
        stacks = dense[:, supports].transpose(1, 0, 2)
        feasible = scanner._solved(stacks.sum(axis=2), supports)[0]
        assert supports.tolist().index(dependent) not in feasible
        assert np.array_equal(feasible, np.flatnonzero(np.linalg.matrix_rank(stacks) == len(dependent)))


class TestNoisyGridCheck:
    """``noisy_exact_check``; the class keeps the name of the grid check that it replaced."""

    def test_single_complex_sparsity_candidate(self, one_complex):
        iv = IntervalObservation(lo=[0, 3, 5], hi=[2, INF, INF])
        sol = upsparse_plus(one_complex, iv, MIN_L0)
        assert sol.l0() == 2
        assert noisy_exact_check(one_complex, iv, sol)

    def test_single_complex_l1_candidate(self, one_complex):
        iv = IntervalObservation(lo=[1, 3, 5], hi=[4, 4, 6])
        sol = upsparse_plus(one_complex, iv, MIN_L1)
        assert sol.l1() == pytest.approx(5.0)
        assert noisy_exact_check(one_complex, iv, sol)

    def test_degenerate_intervals(self, fig_tree):
        iv = IntervalObservation.exact([2.0, 3.0, 4.0])
        sol = upsparse_plus(fig_tree, iv, MIN_L0)
        assert noisy_exact_check(fig_tree, iv, sol)

    def test_rejects_inflated_sparsity(self, one_complex):
        iv = IntervalObservation(lo=[0, 3, 5], hi=[2, INF, INF])
        bogus = NoisySolution(
            x=np.array([0.0, 3.0, 5.0, 0.0]) + np.array([1e-3, 0, 0, 1.0]),
            y=np.array([1e-3 + 1.0, 4.0, 6.0]),
            z=np.zeros(4),
            mode=MIN_L0,
        )
        assert bogus.l0() == 4
        assert not noisy_exact_check(one_complex, iv, bogus)

    def test_rejects_lossy_candidate_when_zero_is_realizable(self, one_complex):
        # Every interval reaches 0, where the empty support is feasible.
        iv = IntervalObservation(lo=[0, 0, 0], hi=[1, 1, 1])
        lossy = NoisySolution(
            x=np.array([0.0, 0.0, 0.0, 0.5]), y=np.full(3, 0.5), z=np.zeros(4), mode=MIN_L0
        )
        assert lossy.l0() == 1
        assert not noisy_exact_check(one_complex, iv, lossy)
        assert noisy_exact_check(one_complex, iv, upsparse_plus(one_complex, iv, MIN_L0))

    def test_rejects_inflated_l1(self, one_complex):
        iv = IntervalObservation(lo=[1, 3, 5], hi=[4, 4, 6])
        bogus = NoisySolution(
            x=np.array([1.0, 3.0, 5.0, 0.0]),
            y=np.array([1.0, 3.0, 5.0]),
            z=np.zeros(4),
            mode=MIN_L1,
        )
        assert not noisy_exact_check(one_complex, iv, bogus)

    def test_rejects_l1_just_above_the_optimum(self, one_complex):
        iv = IntervalObservation(lo=[1, 3, 5], hi=[4, 4, 6])  # minimum l1 5: x = (0, 0, 1, 4)
        near = NoisySolution(
            x=np.array([0.0, 0.0, 1.001, 4.0]), y=np.array([4.0, 4.0, 5.001]), z=np.zeros(4),
            mode=MIN_L1,
        )
        assert not noisy_exact_check(one_complex, iv, near)
        assert noisy_exact_check(one_complex, iv, near, tol=1e-2)

    def test_l1_check_does_not_call_the_solver(self, one_complex, monkeypatch):
        iv = IntervalObservation(lo=[1, 3, 5], hi=[4, 4, 6])
        sol = upsparse_plus(one_complex, iv, MIN_L1)

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle called closed_form")

        monkeypatch.setattr("losstree.oracle.closed_form", refuse)
        assert noisy_exact_check(one_complex, iv, sol)

    @pytest.mark.parametrize("mode", [MIN_L0, MIN_L1])
    def test_intervals_of_another_length_rejected(self, one_complex, mode):
        sol = upsparse_plus(one_complex, IntervalObservation(lo=[1, 3, 5], hi=[4, 4, 6]), mode)
        four = IntervalObservation(lo=[1, 3, 5, 1], hi=[4, 4, 6, 2])
        with pytest.raises(OutOfDomain):
            noisy_exact_check(one_complex, four, sol)

    @pytest.mark.parametrize("mode", [MIN_L0, MIN_L1])
    def test_rejects_a_candidate_outside_the_intervals(self, one_complex, mode):
        iv = IntervalObservation(lo=[1, 2, 3], hi=[2, 3, 4])
        zero = NoisySolution(x=np.zeros(4), y=np.zeros(3), z=np.zeros(4), mode=mode)
        assert not noisy_exact_check(one_complex, iv, zero)

    @pytest.mark.parametrize("mode", [MIN_L0, MIN_L1])
    def test_rejects_a_negative_link_loss(self, one_complex, mode):
        iv = IntervalObservation(lo=[1, 3, 5], hi=[4, 4, 6])
        x = np.array([-1.0, 1.0, 3.0, 2.0])  # A x = (1, 3, 5), l1 = 5, the optimum
        negative = NoisySolution(x=x, y=np.array([1.0, 3.0, 5.0]), z=np.zeros(4), mode=mode)
        assert not noisy_exact_check(one_complex, iv, negative)

    @pytest.mark.parametrize("mode", [MIN_L0, MIN_L1])
    def test_candidate_of_another_tree_rejected(self, one_complex, fig_tree, mode):
        iv = IntervalObservation(lo=[1, 3, 5], hi=[4, 4, 6])  # three paths in both trees
        with pytest.raises(OutOfDomain):
            noisy_exact_check(one_complex, iv, upsparse_plus(fig_tree, iv, mode))

    def test_sparser_answer_on_sibling_paths(self):
        # Link 4 above leaf 1 and link 5, link 5 above leaves 2 and 3.  The
        # greedy threshold put 0.369 on link 4 and 0.0958 on link 5; 0.4648
        # on link 5 alone meets every interval.
        tree = build_tree([(1, 4), (2, 5), (3, 5), (4, 0), (5, 4)], 0)
        assert tree.parent.tolist() == [-1, 4, 5, 5, 0, 4]
        iv = IntervalObservation(lo=[0, 0.4648, 0.369], hi=[0.4459, 1.302, 1.1321])
        for mode in (MIN_L0, MIN_L1_AMONG_L0):
            sol = upsparse_plus(tree, iv, mode)
            assert sol.x.tolist() == [0.0, 0.0, 0.0, 0.0, 0.4648]
            assert noisy_exact_check(tree, iv, sol)

    @settings(max_examples=100, deadline=None)
    @given(case=interval_instances())
    def test_k_star_matches_the_dp(self, case):
        tree, iv = case
        k_star = ref_min_lossy_links(tree, iv.lo, iv.hi)
        assert _interval_optimum(tree, iv, MIN_L0) == k_star
        sol = upsparse_plus(tree, iv, MIN_L0)
        assert noisy_exact_check(tree, iv, sol) == (sol.l0() == k_star)

    def test_k_star_matches_the_dp_on_regular_3_4(self):
        tree = gen_regular_tree(3, 4)
        assert tree.n == 40
        rng = np.random.default_rng(11)
        for _ in range(10):
            iv = grid_intervals(rng, tree.m)
            assert _interval_optimum(tree, iv, MIN_L0) == ref_min_lossy_links(tree, iv.lo, iv.hi)


class TestIntervalSolverIsSparsest:
    """min-l0 and min-l1-among-l0 against the program's k*, on grid bounds whose ties are exact."""

    @settings(max_examples=100, deadline=None)
    @given(case=interval_instances())
    def test_fewest_lossy_links(self, case):
        tree, iv = case
        k_star = _interval_optimum(tree, iv, MIN_L0)
        for mode in (MIN_L0, MIN_L1_AMONG_L0):
            sol = upsparse_plus(tree, iv, mode)
            assert sol.l0() == k_star
            assert noisy_exact_check(tree, iv, sol)

    @settings(max_examples=60, deadline=None)
    @given(case=interval_batches())
    def test_batch_rows_equal_single_rows(self, case):
        tree, batch = case
        stats = z_stats(tree, batch)
        for mode in (MIN_L0, MIN_L1_AMONG_L0):
            sol = upsparse_plus(tree, batch, mode)
            for r, (lo, hi) in enumerate(zip(batch.lo, batch.hi)):
                row = IntervalObservation(lo=lo, hi=hi)
                one = upsparse_plus(tree, row, mode)
                assert np.array_equal(stats.l0_threshold[r], z_stats(tree, row).l0_threshold)
                assert np.array_equal(sol.x[r], one.x) and np.array_equal(sol.z[r], one.z)
                assert sol.l0()[r] == one.l0() == _interval_optimum(tree, row, MIN_L0)

    @settings(max_examples=100, deadline=None)
    @given(case=interval_instances())
    def test_two_scan_gate_equals_the_sequential_bump(self, case):
        tree, iv = case
        sol = upsparse_plus(tree, iv, MIN_L1_AMONG_L0)
        assert np.array_equal(sol.z, sequential_bump(tree, iv))


class TestLemma1Construct:
    def test_binary_branch_two_sparse(self):
        tree = gen_regular_tree(2, 3)
        node = tree.m + 2  # an internal node with two children
        u, v = lemma1_construct(tree, node, K=2, w=0.5)
        assert (u > 0).sum() == 2
        assert (v > 0).sum() <= 2
        assert np.array_equal(forward(tree, u), forward(tree, v))

    def test_ternary_branch_three_sparse(self):
        tree = gen_regular_tree(3, 3)
        u, v = lemma1_construct(tree, tree.m + 1, K=3, w=1.25)
        assert (u > 0).sum() == 3
        assert (v > 0).sum() <= 3
        assert np.array_equal(forward(tree, u), forward(tree, v))

    def test_oversized_k_padded_off_complex(self):
        tree = gen_regular_tree(3, 3)
        u, v = lemma1_construct(tree, tree.m + 2, K=6, w=2.0)
        assert (u > 0).sum() == 6
        assert (v > 0).sum() <= 6
        assert np.array_equal(forward(tree, u), forward(tree, v))

    def test_exact_null_in_weight_units(self):
        # Observations agree exactly, not just within tolerance.
        tree = gen_regular_tree(2, 4)
        a = forward(tree, np.eye(tree.n)).T
        u, v = lemma1_construct(tree, tree.m + 3, K=3, w=0.1)
        assert np.array_equal(a @ (u / 0.1).astype(np.int64), a @ (v / 0.1).astype(np.int64))

    def test_too_small_k(self):
        tree = gen_regular_tree(3, 3)
        with pytest.raises(KTooSmall):
            lemma1_construct(tree, tree.m + 1, K=2, w=1.0)

    @pytest.mark.parametrize("w", [0.0, -1.0, math.nan, math.inf])
    def test_weight_must_be_finite_and_positive(self, w):
        tree = gen_regular_tree(3, 3)
        with pytest.raises(ParameterOutOfRange, match="w must be finite and positive"):
            lemma1_construct(tree, tree.m + 1, K=3, w=w)

    def test_leaf_rejected(self):
        tree = gen_regular_tree(3, 3)
        with pytest.raises(NotBranchNode):
            lemma1_construct(tree, 1, K=3, w=1.0)

    @pytest.mark.parametrize("i", [10.0, 10.5, "10"])
    def test_node_must_be_a_whole_number(self, i):
        with pytest.raises(NotBranchNode):
            lemma1_construct(gen_regular_tree(3, 3), i, K=3, w=1.0)

    @pytest.mark.parametrize("K", [3.0, 3.5, "3", None])
    def test_k_must_be_a_whole_number(self, K):
        tree = gen_regular_tree(3, 3)
        with pytest.raises(ParameterOutOfRange, match="K must be a whole number"):
            lemma1_construct(tree, tree.m + 1, K=K, w=1.0)

    def test_numpy_integer_arguments_accepted(self):
        tree = gen_regular_tree(3, 3)
        u, v = lemma1_construct(tree, np.int64(tree.m + 1), K=np.int64(3), w=1.0)
        assert (u > 0).sum() == 3 and np.array_equal(forward(tree, u), forward(tree, v))

    def test_construction_defeats_uniqueness(self):
        # The first vector is a sparsest solution that is not unique.
        tree = gen_regular_tree(2, 3)
        u, v = lemma1_construct(tree, tree.m + 2, K=2, w=0.3)
        enum = sparsest_enumerate(tree, forward(tree, u))
        assert enum.k_star == 2
        assert not enum.unique


@pytest.mark.parametrize("call", [
    lambda tree, iv, sol: lemma1_construct(tree, tree.m + 1, K=3, w="x"),
    lambda tree, iv, sol: noisy_exact_check(tree, iv, sol, tol="x"),
    lambda tree, iv, sol: iv.contains(sol.y, tol="x"),
    lambda tree, iv, sol: binarize(sol.y, "x"),
], ids=["lemma1_construct", "noisy_exact_check", "contains", "binarize"])
def test_non_numeric_parameters_rejected(call):
    """Each used to raise a bare TypeError."""
    tree = tree_from_spec("regular:3:3")
    y = forward(tree, np.full(tree.n, 0.1))
    iv = IntervalObservation(lo=y, hi=y)
    with pytest.raises(ParameterOutOfRange):
        call(tree, iv, upsparse_plus(tree, iv, MIN_L1))
