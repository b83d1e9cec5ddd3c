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
    build_tree,
    closed_form,
    forward,
    gen_random_tree,
    gen_regular_tree,
    l1_sampling_check,
    lemma1_construct,
    measurement_matrix,
    noisy_exact_check,
    receiver_solution,
    sparsest_enumerate,
    uniqueness_census,
    unique_sparsest,
    upsparse,
    upsparse_plus,
)
from losstree.cli import main
from losstree.errors import (
    InstanceTooLarge,
    KTooSmall,
    NotBranchNode,
    OutOfDomain,
    ParameterOutOfRange,
)
from losstree.noisy import NoisySolution
from losstree.oracle import SupportScanner, _interval_optimum
from losstree.topology import ROOT, tree_from_spec

from conftest import caterpillar, random_small_trees, random_sparse_x, star

INF = math.inf


def brute_force_k_star(tree, y, tol=1e-7):
    """Reference scan: plain loops and lstsq, no shared machinery."""
    a = measurement_matrix(tree).dense().astype(float)
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
            dense = measurement_matrix(tree).dense()
            scanner = SupportScanner(tree)
            for x in (rng.integers(0, 3, tree.n), 0.5 * (rng.random(tree.n) < 0.5)):
                enum = sparsest_enumerate(tree, forward(tree, x), scanner=scanner)
                non_unique += not enum.unique
                for sup in enum.supports:
                    cols = dense[:, [v - 1 for v in sup]]
                    assert np.linalg.matrix_rank(cols) == enum.k_star == len(sup)
        assert len(trees) >= 30 and non_unique >= 20

    @pytest.mark.parametrize("y", [[2.0, 3.0], [2.0, 3.0, 4.0, 5.0], [2.0, math.nan, 4.0],
                                   [2.0, 3.0, INF], [[2.0, 3.0, 4.0]]])
    def test_bad_observations_rejected(self, fig_tree, y):
        with pytest.raises(OutOfDomain):
            sparsest_enumerate(fig_tree, y)


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
        dict(trials=0), dict(K=-1), dict(K=5), dict(loss_range=(0.0, 0.1)),
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

    def test_recovery_needs_a_lossless_child(self):
        # On the two-leaf tree, two hotspots are never uniquely sparsest
        # (one lossless link at the fork), yet placements touching the top
        # link stay in up state and are still recovered.
        tree = gen_regular_tree(2, 2)
        res = uniqueness_census(tree, K=2, trials=90, seed=3)
        assert res.p_unique == 0.0
        assert 0.4 < res.p_l1_recovers_true < 0.9


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

    @pytest.mark.parametrize("samples", [0, -5])
    def test_needs_a_sample(self, fig_tree, samples):
        with pytest.raises(ParameterOutOfRange):
            l1_sampling_check(fig_tree, [2.0, 3.0, 4.0], [0, 1, 2, 2, 0], samples=samples)


@pytest.mark.parametrize("argv", [
    ["verify", "--tree", "random:8:3:0", "--trials", "10"],
    ["census", "--tree", "ternary:13", "--K", "1-3", "--trials", "20"],
])
def test_each_support_size_inverted_once_per_command(argv, monkeypatch, capsys):
    """One scanner serves the whole command, so no size level's Gram system is solved twice."""
    sizes, pinv_calls = [], []
    solve = np.linalg.solve

    def counting_solve(a, b):
        sizes.append(a.shape[-1])
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    monkeypatch.setattr(np.linalg, "pinv", lambda *args, **kwargs: pinv_calls.append(args))
    assert main(argv) == 0
    capsys.readouterr()
    assert sizes and not pinv_calls
    assert len(sizes) == len(set(sizes)), sorted(sizes)


@pytest.mark.parametrize("tree", [
    tree_from_spec("random:8:3:0"), tree_from_spec("regular:2:4"), caterpillar(7)
], ids=["random:8:3:0", "regular:2:4", "caterpillar(7)"])
def test_gram_determinant_is_an_exact_rank_test(tree):
    """A_S has consecutive ones in each column, so det(A_SᵀA_S) counts its nonsingular minors."""
    dense = measurement_matrix(tree).dense().astype(float)
    scanner = SupportScanner(tree)
    for k in range(1, tree.n + 1):
        stacks = dense[:, list(itertools.combinations(range(tree.n), k))].transpose(1, 0, 2)
        det = np.linalg.det(stacks.transpose(0, 2, 1) @ stacks)
        assert np.abs(det - np.round(det)).max() <= 1e-6
        assert np.array_equal(det >= 1 - 1e-6, np.linalg.matrix_rank(stacks) == k)
    for i in tree.internal:
        # father link minus all child links is a null vector of A
        dependent = sorted([i - 1] + [c - 1 for c in tree.children[i]])
        supports = scanner.level(len(dependent))[0].tolist()
        assert dependent not in supports
        assert len(supports) == sum(
            np.linalg.matrix_rank(dense[:, list(sup)]) == len(dependent)
            for sup in itertools.combinations(range(tree.n), len(dependent))
        )


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
        # solver puts 0.369 on link 4 and 0.0958 on link 5; 0.4648 on link 5
        # alone meets every interval.
        tree = build_tree([(1, 4), (2, 5), (3, 5), (4, 0), (5, 4)], 0)
        assert tree.parent.tolist() == [-1, 4, 5, 5, 0, 4]
        iv = IntervalObservation(lo=[0, 0.4648, 0.369], hi=[0.4459, 1.302, 1.1321])
        greedy = upsparse_plus(tree, iv, MIN_L0)
        assert greedy.l0() == 2
        assert not noisy_exact_check(tree, iv, greedy)
        x = np.array([0.0, 0.0, 0.0, 0.0, 0.4648])
        one = NoisySolution(x=x, y=np.array([0.0, 0.4648, 0.4648]), z=np.zeros(5), mode=MIN_L0)
        assert noisy_exact_check(tree, iv, one)

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
        a = measurement_matrix(tree).dense()
        u, v = lemma1_construct(tree, tree.m + 3, K=3, w=0.1)
        assert np.array_equal(a @ (u / 0.1).astype(np.int64), a @ (v / 0.1).astype(np.int64))

    def test_too_small_k(self):
        tree = gen_regular_tree(3, 3)
        with pytest.raises(KTooSmall):
            lemma1_construct(tree, tree.m + 1, K=2, w=1.0)

    def test_leaf_rejected(self):
        tree = gen_regular_tree(3, 3)
        with pytest.raises(NotBranchNode):
            lemma1_construct(tree, 1, K=3, w=1.0)

    def test_construction_defeats_uniqueness(self):
        # The first vector is a sparsest solution that is not unique.
        tree = gen_regular_tree(2, 3)
        u, v = lemma1_construct(tree, tree.m + 2, K=2, w=0.3)
        enum = sparsest_enumerate(tree, forward(tree, u))
        assert enum.k_star == 2
        assert not enum.unique
