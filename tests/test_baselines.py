"""Binary good/bad inference: correctness, minimality, and the known blind spot."""

import itertools
import math

import numpy as np
import pytest

from losstree import (
    addloss,
    binarize,
    closed_form,
    compare_with_sparse_recovery,
    forward,
    gen_regular_tree,
    gen_ternary_tree,
    lossmodel,
    scfs,
)
from losstree.errors import OutOfDomain, ParameterOutOfRange
from losstree.lossmodel import DEFAULT_LOSS_RANGE, DEFAULT_TOL, plant_hotspots

from conftest import caterpillar, random_small_trees, random_sparse_x


def per_trial_rates(tree, K, trials, seed):
    """``compare_with_sparse_recovery`` one trial at a time: plant, observe, solve."""
    n_scfs = n_sparse = 0
    for t in range(trials):
        b = plant_hotspots(tree, K, DEFAULT_LOSS_RANGE, seed, t)
        x_true = addloss(b)
        y = forward(tree, x_true)
        n_scfs += scfs(tree, binarize(y)) == set((np.flatnonzero(b) + 1).tolist())
        n_sparse += bool(np.abs(closed_form(tree, y) - x_true).max() <= DEFAULT_TOL)
    return n_scfs / trials, n_sparse / trials


class TestBinarize:
    def test_threshold_zero_flags_everything_positive(self):
        assert binarize([2.0, 3.0, 4.0], threshold=1e-9).all()

    def test_zero_observations_all_good(self):
        assert not binarize(np.zeros(3)).any()

    def test_half_percent_operating_point(self):
        thr = addloss([0.005])[0]
        flags = binarize(addloss([0.004, 0.006]), threshold=thr)
        assert list(flags) == [False, True]

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            binarize([1.0], threshold=-1.0)

    @pytest.mark.parametrize("threshold", [-1.0, float("nan"), float("inf")])
    def test_bad_threshold_is_out_of_domain(self, threshold):
        with pytest.raises(OutOfDomain):
            binarize([1.0], threshold=threshold)

    def test_nan_observation_is_out_of_domain(self):
        # NaN exceeds no threshold, so it used to mark its path good
        with pytest.raises(OutOfDomain):
            binarize([1.0, float("nan")])

    @pytest.mark.parametrize("y", [[float("inf")], np.zeros((2, 3))])
    def test_infinite_or_stacked_observations_are_out_of_domain(self, y):
        # inf used to flag its path bad, and a (2, 3) stack came back as (2, 3) flags
        with pytest.raises(OutOfDomain):
            binarize(y)


class TestScfs:
    def test_shared_prefix_names_the_fork(self, fig_tree):
        # Paths 1 and 2 bad: only the link feeding exactly those two fits.
        assert scfs(fig_tree, np.array([True, True, False])) == {5}

    @pytest.mark.parametrize("bad", [[True, False], [True, False, True, False]])
    def test_rejects_wrong_length(self, fig_tree, bad):
        with pytest.raises(OutOfDomain):
            scfs(fig_tree, bad)

    @pytest.mark.parametrize("bad", [[math.nan, 0, 0], [2, 0, 0], [0.5, 0, 0], ["a", "b", "c"]])
    def test_rejects_flags_other_than_booleans_or_0_1(self, fig_tree, bad):
        with pytest.raises(OutOfDomain, match="bad-path flags must be booleans or 0/1"):
            scfs(fig_tree, bad)

    @pytest.mark.parametrize("bad", [[1, 1, 0], [1.0, 1.0, 0.0], [True, True, False]])
    def test_accepts_booleans_and_0_1(self, fig_tree, bad):
        assert scfs(fig_tree, bad) == {5}

    def test_all_paths_bad_names_top_link(self, fig_tree):
        assert scfs(fig_tree, np.array([True, True, True])) == {4}

    def test_nothing_bad(self, fig_tree):
        assert scfs(fig_tree, np.zeros(3, dtype=bool)) == set()

    def test_ancestor_masks_descendant(self, fig_tree):
        # Lossy leaf 1 under lossy top link: binary inference reports only
        # the top link, missing the leaf.
        x_true = np.zeros(5)
        x_true[0] = 0.1  # leaf 1
        x_true[3] = 0.2  # top link
        bad = binarize(forward(fig_tree, x_true))
        assert bad.all()
        assert scfs(fig_tree, bad) == {4}

    def test_covers_exactly_the_bad_set(self):
        rng = np.random.default_rng(0)
        for tree in random_small_trees(20, seed=1):
            bad = np.zeros(tree.m, dtype=bool)
            y = forward(tree, random_sparse_x(tree, rng))
            bad = binarize(y)
            picked = scfs(tree, bad)
            covered = np.zeros(tree.m, dtype=bool)
            for v in picked:
                for j in tree.subtree_leaves(v):
                    covered[j - 1] = True
            assert np.array_equal(covered, bad)

    def test_minimality_by_exhaustive_subsets(self):
        # No smaller link set covers exactly the bad paths.
        rng = np.random.default_rng(2)
        for tree in random_small_trees(8, seed=3, m_range=(2, 5)):
            y = forward(tree, random_sparse_x(tree, rng, k=2))
            bad = binarize(y)
            picked = scfs(tree, bad)
            leafsets = [set(tree.subtree_leaves(v)) for v in range(1, tree.n + 1)]
            bad_set = {j + 1 for j in np.flatnonzero(bad)}
            for size in range(len(picked)):
                for combo in itertools.combinations(range(1, tree.n + 1), size):
                    union = set().union(*(leafsets[v - 1] for v in combo)) if combo else set()
                    assert union != bad_set


class TestComparisonHarness:
    def test_shared_trials_and_ordering(self):
        tree = gen_regular_tree(3, 3)
        p_scfs, p_sparse = compare_with_sparse_recovery(tree, K=3, trials=60, seed=4)
        assert 0.0 <= p_scfs <= p_sparse <= 1.0

    def test_single_hotspot_both_perfect(self):
        tree = gen_regular_tree(3, 3)
        p_scfs, p_sparse = compare_with_sparse_recovery(tree, K=1, trials=40, seed=5)
        assert p_scfs == 1.0
        assert p_sparse == 1.0

    def test_no_trials_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            compare_with_sparse_recovery(gen_regular_tree(3, 3), K=1, trials=0)

    @pytest.mark.parametrize("trials", [2.5, "3", True])
    def test_trials_must_be_a_whole_number(self, trials):
        with pytest.raises(ParameterOutOfRange, match="whole number"):
            compare_with_sparse_recovery(gen_regular_tree(3, 3), K=1, trials=trials)

    @pytest.mark.parametrize("K", [1.5, True])
    def test_K_must_be_a_whole_number(self, K):
        with pytest.raises(ParameterOutOfRange, match="whole number"):
            compare_with_sparse_recovery(gen_regular_tree(3, 3), K=K, trials=3)

    @pytest.mark.parametrize("seed", [-1, 1.5, np.random.SeedSequence(0)])
    def test_seed_must_be_a_whole_number(self, seed):
        with pytest.raises(ParameterOutOfRange, match="seed must be a whole number"):
            compare_with_sparse_recovery(gen_regular_tree(3, 3), K=1, trials=5, seed=seed)

    @pytest.mark.parametrize("tree", [gen_ternary_tree(13), caterpillar(9)],
                             ids=["ternary", "caterpillar"])
    @pytest.mark.parametrize("K", [0, 1, 3, 6])
    @pytest.mark.parametrize("block_links", [1, 40, 2**16])
    def test_blocks_match_a_per_trial_loop(self, monkeypatch, tree, K, block_links):
        monkeypatch.setattr(lossmodel, "BLOCK_LINKS", block_links)  # 1 and 40: several blocks
        got = compare_with_sparse_recovery(tree, K=K, trials=23, seed=3)
        assert got == per_trial_rates(tree, K, 23, 3)
        if K == 3:
            assert 0 < got[0] < got[1] < 1  # the rows are told apart, not all alike

    def test_deterministic(self):
        tree = gen_regular_tree(3, 3)
        a = compare_with_sparse_recovery(tree, K=2, trials=30, seed=6)
        b = compare_with_sparse_recovery(tree, K=2, trials=30, seed=6)
        assert a == b
