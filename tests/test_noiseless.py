"""The up-pulling sparsifier, its closed form, and the uniqueness diagnostics."""

import numpy as np
import pytest

from losstree import (
    classify_complexes,
    closed_form,
    forward,
    gen_regular_tree,
    put_in_upstate,
    receiver_solution,
    recovery_condition,
    sample_feasible,
    unique_sparsest,
    upsparse,
)
from losstree.errors import InfeasibleStart, NotInternal, OutOfDomain
from losstree.noiseless import DOWN, MIXED, UP

from conftest import random_small_trees, random_sparse_x


class TestPutInUpstate:
    def test_pulls_min_child_up(self, one_complex):
        x = put_in_upstate(one_complex, 4, [2.0, 3.0, 4.0, 0.0])
        assert np.array_equal(x, [0, 1, 2, 2])

    def test_noop_when_child_already_lossless(self, one_complex):
        x0 = [0.0, 1.0, 2.0, 0.5]
        assert np.array_equal(put_in_upstate(one_complex, 4, x0), x0)

    def test_preserves_observations_and_reduces_l1(self):
        rng = np.random.default_rng(0)
        for tree in random_small_trees(10, seed=1):
            y = rng.uniform(0.2, 1.5, tree.m)
            x = receiver_solution(tree, y)
            for i in tree.internal:
                moved = put_in_upstate(tree, i, x)
                kids = len(tree.children[i])
                delta = min(x[c - 1] for c in tree.children[i])
                assert np.abs(forward(tree, moved) - y).max() < 1e-9
                assert moved.sum() == pytest.approx(x.sum() - (kids - 1) * delta)
                x = moved

    def test_leaves_its_input_untouched(self, one_complex):
        x0 = np.array([2.0, 3.0, 4.0, 0.0])
        put_in_upstate(one_complex, 4, x0)
        assert np.array_equal(x0, [2.0, 3.0, 4.0, 0.0])
        upsparse(one_complex, [2.0, 3.0, 4.0], x0=x0)  # upsparse moves a copy in place
        assert np.array_equal(x0, [2.0, 3.0, 4.0, 0.0])

    def test_rejects_leaf(self, one_complex):
        with pytest.raises(NotInternal):
            put_in_upstate(one_complex, 1, [0.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("i", [4.0, 3.5, True, "4"])
    def test_rejects_labels_that_are_not_whole_numbers(self, one_complex, i):
        with pytest.raises(NotInternal):
            put_in_upstate(one_complex, i, [2.0, 3.0, 4.0, 0.0])

    def test_numpy_integer_label_accepted(self, one_complex):
        x = put_in_upstate(one_complex, np.int64(4), [2.0, 3.0, 4.0, 0.0])
        assert np.array_equal(x, [0.0, 1.0, 2.0, 2.0])

    @pytest.mark.parametrize("x", [[np.nan, 1.0, 2.0, 0.0], [1.0, 2.0, 0.0]])
    def test_rejects_non_finite_or_short_x(self, one_complex, x):
        with pytest.raises(OutOfDomain):
            put_in_upstate(one_complex, 4, x)

    def test_pulling_a_shared_level_up_drops_sparsity(self):
        # Uniform loss spread over a whole middle level collapses onto the
        # top link after one round of up moves: three lossy links become one.
        tree = gen_regular_tree(3, 3)
        x = np.zeros(tree.n)
        for v in np.flatnonzero(tree.depth == 2):
            x[v - 1] = 0.5
        assert (x > 0).sum() == 3
        for v in np.flatnonzero(tree.depth == 1):
            x = put_in_upstate(tree, v, x)
        assert (x > 0).sum() == 1
        assert np.abs(forward(tree, x) - 0.5).max() < 1e-12


class TestUpsparse:
    def test_three_leaf_golden(self, fig_tree):
        report = upsparse(fig_tree, [2.0, 3.0, 4.0])
        assert np.allclose(report.x, [0, 1, 2, 2, 0])
        assert report.l0 == 3
        assert report.l1 == pytest.approx(5.0)

    def test_uniform_observations_single_hotspot(self):
        tree = gen_regular_tree(3, 3)
        report = upsparse(tree, np.full(tree.m, 0.4))
        assert report.l0 == 1
        top = next(v for v in range(1, tree.n + 1) if tree.parent[v] == 0)
        assert report.x[top - 1] == pytest.approx(0.4)

    def test_zero_observations(self, fig_tree):
        assert upsparse(fig_tree, np.zeros(3)).l0 == 0

    def test_negative_zero_comes_out_as_zero(self, fig_tree, one_complex):
        # The up-move makes -0.0 into 0.0 before comparing, so no output carries a sign.
        report = upsparse(fig_tree, [-0.0, 3.0, -0.0])
        assert not np.signbit(report.x).any()
        assert "-0.0" not in str(report.to_json())
        moved = put_in_upstate(one_complex, 4, [-0.0, 1.0, 2.0, -0.0])
        assert moved.tolist() == [0.0, 1.0, 2.0, 0.0] and not np.signbit(moved).any()

    def test_matches_closed_form_everywhere(self):
        rng = np.random.default_rng(2)
        for tree in random_small_trees(30, seed=3):
            y = forward(tree, random_sparse_x(tree, rng))
            assert np.abs(upsparse(tree, y).x - closed_form(tree, y)).max() < 1e-12

    def test_start_independence(self):
        rng = np.random.default_rng(4)
        for tree in random_small_trees(5, seed=5):
            y = rng.uniform(0.2, 1.0, tree.m)
            baseline = upsparse(tree, y).x
            for _ in range(20):
                x0 = sample_feasible(tree, y, rng)
                assert np.abs(upsparse(tree, y, x0=x0).x - baseline).max() < 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        for tree in random_small_trees(10, seed=7):
            y = rng.uniform(0.0, 1.0, tree.m)
            x_star = upsparse(tree, y).x
            assert np.abs(upsparse(tree, y, x0=x_star).x - x_star).max() < 1e-12

    def test_sparsity_never_exceeds_path_count(self):
        rng = np.random.default_rng(8)
        for tree in random_small_trees(20, seed=9):
            y = forward(tree, random_sparse_x(tree, rng))
            assert upsparse(tree, y).l0 <= tree.m

    def test_infeasible_start_rejected(self, fig_tree):
        with pytest.raises(InfeasibleStart):
            upsparse(fig_tree, [2.0, 3.0, 4.0], x0=[9, 9, 9, 9, 9])

    @pytest.mark.parametrize("x0", [[0.0, 1.0, 2.0, 2.0], [[0.0, 1.0, 2.0, 2.0, 0.0]],
                                    [0.0, 1.0, 2.0, 2.0, np.nan], [np.inf, 1.0, 2.0, 2.0, 0.0]])
    def test_malformed_start_rejected(self, fig_tree, x0):
        with pytest.raises(OutOfDomain, match="x0"):
            upsparse(fig_tree, [2.0, 3.0, 4.0], x0=x0)


class TestClosedForm:
    def test_three_leaf_golden(self, fig_tree):
        assert np.allclose(closed_form(fig_tree, [2, 3, 4]), [0, 1, 2, 2, 0])

    def test_constant_observations(self, fig_tree):
        x = closed_form(fig_tree, [0.3, 0.3, 0.3])
        assert np.allclose(x, [0, 0, 0, 0.3, 0])

    def test_output_is_feasible(self):
        rng = np.random.default_rng(10)
        for tree in random_small_trees(20, seed=11):
            y = rng.uniform(0.0, 1.0, tree.m)
            x = closed_form(tree, y)
            assert x.min() >= 0
            assert np.abs(forward(tree, x) - y).max() < 1e-12

    def test_batch_matches_single(self):
        rng = np.random.default_rng(12)
        for tree in random_small_trees(5, seed=13):
            ys = rng.uniform(0.0, 1.0, (40, tree.m))
            batch = closed_form(tree, ys)
            for i, y in enumerate(ys):
                assert np.array_equal(batch[i], closed_form(tree, y))

    @pytest.mark.parametrize(
        "y", [[2.0, 3.0], [2.0, 3.0, 4.0, 5.0], np.zeros((2, 4)), np.zeros((2, 2, 3)), 2.0]
    )
    def test_rejects_wrong_shape(self, fig_tree, y):
        with pytest.raises(OutOfDomain):
            closed_form(fig_tree, y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, fig_tree, bad):
        with pytest.raises(OutOfDomain):
            closed_form(fig_tree, [2.0, bad, 4.0])
        with pytest.raises(OutOfDomain):
            closed_form(fig_tree, [[2.0, 3.0, 4.0], [2.0, bad, 4.0]])
        with pytest.raises(OutOfDomain):
            upsparse(fig_tree, [2.0, bad, 4.0])

    def test_upsparse_rejects_wrong_length(self, fig_tree):
        with pytest.raises(OutOfDomain):
            upsparse(fig_tree, [2.0, 3.0])
        with pytest.raises(OutOfDomain):
            upsparse(fig_tree, [[2.0, 3.0, 4.0]])


class TestClassifyComplexes:
    def test_solver_output_is_all_up(self):
        rng = np.random.default_rng(14)
        for tree in random_small_trees(10, seed=15):
            y = rng.uniform(0.1, 1.0, tree.m)
            states = classify_complexes(tree, upsparse(tree, y).x)
            assert all(s.state == UP for s in states)

    def test_receiver_on_two_level_tree_is_down(self, one_complex):
        (state,) = classify_complexes(
            one_complex, receiver_solution(one_complex, [1.0, 2.0, 3.0])
        )
        assert state.state == DOWN
        assert state.delta == pytest.approx(1.0)
        assert state.lossless_children == 0

    def test_mixed_state(self, one_complex):
        (state,) = classify_complexes(one_complex, [0.5, 1.5, 2.5, 0.5])
        assert state.state == MIXED

    def test_all_lossless_counts_as_up(self, one_complex):
        (state,) = classify_complexes(one_complex, np.zeros(4))
        assert state.state == UP
        assert state.lossless_children == 3


class TestUniqueSparsest:
    def test_two_hotspots_on_ternary_always_unique(self):
        tree = gen_regular_tree(3, 3)
        rng = np.random.default_rng(16)
        for _ in range(50):
            x_true = random_sparse_x(tree, rng, k=2)
            x_star = closed_form(tree, forward(tree, x_true))
            assert unique_sparsest(tree, x_star)

    def test_single_lossless_child_not_unique(self, fig_tree):
        # Node 4 carries loss with only link 5 lossless under it.
        x_star = closed_form(fig_tree, [2.0, 3.0, 4.0])
        assert not unique_sparsest(fig_tree, x_star)

    def test_zero_solution_unique(self, fig_tree):
        assert unique_sparsest(fig_tree, np.zeros(5))


class TestRecoveryCondition:
    def test_solver_outputs_satisfy_it(self):
        rng = np.random.default_rng(17)
        for tree in random_small_trees(10, seed=18):
            y = rng.uniform(0.0, 1.0, tree.m)
            assert recovery_condition(tree, upsparse(tree, y).x)

    def test_all_leaves_lossy_under_one_parent_fails(self, one_complex):
        assert not recovery_condition(
            one_complex, receiver_solution(one_complex, [1.0, 2.0, 3.0])
        )

    def test_condition_implies_exact_recovery(self):
        rng = np.random.default_rng(19)
        hits = 0
        for tree in random_small_trees(30, seed=20):
            x_true = random_sparse_x(tree, rng, k=min(2, tree.n))
            if not recovery_condition(tree, x_true):
                continue
            hits += 1
            x_hat = upsparse(tree, forward(tree, x_true)).x
            assert np.abs(x_hat - x_true).max() < 1e-9
        assert hits > 10


@pytest.mark.parametrize("check", [classify_complexes, unique_sparsest, recovery_condition])
def test_complex_diagnostics_take_one_solution(fig_tree, check):
    with pytest.raises(OutOfDomain, match=r"need values for 5 links in x, got shape \(2, 5\)"):
        check(fig_tree, np.zeros((2, 5)))


class TestReportSerialization:
    def test_json_fields(self, fig_tree):
        data = upsparse(fig_tree, [2.0, 3.0, 4.0]).to_json()
        assert set(data) == {
            "x", "l0", "l1", "states", "unique_sparsest", "recovery_condition"
        }
        assert data["states"]["state"][0] == "up"
        assert data["x"] == [0.0, 1.0, 2.0, 2.0, 0.0]
