"""Addloss transform, forward model, formal solutions, feasibility, sampling."""

import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losstree import (
    DEFAULT_TOL,
    MIN_L0,
    NoisySolution,
    addloss,
    binarize,
    classify_complexes,
    forward,
    gen_random_tree,
    general_solution,
    gen_regular_tree,
    gen_ternary_tree,
    inverse_addloss,
    is_feasible,
    load_observations,
    load_topology,
    metrics,
    receiver_solution,
    recovery_condition,
    sample_feasible,
    save_observations,
    solution_report,
    unique_sparsest,
)
from losstree.errors import Infeasible, OutOfDomain, ParameterOutOfRange
from losstree import lossmodel
from losstree.lossmodel import plant_hotspots

from conftest import LEFT_TO_JSON, READ_FROM_BYTES, caterpillar, random_small_trees


class TestAddloss:
    def test_zero_loss_is_zero_addloss(self):
        assert addloss([0.0])[0] == 0.0
        assert inverse_addloss([0.0])[0] == 0.0

    def test_ten_percent(self):
        assert addloss([0.1])[0] == pytest.approx(0.10536051565782628, abs=1e-15)

    def test_half_is_log_two(self):
        assert inverse_addloss([math.log(2)])[0] == pytest.approx(0.5, abs=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        b = rng.uniform(0, 0.999, size=500)
        assert np.abs(inverse_addloss(addloss(b)) - b).max() < 1e-12

    def test_monotone(self):
        b = np.linspace(0, 0.99, 100)
        assert np.all(np.diff(addloss(b)) > 0)

    def test_domain_errors(self):
        with pytest.raises(OutOfDomain):
            addloss([1.0])
        with pytest.raises(OutOfDomain):
            addloss([-0.1])
        with pytest.raises(OutOfDomain):
            inverse_addloss([-1e-6])

    @pytest.mark.parametrize("transform", [addloss, inverse_addloss])
    @pytest.mark.parametrize("values", [[math.nan], [0.1, math.nan], math.nan, [[0.0], [math.nan]]])
    def test_nan_is_out_of_domain(self, transform, values):
        with pytest.raises(OutOfDomain):
            transform(values)

    def test_infinite_addloss_is_certain_loss(self):
        assert inverse_addloss(math.inf) == 1.0
        assert inverse_addloss([0.0, math.inf]).tolist() == [0.0, 1.0]


class TestForward:
    def test_three_leaf_instance(self, fig_tree):
        y = forward(fig_tree, [0, 1, 2, 2, 0])
        assert np.array_equal(y, [2, 3, 4])

    def test_zero_maps_to_zero(self, fig_tree):
        assert np.array_equal(forward(fig_tree, np.zeros(5)), np.zeros(3))

    def test_only_top_link_lossy_gives_uniform_observations(self):
        tree = gen_regular_tree(3, 3)
        x = np.zeros(tree.n)
        top = next(v for v in range(1, tree.n + 1) if tree.parent[v] == 0)
        x[top - 1] = 0.7
        assert np.allclose(forward(tree, x), 0.7)

    @pytest.mark.parametrize("make", [
        lambda: gen_ternary_tree(13), lambda: gen_random_tree(40, 3, 2), lambda: caterpillar(12),
        lambda: load_topology(Path(__file__).parent / "data" / "caterpillar40.tree"),
    ], ids=["ternary:13", "random:40:3:2", "caterpillar(12)", "caterpillar40"])
    def test_batch_rows_match_single_calls(self, make):
        """Bit for bit on every path, of 8 links or more as well as shorter ones."""
        tree = make()
        xs = np.random.default_rng(3).uniform(0.0, 1.0, (5, tree.n))
        batch = forward(tree, xs)
        assert batch.shape == (5, tree.m) and batch.flags.c_contiguous
        for x, row in zip(xs, batch):
            assert np.array_equal(row, forward(tree, x))
        assert np.array_equal(forward(tree, xs[:1])[0], forward(tree, xs[0]))

    def test_batch_of_another_width_rejected(self, fig_tree):
        with pytest.raises(OutOfDomain):
            forward(fig_tree, np.zeros((2, 4)))
        with pytest.raises(OutOfDomain):
            forward(fig_tree, np.zeros((2, 2, 5)))


class TestFormalSolutions:
    def test_receiver_solution(self, fig_tree):
        x = receiver_solution(fig_tree, [2, 3, 4])
        assert np.array_equal(x, [2, 3, 4, 0, 0])
        assert np.array_equal(forward(fig_tree, x), [2, 3, 4])

    def test_receiver_of_zero(self, fig_tree):
        assert np.array_equal(receiver_solution(fig_tree, np.zeros(3)), np.zeros(5))

    def test_receiver_sparsity_bound(self):
        rng = np.random.default_rng(1)
        for tree in random_small_trees(10, seed=2):
            y = rng.uniform(0, 1, tree.m) * (rng.random(tree.m) < 0.7)
            x = receiver_solution(tree, y)
            assert (x > 1e-9).sum() == (y > 1e-9).sum() <= tree.m

    def test_general_solution_substitution(self, fig_tree):
        x = general_solution(fig_tree, [2.0, 0.0], [2, 3, 4])
        assert np.allclose(x, [0, 1, 2, 2, 0])

    def test_general_solution_zero_internal_is_receiver(self, fig_tree):
        x = general_solution(fig_tree, [0.0, 0.0], [2, 3, 4])
        assert np.array_equal(x, receiver_solution(fig_tree, [2, 3, 4]))

    def test_general_solution_infeasible(self, fig_tree):
        with pytest.raises(Infeasible):
            general_solution(fig_tree, [3.0, 0.0], [2, 3, 4])

    def test_null_space_property(self):
        # Any feasible internal assignment reproduces the observations.
        rng = np.random.default_rng(3)
        for tree in random_small_trees(10, seed=4):
            y = rng.uniform(0.5, 2.0, tree.m)
            for _ in range(20):
                x = sample_feasible(tree, y, rng)
                assert np.abs(forward(tree, x) - y).max() < 1e-9


class TestFeasibility:
    def test_receiver_always_feasible(self, fig_tree):
        y = np.array([2.0, 3.0, 4.0])
        assert is_feasible(fig_tree, receiver_solution(fig_tree, y), y)

    def test_negative_entry_infeasible(self, fig_tree):
        y = np.array([2.0, 3.0, 4.0])
        x = receiver_solution(fig_tree, y)
        x[4] = -1e-8
        assert not is_feasible(fig_tree, x, y)

    def test_wrong_sums_infeasible(self, fig_tree):
        assert not is_feasible(fig_tree, [2, 3, 4, 0, 1], [2, 3, 4])

    def test_uniform_observations_many_placements(self, one_complex):
        # One shared loss explains uniform observations in several layouts.
        y = np.full(3, 0.5)
        for x in ([0, 0, 0, 0.5], [0.5, 0.5, 0.5, 0]):
            assert is_feasible(one_complex, x, y)

    def test_uniform_observations_feasible_at_every_level(self):
        # The same uniform observations can sit on the top link, on a whole
        # middle level, or on all the leaves; each placement is feasible.
        tree = gen_regular_tree(3, 3)
        y = np.full(tree.m, 0.5)
        for depth in (1, 2, 3):
            x = np.zeros(tree.n)
            for v in np.flatnonzero(tree.depth == depth):
                x[v - 1] = 0.5
            assert is_feasible(tree, x, y)
            assert (x > 0).sum() == (tree.depth == depth).sum()


@pytest.mark.parametrize("value, lossy", [(DEFAULT_TOL, False), (2 * DEFAULT_TOL, True)])
def test_every_verdict_uses_one_lossy_threshold(one_complex, value, lossy):
    # Exactly DEFAULT_TOL is lossless and twice it lossy, in every public verdict.
    x = np.array([value, value, value, 0.0])  # the branch node's three children carry value
    assert solution_report(one_complex, x).l0 == 3 * lossy
    assert NoisySolution(x=x, y=x[:3], z=x, mode=MIN_L0).l0() == 3 * lossy
    (state,) = classify_complexes(one_complex, x)
    assert (state.state, state.lossless_children) == (("down", 0) if lossy else ("up", 3))
    assert recovery_condition(one_complex, x) is not lossy
    assert binarize([value]).tolist() == [lossy]
    assert metrics([0.1, 0.0], [value, 0.0]).e0 == float(lossy)
    assert metrics([value, 0.0], [0.0, 0.0]).e0 == float(not lossy)


class TestSampling:
    def test_samples_cover_interior(self):
        rng = np.random.default_rng(5)
        tree = gen_regular_tree(2, 3)
        y = np.full(tree.m, 1.0)
        xs = np.array([sample_feasible(tree, y, rng) for _ in range(200)])
        assert xs.min() >= 0
        # Internal links do get strictly positive mass in many samples.
        assert (xs[:, tree.m :] > 0.05).mean() > 0.3

    @pytest.mark.parametrize("size", [2.5, -1, np.float64(3), True, "3"])
    def test_size_must_be_a_whole_number(self, size):
        tree = gen_regular_tree(2, 3)
        with pytest.raises(ParameterOutOfRange, match="size must be a whole number"):
            sample_feasible(tree, np.ones(tree.m), np.random.default_rng(0), size=size)

    @pytest.mark.parametrize("rng", [1, None, np.random.SeedSequence(0), np.random.RandomState(0),
                                     [np.random.default_rng(0)]])
    def test_needs_a_generator(self, rng):
        tree = gen_regular_tree(2, 3)
        with pytest.raises(ParameterOutOfRange, match="need a numpy random Generator"):
            sample_feasible(tree, np.ones(tree.m), rng)

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_one_generator_per_row(self, count):
        tree = gen_regular_tree(2, 3)
        rngs = [np.random.default_rng(s) for s in range(count)]
        with pytest.raises(ParameterOutOfRange, match="need one generator for each of the 2 rows"):
            sample_feasible(tree, np.ones((2, tree.m)), rngs)
        with pytest.raises(ParameterOutOfRange, match="need one generator for each of the 2 rows"):
            sample_feasible(tree, np.ones((2, tree.m)), np.random.default_rng(0))

    def test_every_row_needs_a_generator(self):
        tree = gen_regular_tree(2, 3)
        with pytest.raises(ParameterOutOfRange, match="need a numpy random Generator, got 7"):
            sample_feasible(tree, np.ones((2, tree.m)), [np.random.default_rng(0), 7], size=3)

    def test_batch_shapes(self):
        tree = gen_regular_tree(2, 3)
        rngs = [np.random.default_rng(s) for s in range(4)]
        assert sample_feasible(tree, np.ones((4, tree.m)), rngs).shape == (4, tree.n)
        assert sample_feasible(tree, np.ones((4, tree.m)), rngs, size=5).shape == (4, 5, tree.n)
        assert sample_feasible(tree, np.ones((0, tree.m)), [], size=5).shape == (0, 5, tree.n)


def bad_vector(kind, size):
    """A vector one short, one long, or of the right size with one NaN, inf or word."""
    if kind == "short":
        return np.zeros(size - 1)
    if kind == "long":
        return np.zeros(size + 1)
    if kind == "word":
        return [0.0] * (size - 1) + ["a"]
    v = np.zeros(size)
    v[size // 2] = np.nan if kind == "nan" else np.inf
    return v


# Each entry point, with one of its vector arguments replaced by bad(size).
ENTRY_POINTS = {
    "forward x": lambda t, bad: forward(t, bad(t.n)),
    "receiver_solution y": lambda t, bad: receiver_solution(t, bad(t.m)),
    "general_solution x_internal": lambda t, bad: general_solution(t, bad(t.n - t.m), np.zeros(t.m)),
    "general_solution y": lambda t, bad: general_solution(t, np.zeros(t.n - t.m), bad(t.m)),
    "is_feasible x": lambda t, bad: is_feasible(t, bad(t.n), np.zeros(t.m)),
    "is_feasible y": lambda t, bad: is_feasible(t, np.zeros(t.n), bad(t.m)),
    "sample_feasible y": lambda t, bad: sample_feasible(t, bad(t.m), np.random.default_rng(0)),
    "classify_complexes x": lambda t, bad: classify_complexes(t, bad(t.n)),
    "unique_sparsest x": lambda t, bad: unique_sparsest(t, bad(t.n)),
    "recovery_condition x": lambda t, bad: recovery_condition(t, bad(t.n)),
    "solution_report x": lambda t, bad: solution_report(t, bad(t.n)),
}


@pytest.mark.parametrize("kind", ["short", "long", "nan", "inf", "word"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_bad_vectors_rejected(entry, kind):
    tree = gen_ternary_tree(13)
    with pytest.raises(OutOfDomain):
        ENTRY_POINTS[entry](tree, lambda size: bad_vector(kind, size))


class TestObservationFiles:
    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "obs.json"
        save_observations([0.1, 0.2, 0.3], path)
        assert np.allclose(load_observations(path), [0.1, 0.2, 0.3])

    def test_probability_scale_converted(self, tmp_path):
        path = tmp_path / "obs.json"
        save_observations(addloss([0.1, 0.2]), path, scale="probability")
        assert np.allclose(load_observations(path), addloss([0.1, 0.2]))

    @pytest.mark.parametrize("y", [[math.nan, 1.0], [math.inf, 1.0], [[0.1, 0.2]]])
    def test_only_finite_rows_saved(self, tmp_path, y):
        """JSON has no NaN or Infinity, and a file holds one observation."""
        path = tmp_path / "obs.json"
        with pytest.raises(OutOfDomain):
            save_observations(y, path)
        assert not path.exists()

    def test_bare_array(self, tmp_path):
        path = tmp_path / "obs.json"
        path.write_text("[1.0, 2.0]")
        assert np.array_equal(load_observations(path), [1.0, 2.0])

    def test_text_format(self, tmp_path):
        path = tmp_path / "obs.txt"
        path.write_text("# test\nscale addloss\ny 1 2.0\ny 2 3.0\ny 3 4.0\n")
        assert np.array_equal(load_observations(path), [2.0, 3.0, 4.0])

    def test_text_probability_scale(self, tmp_path):
        path = tmp_path / "obs.txt"
        path.write_text("scale probability\ny 1 0.1\ny 2 0.0\n")
        assert np.allclose(load_observations(path), addloss([0.1, 0.0]))

    def test_negative_rejected(self, tmp_path):
        path = tmp_path / "obs.json"
        path.write_text("[-1.0]")
        with pytest.raises(OutOfDomain):
            load_observations(path)

    @pytest.mark.parametrize(
        "text",
        [
            "y 1 0.1\ny 2 0.2\ny 4 0.3\n",  # path 3 missing
            "y 1 0.1\ny 2 0.2\ny 2 0.3\n",  # path 2 twice
            "y 0 0.1\ny 1 0.2\n",  # numbering starts at 1
            "y 1 0.1\ny 2\n",  # value missing
            "y 1 0.1\ny two 0.2\n",  # path not a number
            "y 1 0.1\ny 2 nan\n",
            "y 1 0.1\ny 2 inf\n",
            "scale\ny 1 0.1\n",
        ],
    )
    def test_malformed_text_rejected(self, tmp_path, text):
        path = tmp_path / "obs.txt"
        path.write_text(text)
        with pytest.raises(OutOfDomain):
            load_observations(path)

    @pytest.mark.parametrize("text", ["[0.1, NaN]", '{"y": [0.1, Infinity]}',
                                      '{"scale": "probability", "y": [NaN]}'])
    def test_non_finite_json_rejected(self, tmp_path, text):
        path = tmp_path / "obs.json"
        path.write_text(text)
        with pytest.raises(OutOfDomain):
            load_observations(path)

    @pytest.mark.parametrize("text", ['{"scale": "addloss"}', '{"y": null, "x": [0.1]}',
                                      '["a"]', '{"y": [0.1, "b"]}', '{"y": {"1": 0.1}}'])
    def test_malformed_json_rejected(self, tmp_path, text):
        path = tmp_path / "obs.json"
        path.write_text(text)
        with pytest.raises(OutOfDomain):
            load_observations(path)


class TestObservationFileRoutes:
    """Long files in the package's layout are read from their bytes, to json's values and errors."""

    @staticmethod
    def outcome(path):
        """The values load_observations reads, as bytes, or the (type, message) of its error."""
        try:
            return load_observations(path).tobytes()
        except ValueError as exc:  # OutOfDomain, or json's JSONDecodeError
            return type(exc), str(exc)

    def both_routes(self, path):
        """The outcome with the byte read taking files of any size, and with it turned off."""
        with mock.patch("losstree.lossmodel.FEW_JSON_CHARS", 0):
            by_bytes = self.outcome(path)
        with mock.patch("losstree.lossmodel._bulk_observations", return_value=None):
            return by_bytes, self.outcome(path)

    @pytest.mark.parametrize("head", ['{"scale": "addloss", "y": %s}',
                                      '{"scale": "probability", "y": %s}', "%s"])
    @pytest.mark.parametrize("value", READ_FROM_BYTES + LEFT_TO_JSON)
    def test_value_spellings_read_as_json_reads_them(self, tmp_path, head, value):
        text = head % f"[{'0.0, ' * 9}{value}{', 0.0' * 9}]"
        path = tmp_path / "obs.json"
        path.write_text(text, encoding="utf-8")
        by_bytes, by_json = self.both_routes(path)
        assert by_bytes == by_json
        with mock.patch("losstree.lossmodel.FEW_JSON_CHARS", 0):
            taken = lossmodel._bulk_observations(text) is not None
        assert taken == (value in READ_FROM_BYTES)

    @pytest.mark.parametrize("text", [
        "[]", "{}", "[0.0]", "[[0.0]]", '{"scale": "addloss", "y": []}', '{"y": [0.0, 1.5]}',
        '{"y": [0.0, 1.5], "scale": "addloss"}',  # reordered keys
        '{"scale": "addloss", "y": [0.0, 1.5], "y": [2.0]}',  # a repeated key
        '{"scale": "addloss", "scale": "probability", "y": [0.0, 0.5]}',
        '{"scale": "percent", "y": [0.0, 1.5]}', '{"scale": "addl0ss", "y": [0.0, 1.5]}',
        '{"scale": "addloss", "y": [0.0, 1.5], "note": 7}',  # an extra key
        '{"scale":"addloss","y":[0.0,1.5]}', "[0.0,1.5]", "[0.0,  1.5]",  # other spacing
        "[0.0, 1.5]\r\n", "[0.0, 1.5]\n\n", " [0.0, 1.5]", "[0.0, 1.5] ", "[0.0,\t1.5]",
        "\ufeff[0.0, 1.5]",  # a byte-order mark
        '{"sc\\u0061le": "addloss", "y": [0.0, 1.5]}',  # an escape
        '{"scale": "addloss", "y": [0.0, 1.5], "n\u00f6te": 0}',  # non-ASCII
        "[0.0, 1.5,]", "[0.0 1.5]", "[0.0, , 1.5]", "[, 0.0]", "[0.0, 1.5]5", "5[0.0, 1.5]",
        "[0.0, 1.5]]", "[0.0, -1.5]", "[,0.0 1.5]", "[0.0,1.5 ]", '{"scale": "probability", "y": [0.0, 1.0]}',
        '{"scale": "addloss", "y": [0.0, 1.5]}}', '{"scale": "addloss", "y": 1.5}',
    ])
    def test_other_layouts_read_as_json_reads_them(self, tmp_path, text):
        path = tmp_path / "obs.json"
        path.write_text(text, encoding="utf-8")
        by_bytes, by_json = self.both_routes(path)
        assert by_bytes == by_json

    def test_mostly_nonzero_values_are_left_to_json(self):
        """The byte read gains by skipping zeros; json.loads reads other arrays faster."""
        with mock.patch("losstree.lossmodel.FEW_JSON_CHARS", 0):
            assert lossmodel._bulk_observations("[0.0, 0.0, 0.0, 0.0, 1.5, 0.0]") is not None
            assert lossmodel._bulk_observations("[0.0, 0.0, 2.5, 1.5, 0.0]") is None

    @settings(max_examples=100, deadline=None)
    @given(y=st.lists(st.just(0.0) | st.floats(0.0, allow_infinity=False) | st.integers(0, 2**80),
                      min_size=1, max_size=30),
           scale=st.sampled_from(["addloss", "probability", None]))
    def test_written_values_read_as_json_reads_them(self, tmp_path_factory, y, scale):
        y = [v for value in y for v in (value, *[0.0] * 6)]  # mostly zeros, as the byte read wants
        text = json.dumps(y if scale is None else {"scale": scale, "y": y})
        path = tmp_path_factory.mktemp("obs") / "obs.json"
        path.write_text(text, encoding="utf-8")
        by_bytes, by_json = self.both_routes(path)
        assert by_bytes == by_json
        with mock.patch("losstree.lossmodel.FEW_JSON_CHARS", 0):
            assert lossmodel._bulk_observations(text) is not None

    def test_saved_file_is_never_decoded_whole(self, tmp_path):
        """A long file save_observations writes takes the byte read: json.loads never sees all of it."""
        rng = np.random.default_rng(5)
        y = np.where(rng.random(5000) < 0.03, rng.uniform(0.0, 0.2, 5000), 0.0)
        path = tmp_path / "obs.json"
        save_observations(y, path)
        text = path.read_text(encoding="utf-8")
        assert (y > 0).sum() > 100
        with mock.patch("json.loads", wraps=json.loads) as loads:
            read = self.outcome(path)
        decoded = [call.args[0] for call in loads.call_args_list]
        assert decoded and text not in decoded  # only the lossy values' tokens
        assert read == y.tobytes()

    def test_small_file_is_decoded_whole(self, tmp_path):
        """Below FEW_JSON_CHARS (a 9-path file here) json.loads beats the byte read."""
        path = tmp_path / "obs.json"
        save_observations([0.0] * 8 + [0.5], path)
        with mock.patch("json.loads", wraps=json.loads) as loads:
            load_observations(path)
        loads.assert_called_once_with(path.read_text(encoding="utf-8"))


class TestPlantHotspots:
    def test_k_lossy_links_in_range(self):
        tree = gen_regular_tree(3, 3)
        b = plant_hotspots(tree, 4, (0.02, 0.05), seed=1, key=0)
        assert np.count_nonzero(b) == 4
        assert np.all((b == 0) | ((b >= 0.02) & (b <= 0.05)))

    @pytest.mark.parametrize("K, loss_range", [(-1, (0.01, 0.1)), (14, (0.01, 0.1)),
                                               (2, (0.0, 0.1)), (2, (0.2, 0.1)), (2, (0.1, 1.0)),
                                               (2, (0.1,)), (2, ("a", "b")), (2, 0.1),
                                               (1.5, (0.01, 0.1)), (True, (0.01, 0.1))])
    def test_bad_parameters_rejected(self, K, loss_range):
        with pytest.raises(ParameterOutOfRange):
            plant_hotspots(gen_regular_tree(3, 3), K, loss_range, seed=0, key=0)

    @pytest.mark.parametrize("K, seed, key, sup", [
        (2, -1, 0, None),  # a bare ValueError from SeedSequence
        (2, 0, -1, None),
        (2, 0, "a", None),
        (2, 0, 1.5, None),  # a bare TypeError
        (2, 0, [0, -1], None),
        (2, 0, 0, [1, 1]),  # used to plant one lossy link instead of two
        (2, 0, 0, [0, 99]),  # an IndexError
        (2, 0, 0, [0, 1, 2]),
        (2, 0, 0, [0.0, 1.0]),
        (2, 0, range(2), [0, 1]),  # one support for two keys
        (2, 0, range(2), [[0, 1], [3, 3]]),
    ])
    def test_bad_seed_key_or_support_rejected(self, K, seed, key, sup):
        with pytest.raises(ParameterOutOfRange):
            plant_hotspots(gen_regular_tree(3, 3), K, (0.01, 0.1), seed, key, sup)

    @pytest.mark.parametrize("K, keys, fixed", [
        (3, range(7), False),
        (3, range(5), True),
        (0, range(4), False),
        (0, range(4), True),
        (2, range(9, 10), False),
        (2, range(9, 10), True),
        (13, [11, 2, 40, 2], False),
        (1, np.array([8, 0, 3]), True),
    ])
    def test_a_batch_equals_its_single_calls(self, K, keys, fixed):
        tree = gen_regular_tree(3, 3)
        sup = np.random.default_rng(K).permuted(np.tile(np.arange(tree.n), (len(keys), 1)), axis=1)
        sup = sup[:, :K] if fixed else None
        batch = plant_hotspots(tree, K, (0.02, 0.05), 7, keys, sup)
        assert batch.shape == (len(keys), tree.n)
        for r, key in enumerate(keys):
            row_sup = None if sup is None else sup[r]
            single = plant_hotspots(tree, K, (0.02, 0.05), 7, int(key), row_sup)
            assert np.array_equal(batch[r], single)
            assert np.count_nonzero(single) == K
