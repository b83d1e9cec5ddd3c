"""Interval observations: local optima, subtree statistics, interval solver."""

import json
import math
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from losstree import (
    IntervalObservation,
    MIN_L0,
    MIN_L1,
    MIN_L1_AMONG_L0,
    closed_form,
    forward,
    glocal_family,
    load_intervals,
    local_min_l0,
    local_min_l1,
    save_intervals,
    upsparse_plus,
    z_stats,
)
from losstree import noisy
from losstree.errors import OutOfDomain, XOutOfRange
from losstree.noisy import MODES

from conftest import LEFT_TO_JSON, READ_FROM_BYTES, random_small_trees, random_sparse_x

INF = math.inf


def random_intervals(tree, rng, p_unbounded=0.25):
    lo = rng.uniform(0.0, 1.0, tree.m) * (rng.random(tree.m) < 0.8)
    width = rng.uniform(0.0, 0.8, tree.m)
    hi = np.where(rng.random(tree.m) < p_unbounded, INF, lo + width)
    return IntervalObservation(lo=lo, hi=hi)


def fewest_lossy_links(tree, iv, v):
    """z -> the fewest lossy links at and under v when v's father has path loss z.

    Each node tries every path loss: its father's, or any lower bound above
    it (some optimum takes its values from these).
    """
    values = sorted(set(iv.lo.tolist()))

    @lru_cache(maxsize=None)
    def f(u, z):
        best = INF
        for z_u in [z] + [s for s in values if s > z]:
            if tree.is_internal(u):
                cost = sum(f(c, z_u) for c in tree.children[u])
            else:
                cost = 0 if iv.lo[u - 1] <= z_u <= iv.hi[u - 1] else INF
            best = min(best, cost + (z_u > z))
        return best

    return lambda z: f(v, z)


class TestIntervalObservation:
    def test_validation(self):
        with pytest.raises(OutOfDomain):
            IntervalObservation(lo=[1.0], hi=[0.5])
        with pytest.raises(OutOfDomain):
            IntervalObservation(lo=[-0.1], hi=[1.0])
        with pytest.raises(OutOfDomain):
            IntervalObservation(lo=[INF], hi=[INF])
        with pytest.raises(OutOfDomain):
            IntervalObservation(lo=[0.0, 1.0], hi=[1.0, math.nan])

    @pytest.mark.parametrize("lo, hi", [
        (["a"], ["b"]), ([0.0], ["b"]), ([[0.0], [0.0, 1.0]], [1.0])
    ])
    def test_non_numeric_bounds_rejected(self, lo, hi):
        with pytest.raises(OutOfDomain, match="interval bounds must be numbers"):
            IntervalObservation(lo=lo, hi=hi)

    def test_degenerate_and_contains(self):
        iv = IntervalObservation.exact([1.0, 2.0])
        assert iv.contains([1.0, 2.0])
        assert not iv.contains([1.0, 2.1])

    def test_file_round_trip(self, tmp_path):
        iv = IntervalObservation(lo=[0.0, -0.0, 0.1, 1e-300], hi=[2.5, INF, 0.1 + 0.2, 7.0])
        path = tmp_path / "iv.json"
        save_intervals(iv, path)
        loaded = load_intervals(path)
        assert np.array_equal(loaded.lo, iv.lo)
        assert np.array_equal(loaded.hi, iv.hi)
        written = path.read_bytes()
        assert written == (b'[{"path": 1, "lo": 0.0, "hi": 2.5}, '
                           b'{"path": 2, "lo": -0.0, "hi": "inf"}, '
                           b'{"path": 3, "lo": 0.1, "hi": 0.30000000000000004}, '
                           b'{"path": 4, "lo": 1e-300, "hi": 7.0}]\n')
        save_intervals(loaded, path)
        assert path.read_bytes() == written

    def test_stacked_intervals_rejected(self, tmp_path):
        iv = IntervalObservation(lo=np.zeros((2, 3)), hi=np.ones((2, 3)))
        path = tmp_path / "iv.json"
        with pytest.raises(OutOfDomain, match=r"one interval per path, got shape \(2, 3\)"):
            save_intervals(iv, path)
        assert not path.exists()

    def test_file_must_cover_all_paths(self, tmp_path):
        path = tmp_path / "iv.json"
        path.write_text('[{"path": 1, "lo": 0, "hi": 1}, {"path": 3, "lo": 0, "hi": 1}]')
        with pytest.raises(OutOfDomain):
            load_intervals(path)


# Values a row may hold, most of them ones the byte read must leave to the row walk.
ROW_VALUES = st.one_of(
    st.floats(0.0, 10.0), st.integers(0, 10),
    st.sampled_from([2**70, 10**400, -1.0, 2.0, 2.5, True, None, "inf", "Infinity", "0.1",
                     math.nan, math.inf, [1.0], {}]),
)


@st.composite
def interval_rows(draw):
    """Rows of an interval file, in path order or not, with a few of ROW_VALUES' faults."""
    m = draw(st.integers(0, 8))
    paths = draw(st.permutations(range(1, m + 1)) | st.just(range(1, m + 1)))
    rows = []
    for j in paths:
        lo = draw(st.floats(0.0, 10.0) | st.integers(0, 10))
        row = {"path": j, "lo": lo, "hi": draw(st.sampled_from(["inf", lo, lo + 1, 2 * lo]))}
        if draw(st.integers(0, 9)) == 0:
            row[draw(st.sampled_from(["path", "lo", "hi"]))] = draw(ROW_VALUES)
        if draw(st.integers(0, 19)) == 0:
            del row[draw(st.sampled_from(["path", "lo", "hi"]))]
        rows.append(row)
    if rows and draw(st.integers(0, 9)) == 0:
        rows.append(draw(st.sampled_from([rows[0], [1, 0.0, 1.0], "row", None])))
    return rows


def interval_text(value, slot):
    """A three-row interval file in the package's layout; row 2 holds ``value`` in ``slot``."""
    cells = [{"path": str(j), "lo": "0.0", "hi": "1.0"} for j in (1, 2, 3)]
    cells[1][slot] = value
    return "[" + ", ".join('{"path": %(path)s, "lo": %(lo)s, "hi": %(hi)s}' % c for c in cells) + "]"


class TestIntervalFiles:
    @staticmethod
    def outcome(path):
        """The bounds load_intervals reads, as bytes, or the (type, message) of its error."""
        try:
            iv = load_intervals(path)
        except ValueError as exc:  # OutOfDomain, or json's JSONDecodeError
            return type(exc), str(exc)
        return iv.lo.tobytes(), iv.hi.tobytes(), iv.lo.shape

    def both_routes(self, path):
        """The outcome with the byte read taking files of any size, and with it turned off."""
        with mock.patch("losstree.lossmodel.FEW_JSON_CHARS", 0):
            by_bytes = self.outcome(path)
        with mock.patch("losstree.noisy._bulk_intervals", return_value=None):
            return by_bytes, self.outcome(path)

    @settings(max_examples=200, deadline=None)
    @given(rows=interval_rows())
    @example(rows=[{"path": True, "lo": 0, "hi": 1}, {"path": 2, "lo": 0, "hi": 1}])
    @example(rows=[{"path": 1.0, "lo": 0, "hi": 1}, {"path": 2, "lo": 0, "hi": None}])
    @example(rows=[{"path": 1, "lo": 10**400, "hi": "inf"}])
    def test_byte_read_matches_the_row_walk(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("iv") / "iv.json"
        path.write_text(json.dumps(rows), encoding="utf-8")
        by_bytes, by_json = self.both_routes(path)
        assert by_bytes == by_json

    def test_package_layout_in_path_order_is_read_from_bytes(self):
        rows = [{"path": 1, "lo": 0.5, "hi": 2}, {"path": 2, "lo": 1, "hi": "inf"}]
        with mock.patch("losstree.lossmodel.FEW_JSON_CHARS", 0):
            lo, hi = noisy._bulk_intervals(json.dumps(rows))
            assert (lo.tolist(), hi.tolist()) == ([0.5, 1.0], [2.0, INF])
            assert noisy._bulk_intervals(json.dumps(rows[::-1])) is None  # read by the row walk

    @pytest.mark.parametrize("slot", ["lo", "hi"])
    @pytest.mark.parametrize("value", READ_FROM_BYTES + LEFT_TO_JSON)
    def test_value_spellings_read_as_json_reads_them(self, tmp_path, slot, value):
        text = interval_text(value, slot)
        path = tmp_path / "iv.json"
        path.write_text(text, encoding="utf-8")
        by_bytes, by_json = self.both_routes(path)
        assert by_bytes == by_json
        with mock.patch("losstree.lossmodel.FEW_JSON_CHARS", 0):
            taken = noisy._bulk_intervals(text) is not None
        assert taken == (value in READ_FROM_BYTES or (slot, value) == ("hi", '"inf"'))

    @pytest.mark.parametrize("value", ["2", "02", "2.0", "2e0", "+2", "-2", "0", "1", "3", "20",
                                       "2 ", '"2"', "true", "null", "1" + "0" * 30])
    def test_path_spellings_read_as_json_reads_them(self, tmp_path, value):
        path = tmp_path / "iv.json"
        path.write_text(interval_text(value, "path"), encoding="utf-8")
        by_bytes, by_json = self.both_routes(path)
        assert by_bytes == by_json

    @pytest.mark.parametrize("text", [
        "[]", "{}", "[{}]", "", "\n", "0.0", "[0.0]",
        '[{"lo": 0.0, "path": 1, "hi": 1.0}]',  # reordered keys
        '[{"path": 1, "path": 2, "lo": 0.0, "hi": 1.0}]',  # a repeated key
        '[{"path": 1, "lo": 0.0, "hi": 1.0, "hi": 0.5}]',
        '[{"path": 1, "lo": 0.0, "hi": 1.0, "note": 7}]',  # an extra key
        '[{"path": 1, "lo": 0.0}]',  # a missing key
        '[{"path":1,"lo":0.0,"hi":1.0}]',  # other spacing
        '[{"path": 1, "lo": 0.0, "hi": 1.0}]\r\n',
        '[{"path": 1, "lo": 0.0, "hi": 1.0}]\n\n',
        ' [{"path": 1, "lo": 0.0, "hi": 1.0}]',
        '[{"path": 1, "lo": 0.0, "hi": 1.0}]  ',
        '[{"path": 1,\t"lo": 0.0, "hi": 1.0}]',
        '[{"path": 1, "lo": 0.0, "hi": 1.0},{"path": 2, "lo": 0.0, "hi": 1.0}]',
        '\ufeff[{"path": 1, "lo": 0.0, "hi": 1.0}]',  # a byte-order mark
        '[{"p\\u0061th": 1, "lo": 0.0, "hi": 1.0}]',  # an escape
        '[{"path": 1, "lo": 0.0, "hi": 1.0, "n\u00f6te": 0}]',  # non-ASCII
        '[{"path": 1, "lo": 0.0, "hi": "inf"}, {"path": 2, "lo": 3.0, "hi": "inf"}]',
        '[{"path": 1, "lo": 0.0, "hi": "inf1"}]', '[{"path": 1, "lo": 0.0, "hi": "1inf"}]',
        '[{"path": 1, "lo": 0.0, "hi": 1"inf"}]', '[{"path": 1, "lo": 0.0, "hi": "inf"1}]',
        '[{"path": 1, "lo": 0.0 0.0, "hi": 1.0}]', '[{"path": 1, "lo": , "hi": 1.0}]',
        # as many numbers as the layout's slots, one of them out of its slot
        '[{"pa1th": , "lo": 0.0, "hi": 1.0}]', '[{"path": 1, "l0o": , "hi": "inf"}]',
        '[{"path": 1, "lo": , "hi": "i1nf"}]', '[{"path": 1, "lo": 0.0, "hi": 1.0 }]',
        '[{"path": 1, "lo": 0.0, "hi": 1.0}, {"path": 1, "lo": 0.0, "hi": 1.0}]',  # path twice
        '[{"path": 2, "lo": 0.0, "hi": 1.0}, {"path": 1, "lo": 0.0, "hi": 1.0}]',  # out of order
        '[{"path": 1, "lo": 0.0, "hi": 1.0}, {"path": 3, "lo": 0.0, "hi": 1.0}]',  # path 2 missing
        '[{"path": 0, "lo": 0.0, "hi": 1.0}]',
        '[{"path": 1, "lo": 2.0, "hi": 1.0}]', '[{"path": 1, "lo": -1.0, "hi": 1.0}]',
        '[{"path": 1, "lo": 1e999, "hi": "inf"}]',
        '[{"path": 1, "lo": 0.0, "hi": 1.0}]5', '5[{"path": 1, "lo": 0.0, "hi": 1.0}]',
        '[{"path": 1, "lo": 0.0, "hi": 1.0}]]', '[[{"path": 1, "lo": 0.0, "hi": 1.0}]]',
    ])
    def test_other_layouts_read_as_json_reads_them(self, tmp_path, text):
        path = tmp_path / "iv.json"
        path.write_text(text, encoding="utf-8")
        by_bytes, by_json = self.both_routes(path)
        assert by_bytes == by_json

    @pytest.mark.parametrize("path_31, path_63", [("1E", "63"), ("31", "1e"), ("31", "63")])
    def test_paths_with_other_bytes_are_not_digits(self, tmp_path, path_31, path_63):
        """"1E" and "1e" would pass as 31 and 63 if their letters were read as digits."""
        text = json.dumps([{"path": j, "lo": 0.0, "hi": 1.0} for j in range(1, 70)])
        text = text.replace('"path": 31,', f'"path": {path_31},').replace('"path": 63,', f'"path": {path_63},')
        path = tmp_path / "iv.json"
        path.write_text(text, encoding="utf-8")
        by_bytes, by_json = self.both_routes(path)
        assert by_bytes == by_json

    def test_saved_file_is_never_decoded_whole(self, tmp_path):
        """A long file save_intervals writes takes the byte read: json.loads never sees all of it."""
        rng = np.random.default_rng(5)
        lo = np.where(rng.random(5000) < 0.03, rng.uniform(0.0, 0.2, 5000), 0.0)
        hi = np.where(rng.random(5000) < 0.01, INF, lo + (lo > 0) * rng.uniform(0.0, 0.1, 5000))
        path = tmp_path / "iv.json"
        save_intervals(IntervalObservation(lo=lo, hi=hi), path)
        text = path.read_text(encoding="utf-8")
        assert '"hi": "inf"' in text and (lo > 0).sum() > 100
        with mock.patch("json.loads", wraps=json.loads) as loads:
            read = self.outcome(path)
        decoded = [call.args[0] for call in loads.call_args_list]
        assert decoded and text not in decoded  # only the lossy values' tokens
        assert read == (lo.tobytes(), hi.tobytes(), (5000,))

    def test_small_file_is_decoded_whole(self, tmp_path):
        """Below FEW_JSON_CHARS (a 9-path file here) json.loads beats the byte read."""
        path = tmp_path / "iv.json"
        save_intervals(IntervalObservation(lo=[0.0] * 8 + [0.5], hi=[0.0] * 8 + [INF]), path)
        with mock.patch("json.loads", wraps=json.loads) as loads:
            load_intervals(path)
        loads.assert_called_once_with(path.read_text(encoding="utf-8"))


class TestGlocalFamily:
    def test_bounded_lowest_interval(self):
        assert np.array_equal(
            glocal_family([0, 3, 5], [2, INF, INF], 2.0), [0, 1, 3, 2]
        )

    def test_pull_everything_up(self):
        assert np.array_equal(
            glocal_family([1, 3, 5], [6, INF, INF], 5.0), [0, 0, 0, 5]
        )

    def test_degenerate_reduces_to_up_state(self):
        y = np.array([2.0, 3.0, 4.0])
        member = glocal_family(y, y, y.min())
        assert np.array_equal(member, [0, 1, 2, 2])

    def test_out_of_range(self):
        with pytest.raises(XOutOfRange):
            glocal_family([1, 3, 5], [4, 4, 6], 0.5)
        with pytest.raises(XOutOfRange):
            glocal_family([1, 3, 5], [4, 4, 6], 4.5)

    def test_nan_is_out_of_range(self):
        with pytest.raises(XOutOfRange, match="x=nan outside"):
            glocal_family([1, 3, 5], [4, 4, 6], math.nan)


class TestLocalMinL0:
    def test_zero_lower_bound_unique(self):
        res = local_min_l0([0, 3, 5], [2, INF, INF])
        assert res.case == 2
        assert res.unique
        assert res.l0 == 2
        assert np.array_equal(res.solution, [0, 3, 5, 0])

    def test_all_positive_shared_interval(self):
        res = local_min_l0([1, 3, 5], [4, 4, 6])
        assert res.case == 1
        assert (res.x_lo, res.x_hi) == (3.0, 4.0)
        assert res.l0 == 2
        assert not res.unique

    def test_tie_with_zero_flagged(self):
        # Sparsity 2 both at zero and on the interval [3, 4].
        res = local_min_l0([0, 3, 5], [4, 4, 6])
        assert res.case == 3
        assert res.alternate_at_zero
        assert res.l0 == 2
        assert (res.x_lo, res.x_hi) == (3.0, 4.0)

    def test_interval_beats_zero(self):
        # Two positive lower bounds under the cap: origin costs 3, interval 2.
        res = local_min_l0([0, 2, 3, 9], [4, 4, 4, INF])
        assert res.case == 4
        assert res.l0 == 2
        assert (res.x_lo, res.x_hi) == (3.0, 4.0)

    def test_degenerate_matches_noiseless(self):
        y = [2.0, 3.0, 4.0]
        res = local_min_l0(y, y)
        assert res.case == 1
        assert res.unique
        assert np.array_equal(res.solution, [0, 1, 2, 2])

    def test_duplicate_zeros_still_tie(self):
        # Both zeros stay lossless at the origin; one positive bound crossed.
        res = local_min_l0([0, 0, 5], [6, INF, INF])
        assert res.case == 3
        assert res.l0 == 1
        assert res.alternate_at_zero


class TestLocalMinL1:
    def test_bounded_lowest_interval(self):
        res = local_min_l1([0, 3, 5], [2, INF, INF])
        assert res.x_star == 2.0
        assert res.l1 == pytest.approx(6.0)
        assert res.unique
        assert np.array_equal(res.solution, [0, 1, 3, 2])

    def test_unbounded_pulls_to_largest_lower(self):
        res = local_min_l1([1, 3, 5], [6, INF, INF])
        assert res.x_star == 5.0
        assert res.l1 == pytest.approx(5.0)
        assert (res.x_lo, res.x_hi) == (3.0, 5.0)
        assert not res.unique
        assert np.array_equal(res.solution, [0, 0, 0, 5])

    def test_shared_plateau(self):
        res = local_min_l1([1, 3, 5], [4, 4, 6])
        assert (res.x_lo, res.x_hi) == (3.0, 4.0)
        assert res.l1 == pytest.approx(5.0)
        # Evaluate the family norm at both plateau ends.
        for x in (3.0, 4.0):
            assert glocal_family([1, 3, 5], [4, 4, 6], x).sum() == pytest.approx(5.0)

    def test_minimum_against_dense_scan(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = int(rng.integers(2, 6))
            lo = np.round(rng.uniform(0, 2, m), 3)
            hi = np.where(rng.random(m) < 0.3, INF, lo + rng.uniform(0, 2, m))
            res = local_min_l1(lo, hi)
            xs = np.linspace(lo.min(), min(hi.min(), lo.max() + 3), 500)
            norms = [glocal_family(lo, hi, x).sum() for x in xs]
            assert res.l1 <= min(norms) + 1e-9


class TestZStats:
    def test_leaves_take_their_own_bounds(self, fig_tree):
        iv = IntervalObservation(lo=[1.0, 2.0, 3.0], hi=[4.0, INF, 5.0])
        zs = z_stats(fig_tree, iv)
        for j in fig_tree.leaves:
            assert zs.min_upper[j - 1] == iv.hi[j - 1]
            assert zs.max_lower[j - 1] == iv.lo[j - 1]
            assert zs.l0_threshold[j - 1] == iv.lo[j - 1]

    def test_single_complex_golden(self, one_complex):
        zs = z_stats(one_complex, IntervalObservation(lo=[1, 3, 5], hi=[4, 4, 6]))
        assert zs.min_upper[3] == 4.0
        assert zs.max_lower[3] == 5.0
        assert zs.l0_threshold[3] == 3.0

    def test_degenerate_equals_subtree_minimum(self):
        rng = np.random.default_rng(1)
        for tree in random_small_trees(10, seed=2):
            y = rng.uniform(0.0, 1.0, tree.m)
            zs = z_stats(tree, IntervalObservation.exact(y))
            for v in range(1, tree.n + 1):
                lo, hi = tree.leaf_span[v]
                gamma = y[lo - 1 : hi - 1].min()
                assert zs.l0_threshold[v - 1] == gamma
                assert zs.min_upper[v - 1] == gamma
                assert zs.max_lower[v - 1] == y[lo - 1 : hi - 1].max()

    def test_definition_by_direct_evaluation(self):
        """l0_threshold: the smallest father path loss at which a subtree needs
        its fewest lossy links; below it, exactly one more."""
        rng = np.random.default_rng(3)
        for tree in random_small_trees(10, seed=4):
            iv = random_intervals(tree, rng)
            zs = z_stats(tree, iv)
            for v in range(1, tree.n + 1):
                lo, hi = tree.leaf_span[v]
                lows = iv.lo[lo - 1 : hi - 1]
                ups = iv.hi[lo - 1 : hi - 1]
                assert zs.min_upper[v - 1] == ups.min()
                assert zs.max_lower[v - 1] == lows.max()
                fewest = fewest_lossy_links(tree, iv, v)
                least = fewest(min(ups.min(), lows.max()))
                t = zs.l0_threshold[v - 1]
                assert t == min(z for z in [0.0, *lows] if fewest(z) == least)
                assert all(fewest(z) == least + 1 for z in [0.0, *lows] if z < t)


class TestUpsparsePlus:
    def test_single_complex_goldens(self, one_complex):
        iv = IntervalObservation(lo=[0, 3, 5], hi=[2, INF, INF])
        assert np.array_equal(upsparse_plus(one_complex, iv, MIN_L0).x, [0, 3, 5, 0])
        assert np.array_equal(upsparse_plus(one_complex, iv, MIN_L1).x, [0, 1, 3, 2])

    def test_single_complex_l1_among_l0_adjustment(self, one_complex):
        iv = IntervalObservation(lo=[1, 3, 5], hi=[4, 4, 6])
        sol0 = upsparse_plus(one_complex, iv, MIN_L0)
        sol10 = upsparse_plus(one_complex, iv, MIN_L1_AMONG_L0)
        assert sol0.x[3] == 3.0
        assert sol10.x[3] == 4.0
        assert sol0.l0() == sol10.l0() == 2
        assert sol10.l1() <= sol0.l1()

    def test_degenerate_intervals_reduce_exactly(self):
        rng = np.random.default_rng(5)
        for tree in random_small_trees(20, seed=6):
            y = forward(tree, random_sparse_x(tree, rng))
            x_star = closed_form(tree, y)
            for mode in MODES:
                sol = upsparse_plus(tree, IntervalObservation.exact(y), mode)
                assert np.array_equal(sol.x, x_star)
                assert np.array_equal(sol.y, y)

    def test_feasibility_all_modes(self):
        rng = np.random.default_rng(7)
        for tree in random_small_trees(20, seed=8):
            iv = random_intervals(tree, rng)
            for mode in MODES:
                sol = upsparse_plus(tree, iv, mode)
                assert sol.x.min() >= 0
                assert iv.contains(sol.y)
                assert np.abs(forward(tree, sol.x) - sol.y).max() < 1e-9

    def test_path_loss_consistent_with_links(self):
        rng = np.random.default_rng(9)
        for tree in random_small_trees(10, seed=10):
            iv = random_intervals(tree, rng)
            sol = upsparse_plus(tree, iv, MIN_L0)
            for v in range(1, tree.n + 1):
                p = int(tree.parent[v])
                z_father = 0.0 if p == 0 else sol.z[p - 1]
                assert sol.z[v - 1] == pytest.approx(z_father + sol.x[v - 1])

    def test_lossy_nodes_sit_in_their_interval(self):
        rng = np.random.default_rng(11)
        for tree in random_small_trees(10, seed=12):
            iv = random_intervals(tree, rng)
            zs = z_stats(tree, iv)
            sol = upsparse_plus(tree, iv, MIN_L0)
            for v in range(1, tree.n + 1):
                if sol.x[v - 1] > 1e-9:
                    assert zs.l0_threshold[v - 1] - 1e-12 <= sol.z[v - 1]
                    assert sol.z[v - 1] <= zs.min_upper[v - 1] + 1e-12

    def test_monotone_refinement_converges(self):
        # Shrinking the box toward a point recovers the exact solver output.
        rng = np.random.default_rng(13)
        for tree in random_small_trees(5, seed=14):
            y = rng.uniform(0.3, 1.0, tree.m)
            x_star = closed_form(tree, y)
            last_gap = None
            for w in (0.3, 0.1, 0.01, 0.0):
                iv = IntervalObservation(lo=np.maximum(y - w, 0), hi=y + w)
                sol = upsparse_plus(tree, iv, MIN_L1_AMONG_L0)
                gap = np.abs(sol.x - x_star).max()
                if last_gap is not None:
                    assert gap <= last_gap + 1e-12
                last_gap = gap
            assert last_gap == 0.0

    def test_min_l1_skips_the_l0_pass(self):
        """MIN_L1 never calls z_stats, and scans its threshold min(max_lower, min_upper)."""
        rng = np.random.default_rng(15)
        for tree in random_small_trees(10, seed=16):
            iv = random_intervals(tree, rng)
            zs = z_stats(tree, iv)
            z = np.zeros(tree.n + 1)
            for v in [*tree.internal, *tree.leaves]:  # fathers first
                z[v] = max(z[tree.parent[v]], min(zs.max_lower[v - 1], zs.min_upper[v - 1]))
            batch = IntervalObservation(lo=np.stack([iv.lo, iv.lo]), hi=np.stack([iv.hi, iv.hi]))
            with mock.patch("losstree.noisy.z_stats", side_effect=AssertionError("l0 pass")):
                sol, rows = upsparse_plus(tree, iv, MIN_L1), upsparse_plus(tree, batch, MIN_L1)
            assert np.array_equal(sol.z, z[1:]) and np.array_equal(rows.z, [z[1:], z[1:]])
            assert np.array_equal(sol.x, z[1:] - z[tree.parent[1:]])

    def test_batch_rows_must_cover_the_trees_paths(self, fig_tree):
        iv = IntervalObservation(lo=np.zeros((2, 4)), hi=np.ones((2, 4)))
        for solve in (z_stats, upsparse_plus):
            with pytest.raises(OutOfDomain, match="tree has 3 paths but intervals cover 4"):
                solve(fig_tree, iv)

    def test_bounds_of_three_dimensions(self, fig_tree):
        iv = IntervalObservation(lo=np.zeros((2, 2, 3)), hi=np.ones((2, 2, 3)))
        for solve in (z_stats, upsparse_plus):
            with pytest.raises(OutOfDomain, match=r"intervals must be \(m,\) or \(B, m\)"):
                solve(fig_tree, iv)

    def test_empty_batch(self, fig_tree):
        iv = IntervalObservation(lo=np.zeros((0, 3)), hi=np.zeros((0, 3)))
        assert z_stats(fig_tree, iv).l0_threshold.shape == (0, 5)
        sol = upsparse_plus(fig_tree, iv, MIN_L1_AMONG_L0)
        assert sol.x.shape == (0, 5) and sol.y.shape == (0, 3) and sol.l0().shape == (0,)

    def test_batch_norms_are_per_row(self, one_complex):
        iv = IntervalObservation(lo=[[0, 3, 5], [1, 1, 1]], hi=[[2, INF, INF], [1, 1, 1]])
        sol = upsparse_plus(one_complex, iv, MIN_L0)
        assert sol.l0().tolist() == [2, 1]
        assert sol.l1().tolist() == [8.0, 1.0]
        single = upsparse_plus(one_complex, IntervalObservation(lo=[1, 1, 1], hi=[1, 1, 1]))
        assert (single.l0(), single.l1()) == (1, 1.0)
        assert type(single.l0()) is int and type(single.l1()) is float

    def test_mode_validation(self, one_complex):
        iv = IntervalObservation.exact([1.0, 1.0, 1.0])
        with pytest.raises(OutOfDomain):
            upsparse_plus(one_complex, iv, "bogus")

    def test_json_fields(self, one_complex):
        iv = IntervalObservation(lo=[0, 3, 5], hi=[2, INF, INF])
        data = upsparse_plus(one_complex, iv, MIN_L0).to_json()
        assert set(data) == {"mode", "x", "y", "z", "l0", "l1"}
        assert data["l0"] == 2
