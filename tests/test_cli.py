"""End-to-end command-line behavior: subcommands, files, exit codes, manifests."""

import importlib
import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from losstree import (
    IntervalObservation,
    forward,
    load_intervals,
    load_observations,
    load_topology,
    save_intervals,
    save_observations,
    save_topology,
    tree_from_spec,
    upsparse,
)
from losstree import cli
from losstree.cli import _report_json, main

from conftest import caterpillar as caterpillar_tree


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CLI_TIMEOUT_S = 60
DATA = Path(__file__).parent / "data"


def _gen_tree_argv(out):
    return ["gen-tree", "--regular", "2", "2", "--out", str(out)]


def _src_env():
    """The environment with the src/ directory of the imported package on PYTHONPATH."""
    import losstree

    src_dir = Path(losstree.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in [str(src_dir), env.get("PYTHONPATH")] if p)
    return env


def _assert_gen_tree_run(proc, out):
    """Exit 0, the manifest on the last stderr line, and a loadable 3-link tree."""
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads(proc.stderr.strip().splitlines()[-1])
    assert manifest["command"] == "gen-tree"
    tree = load_topology(out)
    assert (tree.n, tree.m) == (3, 2)


@pytest.fixture
def fig_files(tmp_path, fig_tree):
    from losstree import save_topology

    tree_path = tmp_path / "fig.tree"
    obs_path = tmp_path / "y.json"
    save_topology(fig_tree, tree_path)
    save_observations([2.0, 3.0, 4.0], obs_path)
    return str(tree_path), str(obs_path)


class TestGenTree:
    def test_regular_shorthand(self, capsys, tmp_path):
        out = tmp_path / "t13.tree"
        code, stdout, _ = run_cli(capsys, "gen-tree", "--regular", "3", "3", "--out", str(out))
        assert code == 0
        assert "n=13" in stdout
        assert out.exists()

    def test_output_accepted_by_solve(self, capsys, tmp_path):
        out = tmp_path / "t.tree"
        assert main(["gen-tree", "--regular", "2", "2", "--out", str(out)]) == 0
        obs = tmp_path / "y.json"
        save_observations([0.5, 0.5], obs)
        code, stdout, _ = run_cli(capsys, "solve", "--tree", str(out), "--obs", str(obs))
        assert code == 0

    def test_bad_params_exit_one(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "gen-tree", "--regular", "1", "1", "--out", str(tmp_path / "x")
        )
        assert code == 1
        assert "error" in err


class TestSolve:
    def test_three_leaf_instance(self, capsys, fig_files):
        tree_path, obs_path = fig_files
        code, stdout, _ = run_cli(capsys, "solve", "--tree", tree_path, "--obs", obs_path)
        assert code == 0
        report = json.loads(stdout)
        assert report["x"] == [0.0, 1.0, 2.0, 2.0, 0.0]
        assert report["l0"] == 3
        assert report["l1"] == 5.0

    def test_shorthand_tree(self, capsys, tmp_path):
        obs = tmp_path / "y.json"
        save_observations([0.1] * 9, obs)
        code, stdout, _ = run_cli(capsys, "solve", "--tree", "ternary:13", "--obs", str(obs))
        assert code == 0
        assert json.loads(stdout)["l0"] == 1

    def test_missing_file_exit_one(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "solve", "--tree", "ternary:13", "--obs", str(tmp_path / "none.json")
        )
        assert code == 1


class TestSolveNoisy:
    def test_modes(self, capsys, tmp_path):
        tree = tmp_path / "c.tree"
        assert main(["gen-tree", "--regular", "3", "2", "--out", str(tree)]) == 0
        capsys.readouterr()
        iv = IntervalObservation(lo=[0.0, 3.0, 5.0], hi=[2.0, math.inf, math.inf])
        iv_path = tmp_path / "iv.json"
        save_intervals(iv, iv_path)
        code, stdout, _ = run_cli(
            capsys, "solve-noisy", "--tree", str(tree), "--intervals", str(iv_path),
            "--mode", "min-l0",
        )
        assert code == 0
        assert json.loads(stdout)["x"] == [0.0, 3.0, 5.0, 0.0]
        code, stdout, _ = run_cli(
            capsys, "solve-noisy", "--tree", str(tree), "--intervals", str(iv_path),
            "--mode", "min-l1",
        )
        assert json.loads(stdout)["x"] == [0.0, 1.0, 3.0, 2.0]


    def test_whole_float_path_numbers(self, capsys, tmp_path):
        tree = tmp_path / "c.tree"
        assert main(["gen-tree", "--regular", "3", "2", "--out", str(tree)]) == 0
        capsys.readouterr()
        rows = [{"path": float(j), "lo": 1.0, "hi": 2.0} for j in (3, 1, 2)]
        iv = tmp_path / "iv.json"
        iv.write_text(json.dumps(rows))
        code, stdout, _ = run_cli(capsys, "solve-noisy", "--tree", str(tree), "--intervals", str(iv))
        assert code == 0
        assert json.loads(stdout)["x"] == [0.0, 0.0, 0.0, 1.0]


class TestCensus:
    def test_guaranteed_unique_regime(self, capsys, tmp_path):
        out = tmp_path / "census.csv"
        code, stdout, _ = run_cli(
            capsys, "census", "--tree", "ternary:13", "--K", "2",
            "--trials", "40", "--seed", "0", "--out", str(out),
        )
        assert code == 0
        assert "p_unique=1.0" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "tree,n,m,K,trials,p_unique,p_l1_recovers_true,seed"
        assert lines[1].startswith("ternary:13,13,9,2,40,1.0,")

    def test_byte_identical_reruns(self, capsys, tmp_path):
        args = [
            "census", "--tree", "ternary:13", "--K", "1,2",
            "--trials", "25", "--seed", "7",
        ]
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_manifest_written(self, capsys, tmp_path):
        out = tmp_path / "c.csv"
        assert main(
            ["census", "--tree", "ternary:13", "--K", "1", "--trials", "10",
             "--out", str(out)]
        ) == 0
        capsys.readouterr()
        manifest = json.loads((tmp_path / "c.csv.manifest.json").read_text())
        assert manifest["command"] == "census"
        assert manifest["version"]
        assert manifest["config"]["trials"] == 10
        assert str(out) in manifest["output_paths"]


class TestExperiment:
    def test_flag_driven_run(self, capsys, tmp_path):
        out = tmp_path / "exp.csv"
        code, stdout, _ = run_cli(
            capsys, "experiment", "--tree", "ternary:13", "--K", "1",
            "--probes", "200", "--trials", "5", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        assert out.exists()
        assert "K=1 N=200" in stdout

    def test_config_driven_run(self, capsys, tmp_path):
        cfg = {
            "tree": "ternary:13",
            "k_values": [1],
            "probe_counts": [None],
            "reps": 4,
            "seed": 2,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, stdout, _ = run_cli(capsys, "experiment", "--config", str(cfg_path))
        assert code == 0
        assert "e2=0.0000" in stdout

    def test_exact_probe_token(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "experiment", "--tree", "ternary:13", "--K", "1",
            "--probes", "inf", "--trials", "3",
        )
        assert code == 0
        assert "N=inf" in stdout


class TestVerify:
    def test_specific_instance(self, capsys, fig_files):
        tree_path, obs_path = fig_files
        code, stdout, _ = run_cli(
            capsys, "verify", "--tree", tree_path, "--obs", obs_path
        )
        assert code == 0
        assert "all checks passed" in stdout

    def test_random_instances(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "verify", "--tree", "random:4:3:3", "--trials", "5", "--seed", "0"
        )
        assert code == 0

    def test_links_between_the_solver_and_program_tolerances(self, capsys, tmp_path):
        """Links of 3.5e-9 to 1e-7 are lossy to the solver and to the oracle alike."""
        tree = tree_from_spec("random:8:3:0")
        obs = tmp_path / "obs.json"
        save_observations(forward(tree, np.linspace(0, 0.1, tree.n) ** 4), obs)
        code, stdout, _ = run_cli(capsys, "verify", "--tree", "random:8:3:0", "--obs", str(obs))
        assert code == 0
        assert "solver_l0=8 oracle_k=8" in stdout

    def test_one_observation_call_per_command(self, capsys, monkeypatch):
        shapes = []

        def counted(tree, x):
            shapes.append(np.shape(x))
            return forward(tree, x)

        monkeypatch.setattr(cli, "forward", counted)
        code, _, _ = run_cli(capsys, "verify", "--tree", "random:8:3:0", "--trials", "10")
        assert code == 0
        assert shapes == [(10, 14)]


class TestScfs:
    def test_link_list_output(self, capsys, fig_files):
        tree_path, obs_path = fig_files
        code, stdout, _ = run_cli(capsys, "scfs", "--tree", tree_path, "--obs", obs_path)
        assert code == 0
        assert stdout.strip().splitlines()[0] == "4"

    def test_digit_like_tokens_are_string_ids(self, capsys, tmp_path):
        # "²" is a digit to str.isdigit but not to int(); "--5" is no integer either.
        tree = tmp_path / "odd.tree"
        tree.write_text("root 0\n² 0\n1 ²\n--5 ²\n", encoding="utf-8")
        obs = tmp_path / "y.json"
        save_observations([0.2, 0.0], obs)
        code, stdout, err = run_cli(capsys, "scfs", "--tree", str(tree), "--obs", str(obs))
        assert code == 0, err
        assert stdout == "1\n"
        assert load_topology(tree).alias == {1: 1, 2: "--5", 3: "²"}

    def test_byte_order_mark_and_crlf(self, capsys, tmp_path, fig_files):
        # As some Windows editors save it: a UTF-8 byte-order mark and CRLF line ends.
        tree_path, obs_path = fig_files
        tree = tmp_path / "bom.tree"
        text = Path(tree_path).read_text(encoding="utf-8")
        tree.write_bytes(b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode("utf-8"))
        code, stdout, err = run_cli(capsys, "scfs", "--tree", str(tree), "--obs", obs_path)
        assert code == 0, err
        assert stdout.strip().splitlines()[0] == "4"

    def test_second_root_line_is_an_error(self, capsys, tmp_path, fig_files):
        _, obs_path = fig_files
        tree = tmp_path / "two_roots.tree"
        tree.write_text("root 0\n4 0\n5 4\n3 4\n1 5\n2 5\nroot 5\n", encoding="utf-8")
        code, stdout, err = run_cli(capsys, "scfs", "--tree", str(tree), "--obs", obs_path)
        assert code == 1 and stdout == ""
        assert "error: line 7: second 'root' line (the first is line 1)" in err

    def test_node_id_past_the_integer_digit_limit(self, capsys, tmp_path, fig_files):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter converts integer strings of any length")
        _, obs_path = fig_files
        big = "7" * (limit + 1)
        tree = tmp_path / "big.tree"
        tree.write_text(f"root 0\n4 0\n5 4\n{big} 4\n1 5\n2 5\n", encoding="utf-8")
        code, stdout, err = run_cli(capsys, "scfs", "--tree", str(tree), "--obs", obs_path)
        assert code == 1 and stdout == ""
        assert err.splitlines() == [
            f"error: a node id of {limit + 1} digits is too long to read as an integer"
        ]

    @pytest.mark.parametrize("hash_seed", ["1", "2", "3", "4"])
    def test_first_overlong_node_id_is_named_under_any_hash_seed(self, tmp_path, fig_files,
                                                                  hash_seed):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter converts integer strings of any length")
        _, obs_path = fig_files
        first, second = "7" * (limit + 700), "8" * (limit + 1700)
        tree = tmp_path / "big.tree"
        tree.write_text(f"root 0\n4 0\n5 4\n{first} 4\n1 5\n{second} 5\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "losstree", "scfs", "--tree", str(tree), "--obs", obs_path],
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
            env={**_src_env(), "PYTHONHASHSEED": hash_seed},
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.splitlines() == [
            f"error: a node id of {limit + 700} digits is too long to read as an integer"
        ]

    def test_clean_network(self, capsys, tmp_path, fig_files):
        tree_path, _ = fig_files
        obs = tmp_path / "zero.json"
        save_observations([0.0, 0.0, 0.0], obs)
        code, stdout, _ = run_cli(capsys, "scfs", "--tree", tree_path, "--obs", str(obs))
        assert code == 0
        assert "no bad links" in stdout


# Report goldens: the stdout that json.dumps(report, indent=2) gave for these runs.
REPORT_RUNS = {
    "report_solve_caterpillar40.json": [
        "solve", "--tree", str(DATA / "caterpillar40.tree"),
        "--obs", str(DATA / "report_caterpillar40.obs.json"),
    ],
    "report_solve_ternary13.json": [
        "solve", "--tree", "ternary:13", "--obs", str(DATA / "report_ternary13.obs.json"),
    ],
    **{
        f"report_solve-noisy_caterpillar40_{mode}.json": [
            "solve-noisy", "--tree", str(DATA / "caterpillar40.tree"),
            "--intervals", str(DATA / "report_caterpillar40.intervals.json"), "--mode", mode,
        ]
        for mode in ("min-l0", "min-l1", "min-l1-among-l0")
    },
}

REPORT_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308, 0.1]),
)
REPORT_INTS = st.one_of(st.integers(), st.integers(2**63, 2**80), st.integers(-(2**80), -(2**63)))
REPORT_STRINGS = st.one_of(
    st.text(max_size=6),
    st.text(st.sampled_from('{}"\n\\,: aé %s\x00'), max_size=12),
    st.sampled_from(["},\n      {", '"},\n      {"', "}, {", "%s", "%(a)s"]),
)
REPORT_SCALARS = st.one_of(
    REPORT_FLOATS, REPORT_INTS, REPORT_STRINGS, st.booleans(), st.none()
)
# Row keys that a %-template or a split of the encoder's text could misread.
ROW_KEYS = st.sampled_from([
    "node", "state", "delta", "}", "{", "{\n", "", "%", "%s", "%%", "%(a)s", '"', "\n", "é", "\x00",
]) | REPORT_STRINGS


@st.composite
def tables(draw, min_rows=0):
    """A table: equal-length columns of scalars under distinct keys, as the complex states are."""
    keys = draw(st.lists(ROW_KEYS, unique=True, min_size=1 if min_rows else 0, max_size=5))
    rows = draw(st.integers(min_rows, 6))
    return {key: draw(st.lists(REPORT_SCALARS, min_size=rows, max_size=rows)) for key in keys}


@st.composite
def shared_key_rows(draw):
    """Rows that all have one tuple of keys, in one order."""
    keys = draw(st.lists(ROW_KEYS, unique=True, max_size=5))
    rows = st.lists(REPORT_SCALARS, min_size=len(keys), max_size=len(keys))
    return [dict(zip(keys, values)) for values in draw(st.lists(rows, min_size=1, max_size=6))]


# Lists of rows, whose keys may differ from row to row; a report writes rows only from a table.
REPORT_ROWS = st.lists(st.dictionaries(ROW_KEYS, REPORT_SCALARS, max_size=4), min_size=1,
                       max_size=5) | shared_key_rows()
REPORTS = st.dictionaries(
    REPORT_STRINGS,
    REPORT_SCALARS | st.lists(REPORT_SCALARS, max_size=6) | tables(),
    max_size=6,
)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# Long lists and table columns, from just below to well above cli.FEW_ITEMS, where the writer
# shares one text among the items that have it: floats mostly +0.0, ints or strs of few values.
LONG = st.integers(cli.FEW_ITEMS - 3, 3 * cli.FEW_ITEMS)
SCATTERED_FLOATS = st.sampled_from([-0.0, 5e-324, 1e308, 0.1]) | REPORT_FLOATS
FEW_VALUES = {
    "ints": st.sampled_from([0, 7, -1, 2**64, 2**64 + 1, -(2**70), True]),  # True: not shared
    "strs": st.sampled_from(["up", "%", "%s", "%%", "\x00", "a\x00b", "é", "€", '"', ""]),
    "scalars": REPORT_SCALARS,
}


@st.composite
def long_items(draw, size, kinds=("floats", "zeros", *FEW_VALUES)):
    """``size`` items: floats mostly +0.0, about the seven-in-eight gate, or few values repeated."""
    kind = draw(st.sampled_from(kinds))
    if kind in ("floats", "zeros"):
        items = [0.0] * size
        if kind == "floats":
            for i in draw(st.lists(st.integers(0, size - 1), max_size=size // 8 + 3)):
                items[i] = draw(SCATTERED_FLOATS)
        return items
    pool = draw(st.lists(FEW_VALUES[kind], min_size=1, max_size=4))
    return draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))


@st.composite
def long_tables(draw):
    """A table of at least FEW_ITEMS - 3 rows whose columns are ``long_items``."""
    keys = draw(st.lists(ROW_KEYS, unique=True, min_size=1, max_size=4))
    rows = draw(LONG)
    return {key: draw(long_items(rows)) for key in keys}


LONG_REPORTS = st.dictionaries(
    REPORT_STRINGS, REPORT_SCALARS | LONG.flatmap(long_items) | long_tables(), max_size=4
)


def as_rows(report):
    """``report`` with each table (a dict of columns) written out as its list of rows."""
    return {key: [dict(zip(value, row)) for row in zip(*value.values())]
            if type(value) is dict else value for key, value in report.items()}


class _FixedReport:
    """Stands in for a solver result, so the CLI writes a chosen report."""

    def __init__(self, report):
        self.report = report

    def to_json(self):
        return self.report


def _solve_with_report(report, tmp_path):
    """Run ``solve`` whose solver returns ``report``; (exit code, stdout, stderr)."""
    obs = tmp_path / "y.json"
    save_observations([0.1, 0.2, 0.3], obs)
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch("losstree.cli.upsparse", lambda tree, y: _FixedReport(report)),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        code = main(["solve", "--tree", "regular:3:2", "--obs", str(obs)])
    return code, out.getvalue(), err.getvalue()


class TestReportJson:
    """Solution reports: the bytes of ``json.dumps(indent=2)`` from the C encoder."""

    @pytest.mark.parametrize("golden", sorted(REPORT_RUNS))
    def test_stdout_and_out_file_match_golden(self, capsys, tmp_path, golden):
        out = tmp_path / "report.json"
        code, stdout, err = run_cli(capsys, *REPORT_RUNS[golden], "--out", str(out))
        assert code == 0, err
        expected = (DATA / golden).read_bytes()
        assert stdout.encode() == expected
        assert out.read_bytes() == expected

    @settings(max_examples=450, deadline=None)
    @given(report=REPORTS | LONG_REPORTS)
    @example(report={})
    @example(report={"x": [], "states": {}, "l1": -0.0, "y": [-0.0, 5e-324, 1e308, 2**64]})
    @example(report={"states": {"a": [], "b": []}})
    @example(report={"states": {"a": ["},\n      {", "%s"], "%": [1, None], "\x00": ["\x00", 0.1]}})
    @example(report={"x": [0.0] * cli.FEW_ITEMS, "states": {"%s": ["\x00"] * cli.FEW_ITEMS}})
    @example(report={"x": [2**64 + 1] * (cli.FEW_ITEMS - 1) + [True],
                     "states": {"a": [-0.0] * cli.FEW_ITEMS, "b": [2**70] * cli.FEW_ITEMS}})
    def test_matches_indented_dumps(self, report):
        assert _report_json(report) == json.dumps(as_rows(report), indent=2, allow_nan=False)

    @pytest.mark.parametrize("size", [cli.FEW_ITEMS - 1, cli.FEW_ITEMS, 2 * cli.FEW_ITEMS + 5])
    @pytest.mark.parametrize("nonzero", ["none", "at gate", "over gate", "half", "all"])
    def test_shared_float_texts_at_the_gate(self, size, nonzero):
        # With at most one item in eight other than 0.0 the +0.0 share one text; -0.0 is its own.
        count = {"none": 0, "at gate": size // 8, "over gate": size // 8 + 1, "half": size // 2,
                 "all": size}[nonzero]
        items = [0.0] * size
        for k in range(count):
            items[k * size // count] = [5e-324, 1e308, 0.1, -2.5][k % 4]
        if count < size:
            items[items.index(0.0)] = -0.0  # equals 0.0, but is encoded
        shared = cli._column_texts(items, {float}, ', "d": ')
        assert (shared is None) == (8 * count > size)
        assert shared in (None, cli._texts(items, ', "d": '))
        report = {"x": items, "states": {"node": list(range(size)), "delta": items}}
        assert _report_json(report) == json.dumps(as_rows(report), indent=2, allow_nan=False)

    @pytest.mark.parametrize("column, shared", [
        ([2**64 + 1, 7] * cli.FEW_ITEMS, True),
        ([2**64 + 1, 7] * (cli.FEW_ITEMS - 1) + [True, 7], False),  # an int and a bool: one call
        (["%", "\x00", "é"] * cli.FEW_ITEMS, True),
        (list(range(2 * cli.FEW_ITEMS)), False),  # every value new
        ([0] * cli.FEW_ITEMS + list(range(cli.FEW_ITEMS)), False),  # a repeated head, new values
        (list(map(str, range(cli.FEW_ITEMS))) + ["x"] * 7 * cli.FEW_ITEMS, False),  # a new head
    ], ids=["big-ints", "int-and-bool", "strs", "distinct", "distinct-tail", "distinct-head"])
    def test_shared_column_texts(self, column, shared):
        kinds = set(map(type, column))
        texts = cli._column_texts(column, kinds, ', "k": ')
        assert (texts is not None) == shared
        assert texts in (None, cli._texts(column, ', "k": '))
        assert cli._column_texts(column, kinds) is None  # a flat list shares no int or str texts
        report = {"states": {"k": column, "n": [0.0] * len(column)}}
        assert _report_json(report) == json.dumps(as_rows(report), indent=2, allow_nan=False)

    @settings(max_examples=100, deadline=None)
    @given(report=REPORTS | LONG_REPORTS, bad=NON_FINITE, data=st.data(),
           where=st.sampled_from(["scalar", "list", "table", "long list", "long table"]))
    def test_non_finite_gives_one_error_line(self, tmp_path_factory, report, bad, where, data):
        key = data.draw(REPORT_STRINGS)
        if where == "scalar":
            report[key] = bad
        elif where == "list":
            items = data.draw(st.lists(REPORT_SCALARS, max_size=4))
            items.insert(data.draw(st.integers(0, len(items))), bad)
            report[key] = items
        elif where.startswith("long"):  # floats mostly +0.0, which share one text
            items = data.draw(LONG.flatmap(lambda size: long_items(size, ["floats", "zeros"])))
            items[data.draw(st.integers(0, len(items) - 1))] = bad
            report[key] = {"delta": items} if where == "long table" else items
        else:
            table = data.draw(tables(min_rows=1))
            column = table[data.draw(st.sampled_from(sorted(table)))]
            column[data.draw(st.integers(0, len(column) - 1))] = bad
            report[key] = table
        with pytest.raises(ValueError):
            json.dumps(as_rows(report), indent=2, allow_nan=False)
        code, stdout, err = _solve_with_report(report, tmp_path_factory.mktemp("nonfinite"))
        assert code == 1
        assert stdout == ""
        assert err.splitlines() == [
            "error: the result overflows to a non-finite number; inputs too large"
        ]

    @settings(max_examples=40, deadline=None)
    @given(report=LONG_REPORTS | REPORTS, bad=NON_FINITE, fault=st.sampled_from([
        {"a": 1.0}, [[1.0]], [1.0, {"a": 1.0}], {"a": [1.0], "b": []}, (1.0,),
        [{"a": 1.0}], {"a": [0.0] * cli.FEW_ITEMS + [[1.0]]},
    ]))
    def test_layout_fault_in_a_later_field_wins_over_non_finite(self, tmp_path_factory, report,
                                                                 bad, fault):
        long_zeros = [0.0] * cli.FEW_ITEMS
        report = {"first": [bad] + long_zeros, "second": {"d": long_zeros + [bad]}, **report}
        report["last"] = fault
        with pytest.raises(AssertionError):
            _report_json(report)
        code, stdout, err = _solve_with_report(report, tmp_path_factory.mktemp("fault"))
        assert (code, stdout) == (2, "")
        assert err.startswith("internal invariant failure: ")

    @pytest.mark.parametrize("report", [
        {"x": {"a": 1.0}},
        {"x": [[1.0]]},
        {"x": [1.0, {"a": 1.0}]},
        {"states": [{"a": [1.0]}]},
        {"states": [{"a": {}}]},
        {"states": [{"a": 1.0}, {"b": 1.0}]},
        {"states": [{"a": 1.0, "b": 2.0}, {"b": 1.0, "a": 2.0}]},
        {"states": {"a": [1.0], "b": []}},
        {"states": {"a": [[1.0]]}},
        {"states": {"a": (1.0,)}},
        {"states": {1: [1.0]}},
        {1: 1.0},
        {"x": (1.0, 2.0)},
    ], ids=["dict-value", "nested-list", "mixed-list", "row-list", "row-dict", "rows-keys-differ",
            "rows-keys-reordered", "table-ragged", "table-nested", "table-tuple", "table-int-key",
            "int-key", "tuple"])
    def test_other_layouts_are_an_invariant_failure(self, tmp_path, report):
        with pytest.raises(AssertionError):
            _report_json(report)
        code, stdout, err = _solve_with_report(report, tmp_path)
        assert code == 2
        assert stdout == ""
        assert err.startswith("internal invariant failure: ")

    @settings(max_examples=60, deadline=None)
    @given(report=REPORTS, key=REPORT_STRINGS, rows=REPORT_ROWS)
    def test_lists_of_rows_are_an_invariant_failure(self, report, key, rows):
        report[key] = rows
        with pytest.raises(AssertionError):
            _report_json(report)

    @settings(max_examples=25, deadline=None)
    @given(m=st.integers(2, 40), caterpillar=st.booleans(), seed=st.integers(0, 2**31 - 1))
    def test_solve_stdout_is_the_report_with_its_states_as_rows(self, tmp_path_factory, m,
                                                                 caterpillar, seed):
        tmp = tmp_path_factory.mktemp("solve")
        tree = caterpillar_tree(m) if caterpillar else tree_from_spec(f"random:{m}:3:{seed}")
        save_topology(tree, tmp / "t.tree")
        rng = np.random.default_rng(seed)
        x = np.where(rng.random(tree.n) < 0.3, rng.choice([1e-9, 2e-9, 0.1], tree.n), 0.0)
        save_observations(forward(tree, x), tmp / "y.json")
        argv = ["solve", "--tree", str(tmp / "t.tree"), "--obs", str(tmp / "y.json"),
                "--out", str(tmp / "r")]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 0
        report = upsparse(tree, load_observations(tmp / "y.json")).to_json()
        expected = json.dumps(as_rows(report), indent=2) + "\n"
        assert out.getvalue() == expected
        assert (tmp / "r").read_text(encoding="utf-8") == expected

    def test_solve_text_is_encoded_from_the_solution(self, capsys, monkeypatch, fig_files):
        # The benchmark's check of a corrupted solve: the text must show the corruption.
        def corrupt(tree, y):
            report = upsparse(tree, y)
            report.x[0] += 0.01
            return report

        monkeypatch.setattr(cli, "upsparse", corrupt)
        code, stdout, err = run_cli(capsys, "solve", "--tree", fig_files[0], "--obs", fig_files[1])
        assert code == 0, err
        assert json.loads(stdout)["x"] == [0.01, 1.0, 2.0, 2.0, 0.0]

    def test_unwritable_out_leaves_stdout_empty(self, capsys, tmp_path):
        argv = REPORT_RUNS["report_solve_ternary13.json"]
        code, stdout, err = run_cli(capsys, *argv, "--out", str(tmp_path / "no" / "x.json"))
        assert code == 1
        assert stdout == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestBadInput:
    """Malformed input exits 1 with one ``error:`` line and no JSON output."""

    @staticmethod
    def run_bad(capsys, *argv, expect=""):
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert expect in err
        assert stdout == ""

    @pytest.fixture
    def tree4(self, tmp_path):
        """A 4-leaf binary tree file."""
        path = tmp_path / "t4.tree"
        assert main(["gen-tree", "--regular", "2", "3", "--out", str(path)]) == 0
        return str(path)

    def test_solve_observation_length_mismatch(self, capsys, tmp_path, tree4):
        capsys.readouterr()
        obs = tmp_path / "y.json"
        save_observations([0.1, 0.2], obs)
        self.run_bad(capsys, "solve", "--tree", tree4, "--obs", str(obs), expect="4 paths")

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_solve_non_finite_observation(self, capsys, tmp_path, tree4, value):
        capsys.readouterr()
        obs = tmp_path / "y.json"
        obs.write_text(f"[{value}, 0.1, 0.1, 0.1]")
        self.run_bad(capsys, "solve", "--tree", tree4, "--obs", str(obs), expect="finite")

    def test_scfs_observation_length_mismatch(self, capsys, tmp_path, tree4):
        capsys.readouterr()
        obs = tmp_path / "y.json"
        save_observations([0.1, 0.0, 0.2], obs)
        self.run_bad(capsys, "scfs", "--tree", tree4, "--obs", str(obs), expect="4 paths")

    def test_text_observations_missing_path(self, capsys, tmp_path, tree4):
        capsys.readouterr()
        obs = tmp_path / "y.txt"
        obs.write_text("y 1 0.1\ny 2 0.1\ny 4 0.1\n")
        self.run_bad(capsys, "solve", "--tree", tree4, "--obs", str(obs), expect="1..m")

    @pytest.mark.parametrize("line", ["y 3 0_1", "y 3_0 0.1"], ids=["value", "path"])
    def test_text_observations_underscore(self, capsys, tmp_path, tree4, line):
        """Python reads "0_1" as 1 and "3_0" as 30; the file reader takes neither."""
        capsys.readouterr()
        obs = tmp_path / "y.txt"
        obs.write_text(f"y 1 0.1\ny 2 0.1\n{line}\ny 4 0.1\n")
        self.run_bad(capsys, "solve", "--tree", tree4, "--obs", str(obs),
                     expect=f"line 3: unrecognized line {line!r}")

    def test_text_observations_nan(self, capsys, tmp_path, tree4):
        capsys.readouterr()
        obs = tmp_path / "y.txt"
        obs.write_text("y 1 0.1\ny 2 nan\ny 3 0.1\ny 4 0.1\n")
        self.run_bad(capsys, "solve", "--tree", tree4, "--obs", str(obs), expect="finite")

    def test_topology_line_with_extra_token(self, capsys, tmp_path):
        tree = tmp_path / "bad.tree"
        tree.write_text("root 0\n3 0\n1 3 extra\n2 3\n")
        obs = tmp_path / "y.json"
        save_observations([0.1, 0.2], obs)
        self.run_bad(capsys, "solve", "--tree", str(tree), "--obs", str(obs), expect="line 3")

    def test_noisy_nan_upper_bound(self, capsys, tmp_path, tree4):
        capsys.readouterr()
        iv = tmp_path / "iv.json"
        rows = [{"path": j, "lo": 0.0, "hi": 0.5} for j in range(1, 5)]
        rows[2]["hi"] = math.nan
        iv.write_text(json.dumps(rows))
        self.run_bad(capsys, "solve-noisy", "--tree", tree4, "--intervals", str(iv), expect="NaN")

    @pytest.mark.parametrize("text, expect", [
        ('{"scale": "addloss"}', '"y"'),
        ('["a", 0.1, 0.1, 0.1]', "numbers"),
        ('{"y": [0.1, {"v": 0.2}, 0.1, 0.1]}', "numbers"),
        ('{"y": [0.1, true, 0.1, 0.1]}', "numbers"),
        ("[false, 0.1, 0.1, 0.1]", "numbers"),
        ('{"y": [[0.1, 0.1, 0.1, 0.1]]}', "numbers"),
        ('{"y": 0.1}', "numbers"),
        pytest.param("[1" + "0" * 400 + ", 0.1, 0.1, 0.1]", "finite", id="integer-beyond-float"),
    ])
    def test_json_observations_malformed(self, capsys, tmp_path, tree4, text, expect):
        capsys.readouterr()
        obs = tmp_path / "y.json"
        obs.write_text(text)
        self.run_bad(capsys, "solve", "--tree", tree4, "--obs", str(obs), expect=expect)

    @pytest.mark.parametrize("change, expect", [
        ({"drop": "path"}, "needs a numeric path"),
        ({"drop": "lo"}, "needs a numeric path"),
        ({"drop": "hi"}, "needs a numeric path"),
        ({"lo": "low"}, "needs a numeric path"),
        ({"path": "two"}, "needs a numeric path"),
        ({"hi": [0.5]}, "needs a numeric path"),
        ({"path": 1}, "path 1 twice"),
        ({"path": 2.5}, "whole path number"),
        ({"path": True}, "true/false"),
        ({"lo": True}, "true/false"),
        ({"hi": False}, "true/false"),
        ({"lo": "0.1"}, "needs a numeric path"),
        ({"lo": "0_1"}, "needs a numeric path"),
        ({"path": "1"}, "needs a numeric path"),
        ({"hi": "0.5"}, "needs a numeric path"),
    ])
    def test_interval_rows_malformed(self, capsys, tmp_path, tree4, change, expect):
        capsys.readouterr()
        rows = [{"path": j, "lo": 0.0, "hi": 0.5} for j in range(1, 5)]
        rows[2].update(change)
        rows[2].pop(change.get("drop"), None)
        iv = tmp_path / "iv.json"
        iv.write_text(json.dumps(rows))
        self.run_bad(capsys, "solve-noisy", "--tree", tree4, "--intervals", str(iv), expect=expect)

    @pytest.mark.parametrize("text", ['{"path": 1, "lo": 0.0, "hi": 0.5}', "0.5", '"rows"'])
    def test_interval_file_not_a_list(self, capsys, tmp_path, tree4, text):
        capsys.readouterr()
        iv = tmp_path / "iv.json"
        iv.write_text(text)
        self.run_bad(capsys, "solve-noisy", "--tree", tree4, "--intervals", str(iv), expect="list")

    def test_empty_interval_file(self, capsys, tmp_path, tree4):
        # An empty list of rows reads as no intervals, not as an unpacking error.
        capsys.readouterr()
        iv = tmp_path / "iv.json"
        iv.write_text("[]")
        observed = load_intervals(iv)
        assert observed.lo.shape == observed.hi.shape == (0,)
        self.run_bad(capsys, "solve-noisy", "--tree", tree4, "--intervals", str(iv),
                     expect="error: tree has 4 paths but intervals cover 0")

    @pytest.mark.parametrize("argv, expect", [
        (["census", "--tree", "ternary:13", "--K", "x"], "'x'"),
        (["census", "--tree", "ternary:13", "--K", "1-y"], "'y'"),
        (["census", "--tree", "ternary:13", "--K", "-1"], "K=-1"),
        (["census", "--tree", "ternary:13", "--K", "1", "--trials", "0"], "at least one trial"),
        (["experiment", "--tree", "ternary:13", "--probes", "10,abc"], "'abc'"),
        (["census", "--tree", "ternary:13", "--K", "3-1"], "'3-1' runs downward"),
        (["census", "--tree", "ternary:13", "--K", "1,4-2"], "'4-2' runs downward"),
        (["verify", "--tree", "ternary:13", "--trials", "0"], "at least one trial"),
        (["verify", "--tree", "ternary:13", "--trials", "-3"], "at least one trial"),
        (["experiment", "--tree", "ternary:13", "--probes", "99999999999999999999"],
         "probe counts must be integers in 1..2**63 - 1"),
        (["experiment", "--config", "{config}"], "probe counts must be integers in 1..2**63 - 1"),
    ])
    def test_bad_flag_values(self, capsys, tmp_path, argv, expect):
        config = tmp_path / "cfg.json"  # a config whose probe count overflows an int64
        config.write_text('{"tree": "ternary:13", "k_values": [1], "probe_counts": [%d]}' % 2**64)
        self.run_bad(capsys, *(a.format(config=config) for a in argv), expect=expect)

    @pytest.mark.parametrize("argv", [
        ["census", "--tree", "ternary:13", "--K", "1"],
        ["verify", "--tree", "ternary:13"],
        ["gen-tree", "--random", "5", "3", "--out", "{out}"],
        ["experiment", "--tree", "ternary:13"],
    ], ids=["census", "verify", "gen-tree", "experiment"])
    def test_negative_seed(self, capsys, tmp_path, argv):
        out = tmp_path / "t.tree"
        code, stdout, err = run_cli(capsys, *(a.format(out=out) for a in argv), "--seed", "-1")
        assert (code, stdout) == (1, "")
        assert err.splitlines() == ["error: seed must be an integer >= 0"]
        assert not out.exists()

    def test_config_without_probe_counts(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text('{"tree": "ternary:13", "k_values": [1, 2], "probe_counts": []}')
        out = tmp_path / "rows.csv"
        code, stdout, err = run_cli(capsys, "experiment", "--config", str(config), "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err.splitlines() == ["error: probe_counts must be a non-empty list"]
        assert not out.exists()

    def test_t_intervals_need_two_probes(self, capsys, tmp_path):
        out = tmp_path / "rows.csv"
        code, stdout, err = run_cli(capsys, "experiment", "--tree", "ternary:13", "--K", "1",
                                    "--probes", "1", "--mode", "min-l1-among-l0",
                                    "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err.splitlines() == ["error: t intervals need at least 2 probes, got 1"]
        assert not out.exists()

    def test_point_mode_takes_one_probe(self, capsys, tmp_path):
        out = tmp_path / "rows.csv"
        code, _, _ = run_cli(capsys, "experiment", "--tree", "ternary:13", "--K", "1",
                             "--probes", "1", "--out", str(out))
        assert code == 0
        assert out.read_text().splitlines()[1].startswith("1,1,upsparse,")

    @pytest.mark.parametrize("flag, command", [("--obs", "solve"), ("--intervals", "solve-noisy")])
    def test_file_not_utf8(self, capsys, tmp_path, tree4, flag, command):
        capsys.readouterr()
        path = tmp_path / "bad.json"
        path.write_bytes(b"[0.1, \xff]")
        self.run_bad(capsys, command, "--tree", tree4, flag, str(path), expect="utf-8")

    @pytest.mark.parametrize("flag, command", [("--obs", "solve"), ("--intervals", "solve-noisy"),
                                               ("--config", "experiment")])
    def test_json_nested_too_deeply(self, capsys, tmp_path, tree4, flag, command):
        capsys.readouterr()
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        self.run_bad(capsys, command, "--tree", tree4, flag, str(path), expect="too deeply")

    def test_result_overflow(self, capsys, tmp_path, tree4):
        """Finite but huge observations whose l1 norm overflows: no Infinity in the JSON."""
        capsys.readouterr()
        obs = tmp_path / "y.json"
        obs.write_text("[1e308, 1.5e308, 1.7e308, 0.0]")
        self.run_bad(capsys, "solve", "--tree", tree4, "--obs", str(obs), expect="non-finite")
        rows = [{"path": j, "lo": lo, "hi": "inf"} for j, lo in enumerate([1e308, 1.5e308, 1.7e308], 1)]
        rows.append({"path": 4, "lo": 0.0, "hi": 1.0})
        iv = tmp_path / "iv.json"
        iv.write_text(json.dumps(rows))
        self.run_bad(capsys, "solve-noisy", "--tree", tree4, "--intervals", str(iv),
                     "--mode", "min-l1", expect="non-finite")

    def test_scfs_negative_threshold(self, capsys, tmp_path, tree4):
        capsys.readouterr()
        obs = tmp_path / "y.json"
        save_observations([0.1, 0.0, 0.2, 0.0], obs)
        self.run_bad(capsys, "scfs", "--tree", tree4, "--obs", str(obs), "--threshold", "-1",
                     expect="non-negative")

    @pytest.mark.parametrize("argv", [
        ["scfs", "--tree", "regular:2:3", "--obs", "{obs}", "--threshold", "{v}"],
        ["experiment", "--tree", "ternary:13", "--probes", "100", "--trials", "2",
         "--mode", "min-l0", "--interval-mode", "cover", "--cover-halfwidth", "{v}"],
        ["experiment", "--tree", "ternary:13", "--probes", "100", "--trials", "2", "--level", "{v}"],
        ["census", "--tree", "ternary:13", "--K", "1", "--trials", "3", "--loss-range", "0.1", "{v}"],
    ], ids=["scfs-threshold", "experiment-cover-halfwidth", "experiment-level", "census-loss-range"])
    @pytest.mark.parametrize("value", ["inf", "nan", "0.5"])
    def test_float_flags_keep_the_manifest_valid_json(self, capsys, tmp_path, argv, value):
        obs = tmp_path / "y.json"
        save_observations([0.1, 0.0, 0.2, 0.0], obs)
        code, _, err = run_cli(capsys, *(a.format(obs=obs, v=value) for a in argv))
        if value != "0.5":
            assert code == 1
            assert len(err.splitlines()) == 1 and err.startswith("error: ")
        else:
            assert code == 0, err
            manifest = json.loads(err.splitlines()[-1], parse_constant=_reject_constant)
            assert manifest["command"] == argv[0]


def _reject_constant(token):
    raise AssertionError(f"non-finite {token} in the JSON output")


SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(["inf", "Infinity", "NaN", "0.5", "-1"])
)
ANY_JSON = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=8,
)
NUMBERS = st.one_of(st.floats(0.0, 3.0), st.integers(0, 3), st.floats(min_value=0.0))
VALUES = st.one_of(NUMBERS, NUMBERS, NUMBERS, ANY_JSON)
TOKENS = st.one_of(
    st.integers(-1, 6).map(str), st.floats().map(repr), st.text(max_size=4),
    st.sampled_from(["y", "scale", "probability", "addloss", "#", "nan"]),
)
TEXT_FILES = st.lists(st.lists(TOKENS, max_size=4).map(" ".join), max_size=6).map("\n".join)
OBSERVATION_FILES = st.one_of(
    st.lists(VALUES, min_size=4, max_size=4).map(json.dumps),
    st.lists(VALUES, max_size=5).map(json.dumps),
    st.fixed_dictionaries(
        {"y": st.lists(VALUES, min_size=4, max_size=4)},
        optional={"scale": st.sampled_from(["addloss", "probability"]) | ANY_JSON},
    ).map(json.dumps),
    ANY_JSON.map(json.dumps),
    TEXT_FILES,
    st.binary(max_size=12),
)


@st.composite
def interval_files(draw):
    if draw(st.integers(0, 5)) == 0:
        return draw(ANY_JSON.map(json.dumps) | TEXT_FILES | st.binary(max_size=12))
    paths = draw(st.permutations([1, 2, 3, 4]) | st.lists(VALUES, max_size=5))
    rows = []
    for path in paths:
        row = {
            "path": path,
            "lo": draw(VALUES),
            "hi": draw(st.one_of(NUMBERS.map(lambda v: v + 3), st.sampled_from(["inf", None]), VALUES)),
        }
        if draw(st.integers(0, 7)) == 0:
            del row[draw(st.sampled_from(["path", "lo", "hi"]))]
        rows.append(row)
    return json.dumps(rows)


class TestMalformedFiles:
    """Random malformed observation and interval files: a clean error or finite JSON."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("malformed")
        assert main(["gen-tree", "--regular", "2", "3", "--out", str(work / "t4.tree")]) == 0
        return work

    @staticmethod
    def run(workdir, content, *argv):
        path = workdir / "input"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8", errors="surrogatepass")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, str(path), "--tree", str(workdir / "t4.tree")])
        if code == 1:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
            assert out.getvalue() == ""
        else:
            assert code == 0, err.getvalue()
            json.loads(out.getvalue(), parse_constant=_reject_constant)

    @settings(max_examples=200, deadline=None)
    @given(content=OBSERVATION_FILES)
    def test_solve(self, workdir, content):
        self.run(workdir, content, "solve", "--obs")

    @settings(max_examples=200, deadline=None)
    @given(content=interval_files(), mode=st.sampled_from(["min-l0", "min-l1", "min-l1-among-l0"]))
    def test_solve_noisy(self, workdir, content, mode):
        self.run(workdir, content, "solve-noisy", "--mode", mode, "--intervals")


class TestUsage:
    def test_unknown_command_exit_one(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_missing_required_flag_exit_one(self, capsys):
        assert main(["solve", "--tree", "ternary:13"]) == 1
        capsys.readouterr()

    def test_console_entry_point(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        import losstree
        import losstree.__main__

        # The console script target, read from the pyproject.toml that sits
        # next to the src/ directory holding the imported package.
        src_dir = Path(losstree.__file__).resolve().parent.parent
        with open(src_dir.parent / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["losstree"] == "losstree.cli:main"
        module_name, func_name = scripts["losstree"].split(":")
        target = getattr(importlib.import_module(module_name), func_name)
        assert losstree.__main__.main is target

        # ``python -m losstree`` runs that target in a fresh process, started
        # away from the checkout so a relative ``src`` on PYTHONPATH cannot help.
        out = tmp_path / "t.tree"
        proc = subprocess.run(
            [sys.executable, "-m", "losstree", *_gen_tree_argv(out)],
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
            cwd=tmp_path,
            env=_src_env(),
        )
        _assert_gen_tree_run(proc, out)

    @pytest.mark.skipif(
        shutil.which("losstree") is None, reason="losstree console script not installed"
    )
    def test_installed_console_script(self, tmp_path):
        out = tmp_path / "t.tree"
        proc = subprocess.run(
            ["losstree", *_gen_tree_argv(out)],
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )
        _assert_gen_tree_run(proc, out)


# Loads the CLI, runs one command, and reports which scipy modules are loaded.
_SCIPY_PROBE = """
import json, sys
import losstree, losstree.cli
code = losstree.cli.main(sys.argv[1:])
loaded = [
    m for m in ("scipy.stats", "scipy.special", "scipy.optimize", "scipy.sparse")
    if m in sys.modules
]
print(json.dumps([code, loaded]))
"""


def _split_manifest(stderr):
    """The stderr lines before the manifest, and the manifest less its clock."""
    lines = stderr.splitlines()
    if lines and lines[-1].startswith('{"command"'):
        manifest = json.loads(lines.pop())
        del manifest["wall_clock_s"]
        return lines, manifest
    return lines, None


class TestStartup:
    @pytest.fixture
    def obs(self, tmp_path):
        path = tmp_path / "y.json"
        save_observations(np.full(tree_from_spec("ternary:13").m, 0.1), path)
        return path

    @pytest.mark.parametrize(
        "argv, expect_loaded",
        [
            (["solve", "--tree", "ternary:13", "--obs", "{obs}"], []),
            (["experiment", "--tree", "ternary:13", "--probes", "100", "--trials", "2",
              "--mode", "min-l0", "--interval-mode", "t-ci"], ["scipy.special"]),
            (["experiment", "--tree", "ternary:13", "--probes", "100", "--trials", "2",
              "--mode", "min-l0", "--interval-mode", "cover"], []),
            # Both import the oracle module, which must leave scipy to the interval check.
            (["verify", "--tree", "random:6:3:1", "--trials", "2"], []),
            (["census", "--tree", "ternary:13", "--K", "1", "--trials", "2"], []),
        ],
        ids=["solve", "t-ci-experiment", "cover-experiment", "verify", "census"],
    )
    def test_scipy_loaded_only_for_t_intervals(self, tmp_path, obs, argv, expect_loaded):
        proc = subprocess.run(
            [sys.executable, "-c", _SCIPY_PROBE, *(a.format(obs=obs) for a in argv)],
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
            cwd=tmp_path,
            env=_src_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [0, expect_loaded]

    def test_solve_leaves_numpy_random_unloaded(self, tmp_path):
        # numpy 2 loads numpy.random on first access; nothing on the solve path draws.
        # numpy 1 imports it with numpy itself, so there is nothing to check.
        tree = tree_from_spec("regular:2:7")  # a file over FEW_EDGES edges: the bulk read
        save_topology(tree, tmp_path / "t.tree")
        save_observations(np.full(tree.m, 0.1), tmp_path / "y.json")
        probe = ("import sys, numpy; eager = 'numpy.random' in sys.modules; import losstree.cli; "
                 "code = losstree.cli.main(sys.argv[1:]); "
                 "print(code, eager, 'numpy.random' in sys.modules)")
        proc = subprocess.run(
            [sys.executable, "-c", probe, "solve", "--tree", "t.tree", "--obs", "y.json"],
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
            cwd=tmp_path,
            env=_src_env(),
        )
        assert proc.returncode == 0, proc.stderr
        code, eager, loaded = proc.stdout.splitlines()[-1].split()
        assert code == "0", proc.stderr
        if eager == "True":
            pytest.skip("this numpy imports numpy.random with numpy itself")
        assert loaded == "False"

    def test_parser_reuse_matches_fresh_processes(self, capsys, monkeypatch, tmp_path, obs):
        monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal width
        sequence = [
            ["experiment", "--tree", "ternary:13", "--mode", "bogus"],
            ["--help"],
            ["census", "--tree", "ternary:13", "--K", "1"],
            ["experiment", "--tree", "ternary:13"],
            ["solve", "--tree", "ternary:13", "--obs", str(obs)],
            ["census", "--tree", "ternary:13", "--K", "1"],
        ]
        env = _src_env()
        for argv in sequence:
            code = main(argv)
            captured = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "losstree", *argv],
                capture_output=True,
                text=True,
                timeout=CLI_TIMEOUT_S,
                cwd=tmp_path,
                env=env,
            )
            assert code == fresh.returncode, argv
            assert captured.out == fresh.stdout, argv
            assert _split_manifest(captured.err) == _split_manifest(fresh.stderr), argv
