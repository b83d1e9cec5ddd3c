"""Command-line interface: generate trees, solve, census, experiment, verify.

Every run writes a JSON manifest (command, resolved configuration, seed,
version, output paths, wall-clock) to stderr, and next to the output file
when --out is given, so any result can be reproduced exactly.  Exit codes:
0 success, 1 input error, 2 internal invariant failure.
"""

import argparse
import csv
import functools
import itertools
import json
import math
import operator
import sys
import time
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .baselines import binarize, scfs
from .errors import LossTreeError, OutOfDomain, ParameterOutOfRange
from .lossmodel import DEFAULT_LOSS_RANGE, DEFAULT_TOL, forward, load_observations
from .noiseless import closed_form, upsparse
from .noisy import MODES, load_intervals, upsparse_plus
from .oracle import SupportScanner, l1_sampling_check, sparsest_enumerate, uniqueness_census
from .simulation import (
    INTERVAL_MODES, POINT_MODE, ExperimentConfig, run_experiment, write_experiment_csv
)
from .topology import (
    gen_random_tree,
    gen_regular_tree,
    gen_ternary_tree,
    save_topology,
    tree_from_spec,
)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    started = time.perf_counter()
    try:
        if getattr(args, "seed", 0) < 0:  # numpy's seeding would raise a bare ValueError
            raise ParameterOutOfRange("seed must be an integer >= 0")
        # Huge inputs may overflow a sum to inf; _write_json reports that as
        # an input error, so numpy's overflow warning would only repeat it.
        with np.errstate(over="ignore"):
            code = args.func(args)
    except (LossTreeError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 2
    _emit_manifest(args, time.perf_counter() - started)
    return code


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="losstree",
        description="Localize lossy links from tree path measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-tree", help="generate a topology file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--regular", nargs=2, type=int, metavar=("C", "H"))
    group.add_argument("--ternary", type=int, metavar="LINKS")
    group.add_argument("--random", nargs=2, type=int, metavar=("M", "MAXB"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_tree)

    p = sub.add_parser("solve", help="solve exact observations")
    p.add_argument("--tree", required=True)
    p.add_argument("--obs", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("solve-noisy", help="solve interval observations")
    p.add_argument("--tree", required=True)
    p.add_argument("--intervals", required=True)
    p.add_argument("--mode", choices=MODES, default="min-l0")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_solve_noisy)

    p = sub.add_parser("census", help="uniqueness and recovery probabilities")
    p.add_argument("--tree", required=True)
    p.add_argument("--K", required=True, help="K value, list (1,2) or range (1-9)")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--loss-range", nargs=2, type=float, default=DEFAULT_LOSS_RANGE)
    p.add_argument("--placement", choices=("random", "exhaustive"), default="random")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("experiment", help="probe-noise experiment sweep")
    p.add_argument("--config", help="JSON config file (overrides other flags)")
    p.add_argument("--tree")
    p.add_argument("--K", default="1")
    p.add_argument("--probes", default="1000,10000", help="counts; 'inf' = exact")
    p.add_argument("--trials", type=int, default=100, help="repetitions per cell")
    p.add_argument("--level", type=float, default=0.90)
    p.add_argument("--mode", choices=(POINT_MODE,) + MODES, default=POINT_MODE)
    p.add_argument("--interval-mode", choices=INTERVAL_MODES, default="t-ci")
    p.add_argument("--cover-halfwidth", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("verify", help="cross-check solver against the oracle")
    p.add_argument("--tree", required=True)
    p.add_argument("--obs", help="verify this instance; omit for random ones")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("scfs", help="binary good/bad baseline")
    p.add_argument("--tree", required=True)
    p.add_argument("--obs", required=True)
    p.add_argument("--threshold", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=_cmd_scfs)

    return parser


def _cmd_gen_tree(args) -> int:
    if args.regular is not None:
        tree = gen_regular_tree(*args.regular)
    elif args.ternary is not None:
        tree = gen_ternary_tree(args.ternary)
    else:
        tree = gen_random_tree(args.random[0], args.random[1], args.seed)
    save_topology(tree, args.out)
    print(f"wrote {args.out}: n={tree.n} links, m={tree.m} leaves, H={tree.height}")
    return 0


def _cmd_solve(args) -> int:
    tree = tree_from_spec(args.tree)
    y = load_observations(args.obs)
    report = upsparse(tree, y).to_json()
    _write_json(report, args.out)
    return 0


def _cmd_solve_noisy(args) -> int:
    tree = tree_from_spec(args.tree)
    intervals = load_intervals(args.intervals)
    solution = upsparse_plus(tree, intervals, args.mode).to_json()
    _write_json(solution, args.out)
    return 0


def _cmd_census(args) -> int:
    tree = tree_from_spec(args.tree)
    scanner = SupportScanner(tree)
    rows = []
    for k in _parse_int_list(args.K):
        res = uniqueness_census(
            tree,
            K=k,
            loss_range=tuple(args.loss_range),
            trials=args.trials,
            seed=args.seed,
            placement=args.placement,
            scanner=scanner,
        )
        rows.append(
            {
                "tree": args.tree,
                "n": tree.n,
                "m": tree.m,
                "K": k,
                "trials": res.trials,
                "p_unique": res.p_unique,
                "p_l1_recovers_true": res.p_l1_recovers_true,
                "seed": args.seed,
            }
        )
        print(
            f"K={k}: p_unique={res.p_unique} "
            f"p_l1_recovers_true={res.p_l1_recovers_true} ({res.trials} trials)"
        )
    # Uniqueness should not improve as hotspots are added; flag (but do not
    # fail on) increases beyond two standard errors of the estimate.
    for prev, cur in zip(rows, rows[1:]):
        se = math.sqrt(max(prev["p_unique"] * (1 - prev["p_unique"]), 1e-12) / prev["trials"])
        if cur["p_unique"] > prev["p_unique"] + 2 * se:
            print(
                f"warning: p_unique rose from K={prev['K']} to K={cur['K']} "
                f"beyond sampling noise",
                file=sys.stderr,
            )
    print(f"tree shape: n={tree.n} m={tree.m} H={tree.height}")
    if args.out:
        _write_census_csv(args.out, rows)
    return 0


def _cmd_experiment(args) -> int:
    if args.config:
        cfg = ExperimentConfig.from_json(args.config)
    else:
        if not args.tree:
            raise LossTreeError("experiment needs --tree or --config")
        cfg = ExperimentConfig(
            tree=args.tree,
            k_values=_parse_int_list(args.K),
            probe_counts=[
                None if tok in ("inf", "exact") else _int(tok)
                for tok in args.probes.split(",")
            ],
            reps=args.trials,
            level=args.level,
            mode=args.mode,
            interval_mode=args.interval_mode,
            cover_halfwidth=args.cover_halfwidth,
            seed=args.seed,
        )
    rows = run_experiment(cfg)
    for r in rows:
        n_str = "inf" if r.probes is None else r.probes
        print(
            f"K={r.K} N={n_str}: e0={r.e0_mean:.4f}+-{r.e0_se:.4f} "
            f"e2={r.e2_mean:.4f}+-{r.e2_se:.4f}"
        )
    if args.out:
        write_experiment_csv(args.out, rows)
    return 0


def _cmd_verify(args) -> int:
    tree = tree_from_spec(args.tree)
    if args.obs is not None:
        instances = load_observations(args.obs)  # stacked after closed_form checks its length
    elif args.trials < 1:
        raise ParameterOutOfRange(f"verify needs at least one trial, got --trials {args.trials}")
    else:
        x_true = []
        for t in range(args.trials):
            rng = np.random.default_rng(np.random.SeedSequence(args.seed, spawn_key=(t,)))
            x_true.append(np.where(rng.random(tree.n) < 0.4, rng.uniform(0.01, 0.2, tree.n), 0.0))
        instances = forward(tree, np.array(x_true))  # one observation call for all trials
    xs = np.atleast_2d(closed_form(tree, instances + 0.0))  # upsparse's solutions, in one call
    instances = np.atleast_2d(instances)
    l0s = np.count_nonzero(xs > DEFAULT_TOL, axis=1).tolist()
    enums = sparsest_enumerate(tree, instances)  # one oracle scan of every instance
    seeds = [args.seed + i for i in range(len(instances))]
    l1_oks = l1_sampling_check(tree, instances, xs, samples=200, seed=seeds).tolist()  # one draw
    failures = 0
    for i, (x, l0, enum, l1_ok) in enumerate(zip(xs, l0s, enums, l1_oks)):
        l0_ok = enum.k_star == l0
        match_ok = True
        if enum.unique:
            match_ok = bool(np.abs(enum.solutions[0] - x).max() <= DEFAULT_TOL)
        status = "ok" if (l0_ok and match_ok and l1_ok) else "MISMATCH"
        failures += status != "ok"
        print(
            f"instance {i}: solver_l0={l0} oracle_k={enum.k_star} "
            f"unique={enum.unique} l1_minimal={l1_ok} [{status}]"
        )
    assert failures == 0, f"{failures} oracle mismatches"
    print(f"verified {len(instances)} instances: all checks passed")
    return 0


def _cmd_scfs(args) -> int:
    tree = tree_from_spec(args.tree)
    y = load_observations(args.obs)
    links = sorted(scfs(tree, binarize(y, args.threshold)))
    print(" ".join(str(v) for v in links) if links else "(no bad links)")
    return 0


def _parse_int_list(text: str) -> list[int]:
    out = []
    for tok in str(text).split(","):
        tok = tok.strip()
        if "-" in tok[1:]:
            lo, hi = (_int(end) for end in tok.split("-", 1))
            if hi < lo:
                raise ParameterOutOfRange(f"range {tok!r} runs downward; write it as {hi}-{lo}")
            out.extend(range(lo, hi + 1))
        else:
            out.append(_int(tok))
    return out


def _int(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParameterOutOfRange(f"expected an integer, got {token!r}") from None


def _write_json(data: dict, out_path) -> None:
    """Write a report to ``out_path`` (if given), then print it."""
    try:
        text = _report_json(data)
    except ValueError:
        raise OutOfDomain("the result overflows to a non-finite number; inputs too large") from None
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


# With an indent, json always takes its pure-Python encoder, so a report's
# text is joined here from C-encoder texts.  A call's text splits exactly at
# a "\x00" separator: the encoder escapes "\x00" inside every string.  Below
# FEW_ITEMS, the crossing for lists, shared texts do not pay (in process,
# 2-core Xeon, median of 40 interleaved ratios of the report's time to one
# call's): a float list with 1 item in 64 nonzero takes 1.04x at 64 items,
# 0.95x at 96 and 0.90x at 128, and 0.97x at 128 with 1 in 8.  A table of
# complex states takes 1.03x at 32 rows and 0.70x at 128.
FEW_ITEMS = 128
_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))
_encode_items = json.JSONEncoder(allow_nan=False, separators=(",\n    ", ": ")).encode


def _report_json(data: dict) -> str:
    """The text of ``json.dumps(data, indent=2, allow_nan=False)``, tables written as rows.

    ``data`` must be a dict with string keys whose values are scalars, flat
    lists of scalars, or tables: dicts of string keys to equal-length flat
    lists of scalars, written as their rows ``{key: column[i], ...}``.  Any
    other layout fails an invariant (exit code 2), in any field, before a
    value is encoded.  A non-finite float raises ``ValueError``, as
    ``json.dumps`` does.  The scalars and short tables' cells are one encoder
    call, a short list another; a list or column of ``FEW_ITEMS`` or more is
    its items' texts, each after its key, and a row is the join of its cells.
    """
    if type(data) is not dict or set(map(type, data)) - {str}:
        raise AssertionError("a report is a dict with string keys")
    fields, values = [], []  # values: the scalars and the cells of short tables, for one call
    for key, value in data.items():
        if type(value) in _SCALAR_TYPES:
            fields.append((key, None, None))
            values.append(value)
            continue
        if type(value) is dict:  # a table
            columns = list(value.values())
            if set(map(type, value)) - {str} or set(map(type, columns)) - {list} or (
                    len(set(map(len, columns))) > 1):
                raise AssertionError(f"report field {key!r} is not a table of equal-length lists")
            if columns and len(columns[0]) < FEW_ITEMS:
                values += itertools.chain.from_iterable(zip(*columns))  # in row order
        elif type(value) is list:
            columns = [value]
        else:
            raise AssertionError(f"report field {key!r} is not a scalar, a list or a table")
        types = [set(map(type, column)) for column in columns]
        if set().union(*types) - _SCALAR_TYPES:
            raise AssertionError(f"report field {key!r} holds a value that is not a scalar")
        fields.append((key, columns, types))
    value_texts = iter(_texts(values))
    texts = []
    for key, columns, types in fields:
        if columns is None:
            text = next(value_texts)
        elif not columns or not columns[0]:
            text = "[]"
        elif type(data[key]) is dict:
            text = _table_text(data[key], types, value_texts)
        else:
            shared = _column_texts(columns[0], types[0]) if len(columns[0]) >= FEW_ITEMS else None
            text = _encode_items(columns[0])[1:-1] if shared is None else ",\n    ".join(shared)
            text = "[\n    " + text + "\n  ]"
        texts.append(encode_basestring_ascii(key) + ": " + text)
    return "{\n  " + ",\n  ".join(texts) + "\n}" if texts else "{}"


def _table_text(table: dict, types: list, value_texts) -> str:
    """A table's rows at depth 1 of ``indent=2``; a short table's cells are next in ``value_texts``."""
    heads = [",\n      " + encode_basestring_ascii(key) + ": " for key in table]
    heads[0], columns = heads[0][1:], list(table.values())  # a row's first cell follows its "{"
    if len(columns[0]) < FEW_ITEMS:
        cells = itertools.islice(value_texts, len(heads) * len(columns[0]))
        rows = zip(*[map(operator.add, itertools.cycle(heads), cells)] * len(heads))
    else:
        rows = zip(*[_column_texts(column, kinds, head) or _texts(column, head)
                     for column, kinds, head in zip(columns, types, heads)])
    return "[\n    {" + "\n    },\n    {".join(map("".join, rows)) + "\n    }\n  ]"


def _column_texts(items: list, types: set, head: str = ""):
    """The text of each item after ``head``, made once for the items that share it; or None.

    A float list with at least seven in eight items equal to 0.0 shares one
    "0.0" among its +0.0 (all bits zero) and encodes the others, so -0.0 is
    kept and NaN and inf still raise.  A table column (``head`` not empty)
    of ints or of strs encodes each distinct value once if at most one in
    eight of its items, and of its first ``FEW_ITEMS``, is new.
    """
    if types == {float} and 8 * (len(items) - items.count(0.0)) <= len(items):
        values = np.fromiter(items, float, len(items))
        others = np.flatnonzero(values.view(np.int64))
        texts = [head + "0.0"] * len(items)
        for i, text in zip(others.tolist(), _texts(values[others].tolist(), head)):
            texts[i] = text
        return texts
    if head and types in ({int}, {str}) and 8 * len(set(items[:FEW_ITEMS])) <= FEW_ITEMS:
        distinct = list(set(items))
        if 8 * len(distinct) <= len(items):
            return list(map(dict(zip(distinct, _texts(distinct, head))).__getitem__, items))
    return None


def _texts(items: list, head: str = "") -> list:
    """The text of each item after ``head``, from one call of the C encoder."""
    return (head + _encoder(head)(items)[1:-1]).split("\x00")


@functools.lru_cache(maxsize=64)
def _encoder(head: str):
    """An encoder whose item separator is "\x00" and ``head``."""
    return json.JSONEncoder(allow_nan=False, separators=("\x00" + head, ": ")).encode


def _write_census_csv(path, rows: list[dict]) -> None:
    fields = ["tree", "n", "m", "K", "trials", "p_unique", "p_l1_recovers_true", "seed"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: str(row[k]) for k in fields})


def _emit_manifest(args, wall_clock: float) -> None:
    config = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    manifest = {
        "command": args.command,
        "config": config,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "output_paths": [p for p in [getattr(args, "out", None)] if p],
        "wall_clock_s": round(wall_clock, 6),
    }
    line = json.dumps(manifest)
    print(line, file=sys.stderr)
    out = getattr(args, "out", None)
    if out:
        with open(f"{out}.manifest.json", "w", encoding="utf-8") as fh:
            fh.write(line + "\n")


if __name__ == "__main__":
    sys.exit(main())
