"""Output checks written against the benchmark's own tree code.

Each check takes the command's exit code, standard output and error, and
returns None when the output is correct or a one-line reason when not.
None of them calls into the package.
"""

import csv
import json
import os

import numpy as np

from inputs import Instance

PATH_TOL = 1e-9
BOUND_TOL = 1e-12

EXPERIMENT_HEADER = ["K", "N", "mode", "reps", "e0_mean", "e0_se", "e2_mean", "e2_se", "seed"]
TEXT_COLUMNS = {"mode", "tree"}
CENSUS_HEADER = ["tree", "n", "m", "K", "trials", "p_unique", "p_l1_recovers_true", "seed"]


def _exit(code: int, err: str):
    if code != 0:
        return f"exit code {code}: {err.strip()[-200:]}"
    return None


def solve(inst: Instance):
    """The planted x meets the recovery condition, so it is the exact answer."""

    def check(code, out, err):
        bad = _exit(code, err)
        if bad:
            return bad
        x = np.asarray(json.loads(out)["x"], dtype=float)
        if x.shape != (inst.tree.n,):
            return f"x has shape {x.shape}, expected ({inst.tree.n},)"
        gap = float(np.abs(x - inst.x[1:]).max())
        return None if gap <= PATH_TOL else f"x differs from planted by {gap:.3g}"

    return check


def solve_noisy(inst: Instance):
    """x >= 0, lo <= y <= hi, and the path sums of x equal y."""

    def check(code, out, err):
        bad = _exit(code, err)
        if bad:
            return bad
        data = json.loads(out)
        x = np.asarray(data["x"], dtype=float)
        y = np.asarray(data["y"], dtype=float)
        if x.shape != (inst.tree.n,) or y.shape != (inst.tree.m,):
            return "x or y has the wrong length"
        if x.min() < 0:
            return f"negative link loss {x.min():.3g}"
        if np.any(y < inst.lo - BOUND_TOL) or np.any(y > inst.hi + BOUND_TOL):
            return "realized y leaves its interval"
        sums = inst.tree.path_sums(np.concatenate(([0.0], x)))[1 : inst.tree.m + 1]
        gap = float(np.abs(sums - y).max())
        return None if gap <= PATH_TOL else f"path sums of x miss y by {gap:.3g}"

    return check


def scfs(inst: Instance, threshold: float = 1e-9):
    """The set covers exactly the bad paths and holds no ancestor pairs."""
    tree = inst.tree
    bad = inst.y > threshold

    def check(code, out, err):
        failure = _exit(code, err)
        if failure:
            return failure
        line = out.strip().splitlines()[0] if out.strip() else ""
        links = [] if line == "(no bad links)" else [int(t) for t in line.split()]
        picked = np.zeros(tree.n + 1, dtype=bool)
        picked[links] = True
        # under[v]: some link on the root-to-v path, v included, is picked.
        under = np.zeros(tree.n + 1, dtype=bool)
        for level in tree.levels:
            above = under[tree.parent[level]]
            if np.any(above & picked[level]):
                return "set holds an ancestor pair"
            under[level] = above | picked[level]
        if not np.array_equal(under[1 : tree.m + 1], bad):
            return "set does not cover exactly the bad paths"
        return None

    return check


class SameCsv:
    """CSV at ``path`` is well formed and byte-identical to its first reading."""

    def __init__(self, path: str, header: list[str], rows: int, probability_cols: list[str]):
        self.path = path
        self.header = header
        self.rows = rows
        self.probability_cols = probability_cols
        self.reference = None

    def __call__(self, code, out, err):
        bad = _exit(code, err)
        if bad:
            return bad
        if not os.path.exists(self.path):
            return "no CSV written"
        with open(self.path, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(self.path)  # a later run that writes nothing must not pass
        if self.reference is not None:
            return None if text == self.reference else "CSV differs from the first run"
        rows = list(csv.reader(text.splitlines()))
        if not rows or rows[0] != self.header:
            return "CSV header is wrong"
        if len(rows) - 1 != self.rows:
            return f"CSV has {len(rows) - 1} rows, expected {self.rows}"
        for row in rows[1:]:
            if len(row) != len(self.header):
                return "CSV row has the wrong width"
            fields = dict(zip(self.header, row))
            for col in self.header:
                if col not in TEXT_COLUMNS and not np.isfinite(float(fields[col])):
                    return f"{col}={fields[col]} is not a finite number"
            for col in self.probability_cols:
                if not 0.0 <= float(fields[col]) <= 1.0:
                    return f"{col}={fields[col]} outside [0, 1]"
        self.reference = text
        return None


def verify(trials: int):
    def check(code, out, err):
        bad = _exit(code, err)
        if bad:
            return bad
        last = out.strip().splitlines()[-1] if out.strip() else ""
        want = f"verified {trials} instances: all checks passed"
        return None if last == want else f"unexpected verify output {last!r}"

    return check
