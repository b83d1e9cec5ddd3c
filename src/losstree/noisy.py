"""Minimal-norm solutions when each path observation is only an interval.

Each path j carries an interval [lo_j, hi_j] deemed to contain the true
observation; hi_j may be infinite (math.inf is the explicit unbounded
marker, with the usual total comparisons).  The solution space is the
union of the families for every realizable observation vector.  Pushing
loss up, realizing each observation at the smallest value consistent
with the choices above it, minimizes the l1 norm; with the thresholds of
``z_stats`` it also gives the fewest lossy links, exactly.

For a single complex the family reduces to one parameter x (the father
link loss): the children take [lo_j - x]^+ and realize max(x, lo_j).
``local_min_l0`` and ``local_min_l1`` characterize the optimal x sets.
On a full tree the same thresholds generalize to per-subtree statistics
(``z_stats``: leaf-span range minima of the bounds, plus one bottom-up
pass for the sparsity threshold), and ``upsparse_plus`` applies them top
down with max scans along the root paths.  Both take intervals of (m,)
or (B, m), an (m,) one being a single row; only the bottom-up pass in
``z_stats`` runs row by row.

A note on ties: when a whole set of x values is optimal, results report
the set and single-value fields use the canonical minimizer; tie-breaks
that pick one solution prefer the largest x (most loss pulled up).
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomain, XOutOfRange, _check_tol
from .lossmodel import DEFAULT_TOL, _in_path_order, _load_json, _number_tokens, _number_values
from .topology import LogicalTree, _decimal_values

MIN_L0 = "min-l0"
MIN_L1 = "min-l1"
MIN_L1_AMONG_L0 = "min-l1-among-l0"
MODES = (MIN_L0, MIN_L1, MIN_L1_AMONG_L0)


@dataclass(eq=False)
class IntervalObservation:
    """Per-path observation intervals [lo_j, hi_j] in addloss units, (m,) or (B, m)."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        try:
            self.lo = np.asarray(self.lo, dtype=float)
            self.hi = np.asarray(self.hi, dtype=float)
        except (TypeError, ValueError):
            raise OutOfDomain("interval bounds must be numbers") from None
        if self.lo.shape != self.hi.shape:
            raise OutOfDomain("interval bounds must have equal length")
        if np.any(self.lo < 0) or not np.all(np.isfinite(self.lo)):
            raise OutOfDomain("lower bounds must be finite and non-negative")
        if np.any(np.isnan(self.hi)) or np.any(self.hi < self.lo):
            raise OutOfDomain("upper bounds must not be NaN or fall below lower bounds")

    @classmethod
    def exact(cls, y) -> "IntervalObservation":
        """Degenerate intervals pinning every observation to y."""
        y = np.asarray(y, dtype=float)
        return cls(lo=y.copy(), hi=y.copy())

    @property
    def m(self) -> int:
        return self.lo.shape[-1]

    def contains(self, y, tol: float = 0.0) -> bool:
        _check_tol(tol)
        y = np.asarray(y, dtype=float)
        return bool(np.all(y >= self.lo - tol) and np.all(y <= self.hi + tol))


@dataclass
class ZStats:
    """Per-link subtree statistics driving the interval solver.

    For the subtree under node i (indexed by link label - 1):
      min_upper: smallest upper bound among its paths;
      max_lower: largest lower bound among its paths;
      l0_threshold: the smallest father path loss at which the subtree
        needs its fewest lossy links (see ``z_stats``).
    """

    min_upper: np.ndarray
    max_lower: np.ndarray
    l0_threshold: np.ndarray


@dataclass
class NoisySolution:
    """Interval-solver output: link losses x and the realized observation.

    ``z`` holds the root-to-node path loss for every link label, so the
    realized observation y equals z over the leaf labels and satisfies
    lo <= y <= hi componentwise.  A batch holds one solution per row of
    (B, n) and (B, m) arrays, and its norms are (B,) arrays.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    mode: str

    def l0(self) -> int | np.ndarray:
        l0 = (self.x > DEFAULT_TOL).sum(axis=-1)
        return l0 if self.x.ndim == 2 else int(l0)

    def l1(self) -> float | np.ndarray:
        l1 = self.x.sum(axis=-1)
        return l1 if self.x.ndim == 2 else float(l1)

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "x": self.x.tolist(),
            "y": self.y.tolist(),
            "z": self.z.tolist(),
            "l0": self.l0(),
            "l1": self.l1(),
        }


@dataclass
class LocalMinL0:
    """Optimal father-link losses for minimum sparsity in one complex.

    The optimal set is the closed interval [x_lo, x_hi], plus the isolated
    point 0 when ``alternate_at_zero`` is set.  ``x_star`` is the canonical
    minimizer (the largest lower bound not exceeding the smallest upper
    bound); ``solution`` is the local family member at ``x_star``.
    """

    case: int
    l0: int
    x_lo: float
    x_hi: float
    alternate_at_zero: bool
    unique: bool
    x_star: float
    solution: np.ndarray


@dataclass
class LocalMinL1:
    """Optimal father-link losses for minimum l1 in one complex."""

    l1: float
    x_lo: float
    x_hi: float
    unique: bool
    x_star: float
    solution: np.ndarray


def glocal_family(y_lo, y_hi, x: float) -> np.ndarray:
    """Local solution [ [lo_1 - x]^+, ..., [lo_m - x]^+, x ] for one complex.

    ``x`` must lie between the smallest lower and smallest upper bound;
    child j then realizes the observation max(x, lo_j).
    """
    y_lo, y_hi = _as_intervals(y_lo, y_hi)
    if not y_lo.min() <= x <= y_hi.min():
        raise XOutOfRange(
            f"x={x} outside [{y_lo.min()}, {y_hi.min()}] for this complex"
        )
    return np.append(np.maximum(y_lo - x, 0.0), x)


def local_min_l0(y_lo, y_hi) -> LocalMinL0:
    """Minimum-sparsity analysis of one complex over its interval box.

    Writing k(x) for the number of lower bounds strictly above x, the
    sparsity of the family member at x is k(x) + (1 if x > 0).  The four
    cases: (1) all lower bounds positive: optimum shared on [x_star,
    min upper]; (2) zero is the only lower bound under min upper: unique
    optimum at 0; (3) sparsity at 0 ties the interval optimum: both kept,
    flagged ``alternate_at_zero``; (4) the interval beats 0.
    """
    y_lo, y_hi = _as_intervals(y_lo, y_hi)
    u_min = float(y_hi.min())
    x_star = float(y_lo[y_lo <= u_min].max())

    def k(x):
        return int((y_lo > x).sum())

    if y_lo.min() > 0:
        case, l0 = 1, k(x_star) + 1
        x_lo, x_hi, alt = x_star, u_min, False
        unique = x_star == u_min
    elif x_star == 0:
        case, l0 = 2, k(0.0)
        x_lo = x_hi = 0.0
        alt, unique = False, True
    elif k(0.0) == k(x_star) + 1:
        case, l0 = 3, k(0.0)
        x_lo, x_hi, alt, unique = x_star, u_min, True, False
    else:
        case, l0 = 4, k(x_star) + 1
        x_lo, x_hi, alt = x_star, u_min, False
        unique = x_star == u_min
    return LocalMinL0(
        case=case,
        l0=l0,
        x_lo=float(x_lo),
        x_hi=float(x_hi),
        alternate_at_zero=alt,
        unique=unique,
        x_star=x_star if case != 2 else 0.0,
        solution=glocal_family(y_lo, y_hi, x_star if case != 2 else 0.0),
    )


def local_min_l1(y_lo, y_hi) -> LocalMinL1:
    """Minimum-l1 analysis of one complex over its interval box.

    The norm x + sum_j [lo_j - x]^+ is piecewise linear with slope
    1 - k(x), so it bottoms out at the smaller of the largest lower bound
    and the smallest upper bound; it is flat back to the second-largest
    lower bound when that lies below the optimum.
    """
    y_lo, y_hi = _as_intervals(y_lo, y_hi)
    x_star = float(min(y_lo.max(), y_hi.min()))
    second = float(np.partition(y_lo, -2)[-2])
    unique = x_star < second
    x_lo = x_star if unique else second
    l1 = x_star + float(np.maximum(y_lo - x_star, 0.0).sum())
    return LocalMinL1(
        l1=l1,
        x_lo=float(x_lo),
        x_hi=x_star,
        unique=unique,
        x_star=x_star,
        solution=glocal_family(y_lo, y_hi, x_star),
    )


def z_stats(tree: LogicalTree, intervals: IntervalObservation) -> ZStats:
    """Subtree interval statistics for every link: (n,), or (B, n) for (B, m) bounds.

    min_upper and max_lower are leaf-span minima of hi and -lo, from one
    ``LogicalTree.span_min`` over the stacked bounds.  l0_threshold is exact.
    Let f_v(z) be the fewest lossy links at and under v given its father's
    path loss z <= U_v, the min_upper of v.  f_v takes two values: c_v for
    z >= t_v and c_v + 1 below, because v can always jump once into
    [t_v, U_v] and f_v never grows with z.  A leaf has t = lo and c = 0; a
    child w with t_w > U_v takes a lossy link at any z, so
    t_v = max{t_w : t_w <= U_v} and c_v = sum c_w + #{w : t_w > U_v}, and
    z_v = max(z_father, t_v) is optimal.  One bottom-up pass per row on
    Python floats, children before fathers (leaves, then internal labels
    from high to low), pushes each t to the father when it is at most the
    father's U; the father keeps the largest.  Some child always qualifies:
    the one whose subtree holds the smallest upper bound.
    """
    min_upper, max_lower = _span_bounds(tree, intervals)
    m, n = tree.m, tree.n
    parent, order = tree.parent.tolist(), [*tree.leaves, *reversed(tree.internal)]
    thresholds = []
    lo = intervals.lo.reshape(-1, m)  # one row per observation
    for lo_row, upper in zip(lo.tolist(), min_upper.reshape(-1, n).tolist()):
        t, upper = [0.0] + lo_row + [-math.inf] * (n - m), [math.inf] + upper
        for v in order:
            f = parent[v]
            if t[f] < t[v] <= upper[f]:
                t[f] = t[v]
        thresholds.append(t[1:])
    return ZStats(min_upper=min_upper, max_lower=max_lower,
                  l0_threshold=np.array(thresholds, dtype=float).reshape(min_upper.shape))


def _span_bounds(tree: LogicalTree, intervals: IntervalObservation):
    """(min_upper, max_lower) of ``z_stats``, from one ``span_min`` over the stacked bounds."""
    _check_paths(tree, intervals)
    lo = intervals.lo.reshape(-1, tree.m)  # one row per observation
    bounds = tree.span_min(np.concatenate((intervals.hi.reshape(-1, tree.m), -lo)))
    shape = intervals.lo.shape[:-1] + (tree.n,)
    return bounds[: len(lo)].reshape(shape), -bounds[len(lo) :].reshape(shape)


def upsparse_plus(
    tree: LogicalTree, intervals: IntervalObservation, mode: str = MIN_L0
) -> NoisySolution:
    """Interval solver: assign path losses top down against z thresholds.

    Every node i receives path loss z_i = max(z_father, threshold_i), a max
    scan down its root path, and link loss x_i = z_i - z_father.  MIN_L1's
    threshold min(max_lower, min_upper) gives the smallest l1; MIN_L0's,
    l0_threshold, gives the fewest lossy links (proof in ``z_stats``).
    MIN_L1_AMONG_L0 bumps a link to min_upper when its subtree cannot
    realize max_lower and its threshold exceeds its father's z, that is,
    every threshold above it (z never falls below those).  Equal to the
    sequential pass by this lemma: if t_v <= U_father then t_father >= t_v,
    so a threshold above every ancestor's threshold lies above U_father,
    which bounds every value an ancestor passes down.  The bump keeps the
    count sparsest, since every child threshold at most U_v stays met.
    Max is exact, so z has the bytes of a sequential pass.  Realized
    observations are the leaf z values and respect the intervals.  Bounds
    (B, m) give one solution per row.
    """
    if mode not in MODES:
        raise OutOfDomain(f"mode must be one of {MODES}, got {mode!r}")
    if mode == MIN_L1:  # reads no l0_threshold, so skips its pass
        upper, lower = _span_bounds(tree, intervals)  # also checks the path count
        thr = np.minimum(lower, upper)
    else:
        stats = z_stats(tree, intervals)
        upper, lower, thr = stats.min_upper, stats.max_lower, stats.l0_threshold
    m, parent = tree.m, tree.parent[1:]
    z = np.zeros(thr.shape[:-1] + (tree.n + 1,))  # column ROOT: 0, the identity
    z[..., 1:] += thr  # 0.0 + -0.0 is 0.0, so max never has to pick between two zeros
    z = tree.root_scan(z, np.maximum)
    if mode == MIN_L1_AMONG_L0:
        gate = thr > z.take(parent, axis=-1)
        bump = upper < lower
        z[..., 1:] = np.where(gate, np.where(bump, upper, thr), 0.0)
        z = tree.root_scan(z, np.maximum)
    return NoisySolution(x=z[..., 1:] - z.take(parent, axis=-1), y=z[..., 1 : m + 1].copy(),
                         z=z[..., 1:], mode=mode)


def save_intervals(intervals: IntervalObservation, path) -> None:
    """Write (m,) intervals as JSON: [{"path": j, "lo": v, "hi": v|"inf"}]."""
    if intervals.lo.ndim != 1:
        raise OutOfDomain(f"need one interval per path, got shape {intervals.lo.shape}")
    rows = [{"path": j, "lo": lo, "hi": "inf" if math.isinf(hi) else hi}
            for j, (lo, hi) in enumerate(zip(intervals.lo.tolist(), intervals.hi.tolist()), 1)]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rows, fh)
        fh.write("\n")


_NUMBERS = (int, float)  # the types json gives a number; true/false are bool, not int


def load_intervals(path) -> IntervalObservation:
    """Read a JSON interval file; "inf" or null upper ends mean unbounded.

    Every other path, lo and hi is a JSON number: a string such as "0.1"
    is not read as one.  A long file in the layout ``save_intervals`` writes,
    rows in path order, is read from its bytes (``_bulk_intervals``); any
    other file goes through ``json.loads`` to the row walk, which alone
    raises, so both give the same values and errors.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    bounds = _bulk_intervals(text)
    if bounds is not None:
        return IntervalObservation(*bounds)
    rows = _load_json(text, "interval file")
    if not isinstance(rows, list):
        raise OutOfDomain("interval file must hold a list of {path, lo, hi} rows")
    entries = []
    for row in rows:
        try:
            path, lo, hi = row["path"], row["lo"], row["hi"]
            if hi is None or (isinstance(hi, str) and hi.lower() in ("inf", "infinity")):
                hi = math.inf
            if not (type(path) in _NUMBERS and type(lo) in _NUMBERS and type(hi) in _NUMBERS):
                raise TypeError
            j, bounds = int(path), (float(lo), float(hi))
            if isinstance(path, float) and path != j:
                raise ValueError
        except (KeyError, TypeError, ValueError, OverflowError):
            raise OutOfDomain(
                f"interval row {row!r} needs a numeric path, lo and hi"
                " (a whole path number; true/false are not numbers)"
            ) from None
        entries.append((j, bounds))
    lo, hi = np.array(list(zip(*_in_path_order(entries, "interval file"))) or [(), ()])
    return IntervalObservation(lo=lo, hi=hi)


_ROW = b'{"path": , "lo": , "hi": }'  # a row's skeleton, less its numbers


def _interval_slots(skeleton: bytes):
    """How many numbers an interval file of this skeleton holds in the package layout, or None.

    Rows are ``_ROW`` with a number in each slot, or with "inf" for hi.
    """
    plain = skeleton.replace(b' "inf"}', b" }")  # " }" ends only a hi slot
    m = len(plain) // (len(_ROW) + 2)  # rows and ", " between them, in "[" and "]"
    if plain != b"[" + (_ROW + b", ") * (m - 1) + _ROW + b"]":
        return None
    return 3 * m - (len(skeleton) - len(plain)) // 5  # "inf" rows have no hi number


def _bulk_intervals(text: str):
    """The lo and hi of a file in the layout ``save_intervals`` writes, paths 1..m in order, else None.

    A path is read by ``_decimal_values`` and must be 1..m, with no leading 0;
    lo and hi come from ``_number_values``.
    """
    found = _number_tokens(text, _interval_slots)
    if found is None:
        return None
    data, start, end = found
    key = data.take(start - 4)  # the key's last letter: pat(h), l(o) or h(i)
    is_path = key == ord("h")
    paths = _decimal_values(data, start[is_path], end[is_path])
    if (paths is None or (data.take(start[is_path]) == ord("0")).any()
            or not np.array_equal(paths, np.arange(1, len(paths) + 1))):
        return None
    values = _number_values(text, data, start[~is_path], end[~is_path])
    if values is None:
        return None
    is_lo = key[~is_path] == ord("o")
    row = np.cumsum(is_path)[~is_path] - 1  # the row of each lo and hi number
    hi = np.full(len(paths), math.inf)
    hi[row[~is_lo]] = values[~is_lo]
    return values[is_lo], hi


def _as_intervals(y_lo, y_hi):
    y_lo = np.asarray(y_lo, dtype=float)
    y_hi = np.asarray(y_hi, dtype=float)
    if len(y_lo) < 2:
        raise OutOfDomain("a complex has at least two child paths")
    IntervalObservation(lo=y_lo, hi=y_hi)  # runs the shared validation
    return y_lo, y_hi


def _check_paths(tree: LogicalTree, intervals: IntervalObservation) -> None:
    if intervals.lo.ndim not in (1, 2):
        raise OutOfDomain(f"intervals must be (m,) or (B, m), got shape {intervals.lo.shape}")
    if intervals.m != tree.m:
        raise OutOfDomain(
            f"tree has {tree.m} paths but intervals cover {intervals.m}"
        )
