"""Independent brute-force verification of the tree solvers.

Nothing here reuses the solvers' reasoning: sparsest solutions come from
exhaustive support enumeration (a restricted solve of every support that
can be feasible), l1 minimality is checked against feasible-polytope
samples, and both interval norms by one exact (mixed-integer) program over
the interval box.
The sparsest solution is unique when one support is feasible at the
smallest feasible size k*; the census measures how often that holds, and
how often the minimum-l1 solution equals the planted truth, under random
hotspot placements.

Enumeration lists every support of each size k once per tree, sorted by
the paths it covers.  Level k is built from level k-1 in lexicographic
order: each support is extended by every link after its last one, and its
masks are the parent's OR'd with the new link's.  Above n/2 a level is the
complement of level n-k, so no level larger than the one asked for is
built.  At k* every link of a feasible support carries loss,
so only supports covering exactly the lossy paths are candidates; of
those, only supports whose leaf spans start or end at every step of y (a
gap between adjacent paths) can be feasible, since paths that no link of
S tells apart get equal A_S x.  The survivors of all observations that
have independent columns are solved at once through their Gram systems
A_SᵀA_S x = A_Sᵀy.  A_S has consecutive ones in each column, so it is
totally unimodular and det(A_SᵀA_S), by Cauchy-Binet its count of
nonsingular k x k minors, tests rank exactly.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InstanceTooLarge, KTooSmall, NotBranchNode, OutOfDomain, ParameterOutOfRange, _check_seed,
    _check_tol, _is_real, _per_row
)
from .lossmodel import (
    DEFAULT_LOSS_RANGE, DEFAULT_TOL, _checked, _is_int, _planted_blocks, addloss, forward,
    sample_feasible
)
from .noiseless import closed_form
from .noisy import MIN_L0, MIN_L1, IntervalObservation, NoisySolution, _check_paths
from .topology import LogicalTree

# The program's certificates (_interval_optimum, noisy_exact_check) accept x >= -FEAS_TOL
# and A x within FEAS_TOL of its bounds, HiGHS's feasibility tolerance.  The support
# scan uses the solvers' DEFAULT_TOL, so both count the same links as lossy.
FEAS_TOL = 1e-7

SIZE_LIMIT = 26
_SCAN_LIMIT = 2_000_000  # supports per size level
_CANDIDATES = 2**16  # exact-cover candidates pruned and solved at once, to bound memory
_SAMPLED = 2**20  # link values the l1 check draws at once, to bound memory


@dataclass
class EnumerationResult:
    """All sparsest solutions of y = A x, x >= 0, by exhaustive scan: one per feasible support."""

    k_star: int | None
    supports: list[tuple[int, ...]]  # canonical link labels
    solutions: list[np.ndarray]
    unique: bool


@dataclass
class CensusResult:
    trials: int
    p_unique: float
    p_l1_recovers_true: float


class SupportScanner:
    """Per-tree cache of the support levels that the scan solves.

    Built empty and filled on first use, so one scanner can serve every
    oracle call of a command, and a tree over the size limit is rejected
    before any matrix is built.
    """

    def __init__(self, tree: LogicalTree):
        self.tree = tree
        self.path_bits = 1 << np.arange(tree.m, dtype=np.int64)  # bit j-1 stands for path j
        self._levels: dict[int, tuple] = {}

    @functools.cached_property
    def dense(self) -> np.ndarray:
        """A, (m, n): path j uses link v exactly when leaf j lies in v's leaf span."""
        lo, hi = self.tree.leaf_span[1:].T
        j = np.arange(1, self.tree.m + 1)[:, None]
        return ((lo <= j) & (j < hi)).astype(float)

    @functools.cached_property
    def gram(self) -> np.ndarray:
        return self.dense.T @ self.dense  # A_SᵀA_S is gram[S][:, S]

    @functools.cached_property
    def link_masks(self) -> np.ndarray:
        return self.path_bits @ (self.dense > 0)  # the paths through each link

    @functools.cached_property
    def step_masks(self) -> np.ndarray:
        """Per link, bit j-1 set where its leaf span starts or ends between leaves j and j+1."""
        return self.path_bits[:-1] @ (np.diff(self.dense, axis=0) != 0)

    def level(self, k: int):
        """(supports, cover masks, step masks) of all supports of size k, by cover mask.

        Supports are (n choose k, k) link indices, sorted stably by cover mask
        from lexicographic order, so lexicographic within a mask.  Level k is
        derived from level k-1: each support is extended by every link after
        its last one, and its cover and step masks are the parent's OR'd with
        the new link's (Knuth, TAOCP 4A, 7.2.1.3).  Above n/2 the level is the
        complement of level n-k, whose lexicographic order it reverses, so no
        level larger than the one asked for is built.  A level is stored once,
        sorted, with the sorted position of each support in lexicographic order.
        """
        if not (_is_int(k) and k >= 0):
            raise ParameterOutOfRange(f"support size must be a whole number >= 0, got {k!r}")
        return self._stored(k)[:3]

    def _stored(self, k: int):
        """Level k as stored: ``level(k)``'s arrays and each lexicographic support's position."""
        if k not in self._levels:
            n = self.tree.n
            count = math.comb(n, k)
            if count > _SCAN_LIMIT:
                raise InstanceTooLarge(f"{count} supports of size {k} on {n} links")
            if k == 0 or k > n:  # the empty support alone, or none
                empty = np.zeros(count, np.int64)
                self._levels[k] = (np.zeros((count, k), np.int64), empty, empty, empty)
            elif 2 * k > n:
                self._levels[k] = self._complement(k, count)
            else:
                self._levels[k] = self._extension(k, count)
        return self._levels[k]

    def _extension(self, k: int, count: int):
        """Level k, as stored, from level k-1's supports in lexicographic order."""
        sup, masks, steps, rank = self._stored(k - 1)
        last = sup[rank, -1] if k > 1 else np.full(1, -1)
        fan = self.tree.n - 1 - last  # the links after each parent's last one
        parent = np.repeat(rank, fan)  # children in lexicographic order, parents by sorted position
        link = np.arange(count) - np.repeat(np.cumsum(fan) - fan - last - 1, fan)
        cover = masks[parent] | self.link_masks[link]
        order = np.argsort(cover, kind="stable")
        parent, link = parent[order], link[order]
        supports = np.empty((count, k), np.int64)
        for lo in range(0, count, _CANDIDATES):  # in blocks: no second (count, k - 1) copy
            supports[lo : lo + _CANDIDATES, :-1] = sup[parent[lo : lo + _CANDIDATES]]
        supports[:, -1] = link
        return supports, cover[order], steps[parent] | self.step_masks[link], _inverse(order)

    def _complement(self, k: int, count: int):
        """Level k > n/2, as stored, from level n-k's complements in reverse lexicographic order."""
        sup, _, _, rank = self._stored(self.tree.n - k)
        gaps = sup[rank[::-1]] - np.arange(self.tree.n - k)  # s_j - j: links not in S below s_j
        supports = np.broadcast_to(np.arange(k), (count, k)).copy()
        for column in gaps.T:  # the i-th link not in S is i + #{j: s_j - j <= i}
            supports += column[:, None] <= np.arange(k)
        cover = steps = np.zeros(count, np.int64)
        for column in supports.T:
            cover, steps = cover | self.link_masks[column], steps | self.step_masks[column]
        order = np.argsort(cover, kind="stable")
        return supports[order], cover[order], steps[order], _inverse(order)

    def _lexicographic(self, k: int) -> np.ndarray:
        """Level k's supports in lexicographic order."""
        supports, _, _, rank = self._stored(k)
        return supports[rank]

    def feasible_at(self, ys: np.ndarray, k: int):
        """Feasible size-k supports of each row of ys (T, m), as (rows, supports, (n,) xs), by row.

        Solves only the supports that cover exactly the row's lossy paths and
        have a step wherever the row has one: where no link of S starts or
        ends between leaves j and j+1, rows j and j+1 of A_S are equal, so a
        feasible S has |y_j - y_j+1| <= 2 DEFAULT_TOL.
        """
        ys = _checked(ys, self.tree.m, "paths", batch=True)
        if ys.ndim != 2:
            raise OutOfDomain(f"need (T, {self.tree.m}) values for paths, got shape {ys.shape}")
        supports, masks, steps = self.level(k)
        required = np.where(ys > DEFAULT_TOL, self.path_bits, 0).sum(axis=1)
        jumps = np.abs(np.diff(ys, axis=1)) > 4 * DEFAULT_TOL  # twice the bound: rounding to spare
        ysteps = np.where(jumps, self.path_bits[:-1], 0).sum(axis=1)
        first = np.searchsorted(masks, required)
        count = np.searchsorted(masks, required, side="right") - first
        # a few rows at a time: at most _CANDIDATES candidates, or one row's
        per_pass = max(1, _CANDIDATES // max(1, count.max(initial=0)))
        found = [(np.zeros(0, np.int64), np.zeros((0, k), np.int64), np.zeros((0, self.tree.n)))]
        for lo in range(0, len(ys), per_pass):
            c = count[lo : lo + per_pass]
            rows = np.repeat(np.arange(lo, lo + c.size), c)
            cand = np.arange(rows.size) + np.repeat(first[lo : lo + per_pass] - np.cumsum(c) + c, c)
            keep = (steps[cand] & ysteps[rows]) == ysteps[rows]
            rows, sup = rows[keep], supports[cand[keep]]
            i, x = self._solved(ys[rows], sup)
            found.append((rows[i], sup[i], x))
        return tuple(np.concatenate(parts) for parts in zip(*found))

    def _solved(self, y: np.ndarray, sup: np.ndarray):
        """(index, x) of each feasible restricted system A_S x = y, one per row, x (n,) and >= 0.

        Only supports with independent columns are solved: none is feasible
        below k*, and no dependent one at k* (see ``sparsest_enumerate``).
        """
        gram = self.gram[sup[:, :, None], sup[:, None, :]]  # integer entries
        index = np.flatnonzero(np.linalg.det(gram) > 0.5)
        y, sup = y[index], sup[index]
        rhs = np.take_along_axis(y @ self.dense, sup, axis=1)  # A_Sᵀy
        x = np.linalg.solve(gram[index], rhs[..., None])[..., 0]
        full = np.zeros((len(sup), self.tree.n))
        np.put_along_axis(full, sup, x, axis=1)
        resid = np.abs(full @ self.dense.T - y).max(axis=-1)
        # x >= -DEFAULT_TOL (vacuous for k = 0, hence the initial 0), residuals within it
        ok = (x.min(axis=-1, initial=0.0) >= -DEFAULT_TOL) & (resid <= DEFAULT_TOL)
        return index[ok], np.maximum(full[ok], 0.0)


def sparsest_enumerate(
    tree: LogicalTree,
    y,
    k_max: int | None = None,
    scanner: SupportScanner | None = None,
) -> EnumerationResult | list[EnumerationResult]:
    """Scan supports by increasing size until some restricted system is feasible.

    Returns every feasible support at the first feasible size k* with its
    solution, and unique iff there is one.  Each feasible support S at k*
    has independent columns, hence one solution: were they dependent, moving
    x_S along a null direction of A_S until a component hits zero would
    give a smaller feasible support (basic feasible solutions; Bertsimas
    & Tsitsiklis, Introduction to Linear Optimization, 1997, 2.3).
    ``y`` is (m,), for one result, or (T, m), for a list of T results whose
    row r is the result for ``y[r]``; all rows are scanned together, each
    size level once, and ``k_max`` bounds every row.
    """
    scanner = _scanner_for(tree, scanner)
    y = _checked(y, tree.m, "paths", batch=True)
    if k_max is None:
        k_max = tree.m
    elif not (_is_int(k_max) and k_max >= 0):
        raise ParameterOutOfRange(f"k_max must be a whole number of at least 0, got {k_max!r}")
    results = _scan(scanner, np.atleast_2d(y), min(k_max, tree.m))
    return results if y.ndim == 2 else results[0]


def uniqueness_census(
    tree: LogicalTree,
    K: int,
    loss_range: tuple[float, float] = DEFAULT_LOSS_RANGE,
    trials: int = 200,
    seed: int = 0,
    placement: str = "random",
    scanner: SupportScanner | None = None,
) -> CensusResult:
    """Fraction of random K-hotspot instances with a unique sparsest solution.

    Each trial plants K lossy links (loss probabilities uniform in
    ``loss_range``), forms the exact observations, and asks the
    enumeration oracle for uniqueness; the second statistic is how often
    the minimum-l1 solution equals the planted truth.  Placements are
    random by default; ``placement="exhaustive"`` sweeps all (n choose K)
    supports with one loss draw each.  Per-trial RNG
    substreams make results independent of execution order.  A ``scanner``
    built for ``tree`` may be shared across calls, so that each support
    size is built once for all of them.  Trials are planted, observed,
    scanned and solved together, in the blocks of ``_planted_blocks``
    (one ``plant_hotspots`` call per block draws each row from its trial's
    substream), and a row counts as unique when exactly one support is
    feasible at its k*, read from the scan's per-row counts.
    """
    if not (_is_int(K) and 0 <= K <= tree.m):
        raise ParameterOutOfRange(f"K={K!r} is outside 0..m={tree.m}, m the path count")
    _check_seed(seed, streams=False)
    scanner = _scanner_for(tree, scanner)

    if placement == "exhaustive":
        picks = scanner._lexicographic(K)
        total = len(picks)
    elif placement == "random":
        if not (_is_int(trials) and trials >= 1):
            raise ParameterOutOfRange(f"the census needs at least one trial, got {trials!r}")
        total, picks = trials, None
    else:
        raise ParameterOutOfRange(f"unknown placement mode {placement!r}")

    n_unique = n_recovered = 0
    for _, b in _planted_blocks(tree, K, loss_range, seed, total, picks):
        x_true = addloss(b)
        y = forward(tree, x_true)
        n_unique += int(np.count_nonzero(_feasible_counts(scanner, y, K)[1] == 1))
        gap = np.abs(closed_form(tree, y) - x_true).max(axis=1)
        n_recovered += int(np.count_nonzero(gap <= DEFAULT_TOL))
    return CensusResult(
        trials=total,
        p_unique=n_unique / total,
        p_l1_recovers_true=n_recovered / total,
    )


def l1_sampling_check(
    tree: LogicalTree,
    y,
    x_star,
    samples: int = 1000,
    seed=0,
):
    """Whether x_star's l1 norm beats every sampled feasible solution.

    True iff no sample has a smaller norm, strictly smaller than every
    sample that differs from x_star by more than DEFAULT_TOL in any
    component.  ``y`` (m,), ``x_star`` (n,) and one seed give one bool;
    ``y`` (B, m), ``x_star`` (B, n) and a sequence of B seeds give a (B,)
    bool array, row r the verdict of the call on that row with ``seed[r]``.
    The rows' samples are drawn by one ``sample_feasible`` call, in passes
    of at most ``_SAMPLED`` link values.
    """
    x_star = _checked(x_star, tree.n, "links", batch=True)
    if not (_is_int(samples) and samples >= 1):
        raise ParameterOutOfRange(f"the l1 check needs a whole number of samples, got {samples!r}")
    y = _checked(y, tree.m, "paths", batch=True)
    if y.shape[:-1] != x_star.shape[:-1]:
        raise OutOfDomain(f"need one x_star row per row of y, got {x_star.shape} for {y.shape}")
    seeds = _per_row(seed, None if y.ndim == 1 else len(y), "seed", "y")
    for s in seeds:
        _check_seed(s)
    ys, x_star = y.reshape(-1, tree.m), np.ascontiguousarray(x_star.reshape(-1, tree.n))
    per_pass = max(1, _SAMPLED // (samples * tree.n))
    verdicts = np.empty(len(ys), bool)
    for lo in range(0, len(ys), per_pass):
        rows = slice(lo, lo + per_pass)
        rngs = [np.random.default_rng(s) for s in seeds[rows]]
        xs = sample_feasible(tree, ys[rows], rngs, size=samples)
        star = x_star[rows, None]
        l1_star, l1 = star.sum(axis=-1), xs.sum(axis=-1)
        far = np.abs(xs - star).max(axis=-1) > DEFAULT_TOL
        verdicts[rows] = ~np.any((l1 < l1_star - 1e-12) | (far & ~(l1 > l1_star)), axis=-1)
    return bool(verdicts[0]) if y.ndim == 1 else verdicts


def noisy_exact_check(
    tree: LogicalTree, intervals: IntervalObservation, candidate: NoisySolution, tol: float = 1e-6
) -> bool:
    """Whether the interval solution is feasible and no feasible x beats it.

    The candidate needs x >= -FEAS_TOL and A x within the intervals widened
    by tol.  An l1 candidate may then exceed the smallest l1 norm by at most
    tol, and a sparsity candidate may count no more lossy links than k*.
    """
    _check_paths(tree, intervals)
    _check_tol(tol)
    x = _checked(candidate.x, tree.n, "links")
    if x.min() < -FEAS_TOL or not intervals.contains(forward(tree, x), tol):
        return False
    if candidate.mode == MIN_L1:
        return bool(_interval_optimum(tree, intervals, MIN_L1) >= candidate.l1() - tol)
    return candidate.l0() <= _interval_optimum(tree, intervals, MIN_L0)


def lemma1_construct(tree: LogicalTree, i: int, K: int, w: float):
    """Two distinct non-negative vectors with identical observations.

    Places weight around branch node i: w on the father link and on the
    first K-1 child links for u; the complementary pattern for v; so
    u - v is w times the null vector (father link minus all child links).
    For K beyond the complex size, extra off-complex links carry w in
    both vectors.  Guarantees A(u - v) = 0 exactly, ||u||_0 = K, and
    ||v||_0 <= K.
    """
    if not tree.is_internal(i):
        raise NotBranchNode(f"node {i!r} is not a branch node")
    if not _is_int(K):
        raise ParameterOutOfRange(f"K must be a whole number, got {K!r}")
    if not (_is_real(w) and 0 < w < math.inf):
        raise ParameterOutOfRange(f"w must be finite and positive, got {w!r}")
    kids = [c - 1 for c in tree.children[i]]
    g_out = len(kids)
    if K < g_out:
        raise KTooSmall(f"need K >= {g_out} at node {i}, got {K}")
    u = np.zeros(tree.n, dtype=np.int64)
    v = np.zeros(tree.n, dtype=np.int64)
    u[i - 1] = 1
    head = min(K - 1, g_out)
    u[kids[:head]] = 1
    v[kids[:head]] = 2
    v[kids[head:]] = 1
    spare = [k for k in range(tree.n) if k != i - 1 and k not in kids]
    extra = K - 1 - head
    if extra > len(spare):
        raise ParameterOutOfRange(
            f"K={K} needs {extra} off-complex links, tree has {len(spare)}"
        )
    for k in spare[:extra]:
        u[k] = 1
        v[k] = 1
    assert not np.any(forward(tree, u - v)), "null construction failed"
    return w * u.astype(float), w * v.astype(float)


def _scanner_for(tree: LogicalTree, scanner: SupportScanner | None) -> SupportScanner:
    """``scanner``, or a new one, after checking the tree's size and the scanner's tree."""
    if tree.n > SIZE_LIMIT:
        raise InstanceTooLarge(f"n={tree.n} exceeds the oracle limit {SIZE_LIMIT}")
    if scanner is None:
        return SupportScanner(tree)
    if scanner.tree is not tree:
        raise ParameterOutOfRange("the support scanner was built for another tree")
    return scanner


def _inverse(order: np.ndarray) -> np.ndarray:
    """The permutation that undoes ``order``: position i of the result is where i went."""
    inverse = np.empty_like(order)
    inverse[order] = np.arange(len(order))
    return inverse


def _scan(scanner: SupportScanner, ys: np.ndarray, k_max: int) -> list[EnumerationResult]:
    """``sparsest_enumerate`` of each row of ys (T, m), sizes up to k_max, all rows at once."""
    k_star, count, levels = _feasible_counts(scanner, ys, k_max)
    results = [EnumerationResult(k_star=None, supports=[], solutions=[], unique=False) for _ in ys]
    for k, (rows, supports, xs) in enumerate(levels):
        # rows come sorted, so each row's supports form one slice
        found = np.flatnonzero(k_star == k)
        ends = np.cumsum(count[found]).tolist()
        labels = list(map(tuple, (supports + 1).tolist()))
        for row, a, b in zip(found.tolist(), [0] + ends, ends):
            results[row] = EnumerationResult(
                k_star=k, supports=labels[a:b], solutions=list(xs[a:b]), unique=b - a == 1
            )
    return results


def _feasible_counts(scanner: SupportScanner, ys: np.ndarray, k_max: int):
    """(k*, count, levels) of the rows of ys (T, m), scanning sizes up to k_max, all rows at once.

    Per row, k* is the first size with a feasible support (-1 if none up to
    k_max) and count the number of feasible supports there; level k holds
    ``feasible_at``'s (rows, supports, xs) for the rows still pending at k,
    with rows indexing ys.
    """
    k_star = np.full(len(ys), -1)
    count = np.zeros(len(ys), np.int64)
    levels = []
    pending = np.arange(len(ys))  # rows with no feasible support yet
    for k in range(k_max + 1):
        if pending.size == 0:
            break
        rows, supports, xs = scanner.feasible_at(ys[pending], k)
        per_row = np.bincount(rows, minlength=pending.size)
        found = per_row > 0
        k_star[pending[found]] = k
        count[pending[found]] = per_row[found]
        levels.append((pending[rows], supports, xs))
        pending = pending[~found]
    return k_star, count, levels


def _interval_optimum(tree: LogicalTree, intervals: IntervalObservation, mode: str):
    """Smallest sum(x) (mode MIN_L1) or fewest lossy links k* over the interval box.

    One ``scipy.optimize.milp`` call on lo <= A x <= hi (an infinite upper
    end leaves its row open) and 0 <= x <= M z, M the largest lower bound:
    lowering a larger link loss to M keeps every path through it within
    bounds and grows neither norm.  k* minimises sum(z) over binary z; its
    support is certified by recomputing A x on it within FEAS_TOL.
    """
    # imported here to keep scipy off the CLI import path
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_array

    n, m, lo = tree.n, tree.m, intervals.lo
    first, end = tree.leaf_span[1:].T - 1  # link v covers paths first..end-1 (0-based)
    count, link = end - first, np.arange(n)
    paths = np.arange(count.sum()) + np.repeat(first - np.cumsum(count) + count, count)
    rows = np.concatenate((paths, m + link, m + link))  # rows m + v: x_v - M z_v <= 0
    cols = np.concatenate((np.repeat(link, count), link, n + link))
    vals = np.concatenate((np.ones(paths.size + n), np.full(n, -lo.max())))
    l1 = mode == MIN_L1
    res = milp(
        np.repeat([1.0, 0.0] if l1 else [0.0, 1.0], n),
        integrality=np.repeat([0, 0 if l1 else 1], n),
        bounds=Bounds(0.0, np.repeat([np.inf, 1.0], n)),
        constraints=LinearConstraint(
            csr_array((vals, (rows, cols)), shape=(m + n, 2 * n)),
            np.concatenate((lo, np.full(n, -np.inf))),
            np.concatenate((intervals.hi, np.zeros(n))),
        ),
        options={"mip_rel_gap": 0.0},
    )
    assert res.status == 0, res.message  # never infeasible: y = lo is realizable
    if l1:
        return res.fun
    support = res.x[n:] > 0.5
    x = np.where(support, res.x[:n], 0.0)
    assert x.min() >= -FEAS_TOL and intervals.contains(forward(tree, x), FEAS_TOL), (
        "the program's sparsest support is not feasible"
    )
    return int(support.sum())

