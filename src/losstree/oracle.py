"""Independent brute-force verification of the tree solvers.

Nothing here reuses the solvers' reasoning: sparsest solutions come from
exhaustive support enumeration (least-squares on every column subset),
l1 minimality is checked against feasible-polytope samples, and interval
solutions against a discretized grid of realizable observations.  The
census measures how often the sparsest solution is unique, and how often
the minimum-l1 solution equals the planted truth, under random hotspot
placements.

Enumeration solves each restricted system in a batch: per support size k
the (n choose k) column subsets are stacked and pseudo-inverted once per
tree, then reused across observations.  A support is only solved when its
columns can cover every lossy path (a necessary condition that prunes
most of the scan).
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InstanceTooLarge, KTooSmall, NotBranchNode, ParameterOutOfRange
from .lossmodel import DEFAULT_TOL, _checked, addloss, forward, plant_hotspots, sample_feasible
from .noiseless import closed_form
from .noisy import MIN_L1, IntervalObservation, NoisySolution
from .topology import LogicalTree, measurement_matrix

# Restricted solves accept a solution when the residual stays below
# FEAS_TOL and no component drops below -FEAS_TOL; observation values are
# O(0.1), far above this, and rounding noise is far below.
FEAS_TOL = 1e-7

SIZE_LIMIT = 26
_SCAN_LIMIT = 2_000_000  # supports per size level


@dataclass
class EnumerationResult:
    """All sparsest solutions of y = A x, x >= 0, found by exhaustive scan."""

    k_star: int | None
    supports: list[tuple[int, ...]]
    solutions: list[np.ndarray]
    unique: bool
    rank_deficient: list[tuple[int, ...]]


@dataclass
class CensusResult:
    trials: int
    p_unique: float
    p_l1_recovers_true: float


class SupportScanner:
    """Per-tree cache of support stacks and batched pseudo-inverses.

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
        return measurement_matrix(self.tree).dense().astype(float)

    @functools.cached_property
    def link_masks(self) -> np.ndarray:
        return self.path_bits @ (self.dense > 0)  # the paths through each link

    def level(self, k: int):
        """(supports, column stacks, pseudo-inverses, cover masks) for size k."""
        if k not in self._levels:
            count = math.comb(self.tree.n, k)
            if count > _SCAN_LIMIT:
                raise InstanceTooLarge(
                    f"{count} supports of size {k} on {self.tree.n} links"
                )
            supports = np.array(
                list(itertools.combinations(range(self.tree.n), k)), dtype=np.int64
            ).reshape(count, k)
            stacks = self.dense[:, supports].transpose(1, 0, 2)  # (N, m, k)
            pinv = np.linalg.pinv(stacks)  # (N, k, m)
            masks = np.bitwise_or.reduce(self.link_masks[supports], axis=1)
            self._levels[k] = (supports, stacks, pinv, masks)
        return self._levels[k]

    def feasible_at(self, y: np.ndarray, k: int, tol: float = FEAS_TOL):
        """Indices and solutions of feasible supports of size k for y."""
        required = self.path_bits[y > tol].sum()
        supports, stacks, pinv, masks = self.level(k)
        idx = np.flatnonzero((masks & required) == required)
        if idx.size == 0:
            return supports[:0], np.zeros((0, k))
        x, ok = _restricted_solve(pinv[idx], stacks[idx], y, tol)
        return supports[idx[ok]], x[ok]


def sparsest_enumerate(
    tree: LogicalTree,
    y,
    k_max: int | None = None,
    tol: float = FEAS_TOL,
    size_limit: int = SIZE_LIMIT,
    scanner: SupportScanner | None = None,
) -> EnumerationResult:
    """Scan supports by increasing size until some restricted system is feasible.

    Returns every distinct solution at the first feasible size, the
    minimal sparsity, and a uniqueness verdict.  Feasible rank-deficient
    supports (a whole segment of solutions) are flagged and their segment
    endpoints enumerated; they force unique=False.
    """
    if tree.n > size_limit:
        raise InstanceTooLarge(f"n={tree.n} exceeds the oracle limit {size_limit}")
    y = _checked(y, tree.m, "paths")
    if scanner is None:
        scanner = SupportScanner(tree)
    elif scanner.tree is not tree:
        raise ParameterOutOfRange("the support scanner was built for another tree")
    if k_max is None:
        k_max = tree.m
    k_max = min(k_max, tree.m)

    for k in range(k_max + 1):
        supports, xs = scanner.feasible_at(y, k, tol)
        if len(supports) == 0:
            continue
        solutions = []
        sup_list = []
        flagged = []
        for sup, x_s in zip(supports, xs):
            sup_t = tuple(int(s) + 1 for s in sup)  # report canonical labels
            full = np.zeros(tree.n)
            full[sup] = np.maximum(x_s, 0.0)
            _append_distinct(solutions, sup_list, full, sup_t)
            if k > 0:
                a_s = scanner.dense[:, sup]
                if np.linalg.matrix_rank(a_s) < k:
                    flagged.append(sup_t)
                    for endpoint in _segment_endpoints(a_s, x_s, tol):
                        full_e = np.zeros(tree.n)
                        full_e[sup] = np.maximum(endpoint, 0.0)
                        _append_distinct(solutions, sup_list, full_e, sup_t)
        return EnumerationResult(
            k_star=k,
            supports=sup_list,
            solutions=solutions,
            unique=len(solutions) == 1 and not flagged,
            rank_deficient=flagged,
        )
    return EnumerationResult(
        k_star=None, supports=[], solutions=[], unique=False, rank_deficient=[]
    )


def uniqueness_census(
    tree: LogicalTree,
    K: int,
    loss_range: tuple[float, float] = (0.01, 0.10),
    trials: int = 200,
    seed: int = 0,
    placement: str = "random",
    draws_per_placement: int = 1,
    tol: float = DEFAULT_TOL,
    size_limit: int = SIZE_LIMIT,
    scanner: SupportScanner | None = None,
) -> CensusResult:
    """Fraction of random K-hotspot instances with a unique sparsest solution.

    Each trial plants K lossy links (loss probabilities uniform in
    ``loss_range``), forms the exact observations, and asks the
    enumeration oracle for uniqueness; the second statistic is how often
    the minimum-l1 solution equals the planted truth.  Placements are
    random by default; ``placement="exhaustive"`` sweeps all (n choose K)
    supports with ``draws_per_placement`` loss draws each.  Per-trial RNG
    substreams make results independent of execution order.  A ``scanner``
    built for ``tree`` may be shared across calls, so that each support
    size is pseudo-inverted once for all of them.
    """
    if not 0 <= K <= tree.m:
        raise ParameterOutOfRange(f"K={K} is outside 0..m={tree.m}, m the path count")
    if scanner is None:
        scanner = SupportScanner(tree)

    if placement == "exhaustive":
        supports = list(itertools.combinations(range(tree.n), K))
        if len(supports) * draws_per_placement > _SCAN_LIMIT:
            raise InstanceTooLarge("exhaustive placement sweep too large")
        picks = [np.array(sup) for sup in supports for _ in range(draws_per_placement)]
    elif placement == "random":
        picks = [None] * trials
    else:
        raise ParameterOutOfRange(f"unknown placement mode {placement!r}")
    if not picks:
        raise ParameterOutOfRange("the census needs at least one trial")

    n_unique = 0
    n_recovered = 0
    for i, sup in enumerate(picks):
        x_true = addloss(plant_hotspots(tree, K, loss_range, seed, i, sup))
        y = forward(tree, x_true)
        enum = sparsest_enumerate(
            tree, y, k_max=K, size_limit=size_limit, scanner=scanner
        )
        n_unique += enum.unique
        n_recovered += bool(np.abs(closed_form(tree, y) - x_true).max() <= tol)
    total = len(picks)
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
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> bool:
    """Whether x_star's l1 norm beats every sampled feasible solution.

    True iff no sample has a smaller norm, strictly smaller than every
    sample that differs from x_star by more than tol in any component.
    All samples come from one batched draw.
    """
    x_star = _checked(x_star, tree.n, "links")
    if samples < 1:
        raise ParameterOutOfRange(f"the l1 check needs at least one sample, got {samples}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    xs = sample_feasible(tree, y, rng, size=samples)
    l1_star = x_star.sum()
    l1 = xs.sum(axis=1)
    far = np.abs(xs - x_star).max(axis=1) > tol
    return not np.any((l1 < l1_star - 1e-12) | (far & ~(l1 > l1_star)))


def noisy_grid_check(
    tree: LogicalTree,
    intervals: IntervalObservation,
    candidate: NoisySolution,
    grid_steps: int = 9,
    tol: float = 1e-6,
    chunk: int = 200_000,
) -> bool:
    """Whether no gridded realizable observation beats the interval solution.

    Each path interval is discretized into ``grid_steps`` points (unbounded
    ends are capped at the largest finite bound plus the largest lower
    bound, beyond which norms cannot improve).  For a sparsity candidate,
    every grid observation is scanned for feasible supports smaller than
    the candidate's sparsity; for an l1 candidate, the minimum l1 at each
    grid observation must not undercut the candidate's by more than tol.
    """
    if tree.n > 10:
        raise InstanceTooLarge(f"n={tree.n} exceeds the grid-check limit 10")
    finite = intervals.hi[np.isfinite(intervals.hi)]
    cap = (finite.max() if finite.size else 0.0) + intervals.lo.max()
    axes = [
        np.unique(np.linspace(lo, max(min(hi, cap), lo), grid_steps))
        for lo, hi in zip(intervals.lo, intervals.hi)
    ]
    sizes = np.array([len(a) for a in axes])
    total = int(sizes.prod())
    strides = np.concatenate((np.cumprod(sizes[::-1])[-2::-1], [1]))

    scanner = SupportScanner(tree)
    check_l1 = candidate.mode == MIN_L1
    cand_l0 = candidate.l0()
    cand_l1 = candidate.l1()

    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        ys = np.empty((idx.size, tree.m))
        for j in range(tree.m):
            ys[:, j] = axes[j][(idx // strides[j]) % sizes[j]]
        if check_l1:
            best = closed_form(tree, ys).sum(axis=1).min()
            if best < cand_l1 - tol:
                return False
        else:
            if _any_sparser(scanner, ys, cand_l0):
                return False
    return True


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
        raise NotBranchNode(f"node {i} is not a branch node")
    if w <= 0:
        raise ParameterOutOfRange("w must be positive")
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
    a = measurement_matrix(tree).dense()
    assert not np.any(a @ (u - v)), "null construction failed"
    return w * u.astype(float), w * v.astype(float)


def _any_sparser(scanner: SupportScanner, ys: np.ndarray, k_below: int) -> bool:
    """True if any observation row admits a feasible support of size < k_below."""
    for k in range(k_below):
        supports, stacks, pinv, _ = scanner.level(k)
        for s in range(len(supports)):
            if _restricted_solve(pinv[s], stacks[s], ys, FEAS_TOL)[1].any():
                return True
    return False


def _restricted_solve(pinv, stacks, y, tol):
    """x = pinv @ y on supports of size k >= 0, and whether each is feasible: x >= -tol
    (vacuous for k = 0, hence the initial 0) and every residual within tol.  Leading axes
    of pinv (..., k, m), stacks (..., m, k) and y (..., m) broadcast to x (..., k), ok (...)."""
    x = np.einsum("...km,...m->...k", pinv, y)
    resid = np.einsum("...mk,...k->...m", stacks, x) - y
    return x, (x.min(axis=-1, initial=0.0) >= -tol) & (np.abs(resid).max(axis=-1) <= tol)


def _append_distinct(solutions, supports, x, sup, atol=1e-6):
    for existing in solutions:
        if np.abs(existing - x).max() <= atol:
            return
    solutions.append(x)
    supports.append(sup)


def _segment_endpoints(a_s: np.ndarray, x_s: np.ndarray, tol: float):
    """Endpoints of the feasible segment of a rank-deficient restricted system."""
    _, sv, vt = np.linalg.svd(a_s)
    rank = int((sv > 1e-10).sum())
    null = vt[rank:]
    if len(null) != 1:
        return []  # higher-dimensional faces: flagged, not enumerated
    h = null[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        bounds = -x_s / h
    t_lo = max(bounds[h > tol], default=-np.inf)
    t_hi = min(bounds[h < -tol], default=np.inf)
    out = []
    for t in (t_lo, t_hi):
        if np.isfinite(t):
            out.append(x_s + t * h)
    return out
