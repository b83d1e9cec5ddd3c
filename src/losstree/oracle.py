"""Independent brute-force verification of the tree solvers.

Nothing here reuses the solvers' reasoning: sparsest solutions come from
exhaustive support enumeration (least-squares on every column subset),
l1 minimality is checked against feasible-polytope samples, and both
interval norms by one exact (mixed-integer) program over the interval box.
The sparsest solution is unique when one support is feasible at the
smallest feasible size k*; the census measures how often that holds, and
how often the minimum-l1 solution equals the planted truth, under random
hotspot placements.

Enumeration solves each restricted system in a batch: per support size k the
independent column subsets get their operators (A_SᵀA_S)⁻¹A_Sᵀ once per tree.
A_S has consecutive ones in each column, so it is totally unimodular and
det(A_SᵀA_S), by Cauchy-Binet its count of nonsingular k x k minors, tests
rank exactly.  At k* every link of a feasible support carries loss, so only
supports covering exactly the lossy paths are solved.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InstanceTooLarge, KTooSmall, NotBranchNode, ParameterOutOfRange
from .lossmodel import (
    DEFAULT_LOSS_RANGE, DEFAULT_TOL, _checked, addloss, forward, plant_hotspots, sample_feasible
)
from .noiseless import closed_form
from .noisy import MIN_L0, MIN_L1, IntervalObservation, NoisySolution, _check_paths
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
    supports: list[tuple[int, ...]]  # canonical link labels
    solutions: list[np.ndarray]
    unique: bool


@dataclass
class CensusResult:
    trials: int
    p_unique: float
    p_l1_recovers_true: float


class SupportScanner:
    """Per-tree cache of support stacks and batched solve operators.

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
        """(supports, column stacks, solve operators, cover masks) of size k, by mask."""
        if k not in self._levels:
            count = math.comb(self.tree.n, k)
            if count > _SCAN_LIMIT:
                raise InstanceTooLarge(f"{count} supports of size {k} on {self.tree.n} links")
            combos = itertools.chain.from_iterable(itertools.combinations(range(self.tree.n), k))
            supports = np.fromiter(combos, np.int64, count * k).reshape(count, k)
            cols = self.dense.T[supports]  # (N, k, m): A_Sᵀ
            gram = cols @ cols.transpose(0, 2, 1)  # A_SᵀA_S, integer entries
            masks = np.bitwise_or.reduce(self.link_masks[supports], axis=1)
            keep = np.flatnonzero(np.linalg.det(gram) > 0.5)
            keep = keep[np.argsort(masks[keep], kind="stable")]
            cols = cols[keep]
            solve = np.linalg.solve(gram[keep], cols)  # (N, k, m)
            self._levels[k] = (supports[keep], cols.transpose(0, 2, 1), solve, masks[keep])
        return self._levels[k]

    def feasible_at(self, y: np.ndarray, k: int):
        """Feasible size-k supports covering exactly y's lossy paths (all at k*), and their x."""
        required = self.path_bits[y > FEAS_TOL].sum()
        supports, stacks, solve, masks = self.level(k)
        cut = slice(*np.searchsorted(masks, [required, required + 1]))
        x = np.einsum("...km,...m->...k", solve[cut], y)
        resid = np.einsum("...mk,...k->...m", stacks[cut], x) - y
        # x >= -FEAS_TOL (vacuous for k = 0, hence the initial 0), residuals within FEAS_TOL
        ok = (x.min(axis=-1, initial=0.0) >= -FEAS_TOL) & (np.abs(resid).max(axis=-1) <= FEAS_TOL)
        return supports[cut][ok], x[ok]


def sparsest_enumerate(
    tree: LogicalTree,
    y,
    k_max: int | None = None,
    scanner: SupportScanner | None = None,
) -> EnumerationResult:
    """Scan supports by increasing size until some restricted system is feasible.

    Returns every distinct solution at the first feasible size k*, and
    unique iff there is one.  Each feasible support S at k* has
    independent columns, hence one solution: were they dependent, moving
    x_S along a null direction of A_S until a component hits zero would
    give a smaller feasible support (basic feasible solutions; Bertsimas
    & Tsitsiklis, Introduction to Linear Optimization, 1997, 2.3).
    """
    if tree.n > SIZE_LIMIT:
        raise InstanceTooLarge(f"n={tree.n} exceeds the oracle limit {SIZE_LIMIT}")
    y = _checked(y, tree.m, "paths")
    if scanner is None:
        scanner = SupportScanner(tree)
    elif scanner.tree is not tree:
        raise ParameterOutOfRange("the support scanner was built for another tree")
    k_max = tree.m if k_max is None else min(k_max, tree.m)

    for k in range(k_max + 1):
        supports, xs = scanner.feasible_at(y, k)
        if len(supports) == 0:
            continue
        solutions, sup_list = [], []
        for sup, x_s in zip(supports, xs):
            full = np.zeros(tree.n)
            full[sup] = np.maximum(x_s, 0.0)
            _append_distinct(solutions, sup_list, full, tuple(int(s) + 1 for s in sup))
        return EnumerationResult(
            k_star=k, supports=sup_list, solutions=solutions, unique=len(solutions) == 1
        )
    return EnumerationResult(k_star=None, supports=[], solutions=[], unique=False)


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
    size is solved once for all of them.
    """
    if not 0 <= K <= tree.m:
        raise ParameterOutOfRange(f"K={K} is outside 0..m={tree.m}, m the path count")
    if scanner is None:
        scanner = SupportScanner(tree)

    if placement == "exhaustive":
        if math.comb(tree.n, K) > _SCAN_LIMIT:
            raise InstanceTooLarge("exhaustive placement sweep too large")
        picks = [np.array(sup) for sup in itertools.combinations(range(tree.n), K)]
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
        n_unique += sparsest_enumerate(tree, y, k_max=K, scanner=scanner).unique
        n_recovered += bool(np.abs(closed_form(tree, y) - x_true).max() <= DEFAULT_TOL)
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
) -> bool:
    """Whether x_star's l1 norm beats every sampled feasible solution.

    True iff no sample has a smaller norm, strictly smaller than every
    sample that differs from x_star by more than DEFAULT_TOL in any
    component.
    All samples come from one batched draw.
    """
    x_star = _checked(x_star, tree.n, "links")
    if samples < 1:
        raise ParameterOutOfRange(f"the l1 check needs at least one sample, got {samples}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    xs = sample_feasible(tree, y, rng, size=samples)
    l1_star = x_star.sum()
    l1 = xs.sum(axis=1)
    far = np.abs(xs - x_star).max(axis=1) > DEFAULT_TOL
    return not np.any((l1 < l1_star - 1e-12) | (far & ~(l1 > l1_star)))


def noisy_exact_check(
    tree: LogicalTree, intervals: IntervalObservation, candidate: NoisySolution, tol: float = 1e-6
) -> bool:
    """Whether the interval solution is feasible and no feasible x beats it.

    The candidate needs x >= -FEAS_TOL and A x within the intervals widened
    by tol.  An l1 candidate may then exceed the smallest l1 norm by at most
    tol, and a sparsity candidate may count no more lossy links than k*.
    """
    _check_paths(tree, intervals)
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


def _append_distinct(solutions, supports, x, sup, atol=1e-6):
    for existing in solutions:
        if np.abs(existing - x).max() <= atol:
            return
    solutions.append(x)
    supports.append(sup)

