"""Minimal-norm solutions for exact path observations.

The solution family for a fixed observation y can be searched by local
moves on "complexes" (an internal node together with its incident links):
pulling the common part of the child losses up into the father link never
increases either norm.  Applying that move bottom up once per internal
node yields, for any feasible starting solution, the same output: the
unique minimum-l1 solution, which also attains the minimum l0.

That output has the closed form x*_i = gamma_i - gamma_f(i), where
gamma_i is the smallest observation in the subtree under i (and the top
link takes gamma itself).  ``closed_form`` is the batch-first production
path: y is (m,) or (B, m), and since every subtree's leaves form one
contiguous label range, all gamma_i come from one sparse-table
range-minimum query (``LogicalTree.span_min``, about log2 m array
operations).  ``upsparse`` runs the moves from a given start; from the
receiver start (its default) the moves give the closed form bit for bit,
so it returns that.  ``put_in_upstate`` exposes a single move.

The complex states read two per-complex numbers, the smallest child loss
and the count of lossless children, each one array pass over the father
map; uniqueness and the recovery condition read only the count, which a
report takes from its states.  The states stay columns (``ComplexStates``)
up to the report's JSON table.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleStart, NotInternal
from .lossmodel import DEFAULT_TOL, _checked, is_feasible
from .topology import LogicalTree

UP = "up"
DOWN = "down"
MIXED = "mixed"
_STATES = np.array([UP, DOWN, MIXED])  # by state code


@dataclass
class ComplexState:
    """State of one internal node's complex under a solution x.

    ``delta`` is the smallest child loss (the amount an up-move would
    transfer); ``lossless_children`` counts child links at or below the
    lossy threshold.  A complex is "up" when no loss can be pulled up
    (some child is lossless), "down" when the father link is lossless but
    some child is lossy, and "mixed" otherwise.  A complex with father
    and children all lossless counts as "up".
    """

    node: int
    state: str
    delta: float
    lossless_children: int


@dataclass(eq=False)
class ComplexStates:
    """``ComplexState`` rows as equal-length columns; iterating yields the rows."""

    node: np.ndarray
    state: np.ndarray
    delta: np.ndarray
    lossless_children: np.ndarray

    def __len__(self) -> int:
        return len(self.node)

    def __iter__(self):
        return map(ComplexState, *(column.tolist() for column in vars(self).values()))


@dataclass
class SolutionReport:
    """Norms, complex states and diagnostics; ``to_json`` gives the states as a table of columns."""

    x: np.ndarray
    l0: int
    l1: float
    states: ComplexStates
    unique_sparsest: bool
    recovery_condition: bool

    def to_json(self) -> dict:
        return {
            "x": self.x.tolist(),
            "l0": self.l0,
            "l1": float(self.l1),
            "states": {name: column.tolist() for name, column in vars(self.states).items()},
            "unique_sparsest": self.unique_sparsest,
            "recovery_condition": self.recovery_condition,
        }


def put_in_upstate(tree: LogicalTree, i: int, x) -> np.ndarray:
    """Pull the common child loss of node i up into its father link.

    Subtracts delta = min child loss from every child of i and adds it to
    link i, preserving all path sums; l1 drops by (#children - 1) * delta.
    Returns a new array; ``x`` is left as it is.
    """
    if not tree.is_internal(i):
        raise NotInternal(f"node {i!r} is not an internal node")
    return _pull_up(tree, _checked(x, tree.n, "links in x"), [i])


def upsparse(tree: LogicalTree, y, x0=None) -> SolutionReport:
    """Iteratively move every complex to its up state, children first.

    Starts from ``x0`` (default: the receiver solution) and visits the
    internal nodes in decreasing label order, which puts every child
    before its father (internal labels follow preorder), updating one copy
    of x in place.  The output is independent of the starting solution.

    From the receiver start the moves are not run: they give
    ``closed_form(tree, y + 0.0)`` bit for bit.  Every internal link starts
    at 0, so when node v is moved each child c holds exactly gamma_c (a
    leaf's y, or an internal link's 0 + gamma_c), and the delta ``min``
    takes is exactly gamma_v.  Each child then ends at the one rounding
    gamma_c - gamma_v and is never touched again, and the top link keeps
    gamma: the subtractions of the closed form.  The moves turn -0.0 into
    0.0 first, which is what ``+ 0.0`` does to y.
    """
    y = _checked(y, tree.m, "paths")
    if x0 is None:
        return solution_report(tree, closed_form(tree, y + 0.0))
    x = _checked(x0, tree.n, "links in x0")
    if not is_feasible(tree, x, y):
        raise InfeasibleStart("x0 does not satisfy the observations")
    return solution_report(tree, _pull_up(tree, x, range(tree.n, tree.m, -1)))


def closed_form(tree: LogicalTree, y) -> np.ndarray:
    """Minimum-l1 solution for one observation (m,) or a batch (B, m)."""
    y = _checked(y, tree.m, "paths", batch=True)
    gamma = np.zeros(y.shape[:-1] + (tree.n + 1,))
    gamma[..., 1:] = tree.span_min(y)
    return gamma[..., 1:] - gamma.take(tree.parent[1:], axis=-1)


def classify_complexes(tree: LogicalTree, x) -> ComplexStates:
    """Per-internal-node complex states under solution x, as columns."""
    x = _checked(x, tree.n, "links in x")
    delta = np.full(tree.n + 1, np.inf)
    np.minimum.at(delta, tree.parent[1:], x)  # x[k] is link k + 1, a child of node parent[k + 1]
    delta = delta[tree.m + 1 :]
    lossless = _lossless_children(tree, x)
    # 0 (up) with a lossless child, else 1 (down) or, with a lossy father link, 2 (mixed)
    state = (lossless == 0) * ((x[tree.m :] > DEFAULT_TOL) + 1)
    return ComplexStates(np.arange(tree.m + 1, tree.n + 1), _STATES.take(state), delta, lossless)


def unique_sparsest(tree: LogicalTree, x_star) -> bool:
    """Whether the minimum-sparsity solution x_star is the only one.

    ``x_star`` must be an ``upsparse``/``closed_form`` output.  A complex
    whose father link is lossy but with only a single lossless child
    admits a down move of equal sparsity, so uniqueness requires every
    complex to have either a lossless father link or at least two
    lossless children.
    """
    x_star = _checked(x_star, tree.n, "links in x")
    return _diagnostics(tree, x_star, _lossless_children(tree, x_star))[0]


def recovery_condition(tree: LogicalTree, x_true) -> bool:
    """Whether every internal node has at least one lossless child link.

    When true for the underlying solution, it is already in up state
    everywhere, so solving its observations recovers it exactly.
    """
    x_true = _checked(x_true, tree.n, "links in x")
    return _diagnostics(tree, x_true, _lossless_children(tree, x_true))[1]


def solution_report(tree: LogicalTree, x) -> SolutionReport:
    """Norms, complex states, and diagnostics for a feasible solution x."""
    states = classify_complexes(tree, x)  # checks x first
    x = np.asarray(x, dtype=float)
    unique, recovers = _diagnostics(tree, x, states.lossless_children)
    return SolutionReport(
        x=x,
        l0=int(np.count_nonzero(x > DEFAULT_TOL)),
        l1=float(x.sum()),
        states=states,
        unique_sparsest=unique,
        recovery_condition=recovers,
    )


def _pull_up(tree: LogicalTree, x, nodes) -> np.ndarray:
    """The up-move of ``put_in_upstate`` on each internal node of ``nodes`` in turn, on a copy of x.

    The moves run on Python floats indexed by link label, with -0.0 made 0.0
    first: Python's ``min`` and numpy's can pick different zeros of a tie.
    """
    x = [0.0] + (np.asarray(x, dtype=float) + 0.0).tolist()
    for i in nodes:
        kids = tree.children[i]
        delta = min(map(x.__getitem__, kids))
        for k in kids:
            x[k] -= delta
        x[i] += delta
    return np.array(x[1:])


def _lossless_children(tree: LogicalTree, x):
    """The count of lossless child links of each internal node (label - m - 1) under a checked x."""
    return np.bincount(tree.parent[1:][x <= DEFAULT_TOL], minlength=tree.n + 1)[tree.m + 1 :]


def _diagnostics(tree: LogicalTree, x, lossless):
    """(``unique_sparsest``, ``recovery_condition``) of a checked x, from its lossless-child counts."""
    unique = bool(((x[tree.m :] <= DEFAULT_TOL) | (lossless >= 2)).all())
    return unique, bool(lossless.all())

