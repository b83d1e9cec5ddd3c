"""Binary good/bad path inference baseline (smallest consistent failure set).

Classifying each path as good or bad and returning the minimal set of
links whose downstream paths are exactly the bad ones is the classic
two-step approach to hotspot localization.  It discards loss magnitudes,
so a lossy link whose ancestor is also lossy gets absorbed into the
ancestor: every path through the child is bad, but so is every path
through the parent, and the parent alone explains them all.
"""

import math

import numpy as np

from .errors import OutOfDomain, ParameterOutOfRange, _check_seed, _is_int, _is_real
from .lossmodel import (BLOCK_LINKS, DEFAULT_LOSS_RANGE, DEFAULT_TOL, _checked, addloss, forward,
                        plant_hotspots)
from .noiseless import closed_form
from .topology import LogicalTree


def binarize(y, threshold: float = DEFAULT_TOL) -> np.ndarray:
    """Per-path bad flags: bad_j iff y_j exceeds the threshold."""
    if not _is_real(threshold):
        raise ParameterOutOfRange(f"threshold must be a number, got {threshold!r}")
    if not 0 <= threshold < math.inf:
        raise OutOfDomain(f"threshold must be finite and non-negative, got {threshold}")
    return _checked(y, None, "paths") > threshold


def scfs(tree: LogicalTree, bad: np.ndarray) -> set[int]:
    """Smallest link set whose downstream paths are exactly the bad paths.

    A link qualifies when every path through it is bad; the returned set
    keeps only the topmost such links.  The result covers the bad paths
    exactly and no smaller consistent set exists.
    """
    bad = np.asarray(bad)
    if bad.shape != (tree.m,):
        raise OutOfDomain(f"tree has {tree.m} paths but {bad.size} flags were given")
    if bad.dtype != bool and not np.isin(bad, (0, 1)).all():
        raise OutOfDomain("bad-path flags must be booleans or 0/1")
    bad = bad.astype(bool)
    all_bad = np.zeros(tree.n + 1, dtype=bool)  # the root (index 0) stays False
    all_bad[1:] = tree.span_min(bad)
    picked = np.flatnonzero(all_bad[1:] & ~all_bad[tree.parent[1:]])  # labels - 1
    # Topmost all-bad spans are disjoint and hold every bad leaf, so their sizes add up.
    lo, hi = tree.leaf_span[picked + 1].T
    assert (hi - lo).sum() == bad.sum(), "picked links do not cover the bad paths"
    return set((picked + 1).tolist())


def compare_with_sparse_recovery(
    tree: LogicalTree,
    K: int,
    loss_range: tuple[float, float] = DEFAULT_LOSS_RANGE,
    trials: int = 300,
    seed: int = 0,
) -> tuple[float, float]:
    """Exact-location success rates of the binary baseline vs the l1 solver.

    Shares one instance stream between both methods: per trial, K planted
    lossy links, binary inference run on thresholded observations, the
    minimum-l1 solver on the raw observations.  Success means recovering
    the true support exactly (for the solver, the true solution itself).
    Trials are planted, observed and solved in blocks of at most
    ``BLOCK_LINKS`` link values, as in the census; ``scfs`` runs per row.

    Returns (binary baseline rate, sparse recovery rate).
    """
    if not (_is_int(trials) and trials >= 1):
        raise ParameterOutOfRange(f"need a whole number of trials of at least 1, got {trials!r}")
    _check_seed(seed, streams=False)
    n_scfs = n_sparse = 0
    block = max(1, BLOCK_LINKS // tree.n)
    for start in range(0, trials, block):
        b = plant_hotspots(tree, K, loss_range, seed, range(start, min(start + block, trials)))
        x_true = addloss(b)
        y = forward(tree, x_true)
        gap = np.abs(closed_form(tree, y) - x_true).max(axis=1)
        n_sparse += int(np.count_nonzero(gap <= DEFAULT_TOL))
        for row, y_row in zip(b, y):
            n_scfs += scfs(tree, binarize(y_row)) == set((np.flatnonzero(row) + 1).tolist())
    return n_scfs / trials, n_sparse / trials
