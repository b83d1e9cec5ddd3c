"""Probe-level loss simulation, interval construction, and the noise experiment.

A probe on path j survives each link independently, so its loss count
over N probes is binomial with the path loss probability.  Estimates
p_hat = count/N map through the addloss transform to noisy observations;
confidence intervals are built on the probability scale (where the
binomial theory lives) and mapped through the monotone transform, which
preserves coverage.

The experiment driver plants K random hotspots, simulates probes, solves
with the point-estimate or interval solver, and scores the recovered
loss probabilities by hotspot-location success rate (e0) and relative
l2 error (e2).  Repetition substreams are derived from (seed, K, rep),
with probe noise further keyed by the probe count, so runs are
order-independent and instances stay paired across probe counts and
interval widths.  What still runs per repetition is planting and the
binomial draw of the probe counts on the repetition's own stream.  Each
(K, probe count) cell stacks its repetitions a block at a time, and every
other step takes a block's (B, n) or (B, m) rows in one call: the exact
observations at a null probe count (``forward``), the path
probabilities, the interval bounds, the solvers (``closed_form``, or
``upsparse_plus`` on (B, m) intervals) and the scores.

Probes are simulated independently per path; shared-link correlation
between paths is not modeled (the solvers consume only the per-path
marginals, which are unaffected).
"""

import csv
import functools
import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .errors import ConfigInvalid, OutOfDomain, ParameterOutOfRange, _check_seed, _is_real
from .lossmodel import (
    DEFAULT_LOSS_RANGE, DEFAULT_TOL, _checked, _is_int, _load_json, _planted_blocks, addloss,
    forward, inverse_addloss
)
from .noiseless import closed_form
from .noisy import MODES, IntervalObservation, upsparse_plus
from .topology import LogicalTree, tree_from_spec

EPS_P = 1e-9  # probability-scale clamp below 1 so addloss stays finite
POINT_MODE = "upsparse"
INTERVAL_MODES = ("t-ci", "cover")


@dataclass
class ProbeRun:
    """Per-path loss counts and estimates from one simulated probing round.

    The arrays are (m,), or (B, m) for B rounds of one probe count.
    """

    probes: int
    losses: np.ndarray
    p_hat: np.ndarray
    y_hat: np.ndarray


class Metrics(NamedTuple):
    """Scores of one estimate (floats), or per-row arrays for a batch."""

    e0: float | np.ndarray
    e2: float | np.ndarray
    true_norm_zero: bool | np.ndarray


@dataclass
class ExperimentRow:
    K: int
    probes: int | None
    mode: str
    reps: int
    e0_mean: float
    e0_se: float
    e2_mean: float
    e2_se: float
    seed: int


@dataclass
class ExperimentConfig:
    """Noise-experiment settings; serializes to/from JSON verbatim."""

    tree: str
    k_values: list[int]
    loss_range: tuple[float, float] = DEFAULT_LOSS_RANGE
    probe_counts: list = field(default_factory=lambda: [1000, 10000])
    reps: int = 100
    level: float = 0.90
    mode: str = POINT_MODE
    interval_mode: str = "t-ci"
    cover_halfwidth: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.tree, str):
            raise ConfigInvalid("tree must be a tree file path or spec string")
        if not (
            isinstance(self.loss_range, (tuple, list))
            and len(self.loss_range) == 2
            and all(map(_is_real, self.loss_range))
            and 0 < self.loss_range[0] <= self.loss_range[1] < 1
        ):
            raise ConfigInvalid("loss_range must satisfy 0 < lo <= hi < 1")
        if self.mode not in (POINT_MODE,) + MODES:
            raise ConfigInvalid(f"mode must be one of {(POINT_MODE,) + MODES}")
        if self.interval_mode not in INTERVAL_MODES:
            raise ConfigInvalid(f"interval_mode must be {' or '.join(map(repr, INTERVAL_MODES))}")
        if not (
            isinstance(self.k_values, (tuple, list))
            and self.k_values
            and all(_is_int(k) and k >= 1 for k in self.k_values)
        ):
            raise ConfigInvalid("k_values must be a non-empty list of integers K >= 1")
        if not (_is_int(self.reps) and self.reps >= 1):
            raise ConfigInvalid("reps must be an integer of at least 1")
        if not (_is_real(self.level) and 0 < self.level < 1):
            raise ConfigInvalid("level must lie in (0, 1)")
        if not (
            isinstance(self.probe_counts, (tuple, list))
            and all(n is None or (_is_int(n) and 1 <= n < 2**63) for n in self.probe_counts)
        ):
            raise ConfigInvalid("probe counts must be integers in 1..2**63 - 1 (or null for exact)")
        if not self.probe_counts:  # no probe count: the run would plant and score nothing
            raise ConfigInvalid("probe_counts must be a non-empty list")
        if not (
            _is_real(self.cover_halfwidth)
            and math.isfinite(self.cover_halfwidth)
            and self.cover_halfwidth >= 0
        ):
            raise ConfigInvalid("cover_halfwidth must be a finite number >= 0")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ConfigInvalid("seed must be an integer >= 0")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            data = _load_json(fh.read(), "experiment config file")
        if not isinstance(data, dict):
            raise ConfigInvalid("an experiment config file must hold one JSON object")
        names = {f.name for f in fields(cls)}
        if data.keys() - names:
            raise ConfigInvalid(f"unknown config keys {sorted(data.keys() - names)}")
        if not {"tree", "k_values"} <= data.keys():
            raise ConfigInvalid("an experiment config needs tree and k_values")
        if isinstance(data.get("loss_range"), list):
            data["loss_range"] = tuple(data["loss_range"])
        return cls(**data)

    def to_json(self, path) -> None:
        data = asdict(self)
        data["loss_range"] = list(self.loss_range)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2)
            fh.write("\n")


def path_loss_probabilities(tree: LogicalTree, b) -> np.ndarray:
    """p_j = 1 - prod(1 - b_k) over path j, multiplied out top down.

    ``b`` is (n,), or (B, n) for (B, m) probabilities.  One product scan
    gives every internal node's survival probability q from the root, for
    all rows at once; leaf j then takes p_j = 1 - q_father * (1 - b_j).
    """
    b = np.asarray(b, dtype=float)
    if b.ndim not in (1, 2) or b.shape[-1] != tree.n or not np.all((b >= 0) & (b < 1)):
        raise OutOfDomain(f"need {tree.n} link loss probabilities in [0, 1) per row")
    leaves = slice(1, tree.m + 1)
    survive = np.ones(b.shape[:-1] + (tree.n + 1,))  # column ROOT: 1, the identity
    np.subtract(1.0, b, out=survive[..., 1:])
    q = tree.root_scan(survive, np.multiply)
    return 1.0 - q.take(tree.parent[leaves], axis=-1) * survive[..., leaves]


def simulate_probes(tree: LogicalTree, b, probes: int, seed) -> ProbeRun:
    """Send ``probes`` probes per path and estimate the loss probabilities.

    ``b`` is (n,) with one seed, or (B, n) with a sequence of B seeds: row r
    draws its counts from ``np.random.default_rng(seed[r])``, so it gets the
    counts of a call on that row alone.
    """
    if not (_is_int(probes) and 1 <= probes < 2**63):  # the binomial draw takes an int64 count
        raise ParameterOutOfRange(f"need a whole number of probes in 1..2**63 - 1, got {probes!r}")
    p = path_loss_probabilities(tree, b)
    if p.ndim == 1:
        seeds = [seed]
    elif isinstance(seed, (list, tuple, np.ndarray)) and len(seed) == len(p):
        seeds = seed
    else:
        raise ParameterOutOfRange(f"need one seed for each of the {len(p)} rows of b")
    for s in seeds:
        _check_seed(s)
    rows = zip(seeds, p.reshape(-1, tree.m))
    losses = [np.random.default_rng(s).binomial(probes, row) for s, row in rows]
    losses = np.array(losses, dtype=np.int64).reshape(p.shape)
    p_hat = losses / probes
    return ProbeRun(
        probes=probes,
        losses=losses,
        p_hat=p_hat,
        y_hat=addloss(np.minimum(p_hat, 1 - EPS_P)),
    )


def confidence_intervals(run: ProbeRun, level: float) -> IntervalObservation:
    """t-based intervals around p_hat, mapped to the addloss scale.

    Half-width t_{(1+level)/2, N-1} * sqrt(p_hat (1-p_hat) / N) on the
    probability scale; a zero count pins the lower end to 0, a full-loss
    count leaves the upper end unbounded.  A stacked run gives (B, m) bounds.
    """
    if not (isinstance(level, numbers.Real) and 0 < level < 1):
        raise ParameterOutOfRange(f"confidence level must be a number in (0, 1), got {level!r}")
    n = run.probes
    if n < 2:  # t with n - 1 = 0 degrees of freedom has no quantile
        raise ParameterOutOfRange(f"t intervals need at least 2 probes, got {n}")
    h = _t_quantile(level, n) * np.sqrt(run.p_hat * (1 - run.p_hat) / n)
    lo_p = np.clip(run.p_hat - h, 0.0, 1 - EPS_P)
    hi_p = np.clip(run.p_hat + h, 0.0, 1 - EPS_P)
    lo_p[run.losses == 0] = 0.0
    hi = addloss(hi_p)
    hi[run.losses == n] = math.inf
    return IntervalObservation(lo=addloss(lo_p), hi=hi)


@functools.lru_cache
def _t_quantile(level: float, n: int) -> float:
    """The (1+level)/2 quantile of Student's t with n-1 degrees of freedom.

    scipy is imported here, on first use, so commands without t-based
    intervals never load it.
    """
    from scipy.special import stdtrit

    return stdtrit(n - 1, (1 + level) / 2)


def cover_intervals(
    tree: LogicalTree, b_true, halfwidth: float
) -> IntervalObservation:
    """Intervals around the true path probabilities; always contain true y.

    ``b_true`` is (n,), or (B, n) for (B, m) bounds.
    """
    p = path_loss_probabilities(tree, b_true)
    lo_p = np.maximum(p - halfwidth, 0.0)
    hi_p = np.maximum(np.minimum(p + halfwidth, 1 - EPS_P), p)
    return IntervalObservation(lo=addloss(lo_p), hi=addloss(hi_p))


def metrics(b_true, b_hat) -> Metrics:
    """Location success rate e0 and relative l2 error e2.

    e0 counts links lossy in both vectors, normalized by the number of
    truly lossy links; with nothing truly lossy it degenerates to 1 when
    the estimate is also clean, else 0, and e2 falls back to the raw
    estimate norm (flagged by ``true_norm_zero``).  Vectors (n,) give
    floats; batches (B, n) give one score per row.
    """
    b_true = _checked(b_true, None, "true links", batch=True)
    b_hat = _checked(b_hat, None, "estimated links", batch=True)
    if b_hat.shape != b_true.shape:
        raise OutOfDomain(f"b_true has shape {b_true.shape} but b_hat has {b_hat.shape}")
    rows_true, rows_hat = np.atleast_2d(b_true, b_hat)
    true_lossy = rows_true > DEFAULT_TOL
    hat_lossy = rows_hat > DEFAULT_TOL
    n_true = true_lossy.sum(axis=1)
    common = (true_lossy & hat_lossy).sum(axis=1)
    e0 = np.where(n_true == 0, 1.0 * ~hat_lossy.any(axis=1), common / np.maximum(n_true, 1))
    # One r @ r per row, as np.linalg.norm sums a vector; norm(axis=1) rounds differently.
    norm_true = np.sqrt([r @ r for r in rows_true])
    zero = norm_true == 0.0  # then b_true - b_hat is -b_hat, whose norm e2 reports
    e2 = np.sqrt([r @ r for r in rows_true - rows_hat]) / np.where(zero, 1.0, norm_true)
    if b_true.ndim == 1:
        return Metrics(e0=float(e0[0]), e2=float(e2[0]), true_norm_zero=bool(zero[0]))
    return Metrics(e0=e0, e2=e2, true_norm_zero=zero)


def run_experiment(cfg: ExperimentConfig, tree: LogicalTree | None = None):
    """Sweep (K, probe count) cells and aggregate e0/e2 over repetitions.

    Per repetition: plant K hotspots with losses uniform in the configured
    range.  Each K plants its repetitions in the blocks of
    ``_planted_blocks``, so only one block is held at a time.  Per probe
    count, on each block's stacked rows: simulate probes (or take exact
    observations when the probe count is null), solve per the configured
    mode, invert the addloss transform, and score against the planted
    probabilities.  A cell's scores join in block order.
    """
    if tree is None:
        tree = tree_from_spec(cfg.tree)
    if max(cfg.k_values) > tree.n:
        raise ConfigInvalid(f"K up to {max(cfg.k_values)} exceeds n={tree.n}")
    rows = []
    for K in cfg.k_values:
        scores = [[] for _ in cfg.probe_counts]  # per position: duplicate counts keep their rows
        for reps, b_true in _planted_blocks(tree, K, cfg.loss_range, cfg.seed, cfg.reps):
            for cell, probes in zip(scores, cfg.probe_counts):
                cell.append(_score_block(tree, b_true, reps, K, probes, cfg))
        for probes, cell in zip(cfg.probe_counts, scores):
            e0_mean, e0_se = _mean_se(np.concatenate([score.e0 for score in cell]))
            e2_mean, e2_se = _mean_se(np.concatenate([score.e2 for score in cell]))
            rows.append(ExperimentRow(
                K=K, probes=probes, mode=cfg.mode, reps=cfg.reps, e0_mean=e0_mean,
                e0_se=e0_se, e2_mean=e2_mean, e2_se=e2_se, seed=cfg.seed,
            ))
    return rows


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    """Mean and standard error over the repetitions (0 for a single one)."""
    se = values.std(ddof=1) / np.sqrt(len(values)) if len(values) > 1 else 0.0
    return float(values.mean()), float(se)


def _score_block(tree, b_true, reps: range, K, probes, cfg: ExperimentConfig) -> Metrics:
    """Per-row scores of the B planted rows ``reps`` of a (K, probes) cell.

    Each row is probed from its own stream; the observation or probe pass, the interval
    bounds and the solver run once on the stacked rows.  Cover intervals need no probes.
    """
    interval = cfg.mode != POINT_MODE
    if interval and cfg.interval_mode == "cover":
        intervals = cover_intervals(tree, b_true, cfg.cover_halfwidth)
    elif probes is None:
        y_hat = forward(tree, addloss(b_true))
        intervals = IntervalObservation.exact(y_hat) if interval else None
    else:
        run = simulate_probes(tree, b_true, probes, [
            np.random.SeedSequence(cfg.seed, spawn_key=(K, rep, probes)) for rep in reps
        ])
        y_hat = run.y_hat
        intervals = confidence_intervals(run, cfg.level) if interval else None
    if interval:
        x_hat = upsparse_plus(tree, intervals, cfg.mode).x
    else:
        x_hat = closed_form(tree, y_hat)
    return metrics(b_true, inverse_addloss(x_hat))


def write_experiment_csv(path, rows: list[ExperimentRow]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["K", "N", "mode", "reps", "e0_mean", "e0_se", "e2_mean", "e2_se", "seed"]
        )
        for r in rows:
            writer.writerow(
                [
                    r.K,
                    "inf" if r.probes is None else r.probes,
                    r.mode,
                    r.reps,
                    str(r.e0_mean),
                    str(r.e0_se),
                    str(r.e2_mean),
                    str(r.e2_se),
                    r.seed,
                ]
            )
