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
interval widths.

Probes are simulated independently per path; shared-link correlation
between paths is not modeled (the solvers consume only the per-path
marginals, which are unaffected).
"""

import csv
import functools
import json
import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigInvalid, OutOfDomain, ParameterOutOfRange
from .lossmodel import (
    DEFAULT_LOSS_RANGE, DEFAULT_TOL, addloss, forward, inverse_addloss, plant_hotspots
)
from .noiseless import closed_form
from .noisy import MODES, IntervalObservation, upsparse_plus
from .topology import LogicalTree, tree_from_spec

EPS_P = 1e-9  # probability-scale clamp below 1 so addloss stays finite
POINT_MODE = "upsparse"
INTERVAL_MODES = ("t-ci", "cover")


@dataclass
class ProbeRun:
    """Per-path loss counts and estimates from one simulated probing round."""

    probes: int
    losses: np.ndarray
    p_hat: np.ndarray
    y_hat: np.ndarray
    seed: int | None = None


class Metrics(NamedTuple):
    e0: float
    e2: float
    true_norm_zero: bool


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
        lo, hi = self.loss_range
        if not (0 < lo <= hi < 1):
            raise ConfigInvalid("loss_range must satisfy 0 < lo <= hi < 1")
        if self.mode not in (POINT_MODE,) + MODES:
            raise ConfigInvalid(f"mode must be one of {(POINT_MODE,) + MODES}")
        if self.interval_mode not in INTERVAL_MODES:
            raise ConfigInvalid(f"interval_mode must be {' or '.join(map(repr, INTERVAL_MODES))}")
        if not self.k_values or min(self.k_values) < 1:
            raise ConfigInvalid("k_values must be a non-empty list of K >= 1")
        if self.reps < 1:
            raise ConfigInvalid("reps must be at least 1")
        if not (0 < self.level < 1):
            raise ConfigInvalid("level must lie in (0, 1)")
        if any(n is not None and n < 1 for n in self.probe_counts):
            raise ConfigInvalid("probe counts must be >= 1 (or null for exact)")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        data["loss_range"] = tuple(data.get("loss_range", DEFAULT_LOSS_RANGE))
        return cls(**data)

    def to_json(self, path) -> None:
        data = asdict(self)
        data["loss_range"] = list(self.loss_range)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2)
            fh.write("\n")


def path_loss_probabilities(tree: LogicalTree, b) -> np.ndarray:
    """p_j = 1 - prod(1 - b_k) over path j, multiplied out top down.

    One pass over the internal labels (preorder, so every father comes
    first) gives each node's survival probability from the root; the
    leaves, whose fathers are internal, follow in one array step.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (tree.n,) or not np.all((b >= 0) & (b < 1)):
        raise OutOfDomain(f"need {tree.n} link loss probabilities in [0, 1)")
    m, parent, survive = tree.m, tree.parent, 1.0 - b
    q = [1.0] * (m + 1)  # survival from the root to each internal node; leaves below
    for p, s in zip(parent[m + 1 :].tolist(), survive[m:].tolist()):
        q.append(q[p] * s)
    return 1.0 - np.array(q)[parent[1 : m + 1]] * survive[:m]


def simulate_probes(tree: LogicalTree, b, probes: int, seed) -> ProbeRun:
    """Send ``probes`` probes per path and estimate the loss probabilities."""
    if probes < 1:
        raise ParameterOutOfRange("need at least one probe")
    rng = np.random.default_rng(seed)
    p = path_loss_probabilities(tree, b)
    losses = rng.binomial(probes, p)
    p_hat = losses / probes
    return ProbeRun(
        probes=probes,
        losses=losses,
        p_hat=p_hat,
        y_hat=addloss(np.minimum(p_hat, 1 - EPS_P)),
        seed=seed if isinstance(seed, int) else None,
    )


def confidence_intervals(run: ProbeRun, level: float) -> IntervalObservation:
    """t-based intervals around p_hat, mapped to the addloss scale.

    Half-width t_{(1+level)/2, N-1} * sqrt(p_hat (1-p_hat) / N) on the
    probability scale; a zero count pins the lower end to 0, a full-loss
    count leaves the upper end unbounded.
    """
    if not (0 < level < 1):
        raise ParameterOutOfRange("confidence level must lie in (0, 1)")
    n = run.probes
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
    """Intervals around the true path probabilities; always contain true y."""
    p = path_loss_probabilities(tree, b_true)
    lo_p = np.maximum(p - halfwidth, 0.0)
    hi_p = np.maximum(np.minimum(p + halfwidth, 1 - EPS_P), p)
    return IntervalObservation(lo=addloss(lo_p), hi=addloss(hi_p))


def metrics(b_true, b_hat) -> Metrics:
    """Location success rate e0 and relative l2 error e2.

    e0 counts links lossy in both vectors, normalized by the number of
    truly lossy links; with nothing truly lossy it degenerates to 1 when
    the estimate is also clean, else 0, and e2 falls back to the raw
    estimate norm (flagged by ``true_norm_zero``).
    """
    b_true = np.asarray(b_true, dtype=float)
    b_hat = np.asarray(b_hat, dtype=float)
    true_lossy = b_true > DEFAULT_TOL
    common = int((true_lossy & (b_hat > DEFAULT_TOL)).sum())
    if true_lossy.sum() == 0:
        e0 = 1.0 if (b_hat > DEFAULT_TOL).sum() == 0 else 0.0
    else:
        e0 = common / int(true_lossy.sum())
    norm_true = float(np.linalg.norm(b_true))
    if norm_true == 0.0:
        return Metrics(e0=e0, e2=float(np.linalg.norm(b_hat)), true_norm_zero=True)
    e2 = float(np.linalg.norm(b_true - b_hat) / norm_true)
    return Metrics(e0=e0, e2=e2, true_norm_zero=False)


def run_experiment(cfg: ExperimentConfig, tree: LogicalTree | None = None):
    """Sweep (K, probe count) cells and aggregate e0/e2 over repetitions.

    Per repetition: plant K hotspots with losses uniform in the configured
    range, simulate probes (or take exact observations when the probe
    count is null), solve per the configured mode, invert the addloss
    transform, and score against the planted probabilities.
    """
    if tree is None:
        tree = tree_from_spec(cfg.tree)
    if max(cfg.k_values) > tree.n:
        raise ConfigInvalid(f"K up to {max(cfg.k_values)} exceeds n={tree.n}")
    rows = []
    for K in cfg.k_values:
        instances = [
            plant_hotspots(tree, K, cfg.loss_range, cfg.seed, rep)
            for rep in range(cfg.reps)
        ]
        for probes in cfg.probe_counts:
            e0s = np.empty(cfg.reps)
            e2s = np.empty(cfg.reps)
            for rep, b_true in enumerate(instances):
                e0s[rep], e2s[rep] = _score_one(
                    tree, b_true, K, probes, rep, cfg
                )[:2]
            rows.append(
                ExperimentRow(
                    K=K,
                    probes=probes,
                    mode=cfg.mode,
                    reps=cfg.reps,
                    e0_mean=float(e0s.mean()),
                    e0_se=float(e0s.std(ddof=1) / np.sqrt(cfg.reps))
                    if cfg.reps > 1
                    else 0.0,
                    e2_mean=float(e2s.mean()),
                    e2_se=float(e2s.std(ddof=1) / np.sqrt(cfg.reps))
                    if cfg.reps > 1
                    else 0.0,
                    seed=cfg.seed,
                )
            )
    return rows


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


def _score_one(tree, b_true, K, probes, rep, cfg: ExperimentConfig) -> Metrics:
    if probes is None:
        y_hat = forward(tree, addloss(b_true))
        run = None
    else:
        probe_rng = np.random.default_rng(
            np.random.SeedSequence(cfg.seed, spawn_key=(K, rep, probes))
        )
        run = simulate_probes(tree, b_true, probes, probe_rng)
        y_hat = run.y_hat
    if cfg.mode == POINT_MODE:
        x_hat = closed_form(tree, y_hat)
    else:
        if cfg.interval_mode == "cover":
            intervals = cover_intervals(tree, b_true, cfg.cover_halfwidth)
        elif run is None:
            intervals = IntervalObservation.exact(y_hat)
        else:
            intervals = confidence_intervals(run, cfg.level)
        x_hat = upsparse_plus(tree, intervals, cfg.mode).x
    return metrics(b_true, inverse_addloss(x_hat))
