"""The three workloads and the CLI commands each one issues.

Every workload issues the same eight commands, so every end-to-end metric
exists on every workload; the workloads differ in the trees and sizes
behind the commands:

- ``wide``: a large shallow random tree (m=5000, max branching 4).  Cost is
  per-node Python loops, file parsing and JSON output.
- ``caterpillar``: a spine with m=1000 leaves, height 1000.  Path length
  grows with m, which exposes the quadratic ``LogicalTree.paths``,
  ``path_loss_probabilities`` and the sorted merges in ``z_stats``.
- ``small-sweep``: thousands of tiny calls (ternary:13 experiment sweep,
  12-leaf census, 8-leaf verify), where per-call overhead and, for the cold
  start, package import time dominate.

The oracle commands (census, verify) need trees of at most 26 links, so
``wide`` and ``caterpillar`` run them on small trees of their own shape.
The sizes keep a round of all eight commands near 4 s, so that a 30 s run
holds six or more samples of each.
"""

import os
from dataclasses import dataclass
from typing import Callable

import checks
from inputs import Tree, caterpillar, from_package, make_instance

from losstree import gen_random_tree, gen_ternary_tree

NOISY_MODE = "min-l1-among-l0"
VERIFY_SEED = 0


@dataclass(frozen=True)
class Sizes:
    main_tree: Callable[[int], Tree]  # seed -> tree for solve, scfs, experiment
    hotspots: int
    exp_K: str
    exp_probes: str
    exp_trials: int
    census_tree: Callable[[int], Tree]
    census_K: str
    census_trials: int
    verify_tree: Callable[[int], Tree]
    verify_trials: int


def _random(m: int, branching: int) -> Callable[[int], Tree]:
    return lambda seed: from_package(gen_random_tree(m, branching, seed))


def _random_sized(m: int, branching: int, n: int) -> Callable[[int], Tree]:
    """Random m-leaf tree with exactly n links: the first seed from ``seed`` on that fits.

    The oracle's work grows steeply with n, so a fixed n keeps the seed from
    moving the oracle metrics while the shape still varies with it.
    """

    def make(seed: int) -> Tree:
        for offset in range(1000):
            tree = gen_random_tree(m, branching, seed * 1000 + offset)
            if tree.n == n:
                return from_package(tree)
        raise ValueError(f"no {m}-leaf tree with {n} links found")

    return make


WORKLOADS = {
    "wide": Sizes(
        main_tree=_random(5000, 4),
        hotspots=50,
        exp_K="5",
        exp_probes="1000",
        exp_trials=2,
        census_tree=_random_sized(12, 4, 18),
        census_K="1-3",
        census_trials=100,
        verify_tree=_random(8, 4),
        verify_trials=10,
    ),
    "caterpillar": Sizes(
        main_tree=lambda seed: caterpillar(1000),
        hotspots=50,
        exp_K="5",
        exp_probes="1000",
        exp_trials=2,
        census_tree=lambda seed: caterpillar(12),
        census_K="1-3",
        census_trials=100,
        verify_tree=lambda seed: caterpillar(7),
        verify_trials=10,
    ),
    "small-sweep": Sizes(
        main_tree=lambda seed: from_package(gen_ternary_tree(13)),
        hotspots=2,
        exp_K="1-9",
        exp_probes="1000,10000",
        exp_trials=50,
        census_tree=_random_sized(12, 3, 20),
        census_K="1-5",
        census_trials=100,
        verify_tree=_random(8, 3),
        verify_trials=10,
    ),
}


@dataclass
class Command:
    """One CLI invocation and the metric it feeds.

    A metric ending in ``_ms`` is milliseconds per call; any other is
    ``units`` of work per second.
    """

    metric: str
    argv: list[str]
    check: Callable
    units: int = 1
    cold: bool = False  # run in a fresh interpreter


def count(spec: str) -> int:
    """Number of values in a CLI list such as ``1-9`` or ``1000,10000``."""
    total = 0
    for tok in spec.split(","):
        lo, _, hi = tok.partition("-")
        total += int(hi) - int(lo) + 1 if hi else 1
    return total


def build(sizes: Sizes, seed: int, workdir: str):
    """Write every input under ``workdir``; return the commands and tree shapes."""

    def path(name):
        return os.path.join(workdir, name)

    main = make_instance(sizes.main_tree(seed), sizes.hotspots, seed, path("main"))
    census_tree = sizes.census_tree(seed)
    census_tree.write(path("census.tree"))
    # The oracle's work per verify instance grows steeply with its sparsity,
    # which the CLI draws from --seed; ten instances do not average that
    # out, so verify runs one fixed tree and instance set on every seed.
    verify_tree = sizes.verify_tree(VERIFY_SEED)
    verify_tree.write(path("verify.tree"))

    solve = ["solve", "--tree", main.tree_file, "--obs", main.obs_file]
    cells = count(sizes.exp_K) * count(sizes.exp_probes)
    commands = [
        Command("solve_ms", solve, checks.solve(main)),
        Command(
            "solve_noisy_ms",
            ["solve-noisy", "--tree", main.tree_file, "--intervals", main.intervals_file,
             "--mode", NOISY_MODE],
            checks.solve_noisy(main),
        ),
        Command(
            "scfs_ms",
            ["scfs", "--tree", main.tree_file, "--obs", main.obs_file],
            checks.scfs(main),
        ),
    ]
    for metric, mode in (
        ("experiment_point_solves_per_s", "upsparse"),
        ("experiment_interval_solves_per_s", NOISY_MODE),
    ):
        out = path(f"experiment-{mode}.csv")
        commands.append(
            Command(
                metric,
                ["experiment", "--tree", main.tree_file, "--K", sizes.exp_K,
                 "--probes", sizes.exp_probes, "--trials", str(sizes.exp_trials),
                 "--mode", mode, "--seed", str(seed), "--out", out],
                checks.SameCsv(out, checks.EXPERIMENT_HEADER, cells, ["e0_mean"]),
                units=cells * sizes.exp_trials,
            )
        )
    census_out = path("census.csv")
    commands += [
        Command(
            "census_trials_per_s",
            ["census", "--tree", path("census.tree"), "--K", sizes.census_K,
             "--trials", str(sizes.census_trials), "--seed", str(seed), "--out", census_out],
            checks.SameCsv(
                census_out,
                checks.CENSUS_HEADER,
                count(sizes.census_K),
                ["p_unique", "p_l1_recovers_true"],
            ),
            units=count(sizes.census_K) * sizes.census_trials,
        ),
        Command(
            "verify_instances_per_s",
            ["verify", "--tree", path("verify.tree"), "--trials", str(sizes.verify_trials),
             "--seed", str(VERIFY_SEED)],
            checks.verify(sizes.verify_trials),
            units=sizes.verify_trials,
        ),
        Command("cold_start_ms", solve, checks.solve(main), cold=True),
    ]
    shapes = {
        "main": main.tree.shape(),
        "census": census_tree.shape(),
        "verify": verify_tree.shape(),
    }
    return commands, shapes
