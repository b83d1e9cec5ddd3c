"""Seeded input generation for the benchmark workloads.

Every tree the program sees is written here as a topology file, together
with planted exact observations and simulated interval observations.
Trees are kept in the benchmark's own representation (parent array plus
ordered children) so that the output checks never ask the package for
tree structure.  Node labels are the package's canonical labels (leaves
1..m left to right, internal nodes m+1..n in preorder); ``Tree`` checks
that on construction, so solver output can be compared index by index.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from losstree import build_tree, confidence_intervals, simulate_probes

LOSS_RANGE = (0.01, 0.10)
PROBES = 1000
LEVEL = 0.90


class Tree:
    """Rooted tree with root 0 and links 1..n, children in left-to-right order."""

    def __init__(self, children: list[list[int]]):
        self.children = children
        self.n = len(children) - 1
        self.parent = np.full(self.n + 1, -1, dtype=np.int64)
        for v, kids in enumerate(children):
            self.parent[kids] = v
        # Top-down sweeps go one depth level at a time.
        self.levels = []
        frontier = list(children[0])
        while frontier:
            self.levels.append(np.array(frontier, dtype=np.int64))
            frontier = [c for v in frontier for c in children[v]]
        self.m = sum(1 for kids in children[1:] if not kids)
        self.height = len(self.levels)
        self._check_canonical()

    def _check_canonical(self) -> None:
        leaves, internal = [], []
        stack = list(reversed(self.children[0]))
        while stack:
            v = stack.pop()
            (internal if self.children[v] else leaves).append(v)
            stack.extend(reversed(self.children[v]))
        if leaves != list(range(1, self.m + 1)) or internal != list(
            range(self.m + 1, self.n + 1)
        ):
            raise ValueError("tree labels are not canonical")

    def path_sums(self, x: np.ndarray) -> np.ndarray:
        """z[v] = sum of x over the links from the root down to v (x indexed by label)."""
        z = np.zeros(self.n + 1)
        for level in self.levels:
            z[level] = z[self.parent[level]] + x[level]
        return z

    def total_path_length(self) -> int:
        depth = self.path_sums(np.ones(self.n + 1))
        return int(depth[1 : self.m + 1].sum())

    def shape(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "height": self.height,
            "total_path_length": self.total_path_length(),
        }

    def write(self, path: str) -> None:
        """Topology file with edges in top-down order."""
        lines = ["root 0"]
        for level in self.levels:
            lines.extend(f"{c} {self.parent[c]}" for c in level)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def from_package(tree) -> Tree:
    """Copy a package-generated LogicalTree into the benchmark's representation."""
    return Tree([list(kids) for kids in tree.children])


def caterpillar(m: int) -> Tree:
    """Spine of m-1 internal nodes, each with one leaf hanging to the left.

    Spine node k has label m+k and children (leaf k, next spine node); the
    last spine node carries leaves m-1 and m.  n = 2m-1 and the height is m.
    """
    if m < 2:
        raise ValueError("a caterpillar needs at least 2 leaves")
    children = [[] for _ in range(2 * m)]
    children[0] = [m + 1]
    for k in range(1, m - 1):
        children[m + k] = [k, m + k + 1]
    children[2 * m - 1] = [m - 1, m]
    return Tree(children)


def plant(tree: Tree, K: int, rng: np.random.Generator) -> np.ndarray:
    """K lossy links (addloss scale, indexed by label) meeting the recovery condition.

    Links are taken in random order and skipped when they would leave their
    father with no lossless child, so every internal node keeps one.
    """
    lossy_kids = np.zeros(tree.n + 1, dtype=np.int64)
    chosen = []
    for v in rng.permutation(np.arange(1, tree.n + 1)):
        p = tree.parent[v]
        if p != 0 and lossy_kids[p] + 1 == len(tree.children[p]):
            continue
        lossy_kids[p] += 1
        chosen.append(v)
        if len(chosen) == K:
            break
    if len(chosen) < K:
        raise ValueError(f"cannot plant {K} hotspots on n={tree.n}")
    x = np.zeros(tree.n + 1)
    x[chosen] = -np.log1p(-rng.uniform(*LOSS_RANGE, size=K))
    if not recovery_condition(tree, x):
        raise ValueError("planted instance violates the recovery condition")
    return x


def recovery_condition(tree: Tree, x: np.ndarray) -> bool:
    """Every internal node has at least one child link with zero loss."""
    return all(
        min(x[c] for c in kids) == 0.0 for kids in tree.children[1:] if kids
    )


@dataclass
class Instance:
    """Files and expected values for one planted instance on one tree."""

    tree: Tree
    tree_file: str
    obs_file: str
    intervals_file: str
    x: np.ndarray  # planted addloss per link label (index 0 unused)
    y: np.ndarray  # exact path observations, path j at index j-1
    lo: np.ndarray
    hi: np.ndarray


def make_instance(tree: Tree, K: int, seed: int, prefix: str) -> Instance:
    """Write tree, planted exact observations and t-based intervals under ``prefix``."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    x = plant(tree, K, rng)
    y = tree.path_sums(x)[1 : tree.m + 1]
    # The package simulator needs its own tree object; labels are identical.
    edges = [(int(c), int(tree.parent[c])) for level in tree.levels for c in level]
    run = simulate_probes(
        build_tree(edges, root=0),
        -np.expm1(-x[1:]),
        PROBES,
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,))),
    )
    iv = confidence_intervals(run, LEVEL)
    inst = Instance(
        tree=tree,
        tree_file=prefix + ".tree",
        obs_file=prefix + ".obs.json",
        intervals_file=prefix + ".intervals.json",
        x=x,
        y=y,
        lo=iv.lo,
        hi=iv.hi,
    )
    tree.write(inst.tree_file)
    with open(inst.obs_file, "w", encoding="utf-8") as fh:
        json.dump({"scale": "addloss", "y": [float(v) for v in y]}, fh)
    rows = [
        {"path": j + 1, "lo": float(lo), "hi": "inf" if math.isinf(hi) else float(hi)}
        for j, (lo, hi) in enumerate(zip(iv.lo, iv.hi))
    ]
    with open(inst.intervals_file, "w", encoding="utf-8") as fh:
        json.dump(rows, fh)
    return inst
