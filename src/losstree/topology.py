"""Rooted logical trees, canonical labeling, generators, and measurement matrices.

A logical tree has a root with exactly one child, internal nodes with at
least two children, and leaves with none.  Each non-root node is identified
with the link from its father, so a tree with n non-root nodes has n links,
of which the m leaves carry the m measured root-to-leaf paths.

Canonical labels number the leaves 1..m left to right and the internal
nodes m+1..n in preorder starting from the root's child.  Under this
labeling the first m columns of the measurement matrix form an identity
block.  "Left to right" means first-appearance order of each node's
children in the input edge list (generators emit children in creation
order), which makes construction deterministic.

Trees and matrices are immutable after construction and safe to share
across concurrent tasks.
"""

import os
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import (
    CycleDetected,
    DegreeViolation,
    DisconnectedInput,
    MalformedLine,
    ParameterOutOfRange,
)

ROOT = 0  # canonical label of the root node


@dataclass(eq=False)
class LogicalTree:
    """Canonically labeled rooted tree.

    Attributes:
        n: number of links (equivalently, non-root nodes).
        m: number of leaves, which is also the number of measured paths.
        parent: parent[k] is the father of node k for k in 1..n; parent[0] = -1.
        children: children[v] lists v's children in left-to-right order.
        depth: depth[k] counts links on the path from the root to node k.
        alias: canonical label -> original node id from the input edge list.
    """

    n: int
    m: int
    parent: np.ndarray
    children: tuple[tuple[int, ...], ...]
    depth: np.ndarray
    alias: dict[int, object]

    @property
    def leaves(self) -> range:
        return range(1, self.m + 1)

    @property
    def internal(self) -> range:
        """Internal node (link) labels, m+1..n."""
        return range(self.m + 1, self.n + 1)

    @cached_property
    def height(self) -> int:
        return int(self.depth.max())

    @cached_property
    def paths(self) -> tuple[tuple[int, ...], ...]:
        """paths[j-1] lists the links on the root-to-leaf-j path, top down."""
        out = []
        for j in self.leaves:
            chain = []
            v = j
            while v != ROOT:
                chain.append(v)
                v = int(self.parent[v])
            out.append(tuple(reversed(chain)))
        return tuple(out)

    @cached_property
    def leaf_span(self) -> np.ndarray:
        """leaf_span[v] = (lo, hi): leaves of v's subtree are lo..hi-1."""
        lo, hi = list(range(self.n + 1)), list(range(1, self.n + 2))  # right for leaves
        # Internal labels follow preorder, so descendants have larger labels:
        # a reverse sweep sees every child before its father.
        for v in range(self.n, self.m, -1):
            kids = self.children[v]
            lo[v], hi[v] = lo[kids[0]], hi[kids[-1]]
        lo[ROOT], hi[ROOT] = 1, self.m + 1
        return np.array([lo, hi], dtype=np.int64).T.copy()

    @cached_property
    def span_min_index(self) -> tuple[int, np.ndarray, np.ndarray]:
        """(rows, first, second): a sparse-table plan for leaf-span minima.

        Row k holds min(y[i : i + 2**k]) for i = 0..m - 2**k, rows concatenated.
        Two such windows cover the leaf span of link v from either end; their
        minima sit at flat positions first[v-1] and second[v-1].
        """
        lo, hi = self.leaf_span[1:].T - 1
        k = (np.frexp(hi - lo)[1] - 1).astype(np.int64)  # floor(log2(length))
        row_start = k * (self.m + 1) - (1 << k) + 1
        return int(k.max()) + 1, row_start + lo, row_start + hi - (1 << k)

    @cached_property
    def span_blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(link, base, starts, leaf_base): every leaf span cut into aligned blocks.

        Block (k, i) holds leaf positions i * 2**k .. (i + 1) * 2**k - 1
        (0-based), as in a merge-sort tree over the m leaves, with key base
        (k * m + i) * m.  Entry s of the cut is the block with key base[s] in
        the span of link link[s] + 1; the entries of link v are contiguous,
        begin at starts[v - 1] and tile its span exactly (at most two blocks
        per level).  leaf_base[k, p] is the key base of the level-k block
        holding position p.
        """
        m, levels = self.m, self.m.bit_length()
        # Span a..b-1 (0-based) at level k still needs blocks first..end-1 with
        # first = ceil(a / 2**k) and end = floor(b / 2**k); fe holds -first and
        # end.  The bottom-up segment-tree walk peels block first when first is
        # odd and block end-1 when end is odd.
        span = (self.leaf_span[1:] * [-1, 1] + [1, -1]).astype(np.int32)  # -a, b
        fe = span[:, :, None] >> np.arange(levels, dtype=np.int32)
        flat = np.flatnonzero((fe & 1 == 1) & (fe[:, :1] + fe[:, 1:] > 0))
        rest, level = np.divmod(flat, levels)
        link, side = np.divmod(rest, 2)
        base = (level * m + np.abs(fe.ravel()[flat]) - side) * m
        k = np.arange(levels)[:, None]
        leaf_base = (k * m + (np.arange(m) >> k)) * m
        return link, base, np.searchsorted(link, np.arange(self.n)), leaf_base

    def span_min(self, y) -> np.ndarray:
        """Smallest y over every link's leaf span: (..., m) -> (..., n).

        Entry v-1 of the last axis is gamma_v = min(y[..., lo-1 : hi-1]) for
        leaf_span[v] = (lo, hi), from one sparse-table range-minimum query
        (about log2 m array operations for all links at once).
        """
        rows, first, second = self.span_min_index
        # Row k of the table, min(y[..., i : i + 2**k]) for i = 0..m - 2**k, is
        # written in place after row k - 1, so a batch costs no concatenated copy.
        flat = np.empty(y.shape[:-1] + (rows * (self.m + 1) - (1 << rows) + 1,), y.dtype)
        flat[..., : self.m] = y
        start, length = 0, self.m
        for k in range(rows - 1):
            end, half = start + length, 1 << k
            np.minimum(flat[..., start : end - half], flat[..., start + half : end],
                       out=flat[..., end : end + length - half])
            start, length = end, length - half
        # take gathers along the last axis several times faster than flat[..., first]
        return np.minimum(flat.take(first, axis=-1), flat.take(second, axis=-1))

    def subtree_leaves(self, v: int) -> range:
        lo, hi = self.leaf_span[v]
        return range(int(lo), int(hi))

    def is_internal(self, v: int) -> bool:
        return self.m < v <= self.n


@dataclass(eq=False)
class MeasurementMatrix:
    """Binary path-by-link incidence, stored as the links' leaf spans.

    Path j uses link v exactly when leaf j lies under v, lo_v <= j < hi_v
    for span[v-1] = leaf_span[v] = (lo_v, hi_v); under canonical labeling
    the first m columns form the m-by-m identity.
    """

    m: int
    n: int
    span: np.ndarray

    def dense(self) -> np.ndarray:
        """Dense m-by-n 0/1 array; column k-1 corresponds to link k."""
        j = np.arange(1, self.m + 1)[:, None]
        lo, hi = self.span.T
        return ((lo <= j) & (j < hi)).astype(np.int64)


def build_tree(edges, root) -> LogicalTree:
    """Build a canonically labeled tree from (child, parent) pairs.

    Child order under each node is first-appearance order in ``edges``.

    Raises:
        CycleDetected: the edge list contains a cycle.
        DisconnectedInput: a node is unreachable from the root.
        DegreeViolation: the root does not have exactly one child, an
            internal node has exactly one child, or the root's child is a
            leaf (which would leave no internal link).
    """
    # Dense ids 0..N-1 in first-appearance order, the root first.
    ids = {root: ROOT}
    flat = [ids.setdefault(v, len(ids)) for v in chain.from_iterable(edges)]
    if not flat:
        raise DegreeViolation("empty edge list")
    names = list(ids)
    father = [ROOT] + [-1] * (len(names) - 1)  # so the root as a child reads as a second father
    kids: list[list[int]] = [[] for _ in names]
    for c, p in zip(flat[::2], flat[1::2]):
        if father[c] >= 0:
            if c == ROOT:
                raise CycleDetected(f"root {root!r} appears as a child")
            raise DisconnectedInput(f"node {names[c]!r} has two parents")
        father[c] = p
        kids[p].append(c)

    # One DFS from the root yields leaf order and internal preorder.  With
    # one father per node and none for the root, the nodes it reaches form
    # a tree, so it visits every node exactly when all of them reach the root.
    leaf_order, internal_order, stack = [], [], kids[ROOT][::-1]
    while stack:
        v = stack.pop()
        if kids[v]:
            internal_order.append(v)
            stack += kids[v][::-1]
        else:
            leaf_order.append(v)
    if len(leaf_order) + len(internal_order) + 1 < len(names):
        _raise_unreachable(flat[::2], father, names)

    if len(kids[ROOT]) != 1:
        raise DegreeViolation(f"root must have exactly one child, found {len(kids[ROOT])}")
    fanout = list(map(len, kids))
    if 1 in fanout[1:]:
        raise DegreeViolation(f"internal node {names[fanout.index(1, 1)]!r} has exactly one child")
    if not internal_order:
        raise DegreeViolation("root's child must be internal (n >= m+1)")

    m = len(leaf_order)
    order = leaf_order + internal_order  # dense id of each label 1..n
    label = [ROOT] * len(names)
    for lab, v in enumerate(order, 1):
        label[v] = lab
    parent = [-1] + [label[father[v]] for v in order]
    # Internal labels are in preorder, so one pass in label order sees every
    # father first; leaves have internal fathers and follow in one step.
    depth = [0] * (m + 1)
    for p in parent[m + 1 :]:
        depth.append(depth[p] + 1)
    depth[1 : m + 1] = [depth[p] + 1 for p in parent[1 : m + 1]]
    children = [(m + 1,)] + [()] * m
    children += [tuple(map(label.__getitem__, kids[v])) for v in internal_order]
    return LogicalTree(
        n=len(order),
        m=m,
        parent=np.array(parent, dtype=np.int64),
        children=tuple(children),
        depth=np.array(depth, dtype=np.int64),
        alias=dict(zip(range(1, len(order) + 1), map(names.__getitem__, order))),
    )


def _raise_unreachable(starts, father, names) -> None:
    """Raise for the first walk up from a child (in edge order) that meets a cycle or no father."""
    mark = [ROOT] + [-1] * (len(father) - 1)
    for start in starts:
        v = start
        while mark[v] < 0:
            mark[v] = start
            if father[v] < 0:
                raise DisconnectedInput(f"node {names[v]!r} has no path to the root")
            v = father[v]
        if mark[v] == start:
            raise CycleDetected(f"cycle through node {names[v]!r}")


def measurement_matrix(tree: LogicalTree) -> MeasurementMatrix:
    """Path-by-link incidence of ``tree`` under canonical labeling."""
    return MeasurementMatrix(m=tree.m, n=tree.n, span=tree.leaf_span[1:])


def gen_regular_tree(branching: int, height: int) -> LogicalTree:
    """Complete ``branching``-ary tree of the given height under the top link.

    The result has (branching**height - 1) / (branching - 1) links and
    branching**(height-1) leaves.
    """
    if branching < 2 or height < 2:
        raise ParameterOutOfRange(
            f"need branching >= 2 and height >= 2, got ({branching}, {height})"
        )
    edges = [(1, 0)]
    next_id = 2
    frontier = [(1, 1)]  # (node id, depth), walked first in, first out
    for v, d in frontier:  # the walk also visits the entries appended below
        if d == height:
            continue
        for _ in range(branching):
            edges.append((next_id, v))
            frontier.append((next_id, d + 1))
            next_id += 1
    return build_tree(edges, root=0)


def gen_ternary_tree(links: int) -> LogicalTree:
    """Deterministic full ternary tree with the requested link count.

    Starts from the largest complete ternary tree not exceeding ``links``
    and grows it by giving three leaf children to the lowest-labeled
    leaves, three links at a time.  Valid link counts are 4, 7, 10, ...
    (any count congruent to 1 mod 3, at least 4).
    """
    if links < 4 or (links - 1) % 3 != 0:
        raise ParameterOutOfRange(
            f"a full ternary tree has 3k+1 links for k >= 1, got {links}"
        )
    height = 2
    while (3 ** (height + 1) - 1) // 2 <= links:
        height += 1
    base = gen_regular_tree(3, height)
    grow = (links - (3**height - 1) // 2) // 3
    edges = [(v, int(base.parent[v])) for v in range(1, base.n + 1)]
    next_id = base.n + 1
    for leaf in range(1, grow + 1):
        for _ in range(3):
            edges.append((next_id, leaf))
            next_id += 1
    return build_tree(edges, root=0)


def gen_random_tree(m: int, max_branching: int, seed: int) -> LogicalTree:
    """Random tree with exactly ``m`` leaves and bounded branching.

    Every internal node receives between 2 and ``max_branching`` children.
    The same seed always produces the same tree.
    """
    if m < 2:
        raise ParameterOutOfRange(f"need at least 2 leaves, got {m}")
    if max_branching < 2:
        raise ParameterOutOfRange(f"need max_branching >= 2, got {max_branching}")
    rng = np.random.default_rng(seed)
    edges = [(1, 0)]
    next_id = 2
    work = [(1, m)]  # (node id, leaves to place under it), first in, first out
    for v, quota in work:  # the walk also visits the entries appended below
        k = int(rng.integers(2, min(max_branching, quota) + 1))
        # k - 1 distinct cut points in 1..quota-1; seeded trees depend on this exact draw
        cuts = sorted((rng.choice(quota - 1, size=k - 1, replace=False) + 1).tolist())
        for lo, hi in zip([0] + cuts, cuts + [quota]):
            edges.append((next_id, v))
            if hi - lo > 1:
                work.append((next_id, hi - lo))
            next_id += 1
    return build_tree(edges, root=0)


def save_topology(tree: LogicalTree, path) -> None:
    """Write a topology file using canonical labels.

    Format: ``root <id>`` then one ``<child> <parent>`` line per link in
    top-down order; the original-id alias map follows as comments.
    """
    lines = [f"root {ROOT}"]
    stack = [ROOT]
    while stack:
        v = stack.pop()
        for c in tree.children[v]:
            lines.append(f"{c} {v}")
        stack.extend(reversed(tree.children[v]))
    for v in range(1, tree.n + 1):
        lines.append(f"# alias {v} {tree.alias[v]}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_topology(path) -> LogicalTree:
    """Read a topology file (``root <id>`` header, ``<child> <parent>`` lines)."""
    root = None
    tokens = []  # child and parent tokens of every edge line, in order
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            words = raw.split("#", 1)[0].split()
            if len(words) == 2 and words[0] != "root":
                tokens += words
            elif len(words) == 2:
                root = _node_id(words[1])
            elif words:
                line = raw.split("#", 1)[0].strip()
                raise MalformedLine(f"line {lineno}: expected two tokens, got {line!r}")
    if root is None:
        raise DisconnectedInput("topology file has no 'root <id>' line")
    node = {t: _node_id(t) for t in set(tokens)}
    ids = map(node.__getitem__, tokens)
    return build_tree(zip(ids, ids), root=root)  # consecutive ids pair up


def _node_id(token: str):
    """A decimal integer token becomes an int; any other token stays a string."""
    return int(token) if token.removeprefix("-").isdecimal() else token


def tree_from_spec(spec: str) -> LogicalTree:
    """Resolve a tree argument: a topology file path or a generator shorthand.

    Shorthands: ``ternary:<links>``, ``regular:<branching>:<height>``,
    ``random:<leaves>:<max_branching>:<seed>``.  Anything else is treated
    as a topology file path (explicit files always win over shorthands).
    """
    if os.path.exists(spec):
        return load_topology(spec)
    parts = spec.split(":")
    try:
        if parts[0] == "ternary" and len(parts) == 2:
            return gen_ternary_tree(int(parts[1]))
        if parts[0] == "regular" and len(parts) == 3:
            return gen_regular_tree(int(parts[1]), int(parts[2]))
        if parts[0] == "random" and len(parts) == 4:
            return gen_random_tree(int(parts[1]), int(parts[2]), int(parts[3]))
    except ValueError as exc:
        raise ParameterOutOfRange(f"bad tree spec {spec!r}: {exc}") from exc
    raise ParameterOutOfRange(
        f"tree spec {spec!r} is neither a file nor a known shorthand"
    )
