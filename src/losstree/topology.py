"""Rooted logical trees, canonical labeling, generators, and the topology file format.

A logical tree has a root with exactly one child, internal nodes with at
least two children, and leaves with none.  Each non-root node is identified
with the link from its father, so a tree with n non-root nodes has n links,
of which the m leaves carry the m measured root-to-leaf paths.

Canonical labels number the leaves 1..m left to right and the internal
nodes m+1..n in preorder starting from the root's child.  "Left to right"
means first-appearance order of each node's children in the input edge
list (generators emit children in creation order), which makes
construction deterministic.  Path j uses link v exactly when leaf j lies
in v's ``leaf_span``; ``forward(tree, np.eye(tree.n)).T`` gives the 0/1
path-by-link matrix, whose first m columns form an identity block.

``build_tree`` labels every tree by one Euler tour with pointer jumping.
``load_topology`` reads a file of at least ``FEW_EDGES`` decimal-id edges in
bulk, by array operations over its bytes, and walks any other line by line.

Trees are immutable after construction and safe to share across
concurrent tasks.
"""

import os
import re
from collections.abc import Mapping
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
    _check_seed,
    _is_int,
)

ROOT = 0  # canonical label of the root node


@dataclass(eq=False)
class LogicalTree:
    """Canonically labeled rooted tree.

    Attributes:
        n: number of links (equivalently, non-root nodes).
        m: number of leaves, which is also the number of measured paths.
        parent: parent[k] is the father of node k for k in 1..n; parent[0] = -1.
        depth: depth[k] counts links on the path from the root to node k.
        leaf_span: leaf_span[v] = (lo, hi): leaves of v's subtree are lo..hi-1.
        alias: canonical label -> original node id from the input edge list, a
            read-only mapping.  ``build_tree`` gives one that builds its dict on
            first read; it compares, iterates and prints as that dict.
    """

    n: int
    m: int
    parent: np.ndarray
    depth: np.ndarray
    leaf_span: np.ndarray
    alias: Mapping[int, object]

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

    def root_scan(self, values, op) -> np.ndarray:
        """op over each node's value and the values of all nodes above it.

        ``values`` and the result are (..., n + 1), indexed by label; column
        ROOT holds op's identity.  Pointer jumping (Wyllie's list ranking):
        after k rounds each node holds op over itself and its 2**k - 1
        nearest ancestors, so ceil(log2 height) rounds reach the root.  Each
        row of a batch equals the call on that row alone.
        """
        up = np.maximum(self.parent, ROOT)  # round k: the ancestor 2**k links up, or the root
        for _ in range((self.height - 1).bit_length()):  # height >= 2: the top link is internal
            values = op(values, values.take(up, axis=-1))
            up = up.take(up)
        return values

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
    def children(self) -> tuple[tuple[int, ...], ...]:
        """children[v] lists v's children left to right, derived from parent and leaf_span."""
        # Siblings go left to right by the first leaf under them; their labels
        # do not, since a leaf sibling is labeled before an internal one.
        kids = (np.lexsort((self.leaf_span[1:, 0], self.parent[1:])) + 1).tolist()
        ends = np.bincount(self.parent[1:], minlength=self.n + 1).cumsum().tolist()
        return tuple(tuple(kids[a:b]) for a, b in zip([0] + ends, ends))

    @cached_property
    def span_min_index(self) -> tuple[int, np.ndarray, np.ndarray]:
        """(rows, first, second): a sparse-table plan for leaf-span minima.

        Row k holds min(y[i : i + 2**k]) for i = 0..m - 2**k, rows concatenated.
        Two such windows cover the leaf span of link v from either end; their
        minima sit at flat positions first[v-1] and second[v-1].  The top link
        spans all m leaves, so the rows run to k = floor(log2 m).
        """
        lo, hi = self.leaf_span[1:].T
        k = np.frexp(hi - lo)[1].astype(np.int64) - 1  # floor(log2(length))
        half = 1 << k
        row_start = k * (self.m + 1) - half  # where row k starts, less one for the 1-based lo
        return self.m.bit_length(), row_start + lo, row_start + hi - half

    def span_min(self, y) -> np.ndarray:
        """Smallest y over every link's leaf span: (..., m) -> (..., n).

        Entry v-1 of the last axis is gamma_v = min(y[..., lo-1 : hi-1]) for
        leaf_span[v] = (lo, hi), from one sparse-table range-minimum query
        (about log2 m array operations for all links at once).
        """
        rows, first, second = self.span_min_index
        # Row k of the table, min(y[..., i : i + 2**k]) for i = 0..m - 2**k, is
        # written in place after row k - 1, so a batch costs no concatenated copy.
        # The table runs along the first axis (y.T), so every step of a batch
        # works on one contiguous block.
        y = y.T
        flat = np.empty((rows * (self.m + 1) - (1 << rows) + 1,) + y.shape[1:], y.dtype)
        flat[: self.m] = y
        start, length = 0, self.m
        for k in range(rows - 1):
            end, half = start + length, 1 << k
            np.minimum(flat[start : end - half], flat[start + half : end],
                       out=flat[end : end + length - half])
            start, length = end, length - half
        return np.minimum(flat.take(first, axis=0), flat.take(second, axis=0)).T

    def subtree_leaves(self, v: int) -> range:
        if not (_is_int(v) and ROOT <= v <= self.n):
            raise ParameterOutOfRange(f"node {v!r} is not a label in {ROOT}..{self.n}")
        lo, hi = self.leaf_span[v]
        return range(int(lo), int(hi))

    def is_internal(self, v: int) -> bool:
        return _is_int(v) and self.m < v <= self.n


def build_tree(edges, root) -> LogicalTree:
    """Build a canonically labeled tree from (child, parent) pairs.

    Child order under each node is first-appearance order in ``edges``.  An
    (E, 2) signed-integer ndarray with an int ``root`` is mapped to dense ids
    by one ``np.unique``: the tree of its rows, with Python ints as aliases.
    Every tree, of any size, is labeled by one Euler tour (Tarjan and Vishkin).
    The tree keeps the original ids and the label order; its ``alias`` dict
    is built only when something reads it.

    Raises:
        CycleDetected: the edge list contains a cycle.
        DisconnectedInput: a node is unreachable from the root.
        DegreeViolation: the root does not have exactly one child, an
            internal node has exactly one child, or the root's child is a
            leaf (which would leave no internal link).
    """
    # Dense ids 0..N-1 in first-appearance order, the root first.
    if (isinstance(edges, np.ndarray) and edges.shape[1:] == (2,) and edges.dtype.kind == "i"
            and _is_int(root) and -(2**63) <= root < 2**63):
        distinct, first, inverse = np.unique(np.append(root, edges), return_index=True,
                                             return_inverse=True)
        order = first.argsort()
        dense = np.empty_like(order)
        dense[order] = np.arange(len(order))
        flat, names = dense.take(inverse[1:]), distinct.take(order)  # child, father, ...; ids
    else:
        ids = {root: ROOT}
        flat = [ids.setdefault(v, len(ids)) for v in chain.from_iterable(edges)]
        names = list(ids)
    if not len(flat):
        raise DegreeViolation("empty edge list")
    flat = np.asarray(flat, dtype=np.int64)
    child, father = flat[0::2], flat[1::2]
    N = len(names)  # nodes, the root (dense id 0) included

    # Array checks only detect bad input; on failure the edge-order walks
    # raise, so each error keeps its message and its precedence.
    parents = np.bincount(child, minlength=N)
    if parents[ROOT] or np.count_nonzero(parents) < len(child):
        _fathers(child.tolist(), father.tolist(), _listed(names))

    # Euler tour: arc 2v enters node v and arc 2v+1 leaves it, so arc 0 starts
    # at the root and arc 1 ends the tour.  One stable sort lists every node
    # followed by its children in edge order, by the node's down arc and the
    # children's up arcs.  The tour goes from each entry to the down arc of
    # the next child, or from a group's last entry up from its node: that is
    # the next entry's arc minus one either way, since 2v + 1 = 2(v + 1) - 1.
    nodes = np.arange(N)
    entry = np.concatenate((2 * nodes, 2 * child + 1))
    entry = entry[np.concatenate((nodes, father)).argsort(kind="stable")]
    succ = np.ones(2 * N, dtype=np.int64)  # arcs no entry links (the root's up arc) end the tour
    succ[entry[:-1]] = entry[1:] - 1
    succ[entry[-1]] = 2 * N - 1
    # Pointer jumping: after k rounds each arc holds the sums over itself and
    # the 2**k - 1 arcs after it, so the rounds below give every arc its sums
    # to the end of the tour: of depth steps (+1 down, -1 up), of leaves
    # entered and of internal nodes entered.
    fanout = np.bincount(father, minlength=N)
    leaf = fanout == 0
    suffix = np.zeros((3, 2 * N), dtype=np.int64)
    suffix[0, 0::2], suffix[0, 3::2] = 1, -1
    suffix[1, 0::2] = leaf
    suffix[2, 2::2] = ~leaf[1:]
    for _ in range((2 * N - 1).bit_length()):
        suffix += suffix.take(succ, axis=1)
        succ = succ.take(succ)
    m = int(suffix[1, 0])
    if m + int(suffix[2, 0]) < N - 1:  # the tour missed a node: no father, or off a cycle
        child, names = child.tolist(), _listed(names)
        _raise_unreachable(child, _fathers(child, father.tolist(), names), names)
    _check_degrees(fanout, names)

    # Leaves are labeled in tour order, internal nodes in preorder after them.
    label = np.where(leaf, m + 1 - suffix[1, 0::2], N - suffix[2, 0::2])
    label[ROOT] = ROOT
    order = np.empty(N, dtype=np.int64)  # dense id of each label
    order[label] = nodes
    parent = np.empty(N, dtype=np.int64)
    parent[label[child]] = label[father]
    parent[ROOT] = -1
    at = suffix.reshape(3, N, 2).take(order, axis=1)  # suffix sums at each node's down and up arcs
    return LogicalTree(
        n=N - 1,
        m=m,
        parent=parent,
        depth=1 - at[0, :, 0],
        leaf_span=m + 1 - at[1],
        alias=_Alias(names, order[1:]),
    )


class _Alias(Mapping):
    """Canonical label -> original id, names[order[k - 1]] for label k; a dict built on first read."""

    def __init__(self, names, order):
        self._names, self._order = names, order

    @cached_property
    def _dict(self) -> dict:
        ids = map(_listed(self._names).__getitem__, self._order.tolist())
        return dict(zip(range(1, len(self._order) + 1), ids))

    def __getitem__(self, label):
        return self._dict[label]

    def __iter__(self):
        return iter(self._dict)

    def __len__(self) -> int:
        return len(self._order)

    def __repr__(self) -> str:
        return repr(self._dict)


def _listed(names) -> list:
    """Ids by dense id as a list, so an int id is a Python int; only errors and ``alias`` need it."""
    return names.tolist() if isinstance(names, np.ndarray) else names


def _fathers(child, father, names) -> list:
    """Father of each dense id (-1 for the root); raises for the first edge whose child has one already."""
    up = [ROOT] + [-1] * (len(names) - 1)  # so the root as a child reads as a second father
    for c, p in zip(child, father):
        if up[c] >= 0:
            if c == ROOT:
                raise CycleDetected(f"root {names[ROOT]!r} appears as a child")
            raise DisconnectedInput(f"node {names[c]!r} has two parents")
        up[c] = p
    up[ROOT] = -1
    return up


def _raise_unreachable(starts, up, names) -> None:
    """Raise for the first walk up from a child (in edge order) that meets a cycle or no father."""
    mark = [ROOT] + [-1] * (len(up) - 1)
    for start in starts:
        v = start
        while mark[v] < 0:
            mark[v] = start
            if up[v] < 0:
                raise DisconnectedInput(f"node {names[v]!r} has no path to the root")
            v = up[v]
        if mark[v] == start:
            raise CycleDetected(f"cycle through node {names[v]!r}")


def _check_degrees(fanout, names) -> None:
    """Raise unless the root has one child and every other node none or several.

    ``fanout`` is the child count of each dense id.  Every node hangs below
    the root, so the root's child is a leaf exactly when there are just two
    nodes.
    """
    if fanout[ROOT] != 1:
        raise DegreeViolation(f"root must have exactly one child, found {int(fanout[ROOT])}")
    single = (fanout[1:] == 1).argmax() + 1  # the first node with one child, if any has one
    if fanout[single] == 1:
        raise DegreeViolation(f"internal node {_listed(names)[single]!r} has exactly one child")
    if len(fanout) == 2:
        raise DegreeViolation("root's child must be internal (n >= m+1)")


def gen_regular_tree(branching: int, height: int) -> LogicalTree:
    """Complete ``branching``-ary tree of the given height under the top link.

    The result has (branching**height - 1) / (branching - 1) links and
    branching**(height-1) leaves.
    """
    if not (_is_int(branching) and _is_int(height) and branching >= 2 and height >= 2):
        raise ParameterOutOfRange(
            f"need whole numbers branching >= 2 and height >= 2, got ({branching!r}, {height!r})"
        )
    branching, height = int(branching), int(height)  # so every id is a Python int
    n = (branching**height - 1) // (branching - 1)
    # ids in breadth-first order from the top link 1, whose father the formula gives as 0
    return build_tree([(c, (c - 2) // branching + 1) for c in range(1, n + 1)], root=0)


def gen_ternary_tree(links: int) -> LogicalTree:
    """Deterministic full ternary tree with the requested link count.

    Starts from the largest complete ternary tree not exceeding ``links``
    and grows it by giving three leaf children to the lowest-labeled
    leaves, three links at a time.  Valid link counts are 4, 7, 10, ...
    (any count congruent to 1 mod 3, at least 4).
    """
    if not (_is_int(links) and links >= 4 and (links - 1) % 3 == 0):
        raise ParameterOutOfRange(
            f"a full ternary tree has 3k+1 links for a whole k >= 1, got {links!r}"
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
    if not (_is_int(m) and _is_int(max_branching) and m >= 2 and max_branching >= 2):
        raise ParameterOutOfRange(f"need whole numbers m >= 2 and max_branching >= 2, got "
                                  f"({m!r}, {max_branching!r})")
    _check_seed(seed)
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
    for v in chain([ROOT], tree.internal):  # internal labels run in preorder
        lines += [f"{c} {v}" for c in tree.children[v]]
    for v in range(1, tree.n + 1):
        lines.append(f"# alias {v} {tree.alias[v]}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_topology(path) -> LogicalTree:
    """Read a topology file (``root <id>`` header, ``<child> <parent>`` lines).

    A ``#`` starts a comment that runs to the end of its line.  The file must
    have exactly one header, on any line; a leading byte-order mark is skipped.
    Errors come in this order: the first line that is neither blank nor two
    tokens, or is a second header; a missing header; a bad root id; the first
    bad edge id in the file; then the faults that ``build_tree`` finds.

    An ASCII file (comments aside) of at least ``FEW_EDGES`` edges is read in
    bulk, by array operations over its bytes, if every line holds zero or two
    tokens, one ``root`` starts a line and every other token has 1 to 18
    digits.  Such a token's ``_node_id`` is its decimal value, below
    10**18 < 2**63, and Horner's rule over its digits builds that value
    through values no larger, so it is exact in int64; nothing rests on what
    ``int`` accepts.  Every other file is walked line by line, and only the
    walk raises format errors.
    """
    with open(path, encoding="utf-8-sig") as fh:
        text = fh.read()
    if "#" in text:
        text = _COMMENT.sub("", text)
    if text.count("\n") + 1 >= FEW_EDGES and text.isascii():  # fewer lines: fewer edges
        found = _decimal_edges(text)
        if found is not None:
            return build_tree(*found)
    header, tokens = None, []  # tokens: child and parent of every edge line, in order
    for lineno, line in enumerate(text.split("\n"), 1):
        words = line.split()
        if len(words) != 2:
            if words:
                raise MalformedLine(f"line {lineno}: expected two tokens, got {line.strip()!r}")
        elif words[0] != "root":
            tokens += words
        elif header is None:
            header, root = lineno, words[1]
        else:
            raise MalformedLine(f"line {lineno}: second 'root' line (the first is line {header})")
    if header is None:
        raise DisconnectedInput("topology file has no 'root <id>' line")
    root = _node_id(root)
    node = {t: _node_id(t) for t in dict.fromkeys(tokens)}  # in file order
    ids = map(node.__getitem__, tokens)
    return build_tree(zip(ids, ids), root=root)  # consecutive ids pair up


# load_topology walks files of fewer edges line by line: where the two cross.  On saved
# random trees (2-core Xeon, median of 40 interleaved ratios) the bulk read takes
# 1.02-1.09x the walk's time at 87-103 links, 0.93-1.05x at 111-117 and 0.93-0.97x at
# 121-141.  Every benchmark file has at most 23 or at least 1999 links.
FEW_EDGES = 120
_COMMENT = re.compile(r"#.*")
# Byte classes: 0 for the ASCII bytes that str.split() splits on (\t \n \v \f \r,
# \x1c-\x1f and space), 1 for the digits, 2 for every other byte.
_BYTE_CLASS = np.full(256, 2, dtype=np.uint8)
_BYTE_CLASS[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = 0
_BYTE_CLASS[48:58] = 1


def _decimal_edges(text: str):
    """(edges, root) of an ASCII text that ``load_topology`` reads in bulk, else None."""
    data = np.frombuffer(f" {text} ".encode("ascii"), dtype=np.uint8)
    kind = _BYTE_CLASS.take(data)
    # Token starts and ends alternate where the space class switches.
    start, end = (np.flatnonzero(np.diff(kind == 0)) + 1).reshape(-1, 2).T
    line = np.flatnonzero(data == 10).searchsorted(start)  # line of each token
    letters = np.flatnonzero(kind == 2)
    if (len(letters) != 4 or len(start) < 2 * FEW_EDGES + 2  # the header and FEW_EDGES edges
            or (np.bincount(line).take(line) != 2).any()):
        return None
    k = start.searchsorted(letters[0], side="right") - 1  # the token holding the first letter
    if k % 2 or data[start[k] : end[k]].tobytes() != b"root":  # odd: second on its line
        return None
    ids = _decimal_values(data, np.delete(start, k), np.delete(end, k))  # the root's at k
    if ids is None:
        return None
    return np.delete(ids, k).reshape(-1, 2), int(ids[k])


def _decimal_values(data, start, end):
    """The int64 values of the tokens ``data[start:end]`` of 1 to 18 digits each, else None.

    Tokens are right-aligned to the widest in a (width, count) digit matrix,
    0 outside a token, and read one digit column at a time: value = 10 * value
    + digit, at most 18 array steps.  Every value on the way is a prefix of a
    token of at most 18 digits, below 10**18 < 2**63, so int64 holds it exactly.
    """
    width = int((end - start).max())
    if width > 18:
        return None
    at = end - np.arange(width, 0, -1)[:, None]  # byte columns, the widest token's first to last
    digits = np.where(at >= start, data.take(at, mode="clip") - 48, 0)  # uint8: a non-digit exceeds 9
    if digits.max() > 9:
        return None
    values = np.zeros(len(start), dtype=np.int64)
    for digit in digits:
        values = values * 10 + digit
    return values


def _node_id(token: str):
    """A decimal integer token becomes an int; any other token stays a string."""
    if not token.removeprefix("-").isdecimal():
        return token
    try:
        return int(token)
    except ValueError:  # more digits than the interpreter converts (4300 by default)
        digits = len(token.removeprefix("-"))
        raise MalformedLine(
            f"a node id of {digits} digits is too long to read as an integer"
        ) from None


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
