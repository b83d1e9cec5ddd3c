"""The per-node loop tree builder and line-by-line topology reader, kept as references.

``build_tree`` and ``load_topology`` here are the list-and-DFS builder and
the line loop that ``losstree.topology`` replaced with array operations,
with the two rules added since: a file may hold only one ``root`` line,
and a leading byte-order mark is skipped.  The array versions must give
the same trees, and raise the same exceptions with the same messages.
``gen_regular_tree`` is the breadth-first walk that the closed form in
``losstree.topology`` replaced; it hands its edges to the package's
``build_tree``, so the two must list the same edges in the same order.
"""

from itertools import chain

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from losstree import topology
from losstree.errors import CycleDetected, DegreeViolation, DisconnectedInput, MalformedLine
from losstree.topology import ROOT, LogicalTree, _node_id


def build_tree(edges, root) -> LogicalTree:
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

    # One DFS from the root yields leaf order and internal preorder.
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
    depth = [0] * (m + 1)
    for p in parent[m + 1 :]:
        depth.append(depth[p] + 1)
    depth[1 : m + 1] = [depth[p] + 1 for p in parent[1 : m + 1]]
    children = [(m + 1,)] + [()] * m
    children += [tuple(map(label.__getitem__, kids[v])) for v in internal_order]
    # Leaf spans by a reverse sweep: descendants have larger internal labels.
    n = len(order)
    lo, hi = list(range(n + 1)), list(range(1, n + 2))
    for v in range(n, m, -1):
        lo[v], hi[v] = lo[children[v][0]], hi[children[v][-1]]
    lo[ROOT], hi[ROOT] = 1, m + 1
    tree = LogicalTree(
        n=n,
        m=m,
        parent=np.array(parent, dtype=np.int64),
        depth=np.array(depth, dtype=np.int64),
        leaf_span=np.array([lo, hi], dtype=np.int64).T.copy(),
        alias=dict(zip(range(1, n + 1), map(names.__getitem__, order))),
    )
    tree.children = tuple(children)  # the reference's own lists, not the derived property
    return tree


def _raise_unreachable(starts, father, names) -> None:
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


def load_topology(path) -> LogicalTree:
    root = header = None
    tokens = []  # child and parent tokens of every edge line, in order
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, 1):
            words = raw.split("#", 1)[0].split()
            if len(words) == 2 and words[0] != "root":
                tokens += words
            elif len(words) == 2:
                if header is not None:
                    raise MalformedLine(
                        f"line {lineno}: second 'root' line (the first is line {header})"
                    )
                root, header = _node_id(words[1]), lineno
            elif words:
                line = raw.split("#", 1)[0].strip()
                raise MalformedLine(f"line {lineno}: expected two tokens, got {line!r}")
    if root is None:
        raise DisconnectedInput("topology file has no 'root <id>' line")
    node = {t: _node_id(t) for t in set(tokens)}
    ids = map(node.__getitem__, tokens)
    return build_tree(zip(ids, ids), root=root)


def gen_regular_tree(branching: int, height: int) -> LogicalTree:
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
    return topology.build_tree(edges, root=0)


def on_both_paths(call) -> list:
    """[call() with every topology file walked line by line, call() with the bulk read where it can]."""
    results = []
    for few_edges in (2**62, 0):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(topology, "FEW_EDGES", few_edges)
            results.append(call())
    return results


def same_tree(a, b) -> bool:
    return (
        (a.n, a.m) == (b.n, b.m)
        and a.parent.dtype == b.parent.dtype == a.depth.dtype == b.depth.dtype
        and a.leaf_span.dtype == b.leaf_span.dtype
        and np.array_equal(a.parent, b.parent)
        and a.children == b.children
        and np.array_equal(a.depth, b.depth)
        and np.array_equal(a.leaf_span, b.leaf_span)
        and list(a.alias.items()) == list(b.alias.items())
    )


# Single faults of a valid edge list, and the error each must raise.
EDGE_FAULTS = {
    "cycle": CycleDetected,
    "second parent": DisconnectedInput,
    "orphan": DisconnectedInput,
    "one child": DegreeViolation,
    "two root children": DegreeViolation,
    "leaf under root": DegreeViolation,
}


def inject_edge_fault(edges, root, fault, draw):
    """``edges`` of a valid tree with one fault of ``EDGE_FAULTS`` added; ``draw`` picks where."""
    father = dict(edges)
    kids = {}
    for c, p in edges:
        kids.setdefault(p, []).append(c)
    top = kids[root][0]
    internal = [v for v in kids if v not in (root, top)]
    leaves = [v for v in father if v not in kids]
    if fault == "cycle":
        assume(internal)
        # Hang a node below one of its own descendants.
        u = draw(st.sampled_from(internal))
        d = u
        while d in kids:
            d = kids[d][0]
        return [(c, d if c == u else p) for c, p in edges]
    if fault == "second parent":
        c, _ = draw(st.sampled_from(edges))
        return edges + [(c, draw(st.sampled_from([v for v in kids if v != c])))]
    if fault == "orphan":
        return edges + [("new", "nowhere")]
    if fault == "one child":
        return edges + [("new", draw(st.sampled_from(leaves)))]
    if fault == "two root children":
        return edges + [("new", root)]
    assert fault == "leaf under root"
    return [(draw(st.sampled_from(leaves)), root)]
