"""Tree construction, labeling, generators, matrices, and the file format."""

import hashlib
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losstree import (
    build_tree,
    forward,
    gen_random_tree,
    gen_regular_tree,
    gen_ternary_tree,
    load_topology,
    save_topology,
    topology,
    tree_from_spec,
)
from losstree.errors import (
    CycleDetected,
    DegreeViolation,
    DisconnectedInput,
    LossTreeError,
    MalformedLine,
    ParameterOutOfRange,
)

from conftest import caterpillar, caterpillar_edges, random_small_trees
from topology_reference import EDGE_FAULTS, inject_edge_fault, on_both_paths, same_tree
from topology_reference import build_tree as loop_build_tree
from topology_reference import gen_regular_tree as walk_gen_regular_tree
from topology_reference import load_topology as loop_load_topology

CATERPILLAR = Path(__file__).parent / "data" / "caterpillar40.tree"


class TestBuildTree:
    def test_three_leaf_tree(self, fig_tree):
        assert fig_tree.m == 3
        assert fig_tree.n == 5
        assert list(fig_tree.leaves) == [1, 2, 3]
        assert list(fig_tree.internal) == [4, 5]
        assert fig_tree.height == 3

    def test_canonical_relabeling_is_input_order_independent_of_ids(self):
        # Same shape with scrambled original ids must give the same labels.
        tree = build_tree(
            [("a", "r"), ("b", "a"), ("c", "a"), ("d", "b"), ("e", "b")], root="r"
        )
        assert tree.m == 3
        assert tree.alias[4] == "a"  # first internal in preorder
        assert tree.alias[5] == "b"
        assert tree.alias[1] == "d"  # leftmost leaf
        assert tree.alias[3] == "c"

    def test_smallest_legal_tree(self):
        tree = build_tree([("a", "O"), ("b", "a"), ("c", "a")], root="O")
        assert tree.m == 2
        assert tree.n == 3
        assert tree.alias[1] == "b"
        assert tree.alias[2] == "c"
        assert tree.alias[3] == "a"

    def test_unary_internal_node_rejected(self):
        with pytest.raises(DegreeViolation):
            build_tree([(1, 0), (2, 1), (3, 2), (4, 2)], root=0)

    def test_multi_child_root_rejected(self):
        with pytest.raises(DegreeViolation):
            build_tree([(1, 0), (2, 0), (3, 1), (4, 1)], root=0)

    def test_single_link_tree_rejected(self):
        with pytest.raises(DegreeViolation):
            build_tree([(1, 0)], root=0)

    def test_cycle_rejected(self):
        with pytest.raises(CycleDetected):
            build_tree([(1, 0), (2, 1), (3, 1), (4, 5), (5, 4)], root=0)

    def test_two_parents_rejected(self):
        with pytest.raises(DisconnectedInput):
            build_tree([(1, 0), (2, 1), (3, 2), (2, 3)], root=0)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedInput):
            build_tree([(1, 0), (2, 1), (3, 1), (5, 4)], root=0)

    def test_root_as_child_rejected(self):
        with pytest.raises(CycleDetected):
            build_tree([(1, 0), (0, 1), (2, 1)], root=0)

    def test_deep_spine_listed_deepest_first_builds_in_linear_time(self):
        # Walking up from every node on its own costs spine**2 steps here.
        spine = 20_000
        blocks = [[(f"l{k}", f"s{k}"), (f"s{k + 1}", f"s{k}")] for k in range(1, spine)]
        blocks.append([(f"l{spine}", f"s{spine}"), (f"l{spine + 1}", f"s{spine}")])
        top_down = [("s1", "r")] + [e for block in blocks for e in block]
        deepest_first = [e for block in blocks[::-1] for e in block] + [("s1", "r")]
        start = time.perf_counter()
        tree = build_tree(deepest_first, root="r")
        elapsed = time.perf_counter() - start
        expected = build_tree(top_down, root="r")
        assert (tree.n, tree.m, tree.height) == (2 * spine + 1, spine + 1, spine + 1)
        assert np.array_equal(tree.parent, expected.parent)
        assert np.array_equal(tree.depth, expected.depth)
        assert tree.children == expected.children
        assert tree.alias == expected.alias
        assert elapsed < 1.0


class TestPreorderLabels:
    """Every label-order pass relies on fathers coming before their children."""

    TREES = random_small_trees(10, seed=12) + [
        gen_ternary_tree(13),
        gen_random_tree(500, 3, seed=1),
        load_topology(CATERPILLAR),
    ]

    def test_fathers_precede_internal_nodes_and_leaves_hang_from_internal_ones(self):
        for tree in self.TREES:
            internal = np.arange(tree.m + 1, tree.n + 1)
            assert np.all(tree.parent[internal] < internal)
            assert np.all(tree.parent[1 : tree.m + 1] > tree.m)

    def test_depth_counts_the_links_up_to_the_root(self):
        for tree in self.TREES:
            for v in range(tree.n + 1):
                links, u = 0, v
                while u != 0:
                    links, u = links + 1, int(tree.parent[u])
                assert tree.depth[v] == links


@pytest.mark.parametrize("spec, digest", [
    ("random:300:4:7", "4f37dceaabf5ef96394aa2e708641bd49cfd5f324d03fc70d37726c2b38f4287"),
    ("regular:3:5", "a36ac72a2dd25ea7934b7180a1e39d4812a4fdef4d83d8945682e4214b204809"),
])
def test_generated_topology_files_keep_their_bytes(tmp_path, spec, digest):
    """Generators keep their edge order, so the same trees and files come out."""
    path = tmp_path / "t.tree"
    save_topology(tree_from_spec(spec), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestNodeLabels:
    def test_only_whole_internal_labels_are_internal(self, fig_tree):
        assert [v for v in range(-1, 7) if fig_tree.is_internal(v)] == [4, 5]
        assert fig_tree.is_internal(np.int64(4))
        for v in (4.0, 4.5, True, "4", None):
            assert not fig_tree.is_internal(v)

    def test_subtree_leaves_of_every_label(self, fig_tree):
        assert [fig_tree.subtree_leaves(v) for v in range(6)] == [
            range(1, 4), range(1, 2), range(2, 3), range(3, 4), range(1, 4), range(1, 3)
        ]
        assert fig_tree.subtree_leaves(np.int64(5)) == range(1, 3)

    @pytest.mark.parametrize("v", [-1, 6, 2.0, 2.5, True, "2"])
    def test_subtree_leaves_rejects_non_labels(self, fig_tree, v):
        with pytest.raises(ParameterOutOfRange, match="is not a label in 0..5"):
            fig_tree.subtree_leaves(v)


class TestMeasurementMatrix:
    def test_three_leaf_matrix_golden(self, fig_tree):
        a = forward(fig_tree, np.eye(fig_tree.n)).T
        expected = np.array(
            [[1, 0, 0, 1, 1], [0, 1, 0, 1, 1], [0, 0, 1, 1, 0]]
        )
        assert np.array_equal(a, expected)

    def test_two_leaf_matrix(self):
        tree = build_tree([(3, 0), (1, 3), (2, 3)], root=0)
        a = forward(tree, np.eye(tree.n)).T
        assert np.array_equal(a, [[1, 0, 1], [0, 1, 1]])

    def test_identity_left_block(self):
        for tree in random_small_trees(20, seed=7):
            a = forward(tree, np.eye(tree.n)).T
            assert np.array_equal(a[:, : tree.m], np.eye(tree.m, dtype=np.int64))

    def test_full_rank(self):
        for tree in random_small_trees(10, seed=8):
            a = forward(tree, np.eye(tree.n)).T
            assert np.linalg.matrix_rank(a) == tree.m

    def test_ternary_rows_and_column_sums(self):
        # Recompute every row by an independent path walk from the leaf up.
        tree = gen_regular_tree(3, 3)
        assert (tree.m, tree.n) == (9, 13)
        a = forward(tree, np.eye(tree.n)).T
        assert np.all(a.sum(axis=1) == 3)
        for j in tree.leaves:
            walked = np.zeros(tree.n, dtype=np.int64)
            v = j
            while v != 0:
                walked[v - 1] = 1
                v = int(tree.parent[v])
            assert np.array_equal(a[j - 1], walked)
        for k in tree.internal:
            lo, hi = tree.leaf_span[k]
            assert a[:, k - 1].sum() == hi - lo

    def test_father_map_recoverable_from_columns(self):
        # Column containment determines ancestry; the tightest superset is
        # the father.  Round-trips the structure through the matrix alone.
        for tree in random_small_trees(10, seed=9):
            a = forward(tree, np.eye(tree.n)).T
            paths = [set(np.flatnonzero(a[:, k])) for k in range(tree.n)]
            for k in range(tree.n):
                ancestors = [
                    i
                    for i in range(tree.n)
                    if i != k and paths[k] <= paths[i]
                ]
                if not ancestors:
                    assert tree.parent[k + 1] == 0
                else:
                    father = min(ancestors, key=lambda i: len(paths[i]))
                    assert tree.parent[k + 1] == father + 1


class TestGenerators:
    def test_regular_counts(self):
        for c, h, n, m in [(3, 3, 13, 9), (3, 4, 40, 27), (2, 2, 3, 2)]:
            tree = gen_regular_tree(c, h)
            assert (tree.n, tree.m) == (n, m)

    @pytest.mark.parametrize("branching", [2, 3, 4, 5])
    @pytest.mark.parametrize("height", [2, 3, 4, 5, 6])
    def test_regular_matches_the_breadth_first_walk(self, branching, height):
        """The closed-form fathers give the walk's tree: same edges, same order, int ids."""
        walked = walk_gen_regular_tree(branching, height)
        for args in ((branching, height), (np.int64(branching), np.int64(height))):
            tree = gen_regular_tree(*args)
            assert same_tree(tree, walked)
            assert all(type(k) is int and type(v) is int for k, v in tree.alias.items())

    def test_regular_bad_params(self):
        with pytest.raises(ParameterOutOfRange):
            gen_regular_tree(1, 3)
        with pytest.raises(ParameterOutOfRange):
            gen_regular_tree(3, 1)

    def test_ternary_grown_tree(self):
        tree = gen_ternary_tree(25)
        assert tree.n == 25
        assert tree.m == 17
        for i in tree.internal:
            assert len(tree.children[i]) == 3

    def test_ternary_complete_matches_regular(self):
        assert gen_ternary_tree(13).n == gen_regular_tree(3, 3).n

    def test_ternary_bad_count(self):
        with pytest.raises(ParameterOutOfRange):
            gen_ternary_tree(14)

    def test_random_tree_structure(self):
        for seed in range(20):
            tree = gen_random_tree(m=9, max_branching=3, seed=seed)
            assert tree.m == 9
            assert tree.n >= tree.m + 1
            for i in tree.internal:
                assert 2 <= len(tree.children[i]) <= 3

    def test_random_tree_two_leaves(self):
        tree = gen_random_tree(2, 5, seed=3)
        assert (tree.n, tree.m) == (3, 2)

    def test_random_tree_deterministic(self):
        a = gen_random_tree(9, 3, seed=42)
        b = gen_random_tree(9, 3, seed=42)
        assert np.array_equal(a.parent, b.parent)
        assert a.children == b.children

    def test_random_tree_can_hit_25_links(self):
        # Seed found by scan; the minimal 17-leaf ternary size is reachable.
        tree = gen_random_tree(17, 3, seed=1999)
        assert (tree.n, tree.m) == (25, 17)

    def test_bad_params(self):
        with pytest.raises(ParameterOutOfRange):
            gen_random_tree(1, 3, seed=0)
        with pytest.raises(ParameterOutOfRange):
            gen_random_tree(5, 1, seed=0)

    @pytest.mark.parametrize("make", [
        lambda: gen_regular_tree(2.5, 3), lambda: gen_regular_tree(3, 3.0),
        lambda: gen_ternary_tree(13.0), lambda: gen_ternary_tree("13"),
        lambda: gen_random_tree(5.5, 3, 0), lambda: gen_random_tree(5, 3.0, 0),
    ], ids=["regular branching", "regular height", "ternary float", "ternary str",
            "random leaves", "random branching"])
    def test_counts_must_be_whole_numbers(self, make):
        with pytest.raises(ParameterOutOfRange, match="whole"):
            make()

    def test_numpy_integer_counts_accepted(self):
        assert gen_regular_tree(np.int64(3), np.int64(3)).n == 13
        assert gen_ternary_tree(np.int64(13)).n == 13
        assert gen_random_tree(np.int64(9), np.int64(3), 0).m == 9

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "1", None])
    def test_random_tree_seed_must_be_a_whole_number(self, seed):
        with pytest.raises(ParameterOutOfRange, match="seed must be a whole number"):
            gen_random_tree(8, 3, seed)

    def test_random_tree_takes_a_seed_sequence(self):
        a = gen_random_tree(8, 3, np.random.SeedSequence(4))
        assert a.parent.tolist() == gen_random_tree(8, 3, 4).parent.tolist()


class TestTopologyFile:
    def test_round_trip(self, tmp_path, fig_tree):
        path = tmp_path / "tree.txt"
        save_topology(fig_tree, path)
        loaded = load_topology(path)
        assert np.array_equal(loaded.parent, fig_tree.parent)
        assert loaded.children == fig_tree.children

    def test_round_trip_random(self, tmp_path):
        for i, tree in enumerate(random_small_trees(10, seed=11)):
            path = tmp_path / f"t{i}.txt"
            save_topology(tree, path)
            loaded = load_topology(path)
            assert np.array_equal(loaded.parent, tree.parent)

    def test_comments_and_aliases(self, tmp_path):
        path = tmp_path / "aliased.txt"
        path.write_text("# comment\nroot r\na r\nb a # trailing\nc a\n")
        tree = load_topology(path)
        assert tree.m == 2
        assert tree.alias[3] == "a"

    @pytest.mark.parametrize("bad_line", ["a r extra", "a", "root"])
    def test_malformed_line_names_its_number(self, tmp_path, bad_line):
        path = tmp_path / "bad.txt"
        path.write_text(f"root r\n\n{bad_line}\nb a\nc a\n")
        with pytest.raises(MalformedLine, match="line 3"):
            load_topology(path)

    def test_second_root_line_names_its_number(self, tmp_path):
        path = tmp_path / "two_roots.txt"
        path.write_text("root 0\n1 0\n2 1\n3 1\nroot 2\n")
        with pytest.raises(MalformedLine, match=r"^line 5: second 'root' line \(the first is line 1\)$"):
            load_topology(path)

    @pytest.mark.parametrize("lines, message", [
        (["root 0", "4 0", "root 4", "5 4 3"], r"^line 3: second 'root' line \(the first is line 1\)$"),
        (["root 0", "5 4 3", "4 0", "root 4"], r"^line 2: expected two tokens, got '5 4 3'$"),
        ([f"root {'9' * 4301}", "4 0", "5"], r"^line 3: expected two tokens, got '5'$"),
    ], ids=["second root first", "malformed line first", "long root id then malformed line"])
    def test_first_bad_line_wins(self, tmp_path, lines, message):
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedLine, match=message):
            load_topology(path)

    def test_comment_right_after_a_token(self, tmp_path):
        path = tmp_path / "tight.txt"
        path.write_text("root 0\n2 0\n1 2#x\n3 2\n")
        tree = load_topology(path)
        assert tree.alias == {1: 1, 2: 3, 3: 2}
        assert tree.parent.tolist() == [-1, 3, 3, 0]

    def test_header_on_any_line_with_crlf_and_byte_order_mark(self, tmp_path, fig_tree):
        path = tmp_path / "bom.txt"
        path.write_bytes("\ufeff4 0\r\n5 4\r\n# c\r\n3 4\r\nroot 0\r\n1 5\r\n2 5\r\n".encode())
        tree = load_topology(path)
        assert np.array_equal(tree.parent, fig_tree.parent)
        assert tree.children == fig_tree.children

    def test_spec_shorthands(self, tmp_path, fig_tree):
        assert tree_from_spec("ternary:13").n == 13
        assert tree_from_spec("regular:2:3").n == 7
        assert tree_from_spec("random:5:3:1").m == 5
        path = tmp_path / "f.txt"
        save_topology(fig_tree, path)
        assert tree_from_spec(str(path)).n == 5
        with pytest.raises(ParameterOutOfRange):
            tree_from_spec("nope:1")


SPACES = [" ", "\t", "  ", " \t ", "\x0b", "\x0c", "\xa0", "\u3000"]
COMMENTS = ["", "#", " # note", "#x", "\t# root 1", " # a b c"]
FILE_FAULTS = {
    "malformed line": MalformedLine,
    "second root": MalformedLine,
    "missing root": DisconnectedInput,
}


@st.composite
def topology_files(draw):
    """(text, fault): a topology file of a random tree, maybe with one fault.

    Ids are ints (negative ones too, some spelled with a leading zero) or
    strings, some with characters that ``int`` reads; lines come in shuffled
    order, with mixed whitespace, comments, blank lines and line endings.
    """
    tree = draw(st.one_of(
        st.integers(2, 12).map(caterpillar),
        st.builds(gen_random_tree, st.integers(2, 12), st.integers(2, 4), st.integers(0, 999)),
    ))
    forms = [None, "v{}", "+{}", "n_{}", "{}e"]  # None: the int v * 7 - 3
    value = [v * 7 - 3 if form is None else form.format(v)
             for v, form in enumerate(draw(st.lists(st.sampled_from(forms),
                                                    min_size=tree.n + 1, max_size=tree.n + 1)))]
    edges = [(value[v], value[tree.parent[v]]) for v in range(1, tree.n + 1)]
    fault = draw(st.none() | st.sampled_from(sorted(EDGE_FAULTS) + sorted(FILE_FAULTS)))
    if fault in EDGE_FAULTS:
        edges = inject_edge_fault(edges, value[0], fault, draw)
    pick = lambda options: draw(st.sampled_from(options))  # noqa: E731

    def spell(x):
        if isinstance(x, int) and draw(st.booleans()):
            return f"-0{-x}" if x < 0 else f"0{x}"
        return str(x)

    def line(*words):
        return pick(["", " ", "\t"]) + pick(SPACES).join(words) + pick(["", " "]) + pick(COMMENTS)

    lines = [line(spell(c), spell(p)) for c, p in draw(st.permutations(edges))]
    extra = [line("root", spell(value[0]))] if fault != "missing root" else []
    if fault == "second root":
        extra.append(line("root", spell(pick(value))))
    if fault == "malformed line":
        extra.append(line(*pick([["a"], ["a", "b", "c"], ["root"], ["root", "0", "1"]])))
    extra += [pick(["", " ", "# only a comment"]) for _ in range(draw(st.integers(0, 3)))]
    for other in extra:
        lines.insert(draw(st.integers(0, len(lines))), other)
    text = "".join(row + pick(["\n", "\r\n", "\r"]) for row in lines)
    return ("\ufeff" if draw(st.booleans()) else "") + text, fault


def loaded(load, path):
    try:
        return load(path)
    except LossTreeError as exc:
        return type(exc), str(exc)


class TestArrayLoaderMatchesLineLoop:
    """The reader on both of its paths, and build_tree, against the loops they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(case=topology_files())
    def test_same_tree_or_same_error(self, tmp_path_factory, case):
        text, fault = case
        path = tmp_path_factory.getbasetemp() / "drawn.tree"
        path.write_bytes(text.encode("utf-8"))
        expected = loaded(loop_load_topology, path)
        for got in on_both_paths(lambda: loaded(load_topology, path)):
            if fault is None:
                assert same_tree(got, expected)
            else:
                assert got == expected
                assert got[0] is {**EDGE_FAULTS, **FILE_FAULTS}[fault]

    @pytest.mark.parametrize("edges", [
        [(3, 2), (2, 1), (1, 0), (4, 3), (5, 3)],  # two one-child nodes
        [(1, 0), (2, 1), (3, 1), (4, 9), (5, 6), (6, 5)],  # an orphan, then a cycle
        [(1, 0), (2, 1), (3, 1), (5, 6), (6, 5), (4, 9)],  # a cycle, then an orphan
        [(1, 0), (2, 1), (3, 1), (2, 3), (3, 2)],  # two second fathers
        [(1, 0), (2, 1), (2, 0), (0, 2)],  # a second father, then the root as a child
        [(1, 0), (2, 0), (3, 2), (4, 3), (5, 3)],  # two root children and a one-child node
    ])
    def test_first_of_several_faults(self, edges):
        def error(build):
            with pytest.raises(LossTreeError) as info:
                build(edges, 0)
            return type(info.value), str(info.value)

        assert error(build_tree) == error(loop_build_tree)

    def test_deep_caterpillar(self):
        """Height 20 000: the tour's pointer jumping needs all of its rounds."""
        edges, root = caterpillar_edges(20_000)
        expected = loop_build_tree(edges, root)
        assert same_tree(build_tree(edges, root), expected)

    def test_wide_random_tree_round_trip(self, tmp_path):
        path = tmp_path / "wide.tree"
        save_topology(gen_random_tree(5000, 4, 0), path)
        expected = loop_load_topology(path)
        assert all(same_tree(tree, expected) for tree in on_both_paths(lambda: load_topology(path)))


SEPARATORS = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", " \t "]
# Faults of decimal files: 'root' second on its line, in place of the header, is an
# edge id; the header is missing then.
DECIMAL_FILE_FAULTS = {**FILE_FAULTS, "5 root": DisconnectedInput}


@st.composite
def decimal_topology_files(draw):
    """(text, fault, bulk, edges): a topology file whose ids are decimal, maybe with one fault.

    These are the files the bulk read is for.  Ids have 1 to 19 digits, some
    spelled with leading zeros, so ``007`` and ``7`` name one node; tokens are
    split by every ASCII separator ``str.split`` knows, lines end in LF, CRLF
    or CR.  ``bulk`` tells whether the bulk read should take the file once
    its edge count reaches ``FEW_EDGES``: it has no file fault and no id of
    more than 18 digits.  ``edges`` are the file's edge lines as id pairs.
    """
    tree = draw(st.one_of(
        st.integers(2, 80).map(caterpillar),
        st.builds(gen_random_tree, st.integers(2, 80), st.integers(2, 4), st.integers(0, 999)),
    ))
    value = draw(st.lists(st.integers(0, 10**18 - 1) | st.integers(0, 999),
                          min_size=tree.n + 3, max_size=tree.n + 3, unique=True))
    edges = [(value[v], value[tree.parent[v]]) for v in range(1, tree.n + 1)]
    fault = draw(st.none() | st.sampled_from(sorted(EDGE_FAULTS) + sorted(DECIMAL_FILE_FAULTS)))
    if fault in EDGE_FAULTS:
        fresh = {"new": value[-2], "nowhere": value[-1]}  # decimal ids for the added nodes
        edges = [(fresh.get(c, c), fresh.get(p, p))
                 for c, p in inject_edge_fault(edges, value[0], fault, draw)]
    pick = lambda options: draw(st.sampled_from(options))  # noqa: E731
    longest = 0

    def spell(x):
        nonlocal longest
        word = "0" * draw(st.integers(0, min(2, 19 - len(str(x))))) + str(x)
        longest = max(longest, len(word))
        return word

    def line(*words):
        return pick(["", " ", "\t"]) + pick(SEPARATORS).join(words) + pick(["", " "]) + pick(COMMENTS)

    lines = [line(spell(c), spell(p)) for c, p in draw(st.permutations(edges))]
    extra = [line("root", spell(value[0]))] if fault not in ("missing root", "5 root") else []
    if fault == "second root":
        extra.append(line("root", spell(pick(value))))
    if fault == "malformed line":
        extra.append(line(*pick([["5"], ["1", "2", "3"], ["root"], ["root", "0", "1"]])))
    if fault == "5 root":
        extra.append(line(spell(value[0]), "root"))
    extra += [pick(["", " ", "# only a comment", "# ü"]) for _ in range(draw(st.integers(0, 3)))]
    for other in extra:
        lines.insert(draw(st.integers(0, len(lines))), other)
    text = "".join(row + pick(["\n", "\r\n", "\r"]) for row in lines)
    bulk = fault not in DECIMAL_FILE_FAULTS and longest <= 18
    return ("\ufeff" if draw(st.booleans()) else "") + text, fault, bulk, edges


def with_build_tree_inputs(call):
    """(call(), whether each build_tree call it made got an ndarray)."""
    arrays = []

    def spy(edges, root):
        arrays.append(isinstance(edges, np.ndarray))
        return build_tree(edges, root)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(topology, "build_tree", spy)
        return call(), arrays


class TestBulkRead:
    """The bulk read of decimal-id files against the line loop it skips."""

    @settings(max_examples=300, deadline=None)
    @given(case=decimal_topology_files())
    def test_same_tree_or_same_error(self, tmp_path_factory, case):
        text, fault, bulk, edges = case
        path = tmp_path_factory.getbasetemp() / "decimal.tree"
        path.write_bytes(text.encode("utf-8"))
        expected = loaded(loop_load_topology, path)
        results, arrays = with_build_tree_inputs(
            lambda: on_both_paths(lambda: loaded(load_topology, path)) + [loaded(load_topology, path)])
        for got in results:
            if fault is None:
                assert same_tree(got, expected)
            else:
                assert got == expected
                assert got[0] is {**EDGE_FAULTS, **DECIMAL_FILE_FAULTS}[fault]
        over_gate = len(edges) >= topology.FEW_EDGES
        if bulk:  # gates: never (the line walk), 0 (the bulk read), then FEW_EDGES
            assert arrays == [False, True, over_gate]
        else:
            assert not any(arrays)

    @pytest.mark.parametrize("edit, error", [
        (lambda rows: rows, None),  # the file as written: the bulk read takes it
        (lambda rows: rows + ["5"], MalformedLine),
        (lambda rows: rows[:3] + ["5", "6"] + rows[3:], MalformedLine),  # tokens still pair up
        (lambda rows: rows + ["1 2 3"], MalformedLine),
        (lambda rows: rows + ["root 1"], MalformedLine),
        (lambda rows: rows[1:], DisconnectedInput),
        (lambda rows: ["0 root"] + rows[1:], DisconnectedInput),
        (lambda rows: _renamed(rows, "0", "-3"), None),
        (lambda rows: _renamed(rows, "1", "+5"), None),
        (lambda rows: _renamed(rows, "1", "1" + "0" * 18), None),
        (lambda rows: _renamed(rows, "1", "\u0661"), None),  # Arabic-Indic one: the int 1
        (lambda rows: rows[:2] + [rows[2].replace(" ", "\xa0")] + rows[3:], None),
    ], ids=["bulk", "one token", "two one-token lines", "three tokens", "second header",
            "missing header", "5 root", "-3", "+5", "19 digits", "non-ASCII digit",
            "non-ASCII space"])
    def test_rejected_files_take_the_line_walk(self, tmp_path, edit, error):
        tree = gen_random_tree(80, 3, 5)
        rows = ["root 0"] + [f"{v} {tree.parent[v]}" for v in range(1, tree.n + 1)]
        assert tree.n >= topology.FEW_EDGES
        path = tmp_path / "edited.tree"
        path.write_text("\n".join(edit(rows)) + "\n", encoding="utf-8")
        got, arrays = with_build_tree_inputs(lambda: loaded(load_topology, path))
        expected = loaded(loop_load_topology, path)
        if error is None:
            assert same_tree(got, expected)
            assert arrays == [edit(rows) == rows]
        else:
            assert got == expected and got[0] is error
            assert arrays == []

    def test_few_edges_on_many_lines_take_the_line_walk(self, tmp_path):
        # save_topology adds an alias comment per link: twice the lines, no more edges.
        tree = tree_from_spec("regular:2:6")
        assert tree.n < topology.FEW_EDGES <= 2 * tree.n
        path = tmp_path / "saved.tree"
        save_topology(tree, path)
        got, arrays = with_build_tree_inputs(lambda: load_topology(path))
        assert same_tree(got, loop_load_topology(path))
        assert arrays == [False]

    def test_blank_and_comment_lines_only(self, tmp_path):
        path = tmp_path / "empty.tree"
        path.write_text("\n".join(["", "# only a comment"] * topology.FEW_EDGES))
        with pytest.raises(DisconnectedInput, match=r"^topology file has no 'root <id>' line$"):
            load_topology(path)

    @pytest.mark.parametrize("tree", [gen_random_tree(200, 4, 7), caterpillar(12)],
                             ids=["wide", "small"])
    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_build_tree_on_an_int_array(self, tree, dtype):
        ids = np.random.default_rng(1).permutation(10 * (tree.n + 1))[: tree.n + 1]
        pairs = [(int(ids[v]), int(ids[tree.parent[v]])) for v in range(1, tree.n + 1)]
        expected = loop_build_tree(pairs, int(ids[0]))
        array = np.array(pairs, dtype=dtype)
        got = build_tree(array, int(ids[0]))
        assert same_tree(got, expected)
        assert all(type(name) is int for name in got.alias.values())

    def test_int_array_with_a_root_beyond_int64(self):
        # Mixed with int64 ids, a root of 2**63 would turn float and meet 2**63 - 1.
        edges = np.array([(1, 2**63 - 1), (2, 1), (3, 1)])
        with pytest.raises(DisconnectedInput, match="9223372036854775807.* has no path to the root"):
            build_tree(edges, 2**63)


class TestAlias:
    """``alias`` as read from both paths of the reader, against the reference's dict."""

    @pytest.mark.parametrize("spell, bulk", [
        (lambda v: "999999999999999999" if v == 1 else "0042" if v == 2 else str(v * 7 + 1), True),
        (lambda v: f"n{v}" if v % 3 else str(v * -7), False),
    ], ids=["decimal with 18 digits and a leading zero", "strings and negative ids"])
    def test_same_mapping_as_the_reference(self, tmp_path, spell, bulk):
        tree = gen_random_tree(80, 3, 5)
        rows = [f"root {spell(0)}"] + [f"{spell(v)} {spell(tree.parent[v])}"
                                       for v in range(1, tree.n + 1)]
        path = tmp_path / "named.tree"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        expected = loop_load_topology(path).alias
        trees, arrays = with_build_tree_inputs(lambda: on_both_paths(lambda: load_topology(path)))
        assert arrays == [False, bulk]
        for got in (tree.alias for tree in trees):
            assert got == expected and expected == got and got != {}
            assert list(got.items()) == list(expected.items())
            assert list(got) == list(range(1, tree.n + 1))
            assert repr(got) == repr(expected) and len(got) == len(expected) == tree.n
            assert list(map(type, got.values())) == list(map(type, expected.values()))
            for label in (0, tree.n + 1):
                with pytest.raises(KeyError):
                    got[label]
        assert 999999999999999999 in expected.values() or not bulk

    def test_bulk_read_builds_the_dict_on_first_read(self, tmp_path):
        tree = gen_random_tree(80, 3, 5)
        path = tmp_path / "wide.tree"
        path.write_text("\n".join(["root 0"] + [f"{v} {tree.parent[v]}" for v in range(1, tree.n + 1)]))
        got, arrays = with_build_tree_inputs(lambda: load_topology(path))
        assert arrays == [True]
        assert "_dict" not in vars(got.alias)
        assert got.alias[tree.n] == tree.n
        assert "_dict" in vars(got.alias)


def _renamed(rows, old, new):
    return [" ".join(new if word == old else word for word in row.split()) for row in rows]
