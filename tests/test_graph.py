from __future__ import annotations

import itertools
import os
import pickle
import random
import subprocess
import sys

import pytest

import oracles
import splitclust.graph as graph_module
from conftest import graphs_on, oracle_form
from splitclust.graph import (
    DuplicateVertex,
    ForeignNeighbor,
    Graph,
    GraphEditor,
    GraphError,
    NeighborhoodNotCovered,
    Split,
    UnknownVertex,
    VertexId,
    apply_split,
    component_masks,
    critical_clique_graph,
    induced_p3_indices,
    is_cluster_graph,
)


def neighbors(g: Graph, v) -> tuple[VertexId, ...]:
    return g.vertices_of_mask(g.rows[g.index(v)])


# ---------------------------------------------------------------- identifiers


def test_vertex_id_parse_and_render():
    v = VertexId.parse("c.0.1")
    assert v.root == "c" and v == VertexId("c", (0, 1))
    assert str(v) == "c.0.1"
    assert VertexId.parse(v) is v
    assert str(VertexId.parse("x")) == "x"


@pytest.mark.parametrize("bad", ["", "a b", "a.2", "a.", ".0", "a.0.x"])
def test_vertex_id_rejects_malformed(bad):
    with pytest.raises(GraphError):
        VertexId.parse(bad)


def test_vertex_id_child_and_ancestry():
    v = VertexId.parse("b")
    left, right = v.child(0), v.child(1)
    assert str(left) == "b.0" and str(right) == "b.1"


def test_vertex_id_order_numeric_roots_first():
    names = ["b", "a.1", "10", "2", "a", "a.0", "2.1"]
    ordered = sorted(VertexId.parse(t) for t in names)
    assert [str(v) for v in ordered] == ["2", "2.1", "10", "a", "a.0", "a.1", "b"]


def test_vertex_id_is_its_own_sort_key():
    assert VertexId.parse("07") == (0, 7, "07", ())
    assert VertexId.parse("c.0.1") == (1, 0, "c", (0, 1))
    assert repr(VertexId.parse("c.0.1")) == "VertexId('c.0.1')"
    # equal numbers tie-break on the root string; "²" is a digit int() cannot read
    ordered = sorted(VertexId.parse(t) for t in ["b", "²", "01", "1"])
    assert [str(v) for v in ordered] == ["01", "1", "b", "²"]


def test_vertex_id_pickle_round_trip():
    """A pickled name comes back equal, with the same hash."""
    for token in ["c", "c.0.1", "07", "7", "7.0", "x.1.0"]:
        v = VertexId.parse(token)
        copy = pickle.loads(pickle.dumps(v))
        assert copy == v and hash(copy) == hash(v)
        assert type(copy) is VertexId and str(copy) == token


def test_pickled_vertex_ids_hash_anew_in_another_process():
    """String hashes are salted per process, so a pickled hash would be stale."""
    names = pickle.dumps({VertexId.parse(t) for t in ["c", "c.0.1", "07"]})
    code = (
        "import pickle, sys; from splitclust.graph import VertexId; "
        "names = pickle.loads(sys.stdin.buffer.read()); "
        "print(VertexId.parse('c.0.1') in names and VertexId('c') in names)"
    )
    env = {**os.environ, "PYTHONHASHSEED": "12345"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    out = subprocess.run(
        [sys.executable, "-c", code], input=names, capture_output=True, env=env,
        timeout=60, check=True,
    )
    assert out.stdout.strip() == b"True"


def test_vertex_id_branches_are_checked_ints():
    """An iterator of branches is stored, not used up by the check; a bool or
    a float equals 1 or 0 but prints as another name, so it is refused."""
    v = VertexId("a", iter([0, 1]))
    assert v == VertexId.parse("a.0.1") and str(v) == "a.0.1"
    assert VertexId("a", [1]) == VertexId("a", (1,))
    for bad in [(0.0,), (True,), (0, False), (1.0, 0)]:
        with pytest.raises(GraphError) as info:
            VertexId("a", bad)
        assert (type(info.value), str(info.value)) == (
            GraphError, f"branch components must be 0 or 1: {bad!r}"
        )
    with pytest.raises(GraphError, match=r"must be 0 or 1: \(0, True\)"):
        VertexId("a", (0,)).child(True)


WHITESPACE = [chr(c) for c in range(0x110000) if chr(c).isspace()]
LONG_DIGITS = "1" * 5000  # past the default integer string limit of 4,300


def _name_outcome(call):
    """The name a call builds, as a repr that tells 1 from True and 0.0, or
    the type and message of the GraphError it raises."""
    try:
        v = call()
    except GraphError as exc:
        return type(exc), str(exc)
    assert type(v) is VertexId and VertexId.parse(str(v)) == v
    return repr(tuple(v))


def _oracle_outcome(call):
    try:
        return repr(call())
    except oracles.NameRejected as exc:
        return GraphError, str(exc)


def test_vertex_names_match_their_definition():
    assert len(WHITESPACE) == 29
    roots = [
        *WHITESPACE, *(f"a{c}b" for c in WHITESPACE), *(f"{c}7" for c in WHITESPACE),
        "", ".", "a.b", "a.", ".0", "a..0",
        "a", "c", "07", "7", "٣", "٣٠", "²", "1²", "x٣",
        LONG_DIGITS, "٣" * 5000, LONG_DIGITS + "x",
    ]
    branch_lists = [(), (0,), (1,), (0, 1), (2,), (-1,), (True,), (0.0,), (1, 2), [0, 1]]
    checked = 0
    for root in roots:
        for branches in branch_lists:
            got = _name_outcome(lambda: VertexId(root, branches))
            want = _oracle_outcome(lambda: oracles.vertex_name(root, branches))
            assert got == want, (root, branches)
            checked += 1
        for token in {root, root + ".0", root + ".1.0", root + ".2", root + "."}:
            got = _name_outcome(lambda: VertexId.parse(token))
            want = _oracle_outcome(lambda: oracles.parse_vertex_name(token))
            assert got == want, token
            checked += 1
    assert checked > 1000


# ---------------------------------------------------------------- construction


def test_build_sorts_and_indexes():
    g = Graph.build(["c", "a", "b"], [("c", "a")])
    assert [str(v) for v in g.vertices] == ["a", "b", "c"]
    assert g.n == 3 and g.edge_count == 1
    assert g.rows == (0b100, 0, 0b001)
    assert [str(v) for v in neighbors(g, "a")] == ["c"]


def test_build_rejections():
    with pytest.raises(DuplicateVertex):
        Graph.build(["a", "a"])
    with pytest.raises(UnknownVertex):
        Graph.build(["a"], [("a", "b")])
    with pytest.raises(GraphError):
        Graph.build(["a"], [("a", "a")])


BUILD_NAMES = ["c", "c.0", "c.0.1", "c.1", "07", "7", "7.0", "10", "2", "a", "x.1.0", "b"]


def _build_outcome(build, vertices, edges):
    try:
        return build(vertices, edges)
    except GraphError as exc:
        return type(exc), str(exc)


def _as_given(rng, name):
    """`name` as a str or as a VertexId, at random."""
    return VertexId.parse(name) if rng.random() < 0.5 else name


def test_build_equals_the_name_by_name_reference():
    """Graph.build resolves each declared token once; the reference parses
    every token it meets.  Inputs mix str and VertexId tokens, and every
    fifth run plants faults, so the two must also fail alike."""
    def reference(vertices, edges):
        return oracles.build_by_name(graph_module, vertices, edges)

    faults = ["z", "c.0.0", "c.2", "a b", "", "a..0", "c."]
    rng = random.Random(14)
    failures = 0
    for run in range(600):
        names = rng.sample(BUILD_NAMES, rng.randint(0, len(BUILD_NAMES)))
        pairs = [p for p in itertools.combinations(names, 2) if rng.random() < 0.4]
        pairs += [(b, a) for a, b in pairs if rng.random() < 0.1]  # repeated edges
        rng.shuffle(pairs)
        if run % 5 == 4:
            if names and rng.random() < 0.3:
                names.append(rng.choice(names))
            for _ in range(rng.randint(1, 3)):
                a = rng.choice(names + faults)
                b = rng.choice(names + faults) if rng.random() < 0.7 else a
                pairs.insert(rng.randint(0, len(pairs)), (a, b))
        declared = [_as_given(rng, v) for v in names]
        edges = [
            tuple(_as_given(rng, t) if t in names else t for t in pair) for pair in pairs
        ]
        edges = [(a, b) if rng.random() < 0.5 else (b, a) for a, b in edges]
        got = _build_outcome(lambda vs, es: Graph.build((v for v in vs), es), declared, edges)
        want = _build_outcome(reference, declared, edges)
        assert got == want, (declared, edges)
        failures += isinstance(want, tuple)
    assert 40 < failures < 120

    cases = [
        (["a", VertexId("a")], [], DuplicateVertex, "duplicate vertex a"),
        (["c.0.1", "b", "c.0.1"], [], DuplicateVertex, "duplicate vertex c.0.1"),
        (["a", "b"], [("z", "a")], UnknownVertex, "edge endpoint z is not a declared vertex"),
        (["a", "b"], [("a", "c.1")], UnknownVertex,
         "edge endpoint c.1 is not a declared vertex"),
        (["a", "b"], [("a", VertexId("b", (0,)))], UnknownVertex,
         "edge endpoint b.0 is not a declared vertex"),
        (["a", "b"], [("a", "b.2")], GraphError,
         "branch components after dots must be 0 or 1: 'b.2'"),
        (["a", "b"], [("a b", "a")], GraphError, "bad vertex root token: 'a b'"),
        (["a", "b"], [("b", VertexId("b"))], GraphError, "self-loop at b"),
        # two faults in one edge: both tokens parse before either is looked up
        (["a", "b"], [("z", "b.x")], GraphError,
         "branch components after dots must be 0 or 1: 'b.x'"),
        (["a", "b"], [("z", "y")], UnknownVertex, "edge endpoint z is not a declared vertex"),
        (["a", "b"], [("z", "z")], UnknownVertex, "edge endpoint z is not a declared vertex"),
        (["a", "b"], [("a", "b"), ("b", "b"), ("a", "z")], GraphError, "self-loop at b"),
    ]
    for vertices, edges, kind, message in cases:
        want = (kind, message)
        assert _build_outcome(Graph.build, vertices, edges) == want
        assert _build_outcome(reference, vertices, edges) == want
    g = Graph.build(["b", VertexId("a")], [(VertexId("b"), "a")])
    assert g == Graph((VertexId("a"), VertexId("b")), (0b10, 0b01))


def test_build_merges_repeated_edges():
    g = Graph.build("ab", [("a", "b"), ("b", "a")])
    assert g.edge_count == 1


def test_edges_iterate_in_pair_order():
    g = Graph.build("abc", [("b", "c"), ("a", "c")])
    assert [(str(u), str(w)) for u, w in g.edges()] == [("a", "c"), ("b", "c")]


def test_without_vertices():
    g = Graph.build("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    sub = g.without_vertices(["a"])
    assert [str(v) for v in sub.vertices] == ["b", "c", "d"]
    assert sub.edge_count == 2
    with pytest.raises(UnknownVertex):
        g.without_vertices(["z"])


def test_mask_of_names_the_least_unknown_member():
    """mask_of reads the whole family before it raises, so the unknown name
    it reports does not depend on the family's order."""
    g = Graph.build("abc", [("a", "b")])
    calls = [
        lambda: g.mask_of(["z", "y"]),
        lambda: g.mask_of(["y", "z"]),
        lambda: g.mask_of(["z", "a", VertexId("y")]),
        lambda: g.without_vertices(iter(["y", "z"])),
    ]
    for call in calls:
        with pytest.raises(UnknownVertex) as info:
            call()
        assert str(info.value) == "unknown vertex y"
    # a malformed name is refused as it is read, before any unknown one
    with pytest.raises(GraphError) as info:
        g.mask_of(["z", "a.2"])
    assert type(info.value) is GraphError
    # a frozenset iterates in string-hash order, which PYTHONHASHSEED moves;
    # on each CPython from 3.10 to 3.13 these seeds read it in both orders
    code = (
        "from splitclust.graph import Graph, UnknownVertex; "
        "g = Graph.build('abc', [('a', 'b')]); s = frozenset({'y', 'z'}); "
        "print(''.join(s))\n"
        "try: g.mask_of(s)\n"
        "except UnknownVertex as exc: print(exc)"
    )
    orders = set()
    for seed in ["1", "2", "3"]:
        env = {**os.environ, "PYTHONHASHSEED": seed}
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, env=env, text=True,
            timeout=60, check=True,
        )
        order, message = out.stdout.splitlines()
        orders.add(order)
        assert message == "unknown vertex y"
    assert orders == {"yz", "zy"}


def flipped(g: Graph, method: str, u: str, w: str) -> Graph:
    """g after one edge flip on a GraphEditor."""
    edit = GraphEditor(g)
    getattr(edit, method)(u, w)
    return edit.graph()


def test_add_and_delete_edge():
    g = Graph.build("abc", [("a", "b")])
    assert flipped(g, "add_edge", "b", "c").edge_count == 2
    assert flipped(g, "delete_edge", "a", "b").edge_count == 0
    with pytest.raises(GraphError):
        flipped(g, "add_edge", "a", "b")
    with pytest.raises(GraphError):
        flipped(g, "delete_edge", "b", "c")


def test_component_masks_match_bruteforce_up_to_n4():
    for n in range(5):
        for g in graphs_on(n):
            names, edges = oracle_form(g)
            got = {
                frozenset(str(v) for v in g.vertices_of_mask(m))
                for m in component_masks(g.rows)
            }
            assert got == set(oracles.components(names, edges))
            assert g.component_masks() == component_masks(g.rows)


def test_component_masks_order_and_cover():
    g = Graph.build("abcde", [("b", "c"), ("d", "e")])
    comps = g.component_masks()
    assert len(comps) == 3
    joined = 0
    for m in comps:
        assert joined & m == 0
        joined |= m
    assert joined == (1 << g.n) - 1
    # ordered by smallest member: {a}, {b,c}, {d,e}
    assert [tuple(map(str, g.vertices_of_mask(m))) for m in comps] == [
        ("a",),
        ("b", "c"),
        ("d", "e"),
    ]


def test_isolated_vertices():
    g = Graph.build("abc", [("a", "b")])
    assert [str(v) for v in g.isolated_vertices()] == ["c"]
    core = g.without_vertices(g.isolated_vertices())
    assert core == Graph.build("ab", [("a", "b")])
    assert core.isolated_vertices() == ()


# ---------------------------------------------------------------- splitting


def split_variants(g: Graph, v: str):
    """All splits of v: each bipartition side may also duplicate neighbors."""
    nbrs = [str(u) for u in neighbors(g, v)]
    for amask in range(1 << len(nbrs)):
        side_a = {nbrs[i] for i in range(len(nbrs)) if amask >> i & 1}
        side_b = set(nbrs) - side_a
        yield Split.of(v, side_a, side_b)
        if side_a and side_b:
            yield Split.of(v, side_a | side_b, side_b)


def test_split_then_contract_restores_graph():
    base = Graph.build("abcd", [("a", "b"), ("b", "c"), ("b", "d"), ("c", "d")])
    for v in "abcd":
        for split in split_variants(base, v):
            after = apply_split(base, split)
            assert after.n == base.n + 1
            a, b = VertexId.parse(v).child(0), VertexId.parse(v).child(1)
            assert a in after.vertices and b in after.vertices
            assert not after.rows[after.index(a)] >> after.index(b) & 1
            # contracting the copies back onto v restores the graph
            rest = [u for u in after.vertices if u not in (a, b)]
            joined = set(neighbors(after, a)) | set(neighbors(after, b))
            restored = Graph.build(
                [*rest, v],
                [e for e in after.edges() if a not in e and b not in e]
                + [(v, u) for u in joined],
            )
            assert restored == base


def test_split_neighborhoods_union_exactly():
    g = Graph.build("abc", [("a", "b"), ("b", "c")])
    after = apply_split(g, Split.of("b", ["a"], ["c"]))
    assert [str(u) for u in neighbors(after, "b.0")] == ["a"]
    assert [str(u) for u in neighbors(after, "b.1")] == ["c"]


def test_split_validation_errors():
    g = Graph.build("abc", [("a", "b"), ("b", "c")])
    with pytest.raises(UnknownVertex):
        apply_split(g, Split.of("z", [], []))
    with pytest.raises(ForeignNeighbor):
        apply_split(g, Split.of("b", ["a"], ["b"]))
    with pytest.raises(NeighborhoodNotCovered):
        apply_split(g, Split.of("b", ["a"], []))
    # copy names already taken
    g2 = Graph.build(["a", "a.0"], [("a", "a.0")])
    with pytest.raises(DuplicateVertex):
        apply_split(g2, Split.of("a", ["a.0"], ["a.0"]))


# ---------------------------------------------------------------- edits


# Hierarchical and numeric names: "07" and "7" are distinct roots with equal
# numeric value, and every ".0"/".1" name sorts right after its parent.
EDIT_NAMES = ["c", "c.0.1", "c.1", "07", "7", "7.0", "10", "2", "a", "x.1.0"]


def test_edits_equal_build_of_the_edited_lists():
    """Every edit remaps rows; Graph.build on the edited lists is the reference."""
    rng = random.Random(2024)
    for _ in range(300):
        names = rng.sample(EDIT_NAMES, rng.randint(2, len(EDIT_NAMES)))
        edges = [p for p in itertools.combinations(names, 2) if rng.random() < 0.5]
        g = Graph.build(names, edges)

        u, w = rng.sample(names, 2)
        rest = [e for e in edges if set(e) != {u, w}]
        if g.rows[g.index(u)] >> g.index(w) & 1:
            assert flipped(g, "delete_edge", u, w) == Graph.build(names, rest)
        else:
            assert flipped(g, "add_edge", u, w) == Graph.build(names, rest + [(u, w)])

        keep = rng.sample(names, rng.randint(0, len(names)))
        inside = Graph.build(keep, [e for e in edges if set(e) <= set(keep)])
        assert g.without_vertices(set(names) - set(keep)) == inside

        free = [v for v in names if f"{v}.0" not in names and f"{v}.1" not in names]
        t = rng.choice(free)
        nbrs = [str(x) for x in neighbors(g, t)]
        side_a = [x for x in nbrs if rng.random() < 0.5]
        side_b = [x for x in nbrs if x not in side_a or rng.random() < 0.3]
        others = [v for v in names if v != t]
        split = apply_split(g, Split.of(t, side_a, side_b))
        assert split == Graph.build(
            [*others, f"{t}.0", f"{t}.1"],
            [e for e in edges if t not in e]
            + [(f"{t}.0", x) for x in side_a]
            + [(f"{t}.1", x) for x in side_b],
        )


def test_edit_errors_name_the_offending_vertex():
    g = Graph.build(["c", "c.1", "c.0.1", "07", "7"], [("c", "07"), ("07", "7")])
    cases = [
        (lambda: GraphEditor(g).add_edge("c", "c"), GraphError, "self-loop at c"),
        (lambda: GraphEditor(g).add_edge("07", "c"), GraphError,
         "edge 07 c already present"),
        (lambda: GraphEditor(g).add_edge("c", "z"), UnknownVertex, "unknown vertex z"),
        (lambda: GraphEditor(g).delete_edge("c", "7"), GraphError,
         "edge c 7 not present"),
        (lambda: g.without_vertices(["7", "z", "y"]), UnknownVertex,
         "unknown vertex y"),
        (lambda: g.without_vertices(["7", "c.0"]), UnknownVertex,
         "unknown vertex c.0"),
        (lambda: apply_split(g, Split.of("07", ["c"], ["7", "c.0.1"])),
         ForeignNeighbor, "split of 07: c.0.1 is not a neighbor of 07"),
        (lambda: apply_split(g, Split.of("07", ["c"], [])),
         NeighborhoodNotCovered, "split of 07: neighbor 7 assigned to neither copy"),
        (lambda: apply_split(g, Split.of("c", ["07"], ["07"])), DuplicateVertex,
         "split copy name c.1 already in use"),
        (lambda: apply_split(g, Split.of("c.0", [], [])), UnknownVertex,
         "unknown vertex c.0"),
    ]
    for call, kind, message in cases:
        with pytest.raises(GraphError) as info:
            call()
        assert (type(info.value), str(info.value)) == (kind, message)


# ---------------------------------------------------------------- predicates


def test_induced_p3_matches_bruteforce_up_to_n4():
    for n in range(1, 5):
        for g in graphs_on(n):
            names, edges = oracle_form(g)
            want = sorted(oracles.induced_p3s(names, edges))
            vs = g.vertices
            got = sorted(
                (str(vs[x]), str(vs[c]), str(vs[z]))
                for x, c, z in induced_p3_indices(g.rows)
            )
            assert got == want


def test_is_cluster_graph_matches_bruteforce_up_to_n5():
    for n in range(1, 6):
        for g in graphs_on(n):
            names, edges = oracle_form(g)
            assert is_cluster_graph(g) == oracles.is_cluster(names, edges)


def test_cluster_graph_iff_no_induced_p3():
    for g in graphs_on(4):
        assert is_cluster_graph(g) == (next(induced_p3_indices(g.rows), None) is None)


# ---------------------------------------------------------------- critical cliques


def test_critical_classes_match_bruteforce_up_to_n4():
    for n in range(1, 5):
        for g in graphs_on(n):
            names, edges = oracle_form(g)
            want = sorted(sorted(c) for c in oracles.critical_classes(names, edges))
            cc = critical_clique_graph(g)
            got = sorted(sorted(str(v) for v in cls) for cls in cc.classes)
            assert got == want
            assert cc.masks == tuple(g.mask_of(cls) for cls in cc.classes)


def test_quotient_has_singleton_classes():
    # quotienting is idempotent: the quotient's own classes are singletons
    for g in graphs_on(4):
        q = critical_clique_graph(g).quotient_graph()
        qq = critical_clique_graph(q)
        assert all(len(cls) == 1 for cls in qq.classes)


def test_counterexample_classes_and_reducibility(ccl8):
    cc = critical_clique_graph(ccl8)
    classes = [tuple(sorted(str(v) for v in cls)) for cls in cc.classes]
    assert classes == [("a",), ("b", "h"), ("c", "g"), ("d", "f"), ("e",)]
    assert cc.reducible == (True, False, False, False, True)
