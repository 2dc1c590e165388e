from __future__ import annotations

import hashlib
import itertools
import random
import sys

import pytest

import oracles
import splitclust.graph as graph_module
from conftest import graphs_on, oracle_form, planted
from splitclust.certificates import (
    ModificationSequence,
    NodeCliqueCover,
    SigmaCliqueCover,
    VertexSplit,
    cover_cost,
    verify_modification_sequence,
    verify_sigma_cover,
)
from splitclust.formats import Certificate, dumps_certificate
from splitclust.graph import DuplicateVertex, Graph, GraphError, Split
from splitclust.reductions import (
    BudgetUnderflow,
    Instance,
    InvalidCertificate,
    NotAClusterGraphAfter,
    Problem,
    convert_cvs_scc,
    convert_scc_cvs,
    cover_to_splits,
    extend_universal,
    reduce_cvs_to_cevs,
    reduce_ncc_to_scc,
    translate_ncc_cert_to_scc,
    translate_scc_cert_to_ncc,
    universal_names,
)
from splitclust.solvers import (
    solve_cevs_exact,
    solve_cvs_exact,
    solve_ncc_exact,
    solve_scc_exact,
)


def test_instance_rejects_negative_budget(p3):
    with pytest.raises(ValueError):
        Instance(Problem.CVS, p3, -1)


# ---------------------------------------------------------------- universals


def test_universal_names_avoid_collisions():
    g = Graph.build(["u1", "a"], [("u1", "a")])
    names = universal_names(g, 2)
    assert [str(v) for v in names] == ["uu1", "uu2"]
    gg = Graph.build(["uu3"], [])
    assert [str(v) for v in universal_names(gg, 1)] == ["uuu1"]


def test_extend_universal_structure(p3):
    ext = extend_universal(p3, 2)
    assert ext.n == 5 and ext.edge_count == 2 + 2 * 3
    u1, u2 = universal_names(p3, 2)
    assert not ext.has_edge(u1, u2)
    for v in "abc":
        assert ext.has_edge(u1, v) and ext.has_edge(u2, v)


@pytest.mark.parametrize(
    "names",
    [
        [],
        ["a"],
        ["0", "3", "12", "007", "7"],
        ["u", "u1", "b", "uu2", "a.0.1", "a.1", "10"],
        ["uu", "x.0", "x.1.0", "v", "w", "2"],
        ["a", "a.0.1", "a.1", "z", "zz", "u9.1", "11", "01"],
    ],
)
def test_extend_universal_matches_the_build_by_name(names):
    rng = random.Random(len(names))
    for p in (0.0, 0.4, 1.0):
        pairs = [e for e in itertools.combinations(names, 2) if rng.random() < p]
        g = Graph.build(names, pairs)
        for count in (0, 1, 2 * g.edge_count + 1):
            ext = extend_universal(g, count)
            ref = oracles.extend_universal_by_build(graph_module, g, count)
            assert (ext.vertices, ext.rows) == (ref.vertices, ref.rows)


# ---------------------------------------------------------------- NCC -> SCC


def test_reduce_ncc_to_scc_arithmetic(p3, k3):
    red, trace = reduce_ncc_to_scc(Instance(Problem.NCC, p3, 2))
    # ell = 2m+1 = 5; budget = ell * (n + s + 1) - 1
    assert trace.parameters["ell"] == 5
    assert red.problem is Problem.SCC and red.budget == 5 * (3 + 2 + 1) - 1
    assert red.graph.n == 3 + 5

    red2, trace2 = reduce_ncc_to_scc(Instance(Problem.NCC, k3, 1))
    assert trace2.parameters["ell"] == 7
    assert red2.budget == 7 * (3 + 1 + 1) - 1 == 34


def test_translate_ncc_cert_forward_and_back(p3):
    inst = Instance(Problem.NCC, p3, 2)
    red, _ = reduce_ncc_to_scc(inst)
    ncc = NodeCliqueCover.of([["a", "b"], ["c"]])
    scc = translate_ncc_cert_to_scc(inst, ncc)
    assert verify_sigma_cover(red.graph, scc, red.budget).valid
    back = translate_scc_cert_to_ncc(inst, scc)
    assert back.size <= inst.budget
    assert [sorted(map(str, s)) for s in back.sets] == [["a", "b"], ["c"]]


def test_translate_rejects_invalid_certificates(p3):
    inst = Instance(Problem.NCC, p3, 2)
    with pytest.raises(InvalidCertificate):
        translate_ncc_cert_to_scc(inst, NodeCliqueCover.of([["a", "b", "c"]]))
    red, _ = reduce_ncc_to_scc(inst)
    with pytest.raises(InvalidCertificate):
        translate_scc_cert_to_ncc(inst, SigmaCliqueCover.of([["a", "b"]]))


def test_translate_scc_cert_to_ncc_matches_per_universal_scan():
    """The one-pass weight count picks the universal the reference scan picks,
    on seeded covers of reduced instances, with and without extra sets."""
    extras = 0
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        g = Graph.build(
            [str(i) for i in range(n)],
            [(str(i), str(j)) for i in range(n) for j in range(i) if rng.random() < 0.5],
        )
        ncc = solve_ncc_exact(g, n)
        inst = Instance(Problem.NCC, g, ncc.size + rng.randint(0, 2))
        red, trace = reduce_ncc_to_scc(inst)
        sets = list(translate_ncc_cert_to_scc(inst, ncc).sets)
        universals = trace.parameters["universal"]
        # extra sets {u, x} and {u} shift the covering weights
        while rng.random() < 0.8:
            extra = {rng.choice(universals)} | set(rng.sample(g.vertices, rng.randint(0, 1)))
            if sum(map(len, sets)) + len(extra) > red.budget:
                break
            sets.append(frozenset(extra))
            extras += 1
        cover = SigmaCliqueCover.of(sets)
        named = [set(map(str, s)) for s in cover.sets]
        star = oracles.least_covered(universals, named)
        expected = sorted(sorted(s - {star}) for s in named if star in s and len(s) > 1)
        got = translate_scc_cert_to_ncc(inst, cover)
        assert sorted(sorted(map(str, s)) for s in got.sets) == expected, seed
    assert extras > 20


def test_ncc_scc_decisions_agree_exhaustively():
    """Budgeted NCC and the reduced budgeted SCC agree on every tiny graph."""
    for n in range(1, 4):
        for g in graphs_on(n):
            names, edges = oracle_form(g)
            opt = oracles.min_ncc_size(names, edges)
            for s in range(0, 4):
                inst = Instance(Problem.NCC, g, s)
                red, _ = reduce_ncc_to_scc(inst)
                scc = solve_scc_exact(red.graph, red.budget)
                assert (scc is not None) == (opt <= s)
                if scc is not None:
                    ncc = translate_scc_cert_to_ncc(inst, scc)
                    assert ncc.size <= s


# ---------------------------------------------------------------- covers <-> splits


def test_cover_to_splits_on_path(p3):
    cover = SigmaCliqueCover.of([["a", "b"], ["b", "c"]])
    seq = cover_to_splits(p3, cover)
    assert seq.splits_only() and seq.length == cover.weight - p3.n
    assert verify_modification_sequence(p3, seq, seq.length, "cvs").valid


def test_cover_to_splits_leaves_isolated_vertices_alone():
    g = Graph.build("abc", [("a", "b")])
    seq = cover_to_splits(g, SigmaCliqueCover.of([["a", "b"], ["c"]]))
    assert seq.steps == ()
    assert verify_modification_sequence(g, seq, 0, "cvs").valid


def test_cover_to_splits_isolates_a_singleton_last(p3):
    """b is pulled out of {a, b} first; then its copy b.0 is isolated."""
    seq = cover_to_splits(p3, SigmaCliqueCover.of([["a", "b"], ["b", "c"], ["b"]]))
    assert seq.steps == (
        VertexSplit(Split.of("b", ["a"], ["c"])),
        VertexSplit(Split.of("b.0", ["a"], [])),
    )
    assert verify_modification_sequence(p3, seq, 2, "cvs").valid


def test_cover_to_splits_copy_names_avoid_isolated_vertices():
    """Isolated b.1 keeps its name, so pulling b out of two sets may not
    reuse it, in the cvs solver either."""
    g = Graph.build(["a", "b", "c", "b.1"], [("a", "b"), ("b", "c")])
    with pytest.raises(DuplicateVertex):
        cover_to_splits(g, SigmaCliqueCover.of([["a", "b"], ["b", "c"]]))
    with pytest.raises(DuplicateVertex):
        solve_cvs_exact(Instance(Problem.CVS, g, 1))


def test_cover_to_splits_length_formula_exhaustive():
    """length == weight - |covered| on all labeled n<=4 graphs, for the
    solver's minimum cover and for it plus a singleton per non-isolated
    vertex."""
    for n in range(5):
        for g in graphs_on(n):
            names, edges = oracle_form(g)
            cover = solve_scc_exact(g, oracles.min_scc_weight(names, edges))
            busy = [[v] for v in g.vertices if g.degree(v)]
            for family in (cover, SigmaCliqueCover.of([*cover.sets, *busy])):
                seq = cover_to_splits(g, family)
                covered = set().union(*family.sets)
                assert seq.length == family.weight - len(covered)
                assert verify_modification_sequence(g, seq, seq.length, "cvs").valid


def test_cover_to_splits_picks_the_first_set_by_current_members():
    """Renaming c to c.1 moves it past c.0.0 and c.0.1 and reorders sets.

    At the start {c, c.0.0} sorts before {c, c.0.0, c.0.1}; once c is pulled
    out of {a, c}, {c.0.0, c.0.1, c.1} sorts before {c.0.0, c.1}, and each
    later pull-out must leave that set first.
    """
    g = Graph.build(
        ["a", "c", "c.0.0", "c.0.1"],
        [("a", "c"), ("c", "c.0.0"), ("c", "c.0.1"), ("c.0.0", "c.0.1")],
    )
    cover = SigmaCliqueCover.of([["a", "c"], ["c", "c.0.0"], ["c", "c.0.0", "c.0.1"]])
    seq = cover_to_splits(g, cover)
    assert seq.steps == (
        VertexSplit(Split.of("c", ["a"], ["c.0.0", "c.0.1"])),
        VertexSplit(Split.of("c.0.0", ["c.0.1", "c.1"], ["c.1"])),
        VertexSplit(Split.of("c.1", ["c.0.0.0", "c.0.1"], ["c.0.0.1"])),
    )


def test_split_sides_are_frozensets_copied_from_sets():
    # a frozenset grown one member at a time, or made by `frozenset - {u}`,
    # gets a larger table than one copied from a set at 5 to 7 members
    rng = random.Random(6)
    sides = []
    for _ in range(4):
        g, cover = planted(rng, 40, (3, 8), 0.3)
        for step in cover_to_splits(g, cover).steps:
            sides += [step.split.neighbors_a, step.split.neighbors_b]
    assert {len(side) for side in sides} >= {5, 6, 7}
    for side in sides:
        assert sys.getsizeof(side) == sys.getsizeof(frozenset(set(side)))


def test_realized_certificates_match_pinned_digest():
    """cover_to_splits and solve_cevs_exact certificates are byte-stable."""
    rng = random.Random(4)
    texts = []
    for _ in range(12):
        g, cover = planted(rng, rng.randint(20, 60), (2, 6), 0.3)
        seq = cover_to_splits(g, cover)
        texts.append(dumps_certificate(Certificate("cvs", seq.length, "sequence", seq)))
    for _ in range(8):
        g, cover = planted(rng, rng.randint(7, 8), (2, 4), 0.2, noise=2)
        budget = cover_cost(g, cover).total
        found, seq = solve_cevs_exact(Instance(Problem.CEVS, g, budget))
        texts.append(dumps_certificate(Certificate("cevs", budget, "cover", found)))
        texts.append(dumps_certificate(Certificate("cevs", budget, "sequence", seq)))
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == "f16821076e55055b5ac418787a182d5c6efadc7faf45a168393ad41288927440"


def test_splits_to_cover_round_trip():
    """splits -> cover -> splits preserves weight on every labeled graph."""
    from splitclust.reductions import splits_to_cover

    for n in range(2, 5):
        for g in graphs_on(n):
            names, edges = oracle_form(g)
            w = oracles.min_scc_weight(names, edges)
            cover = solve_scc_exact(g, w)
            pruned = SigmaCliqueCover.of([s for s in cover.sets if len(s) >= 2])
            seq = cover_to_splits(g, pruned)
            back = splits_to_cover(g, seq)
            bound = g.n - len(g.isolated_vertices()) + seq.length
            assert back.weight <= bound
            assert verify_sigma_cover(g, back, bound).valid


def test_splits_to_cover_when_a_copy_name_recurs():
    """Splitting c.0 and then c gives c.0 a second life as a copy of c.

    The final c.0 must contract to c, and c.0.0 (a copy of the first c.0)
    to c.0.
    """
    from splitclust.reductions import splits_to_cover

    g = Graph.build(
        ["a", "b", "c", "c.0", "d", "e"],
        [("a", "c"), ("b", "c"), ("c.0", "d"), ("c.0", "e")],
    )
    seq = ModificationSequence(
        (
            VertexSplit(Split.of("c.0", ["d"], ["e"])),
            VertexSplit(Split.of("c", ["a"], ["b"])),
        )
    )
    assert splits_to_cover(g, seq) == SigmaCliqueCover.of(
        [["a", "c"], ["b", "c"], ["c.0", "d"], ["c.0", "e"]]
    )


def test_splits_to_cover_validations(p3):
    from splitclust.certificates import EdgeAdd
    from splitclust.reductions import splits_to_cover

    with pytest.raises(ValueError):
        splits_to_cover(p3, ModificationSequence((EdgeAdd("a", "c"),)))
    incomplete = ModificationSequence((VertexSplit(Split.of("a", ["b"], ["b"])),))
    with pytest.raises(NotAClusterGraphAfter):
        splits_to_cover(p3, incomplete)


# ---------------------------------------------------------------- CVS <-> SCC


def test_convert_cvs_scc_budgets(p3):
    scc_inst, trace = convert_cvs_scc(Instance(Problem.CVS, p3, 1))
    assert scc_inst.problem is Problem.SCC and scc_inst.budget == 4
    assert trace.kind == "cvs-to-scc" and trace.target is scc_inst
    back, trace = convert_scc_cvs(scc_inst)
    assert back.problem is Problem.CVS and back.budget == 1
    assert trace.kind == "scc-to-cvs" and trace.source is scc_inst

    iso = Graph.build("abc", [("a", "b")])
    assert convert_cvs_scc(Instance(Problem.CVS, iso, 2))[0].budget == 2 + 2


def test_convert_scc_cvs_underflow(p3):
    with pytest.raises(BudgetUnderflow):
        convert_scc_cvs(Instance(Problem.SCC, p3, 2))


# ---------------------------------------------------------------- CVS -> CEVS


def test_blow_up_shape(p3):
    red, trace = reduce_cvs_to_cevs(Instance(Problem.CVS, p3, 1))
    assert red.problem is Problem.CEVS
    assert red.budget == 1 * 2
    assert red.graph.n == 3 * 2
    # each group is a K2; joined groups contribute 2*2 edges per original edge
    assert red.graph.edge_count == 3 * 1 + 2 * 4
    assert trace.parameters["k"] == 1


def test_blow_up_of_triangle_is_complete(k3):
    red, _ = reduce_cvs_to_cevs(Instance(Problem.CVS, k3, 1))
    assert red.graph.n == 6
    assert red.graph.edge_count == 15  # K6
    assert red.budget == 2


def test_blow_up_k0_is_identity_with_renames(p3):
    red, _ = reduce_cvs_to_cevs(Instance(Problem.CVS, p3, 0))
    assert red.graph.n == 3 and red.graph.edge_count == 2 and red.budget == 0


def test_blow_up_of_isolated_vertex_is_a_clique_component():
    g = Graph.build("abc", [("a", "b")])
    red, _ = reduce_cvs_to_cevs(Instance(Problem.CVS, g, 1))
    assert red.graph == Graph.build(
        ["a_1", "a_2", "b_1", "b_2", "c_1", "c_2"],
        [("a_1", "a_2"), ("b_1", "b_2"), ("c_1", "c_2"), ("a_1", "b_1"),
         ("a_1", "b_2"), ("a_2", "b_1"), ("a_2", "b_2")],
    )
    assert red.budget == 2


def test_blow_up_name_collision():
    # "a.1" and "a_1" share the flattened base name a_1
    g = Graph.build(["a.1", "a_1"], [("a.1", "a_1")])
    with pytest.raises(GraphError):
        reduce_cvs_to_cevs(Instance(Problem.CVS, g, 1))


def test_wrong_problem_rejected(p3):
    with pytest.raises(ValueError):
        reduce_ncc_to_scc(Instance(Problem.SCC, p3, 1))
    with pytest.raises(ValueError):
        convert_cvs_scc(Instance(Problem.SCC, p3, 1))
    with pytest.raises(ValueError):
        reduce_cvs_to_cevs(Instance(Problem.CEVS, p3, 1))
