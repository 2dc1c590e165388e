from __future__ import annotations

import itertools
import random

import pytest

import oracles
from conftest import graphs_on, oracle_form, relabeled
from splitclust.certificates import (
    EdgeAdd,
    EdgeDelete,
    ModificationSequence,
    SigmaCliqueCover,
    cover_cost,
    verify_modification_sequence,
    verify_node_cover,
    verify_p3_packing,
    verify_sigma_cover,
)
from splitclust import solvers
from splitclust.graph import Graph, induced_p3_indices
from splitclust.hunter import canonical_form, hunt
from splitclust.reductions import Instance, Problem
from splitclust.solvers import (
    DEFAULT_SIZE_LIMITS,
    NotNormalized,
    SizeLimitExceeded,
    check_size,
    cover_to_modifications,
    max_p3_packing,
    modifications_to_cover,
    solve_cevs_exact,
    solve_cvs_exact,
    solve_ncc_exact,
    solve_scc_exact,
)


# ---------------------------------------------------------------- size limits


def test_check_size_limits():
    for kind, limit in DEFAULT_SIZE_LIMITS.items():
        check_size(kind, limit, None)
        with pytest.raises(SizeLimitExceeded):
            check_size(kind, limit + 1, None)
        # an explicit override is the limit
        check_size(kind, limit + 1, limit + 1)
        with pytest.raises(SizeLimitExceeded):
            check_size(kind, limit + 1, limit)


def test_size_limit_raises():
    big = Graph.build([str(i) for i in range(10)], [])
    with pytest.raises(SizeLimitExceeded):
        solve_cevs_exact(Instance(Problem.CEVS, big, 0))
    # an explicit override admits the same instance
    assert solve_cevs_exact(Instance(Problem.CEVS, big, 0), size_limit=10) is not None


# ---------------------------------------------------------------- NCC / SCC


def test_ncc_matches_bruteforce():
    for n in range(1, 5):
        for g in graphs_on(n):
            names, edges = oracle_form(g)
            want = oracles.min_ncc_size(names, edges)
            got = solve_ncc_exact(g, want)
            assert got is not None and got.size == want
            assert verify_node_cover(g, got, want).valid
            if want:
                assert solve_ncc_exact(g, want - 1) is None


def test_scc_matches_bruteforce():
    for n in range(1, 5):
        for g in graphs_on(n):
            names, edges = oracle_form(g)
            want = oracles.min_scc_weight(names, edges)
            got = solve_scc_exact(g, want)
            assert got is not None and got.weight == want
            assert verify_sigma_cover(g, got, want).valid
            if want:
                assert solve_scc_exact(g, want - 1) is None


@pytest.mark.parametrize(
    "g",
    [
        Graph.build([], []),
        Graph.build("a", []),
        Graph.build("ab", []),
        Graph.build("abcd", [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")]),
    ],
    ids=["empty", "one vertex", "two isolated", "paw"],
)
def test_degenerate_inputs_take_the_general_path(g):
    """No vertices, isolated vertices and scc budgets below the root bound
    need no early exit in the ncc and scc solvers or the canonical form."""
    names, edges = oracle_form(g)
    ncc, scc = oracles.min_ncc_size(names, edges), oracles.min_scc_weight(names, edges)
    for budget in range(4):
        got = solve_ncc_exact(g, budget)
        assert (got is not None) == (ncc <= budget)
        assert got is None or (got.size == ncc and verify_node_cover(g, got, budget).valid)
    for budget in range(-2, 8):
        got = solve_scc_exact(g, budget)
        assert (got is not None) == (scc <= budget)
        assert got is None or (got.weight == scc and verify_sigma_cover(g, got, budget).valid)
    if g.n <= 1:
        assert canonical_form(g) == (g.n, 0)


def test_scc_on_five_vertex_classes():
    from splitclust.hunter import enumerate_graphs

    for g in enumerate_graphs(5):
        names, edges = oracle_form(g)
        want = oracles.min_scc_weight(names, edges)
        got = solve_scc_exact(g, want)
        assert got is not None and got.weight == want


def test_scc_empty_graph():
    g = Graph.build([], [])
    cover = solve_scc_exact(g, 0)
    assert cover is not None and cover.weight == 0


def test_scc_star_blowup_bound_is_tight():
    """13 pairwise non-adjacent universals over K4: lower bound equals optimum."""
    k4 = Graph.build("abcd", list(itertools.combinations("abcd", 2)))
    from splitclust.reductions import extend_universal

    big = extend_universal(k4, 13)
    assert solve_scc_exact(big, 64, size_limit=big.n) is None
    cover = solve_scc_exact(big, 65, size_limit=big.n)
    assert cover is not None and cover.weight == 65


# ---------------------------------------------------------------- CVS


def test_cvs_matches_bruteforce():
    for n in range(1, 5):
        for g in graphs_on(n):
            names, edges = oracle_form(g)
            for k in range(0, 3):
                want = oracles.min_cvs_splits(names, edges, cap=k)
                got = solve_cvs_exact(Instance(Problem.CVS, g, k))
                assert (got is not None) == (want is not None)
                if got is not None:
                    assert got.length == want
                    assert verify_modification_sequence(g, got, k, "cvs").valid


def test_cvs_keeps_isolated_vertices_out_of_sequences():
    g = Graph.build("abcd", [("a", "b"), ("b", "c")])  # d isolated
    seq = solve_cvs_exact(Instance(Problem.CVS, g, 1))
    assert seq is not None and seq.length == 1
    assert verify_modification_sequence(g, seq, 1, "cvs").valid


# ---------------------------------------------------------------- packings


def test_packing_exact_matches_bruteforce():
    for n in range(1, 5):
        for g in graphs_on(n):
            names, edges = oracle_form(g)
            want = oracles.max_p3_packing_size(names, edges)
            exact = max_p3_packing(g, exact=True)
            greedy = max_p3_packing(g)
            assert exact.size == want
            assert greedy.size <= want
            assert verify_p3_packing(g, exact).valid
            assert verify_p3_packing(g, greedy).valid


def test_packing_lower_bounds_editing_cost():
    for g in graphs_on(4):
        packing = max_p3_packing(g, exact=True)
        res = solve_cevs_exact(Instance(Problem.CEVS, g, 12))
        assert res is not None
        cover, seq = res
        assert packing.size <= cover_cost(g, cover).total


def test_greedy_packing_equals_the_pairwise_first_fit():
    """The center and pair sets choose what testing every chosen triple did."""

    def pairwise(triples):
        chosen = []
        for t in triples:
            if all(t[1] != c[1] and len(set(t) & set(c)) <= 1 for c in chosen):
                chosen.append(t)
        return chosen

    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(3, 30)
        p = rng.choice([0.1, 0.3, 0.5, 0.8])
        names = [f"v{i}" for i in range(n)]
        edges = [e for e in itertools.combinations(names, 2) if rng.random() < p]
        triples = sorted(induced_p3_indices(Graph.build(names, edges).rows))
        assert solvers._greedy_packing(triples) == pairwise(triples)
        rng.shuffle(triples)
        assert solvers._greedy_packing(triples) == pairwise(triples)


def test_packing_on_counterexample(ccl8):
    assert max_p3_packing(ccl8).size == 6
    assert max_p3_packing(ccl8, exact=True).size == 6


# ---------------------------------------------------------------- CEVS


def test_cevs_matches_bruteforce():
    for n in range(1, 5):
        for g in graphs_on(n):
            names, edges = oracle_form(g)
            for k in range(0, 3):
                want = oracles.min_cevs_ops(names, edges, cap=k)
                got = solve_cevs_exact(Instance(Problem.CEVS, g, k))
                assert (got is not None) == (want is not None)
                if got is not None:
                    cover, seq = got
                    assert cover_cost(g, cover).total == want == seq.length
                    assert verify_modification_sequence(g, seq, k, "cevs").valid


def test_certificate_key_picks_the_first_optimal_leaf_up_to_n5():
    """The least `_certificate_key` over the optima `cevs_search` enumerates
    is the first optimal leaf of the index-order search, on every class with
    n <= 5, canonical and under a seeded relabeling."""
    rng = random.Random(5)
    for rep in hunt(5):
        for g in (rep.graph, relabeled(rep.graph, rng)):
            optimum, covers = solvers.cevs_search(g, g.edge_count)
            masks = min(covers, key=lambda masks: solvers._certificate_key(g.n, masks))
            mine = frozenset(
                frozenset(str(v) for v in g.vertices_of_mask(m)) for m in masks
            )
            _, edges = oracle_form(g)
            order = [str(v) for v in g.vertices]
            assert oracles.first_optimal_leaf(order, edges) == (optimum, mine)


def test_cevs_counterexample_optimum(ccl8):
    res = solve_cevs_exact(Instance(Problem.CEVS, ccl8, 6))
    assert res is not None
    cover, seq = res
    assert cover_cost(ccl8, cover).total == 6 == seq.length
    assert verify_modification_sequence(ccl8, seq, 6, "cevs").valid


# ---------------------------------------------------------------- cover <-> sequence


def test_cover_to_modifications_on_two_set_cover(ccl8):
    two_set = SigmaCliqueCover.of([["a", "b", "c", "h"], ["c", "d", "e", "f", "g"]])
    seq = cover_to_modifications(ccl8, two_set)
    assert seq.length == cover_cost(ccl8, two_set).total == 6
    assert seq.is_normalized()
    kinds = [type(s).__name__ for s in seq.steps]
    assert kinds == ["EdgeAdd"] * 3 + ["EdgeDelete"] * 2 + ["VertexSplit"]
    adds = {(str(s.u), str(s.v)) for s in seq.steps[:3]}
    assert adds == {("a", "c"), ("c", "e"), ("e", "g")}
    deletes = {(str(s.u), str(s.v)) for s in seq.steps[3:5]}
    assert deletes == {("b", "g"), ("g", "h")}
    split = seq.steps[5].split
    assert str(split.target) == "c"
    assert verify_modification_sequence(ccl8, seq, 6, "cevs").valid


def test_cover_to_modifications_length_equals_cost_for_all_tiny_covers():
    """Exactly cost many operations, for every valid cover of every n<=3 graph."""
    for g in graphs_on(3):
        names, edges = oracle_form(g)
        subsets = [
            frozenset(c)
            for r in range(1, 4)
            for c in itertools.combinations(names, r)
        ]
        for mask in range(1, 1 << len(subsets)):
            family = [subsets[i] for i in range(len(subsets)) if mask >> i & 1]
            if oracles.cover_cost(names, edges, family) is None:
                continue
            cover = SigmaCliqueCover.of(family)
            seq = cover_to_modifications(g, cover)
            assert seq.length == cover_cost(g, cover).total
            rep = verify_modification_sequence(g, seq, seq.length, "cevs")
            assert rep.valid


def test_modifications_to_cover_headroom(p3):
    seq = ModificationSequence((EdgeAdd("a", "c"),))
    cover = modifications_to_cover(p3, seq)
    assert cover_cost(p3, cover).total <= seq.length


def test_modifications_to_cover_requires_normalized(p3):
    out_of_order = ModificationSequence((EdgeDelete("a", "b"), EdgeAdd("a", "c")))
    with pytest.raises(NotNormalized):
        modifications_to_cover(p3, out_of_order)


def test_modifications_round_trip_through_solver():
    for g in graphs_on(4):
        res = solve_cevs_exact(Instance(Problem.CEVS, g, 6))
        assert res is not None
        cover, seq = res
        back = modifications_to_cover(g, seq)
        assert cover_cost(g, back).total <= seq.length
