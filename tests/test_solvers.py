from __future__ import annotations

import gc
import hashlib
import itertools
import random

import pytest

import oracles
from conftest import graphs_on, oracle_form, oracle_steps, planted, relabeled
from splitclust.certificates import (
    EdgeAdd,
    ModificationSequence,
    NotACover,
    SigmaCliqueCover,
    cover_cost,
    verify_modification_sequence,
    verify_node_cover,
    verify_p3_packing,
    verify_sigma_cover,
)
from splitclust import solvers
from splitclust.formats import Certificate, dumps_certificate
from splitclust.graph import DuplicateVertex, Graph, UnknownVertex, induced_p3_indices
from splitclust.hunter import canonical_form, enumerate_graphs, hunt
from splitclust.reductions import (
    Instance,
    Problem,
    cover_to_modifications,
)
from splitclust.solvers import (
    DEFAULT_SIZE_LIMITS,
    SizeLimitExceeded,
    check_size,
    max_p3_packing,
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


def test_scc_returns_the_first_optimal_leaf_at_any_yes_budget():
    """The certificate is the first least-weight leaf of the candidate tree
    at the optimum and at every budget above it."""
    from splitclust.hunter import enumerate_graphs

    labeled = [g for n in range(5) for g in graphs_on(n)]
    for g in labeled + enumerate_graphs(5) + enumerate_graphs(6):
        names, edges = oracle_form(g)
        want = SigmaCliqueCover.of(oracles.first_optimal_scc_cover(names, edges))
        opt = want.weight
        for budget in (opt, opt + 1, opt + 3, 2 * g.edge_count):
            assert solve_scc_exact(g, budget) == want


def _root_bound(names, edges) -> int:
    """Sum over vertices of the fewest cliques node-covering the neighborhood."""
    total = 0
    for v in names:
        nbrs = oracles.neighbors(names, edges, v)
        inside = frozenset(e for e in edges if e[0] in nbrs and e[1] in nbrs)
        total += oracles.min_ncc_size(tuple(sorted(nbrs)), inside)
    return total


@pytest.mark.parametrize("index", [129, 145, 147])
def test_scc_and_cvs_deepen_past_the_root_bound(index):
    """The three 6-vertex classes whose root bound is one below the scc
    optimum, alone and as two disjoint copies: the search must raise its cap
    past the root bound, within the slack each component leaves the next."""
    from splitclust.hunter import enumerate_graphs

    one = enumerate_graphs(6)[index]
    names, edges = oracle_form(one)
    opt = oracles.min_scc_weight(names, edges)
    assert _root_bound(names, edges) == opt - 1
    pairs = [(int(str(u)), int(str(w))) for u, w in one.edges()]
    two = Graph.build(
        [str(i) for i in range(12)],
        [(str(a + k), str(b + k)) for a, b in pairs for k in (0, 6)],
    )
    for g in (one, two):
        names, edges = oracle_form(g)
        want = sum(
            oracles.min_scc_weight(tuple(sorted(comp)), frozenset(e for e in edges if e[0] in comp))
            for comp in oracles.components(names, edges)
        )
        for budget in range(want - 2, want + 3):
            cover = solve_scc_exact(g, budget)
            seq = solve_cvs_exact(Instance(Problem.CVS, g, budget - g.n))
            assert (cover is not None) == (seq is not None) == (budget >= want)
            if cover is not None:
                assert cover.weight == want and verify_sigma_cover(g, cover, budget).valid
                assert seq.length == want - g.n
                assert verify_modification_sequence(g, seq, budget - g.n, "cvs").valid


def test_scc_search_depth_is_not_bound_by_the_recursion_limit():
    """The search chooses one set per level, and a path of 995 vertices
    needs 994 levels: it must not recurse once per level."""
    names = [f"p{i}" for i in range(995)]
    g = Graph.build(names, list(zip(names, names[1:])))
    cover = solve_scc_exact(g, 2 * 994, size_limit=g.n)
    assert cover is not None and cover.weight == 2 * 994
    assert verify_sigma_cover(g, cover, 2 * 994).valid
    seq = solve_cvs_exact(Instance(Problem.CVS, g, 993), size_limit=g.n)
    assert seq is not None and seq.length == 993


def test_cevs_search_depth_is_not_bound_by_the_recursion_limit():
    """The search places one vertex per level, and a perfect matching on
    1,200 vertices or 1,100 isolated vertices needs as many levels: it must
    not recurse once per level."""
    names = [f"v{i}" for i in range(1200)]
    matching = Graph.build(names, list(zip(names[::2], names[1::2])))
    for g in (matching, Graph.build(names[:1100], [])):
        res = solve_cevs_exact(Instance(Problem.CEVS, g, 0), size_limit=g.n)
        assert res is not None
        cover, seq = res
        assert seq.length == 0 and len(cover.sets) == g.n - g.edge_count
        assert verify_modification_sequence(g, seq, 0, "cevs").valid


def test_ncc_table_depth_is_not_bound_by_the_recursion_limit():
    """A minimum clique partition of 1,200 isolated vertices holds 1,200
    cliques, one per level of the ncc table: it must not recurse once per
    level, nor once per vertex of a clique it grows, as on 1,050 vertices
    that form one clique.  The scc root bound of a 1,200-leaf star meets
    the depth of the isolated vertices at its centre."""
    names = [f"v{i}" for i in range(1200)]
    g = Graph.build(names, [])
    cover = solve_ncc_exact(g, 1200, size_limit=g.n)
    assert cover is not None and cover.size == 1200
    assert verify_node_cover(g, cover, 1200).valid
    assert solve_ncc_exact(g, 1199, size_limit=g.n) is None
    clique = Graph.build(names[:1050], list(itertools.combinations(names[:1050], 2)))
    cover = solve_ncc_exact(clique, 1, size_limit=clique.n)
    assert cover is not None and cover.sets == (frozenset(clique.vertices),)
    star = Graph.build(["c", *names], [("c", v) for v in names])
    cover = solve_scc_exact(star, 2400, size_limit=star.n)
    assert cover is not None and cover.weight == 2400
    assert verify_sigma_cover(star, cover, 2400).valid
    assert solve_scc_exact(star, 2399, size_limit=star.n) is None


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


def test_scc_and_cvs_certificates_match_pinned_digest():
    """solve_scc_exact and solve_cvs_exact certificates are byte-stable at
    the optimum, just above it and at a loose budget."""
    rng = random.Random(7)
    graphs = []
    for _ in range(15):
        names = [str(i) for i in range(rng.randint(12, 13))]
        p = rng.uniform(0.30, 0.45)
        pairs = [e for e in itertools.combinations(names, 2) if rng.random() < p]
        graphs.append(Graph.build(names, pairs))
    graphs += [planted(rng, rng.randint(12, 14), (3, 5), 0.25)[0] for _ in range(15)]
    texts = []
    for g in graphs:
        loose = 2 * g.edge_count
        opt = solve_scc_exact(g, loose).weight
        for b in (opt, opt + 2, loose):
            cover = solve_scc_exact(g, b)
            texts.append(dumps_certificate(Certificate("scc", b, "cover", cover)))
        k = solve_cvs_exact(Instance(Problem.CVS, g, loose)).length
        for b in (k, k + 2, loose):
            seq = solve_cvs_exact(Instance(Problem.CVS, g, b))
            texts.append(dumps_certificate(Certificate("cvs", b, "sequence", seq)))
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == "1094c08c7ff7566313079662c439fcee226c113ab6867bb97e1eb0c4d797384a"


def _clique_graphs() -> list[Graph]:
    """K_2 ... K_10, each alone, beside an isolated vertex, and beside a
    triangle or a path of three vertices whose names sort among the
    clique's."""
    graphs = []
    for n in range(2, 11):
        names = [f"v{i}" for i in range(n)]
        edges = list(itertools.combinations(names, 2))
        graphs.append(Graph.build(names, edges))
        graphs.append(Graph.build(names + ["v"], edges))
        tri = ["v0a", "v1a", "v2a"]
        graphs.append(Graph.build(names + tri, edges + list(itertools.combinations(tri, 2))))
        graphs.append(Graph.build(names + tri, edges + list(zip(tri, tri[1:]))))
    return graphs


def test_scc_and_cvs_certificates_on_cliques_match_pinned_digest():
    """A clique component takes the whole clique without a search, which is
    the search's own first leaf: the scc and cvs certificates on cliques,
    at the optimum, two above it and at a loose budget, are those the
    search gave before the shortcut, and one below the optimum is NO."""
    texts = []
    for g in _clique_graphs():
        loose = 2 * g.edge_count
        opt = solve_scc_exact(g, loose).weight
        assert solve_scc_exact(g, opt - 1) is None
        for b in (opt, opt + 2, loose):
            cover = solve_scc_exact(g, b)
            texts.append(dumps_certificate(Certificate("scc", b, "cover", cover)))
        k = solve_cvs_exact(Instance(Problem.CVS, g, loose)).length
        assert k == 0 or solve_cvs_exact(Instance(Problem.CVS, g, k - 1)) is None
        for b in (k, k + 2, loose):
            seq = solve_cvs_exact(Instance(Problem.CVS, g, b))
            texts.append(dumps_certificate(Certificate("cvs", b, "sequence", seq)))
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == "85f78cc37b8fa5d0a7de925462aa80e95b7e590c477f1cdbba97aa0121948812"


def test_scc_on_a_clique_lists_no_cliques(monkeypatch):
    """K_20 is covered by itself alone, without listing the 2^18 cliques
    through its first edge."""
    def refuse(*args):
        raise AssertionError("a clique component listed its cliques")

    monkeypatch.setattr(solvers, "_cliques_with_edge", refuse)
    names = [f"v{i}" for i in range(20)]
    g = Graph.build(names, list(itertools.combinations(names, 2)))
    cover = solve_scc_exact(g, 2 * g.edge_count, size_limit=20)
    assert cover is not None and cover.sets == (frozenset(g.vertices),)
    assert solve_scc_exact(g, 19, size_limit=20) is None
    seq = solve_cvs_exact(Instance(Problem.CVS, g, 5), size_limit=20)
    assert seq is not None and seq.length == 0


def test_scc_builds_no_graph_per_component(editors):
    """The components are searched as row masks of the input graph, so a
    graph of 60 components, their names interleaved, makes no edit."""
    rng = random.Random(28)
    names = [str(i) for i in range(180)]
    rng.shuffle(names)
    edges = []
    for a, b, c in zip(names[0::3], names[1::3], names[2::3]):
        edges += [(a, b), (b, c)] + [(a, c)] * (rng.random() < 0.5)
    g = Graph.build(names, edges)
    assert len(g.component_masks()) == 60
    cover = solve_scc_exact(g, 2 * g.edge_count, size_limit=g.n)
    assert editors == []
    assert verify_sigma_cover(g, cover, cover.weight).valid


def test_scc_certificate_is_the_union_of_component_certificates():
    """On seeded disjoint unions whose components' names interleave in the
    vertex order, the certificate at and above the optimum is the union of
    the components' certificates, each solved on its own graph built by
    name, and one below the optimum is NO."""
    rng = random.Random(29)
    for _ in range(12):
        names = [str(i) for i in range(rng.randint(20, 40))]
        rng.shuffle(names)
        edges, at = [], 0
        while at < len(names):
            part = names[at : at + rng.randint(1, 7)]
            at += len(part)
            p = rng.choice([0.4, 0.7, 1.0])
            edges += [e for e in itertools.combinations(part, 2) if rng.random() < p]
        g = Graph.build(names, edges)
        sets, weight = [], 0
        for comp in g.component_masks():
            members = set(g.vertices_of_mask(comp))
            own = Graph.build(
                [str(v) for v in members],
                [(str(u), str(w)) for u, w in g.edges() if u in members],
            )
            cover = solve_scc_exact(own, 2 * own.edge_count)
            sets += cover.sets
            weight += cover.weight
        want = SigmaCliqueCover.of(sets)
        for budget in (weight, weight + 2, 2 * g.edge_count):
            assert solve_scc_exact(g, budget, size_limit=g.n) == want
        assert weight == 0 or solve_scc_exact(g, weight - 1, size_limit=g.n) is None


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


def test_suffix_packing_bounds_match_the_set_based_first_fit():
    rng = random.Random(13)
    for _ in range(400):
        n = rng.randint(0, 10)
        p = rng.choice([0.2, 0.4, 0.6, 0.8])
        rows = [0] * n
        for a, b in itertools.combinations(range(n), 2):
            if rng.random() < p:
                rows[a] |= 1 << b
                rows[b] |= 1 << a
        assert solvers._suffix_packing_bounds(rows) == oracles.suffix_packing_bounds(rows)


def test_packings_match_pinned_digest():
    """The greedy and exact packings of seeded graphs with n <= 10 are the
    packings they were before both shared one first fit."""
    rng = random.Random(17)
    texts = []
    for _ in range(120):
        n = rng.randint(1, 10)
        p = rng.choice([0.2, 0.4, 0.6, 0.8])
        names = [str(i) for i in range(n)]
        g = Graph.build(names, [e for e in itertools.combinations(names, 2) if rng.random() < p])
        for exact in (False, True):
            packing = max_p3_packing(g, exact=exact)
            texts.append(dumps_certificate(Certificate("cevs", packing.size, "packing", packing)))
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == "cf4230dd8361d4d33bbcc23134b972f41f7b6ba8ebf869c5eeb2737067a60b40"


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


def test_cevs_search_takes_a_label_at_the_room_boundary(p3):
    """A label whose non-neighbours use up exactly the room is still costed:
    the cover {a,b,c} needs c to join label {a,b}, one non-neighbour, at
    room 1."""
    a, b, c = 1, 2, 4
    optima = {(a | b, b | c), (a | b, c), (a, b | c), (a | b | c,)}
    for budget in (1, 2):
        assert solvers.cevs_search(p3, budget) == (1, optima)


@pytest.mark.parametrize(
    "search",
    [
        lambda g: solvers.cevs_search(g, g.edge_count),
        lambda g: solve_scc_exact(g, 3 * g.edge_count),
        lambda g: max_p3_packing(g, exact=True),
    ],
    ids=["cevs_search", "solve_scc_exact", "max_p3_packing"],
)
def test_searches_leave_no_reference_cycles(search):
    """No search keeps a recursive closure, which would be a reference cycle
    through its own cell, so what a search built is freed at once, with no
    garbage collection."""
    rng = random.Random(3)
    names = [str(i) for i in range(8)]
    g = Graph.build(names, [p for p in itertools.combinations(names, 2) if rng.random() < 0.5])
    search(g)  # warm the caches a first call fills
    gc.collect()
    gc.disable()
    try:
        search(g)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cevs_counterexample_optimum(ccl8):
    res = solve_cevs_exact(Instance(Problem.CEVS, ccl8, 6))
    assert res is not None
    cover, seq = res
    assert cover_cost(ccl8, cover).total == 6 == seq.length
    assert verify_modification_sequence(ccl8, seq, 6, "cevs").valid


def test_cevs_bound_updates_exactly_and_is_admissible_up_to_n6(monkeypatch):
    """At every child whose bound the search takes, on every class with
    n <= 6, canonical and under a seeded relabeling: the sum of lb updated
    from the parent's minimal label sets is the sum `oracles.least_owed`
    computes afresh, and cost + max(pk, that sum) is at most the cheapest
    completion.  Children opening one new label stand for those opening
    more, which share their sum.  The parent's own sum is checked too."""
    nodes = {}  # id of each `_owed` result of one search -> it and its node
    children = {}  # (that id, labels taken) -> the sums with r = 0 and r >= 1
    real_owed, real_after = solvers._owed, solvers._owed_after

    def owed(rows, i, members):
        out = real_owed(rows, i, members)
        nodes[id(out)] = (out, list(rows), i, list(members))
        return out

    def after(owed, taken):
        out = real_after(owed, taken)
        if id(owed) in nodes:  # not at the last vertex, which owes nothing
            children[id(owed), taken] = out
        return out

    monkeypatch.setattr(solvers, "_owed", owed)
    monkeypatch.setattr(solvers, "_owed_after", after)
    rng = random.Random(7)
    for n in range(1, 7):
        for canon in enumerate_graphs(n):
            for g in (canon, relabeled(canon, rng)):
                nodes.clear()
                children.clear()
                optimum, _ = solvers.cevs_search(g, g.edge_count)
                if not nodes:
                    continue
                _, rows, _, _ = next(iter(nodes.values()))
                pk = oracles.suffix_packing_bounds(rows)
                # the oracle finds what the search finds
                assert oracles.cheapest_completion(rows, [], 0, optimum) == optimum
                assert oracles.cheapest_completion(rows, [], 0, optimum - 1) is None
                for out, _, i, members in nodes.values():
                    assert out[0] == sum(oracles.least_owed(rows, members, i)[1:])
                for (key, taken), sums in children.items():
                    _, _, i, members = nodes[key]
                    for r in (0, 1) if taken else (1,):
                        child = [
                            m | 1 << i if taken >> k & 1 else m
                            for k, m in enumerate(members)
                        ] + [1 << i] * r
                        owes = sums[r > 0]
                        assert owes == sum(oracles.least_owed(rows, child, i + 1))
                        cost = oracles.placed_cost(rows, child, i + 1)
                        bound = cost + max(pk[i + 1], owes)
                        assert oracles.cheapest_completion(rows, child, i + 1, bound - 1) is None


# ---------------------------------------------------------------- cover <-> sequence


@pytest.fixture
def replays(monkeypatch):
    """(steps, vertices) of each ModificationSequence.apply_to call, in order."""
    calls = []
    apply_to = ModificationSequence.apply_to

    def spy(seq, g):
        calls.append((seq.length, g.n))
        return apply_to(seq, g)

    monkeypatch.setattr(ModificationSequence, "apply_to", spy)
    return calls


def test_cevs_certificate_is_replayed_once(ccl8, replays):
    """The realization checks the whole sequence on g and replays nothing else."""
    assert solve_cevs_exact(Instance(Problem.CEVS, ccl8, 6)) is not None
    assert replays == [(6, 8)]


def test_cover_to_modifications_rejects_bad_covers(p3):
    with pytest.raises(UnknownVertex, match="^certificate references unknown vertex x$"):
        cover_to_modifications(p3, SigmaCliqueCover.of([["a", "b"], ["b", "c", "x"]]))
    with pytest.raises(NotACover, match="^vertex c lies in no set$"):
        cover_to_modifications(p3, SigmaCliqueCover.of([["a", "b"]]))
    g = Graph.build(["a", "a.0", "b", "c"], [("a", "b"), ("a", "c")])
    cover = SigmaCliqueCover.of([["a", "b"], ["a", "c"], ["a.0"]])
    with pytest.raises(DuplicateVertex, match=r"^split copy name a\.0 already in use$"):
        cover_to_modifications(g, cover)


def test_cover_to_modifications_on_two_set_cover(ccl8):
    two_set = SigmaCliqueCover.of([["a", "b", "c", "h"], ["c", "d", "e", "f", "g"]])
    seq = cover_to_modifications(ccl8, two_set)
    assert seq.length == cover_cost(ccl8, two_set).total == 6
    assert oracles.is_normalized(oracle_steps(seq))
    kinds = [type(s).__name__ for s in seq.steps]
    assert kinds == ["EdgeAdd"] * 3 + ["EdgeDelete"] * 2 + ["VertexSplit"]
    adds = {(str(s.u), str(s.v)) for s in seq.steps[:3]}
    assert adds == {("a", "c"), ("c", "e"), ("e", "g")}
    deletes = {(str(s.u), str(s.v)) for s in seq.steps[3:5]}
    assert deletes == {("b", "g"), ("g", "h")}
    split = seq.steps[5].split
    assert str(split.target) == "c"
    assert verify_modification_sequence(ccl8, seq, 6, "cevs").valid


def test_cover_to_modifications_length_equals_cost_for_all_tiny_covers(replays):
    """Exactly cost many operations, for every valid cover of every n<=3
    graph, replayed once."""
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
            replays.clear()
            seq = cover_to_modifications(g, cover)
            assert replays == [(seq.length, g.n)]
            assert seq.length == cover_cost(g, cover).total
            rep = verify_modification_sequence(g, seq, seq.length, "cevs")
            assert rep.valid


def test_modifications_to_cover_headroom(p3):
    seq = ModificationSequence((EdgeAdd("a", "c"),))
    cover = oracles.modifications_to_cover(*oracle_form(p3), oracle_steps(seq))
    assert cover_cost(p3, SigmaCliqueCover.of(cover)).total <= seq.length


def test_modifications_round_trip_through_solver():
    for g in graphs_on(4):
        res = solve_cevs_exact(Instance(Problem.CEVS, g, 6))
        assert res is not None
        cover, seq = res
        back = oracles.modifications_to_cover(*oracle_form(g), oracle_steps(seq))
        assert cover_cost(g, SigmaCliqueCover.of(back)).total <= seq.length
