from __future__ import annotations

import itertools
import random

import pytest

import oracles
from conftest import PLANTED_NAMES, graphs_on, oracle_form, planted
from splitclust.certificates import (
    CostBreakdown,
    EdgeAdd,
    EdgeDelete,
    InapplicableStep,
    ModificationSequence,
    NodeCliqueCover,
    NotACover,
    P3Packing,
    SigmaCliqueCover,
    VertexSplit,
    cover_cost,
    cover_respects_critical_cliques,
    verify_cevs_cover,
    verify_modification_sequence,
    verify_node_cover,
    verify_p3_packing,
    verify_sigma_cover,
)
from splitclust.graph import Graph, Split, UnknownVertex, VertexId, induced_p3_indices
from splitclust.solvers import max_p3_packing


# ---------------------------------------------------------------- set families


def test_cover_canonicalization():
    cover = SigmaCliqueCover.of([["b", "a"], ["a", "b"], ["c"]])
    assert [sorted(map(str, s)) for s in cover.sets] == [["a", "b"], ["c"]]
    assert cover.weight == 3
    assert len(cover) == 2


def test_cover_keeps_a_frozenset_of_names():
    names = frozenset(map(VertexId.parse, "ab"))
    mixed = frozenset(["c", VertexId.parse("d")])
    cover = SigmaCliqueCover.of([names, mixed])
    assert cover.sets[0] is names
    assert cover.sets[1] == frozenset(map(VertexId.parse, "cd"))
    assert NodeCliqueCover.of(cover.sets).sets[0] is names


def test_empty_set_rejected():
    with pytest.raises(ValueError):
        SigmaCliqueCover.of([["a"], []])
    with pytest.raises(ValueError):
        NodeCliqueCover.of([[]])


def test_packing_normalizes_endpoints_but_keeps_duplicates():
    p = P3Packing.of([("c", "b", "a"), ("a", "b", "c")])
    assert [(str(x), str(y), str(z)) for x, y, z in p.triples] == [
        ("a", "b", "c"),
        ("a", "b", "c"),
    ]
    assert p.size == 2  # duplicates survive so the verifier can reject them


# ---------------------------------------------------------------- edge covers


def test_verify_sigma_cover_accepts(p3):
    cover = SigmaCliqueCover.of([["a", "b"], ["b", "c"]])
    rep = verify_sigma_cover(p3, cover, 4)
    assert rep.valid and rep.reason is None
    assert rep.metrics["weight"] == 4
    assert rep.metrics["valencies"] == {"a": 1, "b": 2, "c": 1}


def test_verify_sigma_cover_rejections(p3, k3):
    non_clique = SigmaCliqueCover.of([["a", "b", "c"]])
    assert not verify_sigma_cover(p3, non_clique, 10).valid
    missing_edge = SigmaCliqueCover.of([["a", "b"]])
    rep = verify_sigma_cover(p3, missing_edge, 10)
    assert not rep.valid and "covered by no set" in rep.reason
    over = SigmaCliqueCover.of([["a", "b"], ["b", "c"]])
    assert not verify_sigma_cover(p3, over, 3).valid
    with pytest.raises(UnknownVertex):
        verify_sigma_cover(k3, SigmaCliqueCover.of([["a", "z"]]), 5)


def test_verify_sigma_cover_names_the_first_uncovered_edge():
    # vertex order 07 < 7 < 10 < c < c.0.1: the first uncovered edge is 7-10,
    # although 10-c comes first in string order
    g = Graph.build(
        ["c", "c.0.1", "07", "7", "10"],
        [("c", "c.0.1"), ("07", "7"), ("07", "c"), ("7", "c"), ("7", "10"), ("10", "c")],
    )
    cover = SigmaCliqueCover.of([["07", "7", "c"], ["c", "c.0.1"]])
    rep = verify_sigma_cover(g, cover, 9)
    assert not rep.valid
    assert rep.reason == "edge 7 10 is covered by no set"
    assert rep.metrics == {
        "weight": 5,
        "budget": 9,
        "sets": 2,
        "valencies": {"07": 1, "7": 1, "10": 0, "c": 2, "c.0.1": 1},
    }


def test_verify_node_cover(k3, p3):
    assert verify_node_cover(k3, NodeCliqueCover.of([["a", "b", "c"]]), 1).valid
    rep = verify_node_cover(p3, NodeCliqueCover.of([["a", "b"]]), 5)
    assert not rep.valid and "vertex c" in rep.reason
    assert not verify_node_cover(p3, NodeCliqueCover.of([["a", "b"], ["c"]]), 1).valid


def _greedy_cover(g: Graph) -> list[list[VertexId]]:
    """Each edge no earlier set holds, grown greedily into a maximal clique,
    then a singleton per isolated vertex: a valid sigma and node cover."""
    covered = [0] * g.n
    sets = []
    for i, row in enumerate(g.rows):
        rest = row & ~covered[i] & -(2 << i)
        while rest:
            j = (rest & -rest).bit_length() - 1
            q, cand = 1 << i | 1 << j, g.rows[i] & g.rows[j]
            while cand:
                x = cand & -cand
                q |= x
                cand &= g.rows[x.bit_length() - 1]
            for x in g.vertices_of_mask(q):
                covered[g.index(x)] |= q
            sets.append(list(g.vertices_of_mask(q)))
            rest &= ~covered[i]
    return sets + [[v] for v in g.isolated_vertices()]


def _mutants(g: Graph, sets, rng):
    """The cover as a list of sets, then one change of it per kind: drop a
    member, add a non-neighbour, drop a set, rename a member to an unknown
    vertex, or give a set as str names (the last as raw set families)."""
    yield "same", [frozenset(s) for s in sets]
    k = rng.randrange(len(sets))
    big = [s for s in sets if len(s) >= 2]
    if big:
        s = rng.choice(big)
        yield "drop member", [t if t is not s else frozenset(s) - {rng.choice(s)} for t in sets]
    for s in rng.sample(sets, len(sets)):
        outside = [v for v in g.vertices if v not in s and not all(g.has_edge(v, u) for u in s)]
        if outside:
            plus = frozenset(s) | {rng.choice(outside)}
            yield "add non-neighbour", [t if t is not s else plus for t in sets]
            break
    yield "drop set", [frozenset(t) for j, t in enumerate(sets) if j != k]
    renamed = [*sets[k]]
    renamed[rng.randrange(len(renamed))] = VertexId.parse(rng.choice(["zz", "99", "c.1"]))
    yield "unknown", [t if j != k else frozenset(renamed) for j, t in enumerate(sets)]
    yield "str names", [frozenset(map(str, t)) if j == k else frozenset(t) for j, t in enumerate(sets)]


@pytest.mark.parametrize(
    "kind, verify, oracle",
    [
        (SigmaCliqueCover, verify_sigma_cover, oracles.sigma_cover_report),
        (NodeCliqueCover, verify_node_cover, oracles.node_cover_report),
    ],
    ids=["sigma", "node"],
)
def test_cover_verifiers_match_the_oracle_on_mutated_covers(kind, verify, oracle):
    """Valid covers of seeded graphs, each changed once, are judged as the
    name-level reference judges them: validity, reason, and metrics, down to
    the key order of the valencies."""
    rng = random.Random(24)
    graphs = [planted(rng, n, (2, 4), 0.3)[0] for n in (5, 7, 9)]
    for n in (4, 6, 8, 9):
        names = rng.sample(PLANTED_NAMES, n)
        pairs = [e for e in itertools.combinations(names, 2) if rng.random() < 0.5]
        graphs.append(Graph.build(names, pairs))
    reasons = set()
    for g in graphs:
        order = [str(v) for v in g.vertices]
        _, edges = oracle_form(g)
        for _ in range(4):
            sets = _greedy_cover(g)
            rng.shuffle(sets)
            for change, family in _mutants(g, sets, rng):
                if change == "str names":  # the raw constructor keeps str members
                    cover = kind(tuple(family))
                else:
                    cover = kind.of(family)
                size = sum(map(len, cover.sets)) if kind is SigmaCliqueCover else len(cover)
                budget = max(0, size - rng.randrange(2))
                named = [[str(v) for v in s] for s in cover.sets]
                try:
                    expected = oracle(order, edges, named, budget)
                except oracles.UnknownName as exc:
                    with pytest.raises(UnknownVertex, match=f"^{exc}$"):
                        verify(g, cover, budget)
                    reasons.add("unknown")
                    continue
                rep = verify(g, cover, budget)
                assert (rep.valid, rep.reason, rep.metrics) == expected, (change, named)
                assert list(rep.metrics["valencies"]) == order
                reasons.add(next(
                    (word for word in ("clique", "no set", "budget") if word in (rep.reason or "")),
                    "valid",
                ))
    assert reasons == {"valid", "unknown", "clique", "no set", "budget"}


# ---------------------------------------------------------------- sequences


def test_sequence_normalization_flags():
    add = EdgeAdd("a", "c")
    delete = EdgeDelete("a", "b")
    split = VertexSplit(Split.of("b", ["a"], ["c"]))
    assert ModificationSequence((add, delete, split)).is_normalized()
    assert not ModificationSequence((delete, add)).is_normalized()
    assert ModificationSequence((split,)).splits_only()
    assert not ModificationSequence((add,)).splits_only()


def test_edge_steps_order_endpoints():
    assert str(EdgeAdd("c", "a").u) == "a"
    assert EdgeAdd("c", "a") == EdgeAdd("a", "c")


def test_apply_and_intermediates(p3):
    seq = ModificationSequence(
        (EdgeAdd("a", "c"), EdgeDelete("a", "b"), VertexSplit(Split.of("c", ["a"], ["b"])))
    )
    graphs = [
        ModificationSequence(seq.steps[:i]).apply_to(p3) for i in range(seq.length + 1)
    ]
    assert [g.edge_count for g in graphs] == [2, 3, 2, 2]
    assert graphs[-1].has_vertex("c.0") and not graphs[-1].has_vertex("c")
    assert seq.apply_to(p3) == graphs[-1]


def test_inapplicable_steps_carry_index(p3):
    dup = ModificationSequence((EdgeAdd("a", "c"), EdgeAdd("a", "c")))
    with pytest.raises(InapplicableStep) as info:
        dup.apply_to(p3)
    assert info.value.index == 1
    ghost = ModificationSequence((EdgeDelete("a", "c"),))
    with pytest.raises(InapplicableStep) as info:
        ghost.apply_to(p3)
    assert info.value.index == 0
    bad_split = ModificationSequence((VertexSplit(Split.of("z", [], [])),))
    with pytest.raises(InapplicableStep):
        bad_split.apply_to(p3)


# "07" and "7" are distinct roots with equal numeric value; "c.0.1" is taken
# before c.0 exists, so splitting c.0 would reuse a name.
REPLAY_NAMES = ["c", "c.0.1", "07", "7", "10", "2", "a", "x.1.0"]


def _random_steps(rng, names, edges, count):
    """A seeded applicable sequence, replayed on the oracle's name and edge sets.

    Returns the steps and the oracle (names, edges) after them.  Splits pick
    copies as readily as original vertices.
    """
    names, edges = set(names), {oracles.norm_edge(u, w) for u, w in edges}
    steps = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.3 and len(names) >= 2:
            u, w = rng.sample(sorted(names), 2)
            step = EdgeDelete(u, w) if oracles.adjacent(edges, u, w) else EdgeAdd(u, w)
            edges ^= {oracles.norm_edge(u, w)}
        else:
            free = [t for t in sorted(names) if not {f"{t}.0", f"{t}.1"} & names]
            t = rng.choice(free)
            nbrs = sorted(oracles.neighbors(names, edges, t))
            side_a = {x for x in nbrs if rng.random() < 0.5}
            side_b = {x for x in nbrs if x not in side_a or rng.random() < 0.3}
            step = VertexSplit(Split.of(t, side_a, side_b))
            edges = {e for e in edges if t not in e}
            edges |= {oracles.norm_edge(f"{t}.0", x) for x in side_a}
            edges |= {oracles.norm_edge(f"{t}.1", x) for x in side_b}
            names = names - {t} | {f"{t}.0", f"{t}.1"}
        steps.append(step)
    return steps, oracles.make(names, edges)


def test_apply_to_matches_an_edge_set_replay():
    rng = random.Random(31)
    for _ in range(300):
        names = rng.sample(REPLAY_NAMES, rng.randint(1, len(REPLAY_NAMES)))
        edges = [p for p in itertools.combinations(names, 2) if rng.random() < 0.5]
        steps, expected = _random_steps(rng, names, edges, rng.randint(0, 12))
        final = ModificationSequence(tuple(steps)).apply_to(Graph.build(names, edges))
        assert oracle_form(final) == expected


def test_inapplicable_steps_name_their_index_and_reason():
    rng = random.Random(32)
    names = ["c", "c.0.1", "07", "7", "10", "2", "x", "x.1"]
    edges = [("c", "07"), ("07", "7"), ("7", "10"), ("10", "2"), ("c", "2"), ("x", "2")]
    g = Graph.build(names, edges)
    for _ in range(60):
        steps, (now, now_edges) = _random_steps(rng, names, edges, rng.randint(0, 6))
        at = len(steps)
        u, w = rng.sample(now, 2)
        t = rng.choice(now)
        nbrs = sorted(oracles.neighbors(now, now_edges, t))
        stranger = min(v for v in now if v != t and v not in nbrs) if len(nbrs) < len(now) - 1 else t
        pair = EdgeAdd(u, w)
        present = oracles.adjacent(now_edges, u, w)
        bad = [
            (EdgeAdd(u, w) if present else EdgeDelete(u, w),
             f"edge {pair.u} {pair.v} {'already present' if present else 'not present'}"),
            (EdgeAdd(t, t), f"self-loop at {t}"),
            (EdgeDelete(t, "z"), "unknown vertex z"),
            (VertexSplit(Split.of("z", [], [])), "unknown vertex z"),
            (VertexSplit(Split.of(t, [stranger], nbrs)),
             f"split of {t}: {stranger} is not a neighbor of {t}"),
            ("not a step", "unknown step type str"),
        ]
        if nbrs:
            kept = nbrs[1:]
            bad.append((VertexSplit(Split.of(t, kept, kept)),
                        f"split of {t}: neighbor {nbrs[0]} assigned to neither copy"))
        for v in now:  # x until x.1 is split, c.0 once c is
            taken = [c for c in (f"{v}.0", f"{v}.1") if c in now]
            if taken:
                whole = oracles.neighbors(now, now_edges, v)
                bad.append((VertexSplit(Split.of(v, whole, [])),
                            f"split copy name {taken[0]} already in use"))
        for step, reason in bad:
            seq = ModificationSequence(tuple(steps) + (step,))
            with pytest.raises(InapplicableStep) as info:
                seq.apply_to(g)
            assert (info.value.index, info.value.reason) == (at, reason)


def test_verify_modification_sequence(p3):
    split = ModificationSequence((VertexSplit(Split.of("b", ["a"], ["c"])),))
    rep = verify_modification_sequence(p3, split, 1, "cvs")
    assert rep.valid and rep.final_graph is not None
    assert rep.metrics["final_components"] == 2

    edit = ModificationSequence((EdgeDelete("a", "b"),))
    assert not verify_modification_sequence(p3, edit, 1, "cvs").valid
    assert verify_modification_sequence(p3, edit, 1, "cevs").valid
    assert not verify_modification_sequence(p3, edit, 0, "cevs").valid

    nothing = ModificationSequence(())
    rep = verify_modification_sequence(p3, nothing, 0, "cevs")
    assert not rep.valid and "not a cluster graph" in rep.reason

    with pytest.raises(ValueError):
        verify_modification_sequence(p3, nothing, 0, "scc")


# ---------------------------------------------------------------- packings


def test_verify_p3_packing_accepts(ccl8):
    p = P3Packing.of(
        [("a", "b", "c"), ("c", "d", "e"), ("a", "h", "g"),
         ("g", "f", "e"), ("h", "c", "f"), ("b", "g", "d")]
    )
    rep = verify_p3_packing(ccl8, p)
    assert rep.valid and rep.metrics["size"] == 6


def test_verify_p3_packing_rejections(p3, ccl8):
    not_induced = P3Packing.of([("a", "b", "c")])
    k3 = Graph.build("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert not verify_p3_packing(k3, not_induced).valid

    missing_edge = P3Packing.of([("a", "c", "b")])  # a-c is not an edge of P3
    assert not verify_p3_packing(p3, missing_edge).valid

    dup = P3Packing.of([("a", "b", "c"), ("c", "b", "a")])
    assert not verify_p3_packing(p3, dup).valid

    shared_center = P3Packing.of([("a", "b", "c"), ("a", "b", "g")])
    assert not verify_p3_packing(ccl8, shared_center).valid

    two_shared = P3Packing.of([("a", "b", "c"), ("a", "h", "c")])
    # a and c shared between distinct centers b, h
    assert not verify_p3_packing(ccl8, two_shared).valid


def test_verify_p3_packing_names_the_first_conflicting_pair():
    """Packings mutated to share a center or two vertices get the reason a
    scan over every pair of triples, in order, gives for the first conflict."""

    def pairwise_reason(triples):
        for t1, t2 in itertools.combinations(triples, 2):
            if len(set(t1) & set(t2)) >= 2:
                return (
                    f"triples ({t1[0]},{t1[1]},{t1[2]}) and ({t2[0]},{t2[1]},{t2[2]})"
                    " share two vertices"
                )
            if t1[1] == t2[1]:
                return f"two triples share the center {t1[1]}"
        return None

    rng = random.Random(12)
    mutated = 0
    for _ in range(40):
        n = rng.randint(5, 16)
        names = [f"v{i}" for i in range(n)]
        edges = [e for e in itertools.combinations(names, 2) if rng.random() < 0.4]
        g = Graph.build(names, edges)
        packing = max_p3_packing(g)
        assert verify_p3_packing(g, packing).valid
        paths = sorted(
            (g.vertices[x], g.vertices[c], g.vertices[z])
            for x, c, z in induced_p3_indices(g.rows)
        )
        for t in packing.triples:
            for u in paths:
                if u in packing.triples:
                    continue
                if u[1] == t[1] or len(set(u) & set(t)) >= 2:
                    bad = P3Packing.of(list(packing.triples) + [u])
                    rep = verify_p3_packing(g, bad)
                    assert not rep.valid
                    assert rep.reason == pairwise_reason(bad.triples)
                    mutated += 1
    assert mutated > 100


# ---------------------------------------------------------------- cover costs


def test_cover_cost_breakdown_on_counterexample(ccl8):
    two_set = SigmaCliqueCover.of([["a", "b", "c", "h"], ["c", "d", "e", "f", "g"]])
    bd = cover_cost(ccl8, two_set)
    assert bd == CostBreakdown(total=6, nonedges_inside=3, edges_outside=2, excess=1)
    assert not cover_respects_critical_cliques(ccl8, two_set)


def test_respecting_covers_on_counterexample(ccl8):
    families = [
        [["a", "b", "c", "g", "h"], ["c", "d", "e", "f", "g"]],
        [["a", "b", "h"], ["c", "d", "e", "f", "g"]],
        [["a", "b", "h"], ["b", "c", "g", "h"], ["c", "d", "f", "g"], ["d", "e", "f"]],
    ]
    for sets in families:
        cover = SigmaCliqueCover.of(sets)
        assert cover_cost(ccl8, cover).total == 6
        assert cover_respects_critical_cliques(ccl8, cover)


def test_cover_cost_requires_coverage(p3):
    with pytest.raises(NotACover):
        cover_cost(p3, SigmaCliqueCover.of([["a", "b"]]))
    with pytest.raises(UnknownVertex):
        cover_cost(p3, SigmaCliqueCover.of([["a", "b", "z"], ["c"]]))
    with pytest.raises(NotACover):
        cover_respects_critical_cliques(p3, SigmaCliqueCover.of([["a"]]))


def test_cover_cost_matches_bruteforce_up_to_n3():
    for g in graphs_on(3):
        names, edges = oracle_form(g)
        subsets = [
            frozenset(c)
            for r in range(1, 4)
            for c in itertools.combinations(names, r)
        ]
        for mask in range(1, 1 << len(subsets)):
            family = [subsets[i] for i in range(len(subsets)) if mask >> i & 1]
            cover = SigmaCliqueCover.of(family)
            want = oracles.cover_cost(names, edges, family)
            if want is None:
                with pytest.raises(NotACover):
                    cover_cost(g, cover)
                with pytest.raises(NotACover):
                    cover_respects_critical_cliques(g, cover)
            else:
                assert cover_cost(g, cover).total == want
                assert cover_respects_critical_cliques(g, cover) == (
                    oracles.family_respects(names, edges, family)
                )
            cliques = all(oracles.is_clique(edges, c) for c in family)
            edges_covered = all(
                any({u, w} <= c for c in family) for u, w in edges
            )
            vertices_covered = set().union(*family) == set(names)
            # budgets at the family's own weight and size: only shape counts
            sigma = verify_sigma_cover(g, cover, cover.weight)
            assert sigma.valid == (cliques and edges_covered)
            node = verify_node_cover(g, NodeCliqueCover.of(family), len(family))
            assert node.valid == (cliques and vertices_covered)


def test_cost_breakdown_adds_up():
    g = Graph.build("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    bd = cover_cost(g, SigmaCliqueCover.of([["a", "b", "c"], ["c", "d"]]))
    assert bd.total == bd.nonedges_inside + bd.edges_outside + bd.excess
    assert bd == CostBreakdown(total=2, nonedges_inside=1, edges_outside=0, excess=1)


def test_verify_cevs_cover_reports_cost_and_budget(ccl8):
    cover = SigmaCliqueCover.of([["a", "b", "c", "h"], ["c", "d", "e", "f", "g"]])
    metrics = {
        "cost": 6,
        "additions": 3,
        "deletions": 2,
        "splits": 1,
        "respectsCriticalCliques": False,
    }
    ok = verify_cevs_cover(ccl8, cover, 6)
    assert ok.valid and ok.reason is None
    assert ok.metrics == {**metrics, "budget": 6}
    over = verify_cevs_cover(ccl8, cover, 5)
    assert not over.valid
    assert over.reason == "cost 6 exceeds budget 5"
    assert over.metrics == {**metrics, "budget": 5}
