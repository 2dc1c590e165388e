from __future__ import annotations

import itertools
import random

import pytest

import oracles
from conftest import graphs_on, oracle_form, replay_kernel_trace
from splitclust.graph import (
    Graph,
    critical_clique_graph,
    is_cluster_graph,
)
from splitclust.kernel import (
    IsolateRemoval,
    RuleIStep,
    RuleIIStep,
    kernelize,
    rule1_applicable,
)
from splitclust.reductions import Instance, Problem
from splitclust.solvers import solve_cvs_exact


# ---------------------------------------------------------------- Rule I


def test_rule1_picks_smallest_member_of_first_big_reducible_class(k3):
    assert str(rule1_applicable(k3)) == "a"


def test_rule1_not_applicable_cases(p3, ccl8):
    assert rule1_applicable(p3) is None  # singleton classes only
    # the counterexample's non-singleton classes are all irreducible
    assert rule1_applicable(ccl8) is None


def test_rule1_takes_isolated_vertices():
    g = Graph.build("abc", [("a", "b")])  # c is isolated, a class of one
    assert str(rule1_applicable(g)) == "a"
    assert rule1_applicable(Graph.build("ab", [])) is None


def test_rule1_ignores_isolated_vertices_exhaustively():
    """On every labeled graph with <= 5 vertices, Rule I picks what it picks
    on the graph without its isolated vertices."""
    for n in range(6):
        for g in graphs_on(n):
            core = g.without_vertices(g.isolated_vertices())
            assert rule1_applicable(g) == rule1_applicable(core), g


def test_rule1_applicable_matches_the_oracle_exhaustively():
    """On every labeled graph with <= 5 vertices, Rule I picks the vertex
    the name-level oracle picks."""
    for n in range(6):
        for g in graphs_on(n):
            v = rule1_applicable(g)
            assert (None if v is None else str(v)) == oracles.rule1_pick(*oracle_form(g)), g


def test_apply_rule1_cascades(k3):
    # the first deletion isolates nothing; the second isolates c, the last
    # twin of the clique component
    out, trace = kernelize(Instance(Problem.CVS, k3, 0))
    a, b, c = k3.vertices
    assert trace.steps == (RuleIStep(a, ()), RuleIStep(b, (c,)))
    names, edges = oracle_form(k3)
    names, edges, cascaded = oracles.rule1_step(names, edges, "a")
    assert cascaded == ()
    assert oracles.rule1_step(names, edges, "b") == ((), frozenset(), ("c",))


def test_apply_rule1_cascades_only_what_the_step_isolates():
    # c is isolated before the step, so deleting a cascades only b
    names, edges, cascaded = oracles.rule1_step(*oracle_form(Graph.build("abc", [("a", "b")])), "a")
    assert names == ("c",) and edges == frozenset() and cascaded == ("b",)
    g = Graph.build("abcd", [("a", "b")])
    _, trace = kernelize(Instance(Problem.CVS, g, 1))
    a, b, c, d = g.vertices
    assert trace.steps == (IsolateRemoval((c, d)), RuleIStep(a, (b,)))


def test_rule1_preserves_answer_exhaustively():
    """Removing one member of a size->=2 reducible class never changes CVS."""
    for n in range(2, 6):
        for g in graphs_on(n):
            names, edges = oracle_form(g)
            v = oracles.rule1_pick(names, edges)
            if v is None:
                continue
            shrunk = Graph.build(*oracles.rule1_step(names, edges, v)[:2])
            for k in range(0, 3):
                before = solve_cvs_exact(Instance(Problem.CVS, g, k)) is not None
                after = solve_cvs_exact(Instance(Problem.CVS, shrunk, k)) is not None
                assert before == after, (g, k)


# ---------------------------------------------------------------- kernelize


def test_kernelize_shrinks_triangle_to_nothing(k3):
    out, trace = kernelize(Instance(Problem.CVS, k3, 0))
    assert out.graph.n == 0 and out.budget == 0
    assert [type(s) for s in trace.steps] == [RuleIStep, RuleIStep]


def test_kernelize_rule2_replaces_with_fixed_negative(p3):
    out, trace = kernelize(Instance(Problem.CVS, p3, 0))
    assert [type(s) for s in trace.steps] == [RuleIIStep]
    assert out.budget == 0 and out.graph.n == 3
    assert solve_cvs_exact(out) is None  # the replacement is a NO instance


def test_kernelize_keeps_small_instances(p3):
    out, trace = kernelize(Instance(Problem.CVS, p3, 1))
    assert out.graph == p3 and out.budget == 1 and trace.steps == ()


def test_kernelize_strips_isolates_first():
    # d is isolated; the rest is a P3, which neither rule touches at k=1
    g = Graph.build("abcd", [("a", "b"), ("b", "c")])
    out, trace = kernelize(Instance(Problem.CVS, g, 1))
    assert [type(s) for s in trace.steps] == [IsolateRemoval]
    assert [str(v) for v in trace.steps[0].vertices] == ["d"]
    assert out.graph.n == 3


def test_kernelize_isolate_removal_can_cascade_into_rule1():
    g = Graph.build("abcd", [("a", "b")])  # c, d isolated; then K2 collapses
    out, trace = kernelize(Instance(Problem.CVS, g, 1))
    assert [type(s) for s in trace.steps] == [IsolateRemoval, RuleIStep]
    assert out.graph.n == 0


def test_kernelize_requires_cvs(p3):
    with pytest.raises(ValueError):
        kernelize(Instance(Problem.SCC, p3, 1))


def test_kernelize_size_bound_exhaustive():
    """Kernel bounds and answer preservation on every n<=5 graph, k<=2."""
    for n in range(1, 6):
        for g in graphs_on(n):
            for k in range(0, 3):
                out, trace = kernelize(Instance(Problem.CVS, g, k))
                assert out.graph.n <= 3 * k + 3
                assert out.budget <= k
                before = solve_cvs_exact(Instance(Problem.CVS, g, k)) is not None
                after = solve_cvs_exact(out) is not None
                assert before == after


def test_kernelize_counterexample_is_already_kernel(ccl8):
    # Rule I never applies; the size trigger 8 > 3k fires for k <= 2 and the
    # replacement is sound because ccl8 needs 6 splits (min cover weight 14)
    out2, trace2 = kernelize(Instance(Problem.CVS, ccl8, 2))
    assert [type(s) for s in trace2.steps] == [RuleIIStep]
    assert solve_cvs_exact(out2) is None
    # at k = 3 the graph is already small enough and stays put
    out3, trace3 = kernelize(Instance(Problem.CVS, ccl8, 3))
    assert out3.graph == ccl8 and out3.budget == 3 and trace3.steps == ()


def planted_graph(rng: random.Random, n: int) -> Graph:
    """Cliques over a shuffled 0..n-1, an eighth of the vertices in a second
    clique, then up to three vertex pairs toggled."""
    order = [str(i) for i in range(n)]
    rng.shuffle(order)
    clusters = []
    at = 0
    while at < n:
        size = rng.randint(1, 8)
        clusters.append(set(order[at : at + size]))
        at += size
    for v in rng.sample(order, n // 8):
        rng.choice(clusters).add(v)
    edges = {tuple(sorted(p)) for c in clusters for p in itertools.combinations(c, 2)}
    for _ in range(rng.randint(0, 3)):
        edges ^= {tuple(sorted(rng.sample(order, 2)))}
    return Graph.build(order, edges)


def test_kernelize_edits_the_graph_once(editors):
    """The isolated vertices, the Rule I deletions and their cascades go in
    one edit of the input graph."""
    g = planted_graph(random.Random(3), 40)
    iso = [f"i{j}" for j in range(4)]
    g = Graph.build([*map(str, g.vertices), *iso], [(str(u), str(w)) for u, w in g.edges()])
    out, trace = kernelize(Instance(Problem.CVS, g, g.n))
    assert trace.steps[0] == IsolateRemoval(g.isolated_vertices())
    assert sum(isinstance(step, RuleIStep) for step in trace.steps) > 5
    assert any(step.cascaded for step in trace.steps[1:])
    assert len(editors) == 1
    assert out.graph.isolated_vertices() == () and out.budget == g.n


def test_kernelize_trace_replays_through_rule1_on_planted_graphs():
    """The one-pass kernel's trace is the step-by-step Rule I loop's trace,
    replayed through the name-level oracle.

    Extends the exhaustive n <= 5 sweep to planted graphs with 30-60
    vertices, where many classes shrink and whole clique components vanish.
    """
    removals = cascades = 0
    for seed in range(20):
        rng = random.Random(seed)
        g = planted_graph(rng, rng.randint(30, 60))
        for k in (g.n // 6, g.n):
            inst = Instance(Problem.CVS, g, k)
            steps, cascaded = replay_kernel_trace(inst, *kernelize(inst))
            removals += steps
            cascades += cascaded
    assert removals > 100 and cascades > 10
