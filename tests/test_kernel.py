from __future__ import annotations

import itertools
import random

import pytest

import oracles
from conftest import graphs_on, oracle_form
from splitclust.graph import (
    Graph,
    critical_clique_graph,
    is_cluster_graph,
    remove_isolated,
)
from splitclust.kernel import (
    IsolateRemoval,
    NotApplicable,
    RuleIStep,
    RuleIIStep,
    apply_rule1,
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
            assert rule1_applicable(g) == rule1_applicable(remove_isolated(g)[0]), g


def test_apply_rule1_cascades(k3):
    shrunk, cascaded = apply_rule1(k3, rule1_applicable(k3))
    assert shrunk.n == 2 and cascaded == ()
    final, cascaded = apply_rule1(shrunk, rule1_applicable(shrunk))
    assert final.n == 0 and [str(v) for v in cascaded] == ["c"]


def test_apply_rule1_cascades_only_what_the_step_isolates():
    g = Graph.build("abc", [("a", "b")])  # c was isolated before the step
    shrunk, cascaded = apply_rule1(g, "a")
    assert shrunk == Graph.build("c", []) and [str(v) for v in cascaded] == ["b"]


def test_apply_rule1_rejects_bad_targets(p3):
    with pytest.raises(NotApplicable):
        apply_rule1(p3, p3.vertices[0])


def test_rule1_preserves_answer_exhaustively():
    """Removing one member of a size->=2 reducible class never changes CVS."""
    for n in range(2, 6):
        for g in graphs_on(n):
            v = rule1_applicable(g)
            if v is None:
                continue
            shrunk, _ = apply_rule1(g, v)
            for k in range(0, 3):
                before = solve_cvs_exact(Instance(Problem.CVS, g, k)) is not None
                after = solve_cvs_exact(Instance(Problem.CVS, shrunk, k)) is not None
                assert before == after, (g, k)


# ---------------------------------------------------------------- kernelize


def test_kernelize_shrinks_triangle_to_nothing(k3):
    out, trace = kernelize(Instance(Problem.CVS, k3, 0))
    assert out.graph.n == 0 and out.budget == 0
    assert [type(s) for s in trace.steps] == [RuleIStep, RuleIStep]
    assert str(trace.steps[0].removed) == "a"
    assert [str(v) for v in trace.steps[1].cascaded] == ["c"]


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


def test_kernelize_trace_replays_through_rule1_on_planted_graphs():
    """The one-pass kernel's trace is the step-by-step Rule I loop's trace.

    Extends the exhaustive n <= 5 sweep to planted graphs with 30-60
    vertices, where many classes shrink and whole clique components vanish.
    """
    removals = cascades = 0
    for seed in range(20):
        rng = random.Random(seed)
        g = planted_graph(rng, rng.randint(30, 60))
        for k in (g.n // 6, g.n):
            out, trace = kernelize(Instance(Problem.CVS, g, k))
            steps = list(trace.steps)
            cur, iso = remove_isolated(g)
            if iso:
                assert steps.pop(0) == IsolateRemoval(iso)
            rule2 = steps[-1:] == [RuleIIStep()]
            for step in steps[: len(steps) - rule2]:
                assert rule1_applicable(cur) == step.removed
                cur, cascaded = apply_rule1(cur, step.removed)
                assert step == RuleIStep(step.removed, cascaded)
                removals += 1
                cascades += bool(cascaded)
            assert rule1_applicable(cur) is None
            if rule2:
                assert cur.n > 3 * k and out.graph.n == 3 and out.budget == 0
            else:
                assert out.graph == cur and out.budget == k
    assert removals > 100 and cascades > 10
