"""A 3k+3 vertex kernel for splitting to a cluster graph.

Two rules, applied to a cvs instance (G, k):

* Rule I   — if some closed-neighborhood class K with |K| >= 2 has a clique
  quotient neighborhood, one vertex of K is redundant: delete it (and any
  vertex this isolates), keeping k unchanged.  Redundancy comes from the
  fact that some optimal solution treats all of K alike, so a class with a
  spare member never needs all its members.
* Rule II  — once Rule I is exhausted and isolates are gone, any positive
  instance has at most 3k vertices; a larger graph is decided negative and
  replaced by the canonical negative instance (a path on three vertices,
  budget 0).

The output therefore has at most 3k+3 vertices and budget at most k, and the
trace records every removal so the run can be replayed and audited: step by
step, :func:`rule1_applicable` and :func:`apply_rule1` reproduce it.
:func:`kernelize` itself exhausts Rule I from one critical-clique
computation, since a Rule I deletion changes no class but its own.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, VertexId, critical_clique_graph, remove_isolated
from .reductions import Instance, Problem


class NotApplicable(Exception):
    """apply_rule1 was handed a vertex Rule I does not apply to."""


@dataclass(frozen=True)
class IsolateRemoval:
    vertices: tuple[VertexId, ...]


@dataclass(frozen=True)
class RuleIStep:
    removed: VertexId
    cascaded: tuple[VertexId, ...]


@dataclass(frozen=True)
class RuleIIStep:
    pass


@dataclass(frozen=True)
class KernelTrace:
    source: Instance
    target: Instance
    steps: tuple


def rule1_applicable(g: Graph) -> VertexId | None:
    """The smallest vertex in a reducible class of size >= 2, if any.

    A class is reducible when its quotient neighborhood is a clique.  An
    isolated vertex forms a class of one, so it is never picked, and deleting
    it changes no other vertex's closed neighborhood.  So the answer on any
    graph is the answer on the graph without its isolated vertices.
    """
    cc = critical_clique_graph(g)
    for members, red in zip(cc.classes, cc.reducible):
        if red and len(members) >= 2:
            return members[0]
    return None


def apply_rule1(g: Graph, v: VertexId) -> tuple[Graph, tuple[VertexId, ...]]:
    """Delete one redundant vertex and whatever that isolates.

    Returns the shrunk graph and the cascade-removed vertices.  Raises
    NotApplicable unless v sits in a reducible class of size >= 2.

    Deleting v lowers only the degrees of v's neighbors, so it isolates
    exactly the neighbors of degree 1; vertices isolated before the step
    stay.  Such a neighbor u has N[u] = {u, v}, and v's twin v' is adjacent
    to every vertex of N[v] but itself, so u = v' and {v, v'} is a whole
    clique component.
    """
    cc = critical_clique_graph(g)
    ci = cc.class_index(v)
    if len(cc.classes[ci]) < 2 or not cc.reducible[ci]:
        raise NotApplicable(f"Rule I does not apply to {v}")
    cascaded = tuple(u for u in g.neighbors(v) if g.degree(u) == 1)
    return g.without_vertices([v, *cascaded]), cascaded


def _canonical_negative() -> Instance:
    p3 = Graph.build(["0", "1", "2"], [("0", "1"), ("1", "2")])
    return Instance(Problem.CVS, p3, 0)


def kernelize(inst: Instance) -> tuple[Instance, KernelTrace]:
    """Shrink a cvs instance to at most 3k+3 vertices without changing the answer.

    Isolate removal first, then Rule I until exhaustion, then Rule II if more
    than 3k vertices remain.  Rule II appears at most once and only as the
    final step; after it the output is the canonical negative instance, which
    downstream solvers decide instantly.

    Rule I is exhausted from the classes of the isolate-free graph, computed
    once.  Deleting a vertex v from a class K with |K| >= 2 changes no other
    vertex's class, the quotient, or any reducible flag: v keeps a twin v' in
    K, and for every other vertex a, v is in N[a] iff v' is, so closed
    neighborhoods that differ with v still differ without it.  Exhaustion
    therefore deletes all but the largest member of each reducible class, and
    the steps come smallest vertex first, the order :func:`rule1_applicable`
    picks them in.  A deletion isolates nothing, since v' keeps every
    neighbor of v, except in a class that is a whole clique component (no
    quotient neighbor): deleting its second-largest member isolates the
    largest, which that step removes as cascaded.
    """
    if inst.problem is not Problem.CVS:
        raise ValueError(f"kernelize expects a cvs instance, got {inst.problem.value}")
    k = inst.budget
    steps: list = []
    g, iso = remove_isolated(inst.graph)
    if iso:
        steps.append(IsolateRemoval(iso))
    cc = critical_clique_graph(g)
    spare = 0
    cascades: dict[VertexId, VertexId] = {}
    for members, row, red in zip(cc.classes, cc.rows, cc.reducible):
        if red and len(members) >= 2:
            spare |= g.mask_of(members[:-1])
            if not row:
                cascades[members[-2]] = members[-1]
    removed = g.vertices_of_mask(spare)
    for v in removed:
        steps.append(RuleIStep(v, (cascades[v],) if v in cascades else ()))
    if removed:
        g = g.without_vertices([*removed, *cascades.values()])
    if g.n > 3 * k:
        out = _canonical_negative()
        steps.append(RuleIIStep())
    else:
        out = Instance(Problem.CVS, g, k)
    assert out.graph.n <= 3 * inst.budget + 3, "kernel exceeds 3k+3 vertices"
    assert out.budget <= inst.budget, "kernel raised the budget"
    return out, KernelTrace(inst, out, tuple(steps))
