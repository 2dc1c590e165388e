"""Reductions between the four problems, with certificate translation.

The four problems, all parameterized decision problems on simple graphs:

* ncc  — cover every vertex by at most `budget` cliques;
* scc  — cover every edge by cliques of total weight at most `budget`
         (weight = sum of set sizes);
* cvs  — at most `budget` vertex splits to reach a cluster graph;
* cevs — at most `budget` edge additions, edge deletions, and vertex splits
         to reach a cluster graph.

The reductions implemented:

* ncc -> scc: add ell = 2|E|+1 universal vertices (adjacent to every original
  vertex, mutually non-adjacent) and set the weight budget to
  ell * (|V| + budget + 1) - 1.  Certificates translate both ways; the
  backward direction picks the universal vertex of minimum covering weight
  and strips it out of its sets.
* cvs <-> scc on the *same* graph: splitting to a cluster graph within k is
  the same as covering edges with weight |V| - |isolated| + k, since a
  cover needs no set on an isolated vertex.  Any cover, isolated vertices
  and singleton sets included, is turned into an explicit split sequence by
  repeatedly pulling a multiply-covered vertex out of its first covering
  set, then isolating a copy for each singleton on a vertex of a larger
  set; and back again by reading clusters off the split graph and
  contracting split copies.  The graph along the way is always the union
  of the cliques of the current sets, so each split is computed from the
  sets alone, with no graph built (the argument is in
  :func:`_pull_outs`); one replay checks the result.  It is the one
  place a split is read off a cover: the cvs solver and the cevs
  realization both use it.
* cevs covers -> normalized sequences: the edits to the union of the
  sets' cliques, then the pull-outs; one replay on g checks the whole.
* cvs -> cevs: replace every vertex by a clique of k+1 copies (complete
  joins along edges); the edit budget becomes k * (k+1).  Blowing up makes
  edits useless: any solution may as well split only.  An isolated vertex
  becomes a clique component of its own, which no solution touches.
"""

from __future__ import annotations

import bisect
import enum
import heapq
from dataclasses import dataclass, field

from .certificates import (
    EdgeAdd,
    EdgeDelete,
    ModificationSequence,
    NodeCliqueCover,
    SigmaCliqueCover,
    VertexSplit,
    cover_cost,
    family_masks,
    shared_rows,
    verify_modification_sequence,
    verify_node_cover,
    verify_sigma_cover,
)
from .graph import (
    DuplicateVertex,
    Graph,
    Split,
    VertexId,
    component_masks,
    is_cluster_graph,
)


class InvalidCertificate(Exception):
    """A certificate handed to a translator does not verify."""


class BudgetUnderflow(Exception):
    """A weight budget below |V| - |isolated|: the scc instance is trivially
    negative and has no cvs counterpart."""


class NotAClusterGraphAfter(Exception):
    """A split sequence was read back as a cover but does not end in clusters."""


class Problem(enum.Enum):
    NCC = "ncc"
    SCC = "scc"
    CVS = "cvs"
    CEVS = "cevs"


@dataclass(frozen=True)
class Instance:
    problem: Problem
    graph: Graph
    budget: int

    def __post_init__(self):
        # bool is a subclass of int: True is not a budget of 1
        if not isinstance(self.budget, int) or isinstance(self.budget, bool) or self.budget < 0:
            raise ValueError(f"budget must be a non-negative integer: {self.budget!r}")

    def require(self, problem: Problem) -> None:
        """Raise ValueError unless this is an instance of `problem`."""
        if self.problem is not problem:
            raise ValueError(f"expected a {problem.value} instance, got {self.problem.value}")


@dataclass(frozen=True, eq=False)
class ReductionTrace:
    kind: str
    source: Instance
    target: Instance
    parameters: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# ncc -> scc
# ---------------------------------------------------------------------------


def universal_names(g: Graph, count: int) -> tuple[VertexId, ...]:
    """Fresh vertex names u1..u<count>, lengthening the base on collision.

    Deterministic in the input graph alone, so certificate translation can
    recompute the reduced instance without carrying a trace around.
    """
    base = "u"
    while any(v.root.startswith(base) for v in g.vertices):
        base += "u"
    return tuple(VertexId(f"{base}{i}") for i in range(1, count + 1))


def _with_universal(g: Graph, names: tuple[VertexId, ...]) -> Graph:
    """g plus the fresh `names` of :func:`universal_names`, at least one,
    each adjacent to every vertex of g and to nothing else.

    The rows are built directly, one shift per old row.  The fresh names
    are one block in vertex order.  Their roots are not all digits, so
    every all-digit root of g sorts before them; they start with a base
    that no root of g starts with, and a string sorting between two strings
    that share a prefix shares it too.  So the k old vertices before the
    block keep their index, the others move up by len(names), each old row
    gains the block, and each fresh row is every old vertex.
    """
    fresh, count = sorted(names), len(names)
    k = bisect.bisect_left(g.vertices, fresh[0])
    low = (1 << k) - 1
    block = ((1 << count) - 1) << k
    rows = [(row & low) | (row >> k << (k + count)) | block for row in g.rows]
    old = ((1 << (g.n + count)) - 1) & ~block
    rows[k:k] = [old] * count
    return Graph((*g.vertices[:k], *fresh, *g.vertices[k:]), tuple(rows))


def _scc_of_ncc(inst: Instance) -> tuple[Instance, tuple[VertexId, ...]]:
    """The scc instance an ncc instance reduces to, and its ell universal
    vertices, named once for the reduction and for each translator."""
    inst.require(Problem.NCC)
    g, s = inst.graph, inst.budget
    ell = 2 * g.edge_count + 1
    universal = universal_names(g, ell)
    target = Instance(Problem.SCC, _with_universal(g, universal), ell * (g.n + s + 1) - 1)
    return target, universal


def reduce_ncc_to_scc(inst: Instance) -> tuple[Instance, ReductionTrace]:
    """(G, s) ncc-positive iff (G^ell, ell*(|V|+s+1)-1) scc-positive, ell = 2|E|+1."""
    target, universal = _scc_of_ncc(inst)
    parameters = {"ell": len(universal), "universal": [str(u) for u in universal]}
    return target, ReductionTrace("ncc-to-scc", inst, target, parameters)


def translate_ncc_cert_to_scc(inst: Instance, cover: NodeCliqueCover) -> SigmaCliqueCover:
    """Turn a node cover of the ncc instance into an edge cover of its reduction."""
    reduced, universals = _scc_of_ncc(inst)
    g = inst.graph
    report = verify_node_cover(g, cover, inst.budget)
    if not report.valid:
        raise InvalidCertificate(report.reason)
    # disjointify in canonical order so the family is a partition
    taken: set[VertexId] = set()
    classes: list[frozenset[VertexId]] = []
    for s in cover.sets:
        rest = s - taken
        if rest:
            classes.append(rest)
            taken |= rest
    sets: list[frozenset[VertexId]] = [
        cls | {u} for cls in classes for u in universals
    ]
    index = {v: cls for cls in classes for v in cls}
    sets += [
        frozenset((x, y)) for x, y in g.edges() if index[x] is not index[y]
    ]
    out = SigmaCliqueCover.of(sets)
    check = verify_sigma_cover(reduced.graph, out, reduced.budget)
    assert check.valid, f"translated cover failed to verify: {check.reason}"
    return out


def translate_scc_cert_to_ncc(inst: Instance, cover: SigmaCliqueCover) -> NodeCliqueCover:
    """Read a node cover of the ncc instance off an edge cover of its reduction.

    Picks the universal vertex u* of minimum total covering weight (ties by
    name), and returns the sets containing u* with u* removed: few enough
    sets, each a clique of the original graph, jointly covering it.
    """
    reduced, universals = _scc_of_ncc(inst)
    report = verify_sigma_cover(reduced.graph, cover, reduced.budget)
    if not report.valid:
        raise InvalidCertificate(report.reason)
    weight = dict.fromkeys(universals, 0)
    for s in cover.sets:
        for u in s & weight.keys():
            weight[u] += len(s)
    star = min(weight, key=lambda u: (weight[u], u))
    sets = [s - {star} for s in cover.sets if star in s]
    out = NodeCliqueCover.of(s for s in sets if s)
    check = verify_node_cover(inst.graph, out, inst.budget)
    assert check.valid, f"translated cover failed to verify: {check.reason}"
    return out


# ---------------------------------------------------------------------------
# covers <-> split and modification sequences (same graph)
# ---------------------------------------------------------------------------


def _pull_outs(g: Graph, cover: SigmaCliqueCover) -> list[VertexSplit]:
    """The weight - |covered| splits that realize a cover of g.

    Takes any valid cover of any graph, and does not check it; |covered|
    counts the vertices in some set.  A vertex in no set is isolated and is
    left alone.  While some vertex u lies in two or more sets of two or
    more vertices, u is pulled out of its first covering set C1, first by
    sorted members: u.0 takes u's place in C1 and u.1 its place in u's other
    sets.  Then, in order of name, each singleton {v} whose v also lies in a
    larger set isolates one copy of v.

    Every split is read off the family alone.  The invariant: the current
    graph is the union of the cliques of the current sets of two or more
    vertices, and its other vertices are isolated.  It holds at the start,
    since every set is a clique of g and every edge lies in a set.  So N(u)
    is the union of u's sets minus u, and the split is ``Split(u, C1 - {u},
    (union of u's other sets) - {u})``.  Afterwards u.0 is adjacent to the
    rest of C1, u.1 to the rest of the other sets, the two copies share no
    set, and no other pair changes, so the invariant holds again.  A
    pull-out lowers the total excess by one and changes no other name's
    valency, so a heap of the names in two or more sets, fed only with u.1,
    gives each next u; the sets that hold a name are tracked, and no graph
    is built.  When the heap is empty the sets are disjoint, and the graph
    is their cluster graph.

    The isolating tail.  Then v's smallest current copy x is v itself if v
    was never pulled out, else v.0, which holds v's first set and is never
    split again.  x lies in one set S, so ``Split(x, S - {x}, ∅)`` is a
    pull-out from S with no other sets: x.0 takes x's place in S, x.1 is
    left isolated, and the graph stays a cluster graph.  Isolated names, g's
    included, are tracked as holding no set, so no copy takes one.  The
    tail comes after every pull-out so that a singleton changes no
    pull-out: a cover and the same cover without its singletons get the
    same pull-outs under the same copy names, and the cevs certificates,
    pinned by digest, rest on exactly this order.

    Counting: the pull-outs number the weight of the larger sets minus the
    vertices in them, and the tail one per singleton on such a vertex; any
    other singleton is its vertex's only set.  So the total is weight -
    |covered|, which is weight - |V| when every vertex lies in a set.
    """
    sets = [sorted(s) for s in cover.sets if len(s) >= 2]  # each kept sorted
    # name -> the sets of two or more vertices holding it
    holders: dict[VertexId, list[int]] = {v: [] for v in g.isolated_vertices()}
    for k, s in enumerate(sets):
        for v in s:
            holders.setdefault(v, []).append(k)
    lone = sorted(v for s in cover.sets if len(s) == 1 for v in s if holders[v])
    steps: list[VertexSplit] = []

    def pull_out(u: VertexId) -> VertexId:
        u_in, u_out = u.child(0), u.child(1)
        for copy in (u_in, u_out):
            if copy in holders:
                raise DuplicateVertex(f"split copy name {copy} already in use")
        # renaming can reorder sets when a name descends from u.0, so C1 is
        # found by the current members, not by the order at the start; a copy
        # is inserted where it sorts, not where u stood
        ks = holders.pop(u)
        c1 = min(ks, key=sets.__getitem__)
        rest = [k for k in ks if k != c1]
        inside = set(sets[c1])
        inside.remove(u)
        outside = set().union(*(sets[k] for k in rest))
        outside.discard(u)
        # copied from a set, a frozenset gets the table a set of its size needs
        steps.append(VertexSplit(Split(u, frozenset(inside), frozenset(outside))))
        for k in ks:
            members = sets[k]
            del members[bisect.bisect_left(members, u)]
            bisect.insort(members, u_in if k == c1 else u_out)
        holders[u_in], holders[u_out] = [c1], rest
        return u_out

    multi = [v for v, ks in holders.items() if len(ks) >= 2]
    heapq.heapify(multi)
    while multi:
        u_out = pull_out(heapq.heappop(multi))
        if len(holders[u_out]) >= 2:
            heapq.heappush(multi, u_out)
    for v in lone:
        pull_out(v if v in holders else v.child(0))
    return steps


def cover_to_splits(g: Graph, cover: SigmaCliqueCover) -> ModificationSequence:
    """Realize a sigma clique cover as exactly weight - |covered| vertex splits.

    The cover is verified first, and one replay checks the `_pull_outs`.
    """
    report = verify_sigma_cover(g, cover, cover.weight)
    if not report.valid:
        raise InvalidCertificate(report.reason)
    seq = ModificationSequence(tuple(_pull_outs(g, cover)))
    covered = len(frozenset().union(*cover.sets))
    assert is_cluster_graph(seq.apply_to(g)), "pull-out loop ended off a cluster graph"
    assert seq.length == cover.weight - covered, "split count drifted from the excess"
    return seq


def splits_to_cover(g: Graph, seq: ModificationSequence) -> SigmaCliqueCover:
    """Read a cover of g off a split sequence that ends in a cluster graph.

    The clusters of the final graph, minus one trivial cluster per vertex
    isolated in g (the lexicographically smallest ones), are contracted back
    through the splits; the result covers every edge of g with weight at most
    |V| - |isolated| + length.
    """
    if not seq.splits_only():
        raise ValueError("sequence contains non-split steps")
    final = seq.apply_to(g)
    if not is_cluster_graph(final):
        raise NotAClusterGraphAfter("the split sequence does not end in clusters")
    sets = [frozenset(final.vertices_of_mask(m)) for m in component_masks(final.rows)]
    iso = len(g.isolated_vertices())
    trivial = sorted((s for s in sets if len(s) == 1), key=min)
    assert len(trivial) >= iso, "fewer trivial clusters than original isolates"
    drop = set(trivial[:iso])
    # contract in one forward pass: map each live name to the vertex of g it
    # descends from.  Live names are unique at every step, so this is the
    # composition of the contractions t.0, t.1 -> t taken in reverse
    origin = {v: v for v in g.vertices}
    for step in seq.steps:
        t = step.split.target
        origin[t.child(0)] = origin[t.child(1)] = origin.pop(t)
    family = {frozenset(origin[v] for v in s) for s in sets if s not in drop}
    out = SigmaCliqueCover.of(family)
    check = verify_sigma_cover(g, out, g.n - iso + seq.length)
    assert check.valid, f"contracted cover failed to verify: {check.reason}"
    return out


def cover_to_modifications(g: Graph, cover: SigmaCliqueCover) -> ModificationSequence:
    """A normalized sequence of exactly cover-cost modifications realizing a cover.

    Additions (non-edges inside sets), then deletions (edges outside all
    sets), then the `_pull_outs` of the cover on the edited graph, the union
    of the sets' cliques.  They need no gate: a cover `cover_cost` accepts is
    valid there with its weight as budget, since every set is a clique of
    that union and every edge of it lies in a set.  The one replay checks
    the whole sequence on g.
    """
    breakdown = cover_cost(g, cover)  # NotACover / UnknownVertex on bad input
    shared = shared_rows(g, family_masks(g, cover.sets))
    # the edited graph is the union of the sets' cliques; the additions and
    # deletions are the two halves of its difference with g, each read off
    # as a graph in edge order
    edited = Graph(g.vertices, tuple(shared))
    added = Graph(g.vertices, tuple(s & ~r for s, r in zip(shared, g.rows)))
    deleted = Graph(g.vertices, tuple(r & ~s for s, r in zip(shared, g.rows)))
    edits = [EdgeAdd(u, w) for u, w in added.edges()]
    edits += [EdgeDelete(u, w) for u, w in deleted.edges()]
    seq = ModificationSequence((*edits, *_pull_outs(edited, cover)))
    assert seq.length == breakdown.total, "sequence length differs from cover cost"
    check = verify_modification_sequence(g, seq, breakdown.total, "cevs")
    assert check.valid, f"realized sequence failed to verify: {check.reason}"
    return seq


def convert_cvs_scc(inst: Instance) -> tuple[Instance, ReductionTrace]:
    """cvs (G, k) to the equivalent scc (G, |V| - |isolated| + k), same graph."""
    inst.require(Problem.CVS)
    g = inst.graph
    iso = len(g.isolated_vertices())
    out = Instance(Problem.SCC, g, g.n - iso + inst.budget)
    return out, ReductionTrace("cvs-to-scc", inst, out, {})


def convert_scc_cvs(inst: Instance) -> tuple[Instance, ReductionTrace]:
    """scc (G, s) to the equivalent cvs (G, s - |V| + |isolated|), same graph.

    Budgets below |V| - |isolated| admit no cover at all (every non-isolated
    vertex must appear somewhere), so the instance is trivially negative and
    is reported as such instead of converted.
    """
    inst.require(Problem.SCC)
    g = inst.graph
    floor = g.n - len(g.isolated_vertices())
    if inst.budget < floor:
        raise BudgetUnderflow(
            f"weight budget {inst.budget} is below |V| - |isolated| = {floor}"
        )
    out = Instance(Problem.CVS, g, inst.budget - floor)
    return out, ReductionTrace("scc-to-cvs", inst, out, {})


# ---------------------------------------------------------------------------
# cvs -> cevs
# ---------------------------------------------------------------------------


def reduce_cvs_to_cevs(inst: Instance) -> tuple[Instance, ReductionTrace]:
    """(G, k) cvs-positive iff (G x K_{k+1}, k*(k+1)) cevs-positive.

    Every vertex v becomes a clique of k+1 copies v_1..v_{k+1}; edges become
    complete joins.  Isolated vertices need no care.  The blow-up of G is
    the disjoint union of the blow-ups of G's components, and both problems
    add up over components: a set that spans two components can be cut
    along them, and an edit between two of them dropped, without raising
    the cost.  An isolated vertex v is a component that is already a
    cluster, and so is its blow-up, the clique on v_1..v_{k+1}; each costs
    nothing.  So G and G - v agree on cvs at budget k, their blow-ups agree
    on cevs at budget k*(k+1), and the equivalence for G - v carries over.
    """
    inst.require(Problem.CVS)
    g, k = inst.graph, inst.budget
    copies: dict[VertexId, list[VertexId]] = {}
    for v in g.vertices:
        base = str(v).replace(".", "_")
        copies[v] = [VertexId(f"{base}_{i}") for i in range(1, k + 2)]
    flat = [c for group in copies.values() for c in group]
    if len(set(flat)) != len(flat):
        raise DuplicateVertex("vertex names collide under blow-up naming")
    edges: list[tuple[VertexId, VertexId]] = []
    for v in g.vertices:
        group = copies[v]
        edges += [(a, b) for i, a in enumerate(group) for b in group[i + 1 :]]
    for x, y in g.edges():
        edges += [(a, b) for a in copies[x] for b in copies[y]]
    target = Instance(Problem.CEVS, Graph.build(flat, edges), k * (k + 1))
    trace = ReductionTrace("cvs-to-cevs", inst, target, {"k": k, "copies": k + 1})
    return target, trace
