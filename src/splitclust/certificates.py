"""Certificates and their verifiers.

Everything a solver or reduction emits is independently checkable:

* covers by cliques — either covering all *edges* (sigma cover, measured by
  total weight, the sum of set sizes) or all *vertices* (node cover, measured
  by the number of sets);
* modification sequences — edge additions, edge deletions, and vertex splits
  that must turn the input into a cluster graph within budget;
* packings of induced three-vertex paths — certified lower bounds, valid when
  no two paths share a pair or a center (:func:`p3_conflict_keys`, the rule
  the solvers' packers read too).

Every family of vertex sets is read one way: :func:`family_masks` turns the
sets into row masks (and rejects unknown names), and :func:`shared_rows`
gives, for each vertex, the vertices sharing a set with it.  Verifiers,
costs and the cevs realization all read covers through these two.

The cost of a cover ``C`` of all vertices is the editing-with-splitting cost
of the clustering it describes: non-edges inside sets (once per pair) plus
edges not inside any set plus the total size excess ``sum |C| - |V|``.
Verifiers return a :class:`VerifyReport` rather than raising, except for
malformed inputs (unknown vertices, families that do not cover).
:data:`CERTIFICATE_KINDS` is the one rule for which certificate kinds each
problem takes: it gives each (problem, kind) pair a value type and verifier.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .graph import (
    Graph,
    GraphEditor,
    GraphError,
    Split,
    UnknownVertex,
    VertexId,
    component_masks,
    critical_clique_graph,
    is_cluster_graph,
)


class NotACover(Exception):
    """A set family was asked for its cost but leaves a vertex uncovered."""


class InapplicableStep(Exception):
    """A modification step could not be applied to the current graph."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"step {index}: {reason}")
        self.index = index
        self.reason = reason


# ---------------------------------------------------------------------------
# cover types
# ---------------------------------------------------------------------------


def _canonical_sets(
    sets: Iterable[Iterable[VertexId | str]],
) -> tuple[frozenset[VertexId], ...]:
    # a frozenset of names is shared, not rebuilt; any other set is parsed member
    # by member, into a set first: copied from a set, a frozenset gets the table
    # a set of its size needs, not the larger one it grows one member at a time
    out = {s if type(s) is frozenset and all(isinstance(v, VertexId) for v in s)
           else frozenset(set(map(VertexId.parse, s))) for s in sets}
    for s in out:
        if not s:
            raise ValueError("cover sets must be nonempty")
    return tuple(sorted(out, key=lambda s: tuple(sorted(s))))


@dataclass(frozen=True)
class _CliqueFamily:
    """A canonical family of nonempty vertex sets, shared by both covers.

    The subclasses add only their measure.  They take no decorator of their
    own, so the inherited ``__eq__`` compares classes: a sigma cover never
    equals a node cover of the same sets.
    """

    sets: tuple[frozenset[VertexId], ...]

    @classmethod
    def of(cls, sets: Iterable[Iterable[VertexId | str]]):
        return cls(_canonical_sets(sets))


class SigmaCliqueCover(_CliqueFamily):
    """A family of cliques meant to cover every edge; measured by weight."""

    @property
    def weight(self) -> int:
        return sum(len(s) for s in self.sets)


class NodeCliqueCover(_CliqueFamily):
    """A family of cliques meant to cover every vertex; measured by count."""

    @property
    def size(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class P3Packing:
    """Induced three-vertex paths as (endpoint, center, endpoint) triples."""

    triples: tuple[tuple[VertexId, VertexId, VertexId], ...]

    @classmethod
    def of(
        cls, triples: Iterable[tuple[VertexId | str, VertexId | str, VertexId | str]]
    ) -> P3Packing:
        fixed = []
        for x, y, z in triples:
            xv, yv, zv = VertexId.parse(x), VertexId.parse(y), VertexId.parse(z)
            if zv < xv:
                xv, zv = zv, xv
            fixed.append((xv, yv, zv))
        # sorted but deliberately not deduplicated: a repeated triple is an
        # invalid packing and must be caught by the verifier, not hidden here
        return cls(tuple(sorted(fixed)))

    @property
    def size(self) -> int:
        return len(self.triples)


def p3_conflict_keys(t: tuple[int, int, int]) -> list[int]:
    """A key for the center c of the triple (x, c, z), as the pair (c, c),
    and one for each of its three pairs; a pair a <= b is keyed b(b+1)/2 + a.

    Two triples of three distinct vertices share two vertices exactly when
    they share a pair, so two triples may both be packed exactly when they
    share no key.
    """
    keys = []
    for a, b in ((t[1], t[1]), (t[0], t[1]), (t[1], t[2]), (t[0], t[2])):
        if a > b:
            a, b = b, a
        keys.append(b * (b + 1) // 2 + a)
    return keys


# ---------------------------------------------------------------------------
# modification sequences
# ---------------------------------------------------------------------------


def _ordered_pair_init(step) -> None:
    u, v = VertexId.parse(step.u), VertexId.parse(step.v)
    if v < u:
        u, v = v, u
    object.__setattr__(step, "u", u)
    object.__setattr__(step, "v", v)


@dataclass(frozen=True)
class EdgeAdd:
    u: VertexId
    v: VertexId

    __post_init__ = _ordered_pair_init


@dataclass(frozen=True)
class EdgeDelete:
    u: VertexId
    v: VertexId

    __post_init__ = _ordered_pair_init


@dataclass(frozen=True)
class VertexSplit:
    split: Split


@dataclass(frozen=True)
class ModificationSequence:
    """An ordered list of edge additions, edge deletions, and vertex splits."""

    steps: tuple = ()

    @classmethod
    def of(cls, steps: Iterable) -> ModificationSequence:
        return cls(tuple(steps))

    @property
    def length(self) -> int:
        return len(self.steps)

    def splits_only(self) -> bool:
        return all(isinstance(s, VertexSplit) for s in self.steps)

    def apply_to(self, g: Graph) -> Graph:
        """Apply every step in order; raises InapplicableStep on the first bad one.

        All steps run on one :class:`GraphEditor`, and the result is sorted
        and built once.  A step is bad when the editor refuses it with a
        :class:`GraphError`; any other exception is a fault and passes through.
        """
        edit = GraphEditor(g)
        for i, step in enumerate(self.steps):
            try:
                if isinstance(step, EdgeAdd):
                    edit.add_edge(step.u, step.v)
                elif isinstance(step, EdgeDelete):
                    edit.delete_edge(step.u, step.v)
                elif isinstance(step, VertexSplit):
                    edit.split(step.split)
                else:
                    raise InapplicableStep(i, f"unknown step type {type(step).__name__}")
            except GraphError as exc:  # unknown vertex, bad split, ...
                raise InapplicableStep(i, str(exc)) from exc
        return edit.graph()


# ---------------------------------------------------------------------------
# reports and verifiers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class VerifyReport:
    valid: bool
    reason: str | None = None
    metrics: dict = field(default_factory=dict)


def family_masks(g: Graph, sets: Iterable[Iterable[VertexId | str]]) -> list[int]:
    """The row mask of each set, in order.

    Raises UnknownVertex for the first set naming a vertex `g` lacks; the
    message names that set's least unknown vertex (see :meth:`Graph.mask_of`).
    """
    try:
        return [g.mask_of(s) for s in sets]
    except UnknownVertex as exc:
        raise UnknownVertex(f"certificate references {exc}") from None


def shared_rows(g: Graph, masks: Iterable[int]) -> list[int]:
    """Row i: every vertex sharing a set with vertex i, i itself excluded.

    These are the rows of the union of the sets' cliques, the cluster graph a
    cover describes.
    """
    rows = [0] * g.n
    for mask in masks:
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            rows[low.bit_length() - 1] |= mask
    return [row & ~(1 << i) for i, row in enumerate(rows)]


def _first_uncovered(g: Graph, masks: Iterable[int]) -> VertexId | None:
    """The first vertex, in vertex order, that lies in no set."""
    covered = 0
    for mask in masks:
        covered |= mask
    missed = ((1 << g.n) - 1) & ~covered
    return g.vertices[(missed & -missed).bit_length() - 1] if missed else None


def _cover_masks(g: Graph, cover: SigmaCliqueCover) -> list[int]:
    """family_masks, plus NotACover naming the first vertex in no set."""
    masks = family_masks(g, cover.sets)
    v = _first_uncovered(g, masks)
    if v is not None:
        raise NotACover(f"vertex {v} lies in no set")
    return masks


def _fmt_set(s: frozenset[VertexId]) -> str:
    return "{" + ",".join(str(v) for v in sorted(s)) + "}"


def _valencies(g: Graph, sets) -> dict[str, int]:
    """The number of sets holding each vertex, by name, in vertex order.

    Members are counted as given, and each distinct one is looked up once;
    every member must name a vertex of `g`.  The count runs on names, not on
    row masks: `Counter` over the sets' members runs in C, and counting bits
    of masks instead made the ncc and scc certificate translators slower."""
    counts = [0] * g.n
    for v, k in Counter(itertools.chain.from_iterable(sets)).items():
        counts[g.index(v)] += k
    return {str(v): k for v, k in zip(g.vertices, counts)}


def _first_non_clique(
    g: Graph, sets, masks, shared: Sequence[int]
) -> frozenset[VertexId] | None:
    """The first set, in order, that is not a clique of `g`, or None.

    `shared` is ``shared_rows(g, masks)``, the rows of the union of the
    sets' cliques, and that union lies inside `g` exactly when every set is
    a clique.  shared[i] holds the other members of the sets holding i.  If
    every set is a clique, they are all neighbours of i, so shared[i] lies
    within rows[i].  Conversely, if shared[i] lies within rows[i] for every
    i, then any two members i and j of one set have j in shared[i], so in
    rows[i], and the set is a clique.  So one test per vertex accepts every
    set, and the sets are scanned one by one only to name the first that
    fails.
    """
    if not any(s & ~row for s, row in zip(shared, g.rows)):
        return None
    for s, mask in zip(sets, masks):
        if not g.is_clique_mask(mask):
            return s
    raise AssertionError("the sets' cliques leave g, but every set is a clique")


def verify_sigma_cover(g: Graph, cover: SigmaCliqueCover, budget: int) -> VerifyReport:
    """Check that every set is a clique, every edge is covered, weight <= budget.

    Both checks read the rows of the union of the sets' cliques, computed
    once: the sets are all cliques when that union lies inside `g` (see
    :func:`_first_non_clique`), and every edge is covered when it holds `g`.
    """
    masks = family_masks(g, cover.sets)
    metrics = {
        "weight": cover.weight,
        "budget": budget,
        "sets": len(cover.sets),
        "valencies": _valencies(g, cover.sets),
    }
    shared = shared_rows(g, masks)
    bad = _first_non_clique(g, cover.sets, masks, shared)
    if bad is not None:
        return VerifyReport(False, f"set {_fmt_set(bad)} is not a clique", metrics)
    # The first row with an unshared neighbor above its own index holds the
    # first uncovered edge in g.edges() order.
    for i, (row, seen) in enumerate(zip(g.rows, shared)):
        missed = row & ~seen & -(2 << i)
        if missed:
            j = (missed & -missed).bit_length() - 1
            edge = f"{g.vertices[i]} {g.vertices[j]}"
            return VerifyReport(False, f"edge {edge} is covered by no set", metrics)
    if cover.weight > budget:
        return VerifyReport(
            False, f"weight {cover.weight} exceeds budget {budget}", metrics
        )
    return VerifyReport(True, None, metrics)


def verify_node_cover(g: Graph, cover: NodeCliqueCover, budget: int) -> VerifyReport:
    """Check that every set is a clique, every vertex is covered, count <= budget."""
    masks = family_masks(g, cover.sets)
    metrics = {
        "size": cover.size,
        "budget": budget,
        "valencies": _valencies(g, cover.sets),
    }
    bad = _first_non_clique(g, cover.sets, masks, shared_rows(g, masks))
    if bad is not None:
        return VerifyReport(False, f"set {_fmt_set(bad)} is not a clique", metrics)
    v = _first_uncovered(g, masks)
    if v is not None:
        return VerifyReport(False, f"vertex {v} is covered by no set", metrics)
    if cover.size > budget:
        return VerifyReport(
            False, f"{cover.size} sets exceed budget {budget}", metrics
        )
    return VerifyReport(True, None, metrics)


def verify_modification_sequence(
    g: Graph, seq: ModificationSequence, budget: int, problem: str
) -> VerifyReport:
    """Check applicability step by step, the cluster-graph outcome, and the budget.

    ``problem`` is "cvs" (only vertex splits allowed) or "cevs".
    """
    if problem not in ("cvs", "cevs"):
        raise ValueError(f"modification sequences decide cvs or cevs, not {problem!r}")
    metrics = {"length": seq.length, "budget": budget}
    if problem == "cvs":
        for i, step in enumerate(seq.steps):
            if not isinstance(step, VertexSplit):
                return VerifyReport(
                    False, f"step {i} is not a vertex split (cvs allows only splits)", metrics
                )
    try:
        final = seq.apply_to(g)
    except InapplicableStep as exc:
        return VerifyReport(False, str(exc), metrics)
    metrics["final_vertices"] = final.n
    metrics["final_components"] = len(component_masks(final.rows))
    if not is_cluster_graph(final):
        return VerifyReport(False, "the modified graph is not a cluster graph", metrics)
    if seq.length > budget:
        return VerifyReport(False, f"length {seq.length} exceeds budget {budget}", metrics)
    return VerifyReport(True, None, metrics)


def verify_p3_packing(g: Graph, packing: P3Packing) -> VerifyReport:
    """Check induced paths, no shared pair and no shared center.

    A valid packing certifies that every modification sequence reaching a
    cluster graph has length at least ``packing.size``.  One pass checks each
    path on ``g.rows`` and files it under its :func:`p3_conflict_keys`.  The
    first conflicting pair (a, b), in pair order, is the least (first holder,
    later holder) pair of any key: the key they share has no holder before a
    nor between a and b, since it would conflict with a earlier in pair order.
    """
    family_masks(g, packing.triples)
    metrics = {"size": packing.size}
    rows, index = g.rows, g.index
    first: dict[int, int] = {}
    clash: tuple[int, int] | None = None
    for k, (x, y, z) in enumerate(packing.triples):
        if len({x, y, z}) != 3:
            return VerifyReport(False, f"triple ({x},{y},{z}) repeats a vertex", metrics)
        a, c, b = index(x), index(y), index(z)
        if not (rows[c] >> a & 1 and rows[c] >> b & 1) or rows[a] >> b & 1:
            return VerifyReport(
                False, f"({x},{y},{z}) is not an induced path with center {y}", metrics
            )
        for key in p3_conflict_keys((a, c, b)):
            holder = first.setdefault(key, k)
            if holder != k and (clash is None or holder < clash[0]):
                clash = (holder, k)
    if clash is None:
        return VerifyReport(True, None, metrics)
    t1, t2 = (packing.triples[k] for k in clash)
    if len(set(t1) & set(t2)) >= 2:
        both = f"({t1[0]},{t1[1]},{t1[2]}) and ({t2[0]},{t2[1]},{t2[2]})"
        return VerifyReport(False, f"triples {both} share two vertices", metrics)
    return VerifyReport(False, f"two triples share the center {t1[1]}", metrics)


# ---------------------------------------------------------------------------
# cover cost
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostBreakdown:
    total: int
    nonedges_inside: int
    edges_outside: int
    excess: int


def cover_cost(g: Graph, cover: SigmaCliqueCover) -> CostBreakdown:
    """Editing-with-splitting cost of the clustering a vertex cover describes.

    Requires the sets to cover every vertex (the sets need not be cliques);
    raises UnknownVertex or NotACover otherwise.  See :func:`masks_cost`.
    """
    return masks_cost(g, _cover_masks(g, cover))


def masks_cost(g: Graph, masks: Sequence[int]) -> CostBreakdown:
    """Editing-with-splitting cost of a family of distinct row masks of `g`.

    The masks must cover every vertex; that is not checked here.  Non-edges
    inside sets are counted once per pair even when the pair lies in several
    sets.
    """
    nonedges_inside = edges_outside = 0
    for row, shared in zip(g.rows, shared_rows(g, masks)):
        nonedges_inside += (shared & ~row).bit_count()
        edges_outside += (row & ~shared).bit_count()
    nonedges_inside //= 2
    edges_outside //= 2
    excess = sum(mask.bit_count() for mask in masks) - g.n
    total = nonedges_inside + edges_outside + excess
    return CostBreakdown(total, nonedges_inside, edges_outside, excess)


def sets_respect_classes(set_masks: Sequence[int], class_masks: Iterable[int]) -> bool:
    """True when each class mask is contained in or disjoint from each set mask."""
    return not any(
        mask & cls and cls & ~mask for cls in class_masks for mask in set_masks
    )


def cover_respects_critical_cliques(g: Graph, cover: SigmaCliqueCover) -> bool:
    """True when every closed-neighborhood class is kept whole by every set.

    That is, each class is either contained in or disjoint from each set of
    the cover; a cover violating this somewhere "cuts" a critical clique.
    """
    return sets_respect_classes(
        _cover_masks(g, cover), critical_clique_graph(g).masks
    )


def verify_cevs_cover(g: Graph, cover: SigmaCliqueCover, budget: int) -> VerifyReport:
    """Check that a vertex cover's editing-with-splitting cost is <= budget.

    The metrics carry the cost breakdown and whether the cover keeps every
    critical clique whole.
    """
    masks = _cover_masks(g, cover)
    breakdown = masks_cost(g, masks)
    metrics = {
        "cost": breakdown.total,
        "additions": breakdown.nonedges_inside,
        "deletions": breakdown.edges_outside,
        "splits": breakdown.excess,
        "budget": budget,
        "respectsCriticalCliques": sets_respect_classes(
            masks, critical_clique_graph(g).masks
        ),
    }
    if breakdown.total > budget:
        return VerifyReport(
            False, f"cost {breakdown.total} exceeds budget {budget}", metrics
        )
    return VerifyReport(True, None, metrics)


def _verify_packing_bound(g: Graph, packing: P3Packing, budget: int) -> VerifyReport:
    return verify_p3_packing(g, packing)  # whatever the budget


# (problem, kind) -> (value type, verifier(g, value, budget)); two pairs check
# alike when they share a verifier.  A packing bounds the split problems only:
# each induced path needs an edit of one of its pairs or a split at its
# center, and no two paths share a key of p3_conflict_keys, the packers' rule.
CERTIFICATE_KINDS = {
    ("scc", "cover"): (SigmaCliqueCover, verify_sigma_cover),
    ("ncc", "cover"): (NodeCliqueCover, verify_node_cover),
    ("cevs", "cover"): (SigmaCliqueCover, verify_cevs_cover),
    ("cvs", "sequence"): (
        ModificationSequence, functools.partial(verify_modification_sequence, problem="cvs")
    ),
    ("cevs", "sequence"): (
        ModificationSequence, functools.partial(verify_modification_sequence, problem="cevs")
    ),
    ("cvs", "packing"): (P3Packing, _verify_packing_bound),
    ("cevs", "packing"): (P3Packing, _verify_packing_bound),
}
