"""Simple undirected graphs with hierarchical vertex names and vertex splitting.

A vertex split replaces a vertex v by two non-adjacent copies v.0 and v.1
whose neighborhoods partition-with-overlap N(v): every old neighbor keeps at
least one copy, and copies may share neighbors.  Splitting is the one
irreversible-looking move that *is* reversible: contracting the two copies
back onto v restores the original graph, which is what makes split sequences
auditable.

Names are hierarchical: a root token plus a 0/1 branch per split, rendered
with dots ("c", "c.0", "c.0.1").  A name is a tuple that is its own sort
key: the order on names is the order on (root, branch sequence), with
all-digit roots compared numerically so that "v2" style and plain-number
ids both sort the way a human expects.

Graphs are immutable.  Adjacency is kept as one Python int bitmask per
vertex over the lexicographic vertex order; Python ints are arbitrary
precision, so the same representation covers every size this library
handles.  :meth:`Graph.build` is the constructor for outside input: it
parses each declared name once, sorts the names and checks every edge.
Edits (splits, vertex deletions, edge flips) instead run on the mutable rows
of one :class:`GraphEditor`, which builds the edited graph once; they
re-parse nothing.  Code that works on part of a graph, such as one
connected component, takes it as a row mask and walks its members with
:func:`bits` instead of building a graph for it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class GraphError(Exception):
    """Base class for graph construction and surgery errors."""


class UnknownVertex(GraphError):
    """An operation referenced a vertex that is not in the graph."""


class DuplicateVertex(GraphError):
    """A vertex name was declared, or would be created, twice."""


class NeighborhoodNotCovered(GraphError):
    """A split left some old neighbor adjacent to neither copy."""


class ForeignNeighbor(GraphError):
    """A split assigned a copy a neighbor the original vertex never had."""


# ---------------------------------------------------------------------------
# vertex identity
# ---------------------------------------------------------------------------


class VertexId(tuple):
    """A vertex name: root token plus the 0/1 branch taken at each split.

    A root is a non-empty string with no "." and no whitespace character
    (none that ``str.isspace`` accepts); each branch is the int 0 or 1, so
    ``True`` and ``0.0``, which compare equal to 1 and 0 but print
    differently, are rejected.  ``branches`` may be any iterable and is
    stored as a tuple.

    The name is its own sort key: the tuple ``(0, int(root), root,
    branches)`` for an all-digit root and ``(1, 0, root, branches)``
    otherwise, so all-digit roots sort numerically among themselves and
    before other roots, and the root string breaks ties like "01" vs "1".
    Order, equality, hashing and pickling are the tuple's own.
    """

    __slots__ = ()

    def __new__(cls, root: str, branches: Iterable[int] = ()) -> VertexId:
        # str.split() splits on exactly the characters str.isspace() accepts,
        # and an empty root splits into []
        if "." in root or root.split() != [root]:
            raise GraphError(f"bad vertex root token: {root!r}")
        steps = tuple(branches)
        if steps and not (set(map(type, steps)) == {int} and set(steps) <= {0, 1}):
            raise GraphError(f"branch components must be 0 or 1: {branches!r}")
        if root.isdecimal():  # the digits int() reads
            try:
                value = int(root)
            except ValueError:  # past the interpreter's integer string limit
                raise GraphError(
                    f"all-digit vertex root of {len(root)} digits is too long"
                ) from None
            return tuple.__new__(cls, (0, value, root, steps))
        return tuple.__new__(cls, (1, 0, root, steps))

    def __getnewargs__(self) -> tuple[str, tuple[int, ...]]:
        return self[2], self[3]

    @property
    def root(self) -> str:
        return self[2]

    @property
    def branches(self) -> tuple[int, ...]:
        return self[3]

    @classmethod
    def parse(cls, token: str | VertexId) -> VertexId:
        """Parse "c.0.1" into VertexId("c", (0, 1)); passes VertexIds through."""
        if isinstance(token, VertexId):
            return token
        if "." not in token:
            return cls(token)
        head, *rest = token.split(".")
        if not set(rest) <= {"0", "1"}:
            raise GraphError(f"branch components after dots must be 0 or 1: {token!r}")
        return cls(head, tuple(map(int, rest)))

    def child(self, branch: int) -> VertexId:
        """The copy on side `branch` of a split; the root is not checked again."""
        kind, value, root, branches = self
        branches += (branch,)
        if type(branch) is not int or branch not in (0, 1):
            raise GraphError(f"branch components must be 0 or 1: {branches!r}")
        return tuple.__new__(VertexId, (kind, value, root, branches))

    def __str__(self) -> str:
        _, _, root, branches = self
        if not branches:
            return root
        return ".".join([root, *map(str, branches)])

    def __repr__(self) -> str:
        return f"VertexId({str(self)!r})"


def bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _row_of(index: dict[VertexId, int], v: VertexId | str) -> int:
    """The row `index` gives the vertex named `v`; UnknownVertex if none."""
    try:
        return index[VertexId.parse(v)]
    except KeyError:
        raise UnknownVertex(f"unknown vertex {v}") from None


def component_masks(rows: Sequence[int]) -> list[int]:
    """Connected components of adjacency rows as bitmasks, by smallest member."""
    seen = 0
    out = []
    for i in range(len(rows)):
        if seen >> i & 1:
            continue
        comp = 1 << i
        frontier = 1 << i
        while frontier:
            j = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            new = rows[j] & ~comp
            comp |= new
            frontier |= new
        seen |= comp
        out.append(comp)
    return out


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Graph:
    """An immutable simple graph.

    ``vertices`` is sorted by VertexId order and ``rows[i]`` is the bitmask of
    indices adjacent to ``vertices[i]``.  Build instances with
    :meth:`Graph.build`; the raw constructor trusts its arguments.
    """

    vertices: tuple[VertexId, ...]
    rows: tuple[int, ...]

    @classmethod
    def build(
        cls,
        vertices: Iterable[VertexId | str],
        edges: Iterable[tuple[VertexId | str, VertexId | str]] = (),
    ) -> Graph:
        """The graph on the declared `vertices` (each a str or a VertexId).

        Each declared token is parsed once, and both it and its name map to the
        vertex, so an edge endpoint is parsed only when it misses that map."""
        tokens = list(vertices)
        vs = [VertexId.parse(t) for t in tokens]
        seen: set[VertexId] = set()
        for v in vs:
            if v in seen:
                raise DuplicateVertex(f"duplicate vertex {v}")
            seen.add(v)
        order = sorted(vs)
        # a str never equals a VertexId, so the two kinds of key cannot collide
        index = {v: i for i, v in enumerate(order)}
        index.update(zip(tokens, map(index.__getitem__, vs)))
        rows = [0] * len(order)
        for a, b in edges:
            i, j = index.get(a), index.get(b)
            if i is None or j is None:
                u, w = VertexId.parse(a), VertexId.parse(b)
                if u not in index:
                    raise UnknownVertex(f"edge endpoint {u} is not a declared vertex")
                if w not in index:
                    raise UnknownVertex(f"edge endpoint {w} is not a declared vertex")
                i, j = index[u], index[w]
            if i == j:
                raise GraphError(f"self-loop at {order[i]}")
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return cls(tuple(order), tuple(rows))

    # -- basic accessors ----------------------------------------------------

    @functools.cached_property
    def _index(self) -> dict[VertexId, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @property
    def n(self) -> int:
        return len(self.vertices)

    @functools.cached_property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    def index(self, v: VertexId | str) -> int:
        return _row_of(self._index, v)

    def has_edge(self, u: VertexId | str, w: VertexId | str) -> bool:
        return bool(self.rows[self.index(u)] >> self.index(w) & 1)

    def neighbors(self, v: VertexId | str) -> tuple[VertexId, ...]:
        return self.vertices_of_mask(self.rows[self.index(v)])

    def edges(self) -> Iterator[tuple[VertexId, VertexId]]:
        """All edges, endpoints ordered, in lexicographic pair order."""
        for i, row in enumerate(self.rows):
            rest = row >> (i + 1) << (i + 1)
            while rest:
                j = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                yield self.vertices[i], self.vertices[j]

    def isolated_vertices(self) -> tuple[VertexId, ...]:
        return tuple(v for v, row in zip(self.vertices, self.rows) if row == 0)

    # -- masks ----------------------------------------------------------------

    def mask_of(self, vs: Iterable[VertexId | str]) -> int:
        """The row mask of `vs`: one lookup per member, which is parsed only
        when it is not a VertexId of the graph.

        This is the one routine that turns names into rows.  A bad name
        raises GraphError as it is read; after the whole family is read, an
        UnknownVertex names the least unknown member, whatever the order of
        `vs`, so it does not depend on a frozenset's hash seed.
        """
        index = self._index
        mask, least = 0, None
        for v in vs:
            i = index.get(v)
            if i is None:
                v = VertexId.parse(v)
                i = index.get(v)
                if i is None:
                    least = v if least is None or v < least else least
                    continue
            mask |= 1 << i
        if least is not None:
            raise UnknownVertex(f"unknown vertex {least}")
        return mask

    def vertices_of_mask(self, mask: int) -> tuple[VertexId, ...]:
        out = []
        while mask:
            i = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            out.append(self.vertices[i])
        return tuple(out)

    def is_clique_mask(self, mask: int) -> bool:
        rest = mask
        while rest:
            i = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if mask & ~self.rows[i] & ~(1 << i):
                return False
        return True

    def component_masks(self) -> list[int]:
        """Connected components as bitmasks, ordered by smallest member."""
        return component_masks(self.rows)

    # -- derived graphs -------------------------------------------------------

    def without_vertices(self, drop: Iterable[VertexId | str]) -> Graph:
        mask = self.mask_of(drop)
        edit = GraphEditor(self)
        edit._remove(mask)
        return edit.graph()


# ---------------------------------------------------------------------------
# vertex splitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Split:
    """Replace `target` by copies target.0 / target.1 with the given neighborhoods.

    The two neighbor sets must jointly cover N(target) and may overlap; the
    copies are never adjacent to each other.
    """

    target: VertexId
    neighbors_a: frozenset[VertexId]
    neighbors_b: frozenset[VertexId]

    @classmethod
    def of(
        cls,
        target: VertexId | str,
        neighbors_a: Iterable[VertexId | str],
        neighbors_b: Iterable[VertexId | str],
    ) -> Split:
        return cls(
            VertexId.parse(target),
            frozenset(VertexId.parse(v) for v in neighbors_a),
            frozenset(VertexId.parse(v) for v in neighbors_b),
        )


class GraphEditor:
    """A graph under a run of edits, on mutable rows.

    ``_index`` maps each live name to its row; a removed vertex leaves the
    dict and ``_live``, and the rows that still hold its bit are masked on
    every read.  New vertices, such as the two copies of a split, are
    appended as new rows, so no edit renumbers a vertex: a split costs
    O(degree) integer operations and an edge flip two.  :meth:`graph` sorts
    the live names and remaps every row once, run by run, or bit by bit
    through a position table when a row has fewer bits than there are runs:
    O(n + m) integer operations however many edits came before.  Keep both
    remaps: with the table alone a dense row pays per bit, not per run.  The
    edit methods check everything before they change anything.
    """

    def __init__(self, g: Graph) -> None:
        self._start = g
        self._names = list(g.vertices)
        self._rows = list(g.rows)
        self._index = dict(g._index)
        self._live = (1 << g.n) - 1

    def _remove(self, drop: int) -> None:
        """Remove the vertices of row mask `drop`."""
        for i in bits(drop):
            del self._index[self._names[i]]
        self._live &= ~drop

    def _append(self, name: VertexId, mask: int) -> None:
        """Add `name`, new, adjacent to the live vertices of row mask `mask`."""
        k, rows = len(self._names), self._rows
        mask &= self._live
        self._names.append(name)
        rows.append(mask)
        self._index[name] = k
        bit = 1 << k
        self._live |= bit
        while mask:  # bits, inline
            low = mask & -mask
            rows[low.bit_length() - 1] |= bit
            mask ^= low

    def add_edge(self, u: VertexId | str, w: VertexId | str) -> None:
        i, j = _row_of(self._index, u), _row_of(self._index, w)
        if self._rows[i] >> j & 1:
            raise GraphError(f"edge {u} {w} already present")
        if i == j:
            raise GraphError(f"self-loop at {self._names[i]}")
        self._rows[i] |= 1 << j
        self._rows[j] |= 1 << i

    def delete_edge(self, u: VertexId | str, w: VertexId | str) -> None:
        i, j = _row_of(self._index, u), _row_of(self._index, w)
        if not self._rows[i] >> j & 1:
            raise GraphError(f"edge {u} {w} not present")
        self._rows[i] ^= 1 << j
        self._rows[j] ^= 1 << i

    def split(self, split: Split) -> None:
        """Perform one vertex split; raises if the split is not well formed."""
        t, index = split.target, self._index
        ti = index.get(t)
        if ti is None:
            raise UnknownVertex(f"unknown vertex {t}")
        row = self._rows[ti] & self._live
        masks = []
        for side in (split.neighbors_a, split.neighbors_b):
            mask = 0
            for v in side:  # an unknown name counts as t, never a neighbor of t
                mask |= 1 << index.get(v, ti)
            if mask & ~row:
                foreign = [v for v in side if not row >> index.get(v, ti) & 1]
                raise ForeignNeighbor(
                    f"split of {t}: {min(foreign)} is not a neighbor of {t}"
                )
            masks.append(mask)
        missed = row & ~(masks[0] | masks[1])
        if missed:
            first = min(self._names[j] for j in bits(missed))
            raise NeighborhoodNotCovered(
                f"split of {t}: neighbor {first} assigned to neither copy"
            )
        copies = (t.child(0), t.child(1))
        for copy in copies:
            if copy in index:
                raise DuplicateVertex(f"split copy name {copy} already in use")
        del index[t]
        self._live ^= 1 << ti
        for copy, mask in zip(copies, masks):
            self._append(copy, mask)

    def graph(self) -> Graph:
        """The edited graph, sorted as :meth:`Graph.build` would sort it."""
        names, rows, live = self._names, self._rows, self._live
        start = self._start
        if len(names) == len(self._index) == start.n:  # no vertex came or went
            return Graph(start.vertices, tuple(rows))
        # dict order keeps the surviving start rows in their sorted order
        order = list(self._index.values())
        if len(names) > start.n:
            order.sort(key=names.__getitem__)
        cuts = [p for p in range(1, len(order)) if order[p] != order[p - 1] + 1]
        bounds = [0, *cuts, len(order)]
        runs = [  # rows lo..hi-1 move by shift
            (order[a], order[b - 1] + 1, a - order[a])
            for a, b in zip(bounds, bounds[1:])
            if a < b
        ]
        pos = [0] * len(names)
        for lo, hi, shift in runs:
            pos[lo:hi] = range(lo + shift, hi + shift)

        def remap(row: int) -> int:
            out = 0
            if row.bit_count() < len(runs):
                for i in bits(row & live):
                    out |= 1 << pos[i]
            else:
                for lo, hi, shift in runs:
                    out |= ((row >> lo) & ((1 << (hi - lo)) - 1)) << (lo + shift)
            return out

        return Graph(
            tuple(names[i] for i in order), tuple(remap(rows[i]) for i in order)
        )


def apply_split(g: Graph, split: Split) -> Graph:
    """Perform one vertex split; raises if the split is not well formed."""
    edit = GraphEditor(g)
    edit.split(split)
    return edit.graph()


# ---------------------------------------------------------------------------
# cluster graphs and induced paths on three vertices
# ---------------------------------------------------------------------------


def induced_p3_indices(rows: Sequence[int]) -> Iterator[tuple[int, int, int]]:
    """Every induced path on three vertices of adjacency rows as an index
    triple (x, center, z).

    Endpoints satisfy x < z; triples come grouped by center, so callers that
    need the lexicographic order sort them.
    """
    for j, row in enumerate(rows):
        for x, z in itertools.combinations(bits(row), 2):
            if not rows[x] >> z & 1:
                yield (x, j, z)


def is_cluster_graph(g: Graph) -> bool:
    """True iff every connected component is a clique.

    Checked both ways (no induced P3, and component-wise cliqueness) since the
    equivalence is load-bearing for everything downstream.  An induced P3
    x-y-z exists iff two adjacent vertices, y and z, have different closed
    neighborhoods N[y] != N[z] (x is in one, not the other).  So one exists
    iff some N[i] differs from N[r], r = low(i) the smallest member of N[i]
    (r is i or a neighbor of i).  If none does, take adjacent i and k, with
    r = low(i) and s = low(k): k is in N[i] = N[r], so r is in N[k] and
    s <= r; likewise r <= s, so N[i] = N[r] = N[k].  That takes O(n) row
    operations, where listing pairs of neighbors takes O(sum deg^2).
    """
    rows = g.rows
    has_p3 = False
    for i, row in enumerate(rows):
        closed = row | 1 << i
        low = (closed & -closed).bit_length() - 1
        if rows[low] | 1 << low != closed:
            has_p3 = True
            break
    comps_cliques = all(g.is_clique_mask(c) for c in g.component_masks())
    assert has_p3 != comps_cliques, "P3-freeness and component cliqueness disagree"
    return comps_cliques


# ---------------------------------------------------------------------------
# critical cliques
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriticalCliqueGraph:
    """The partition of a graph into closed-neighborhood equality classes.

    Each class induces a clique, and between two classes either all edges or
    none are present, so the quotient is again a simple graph.  ``reducible``
    marks classes whose quotient neighborhood is a clique; those are exactly
    the classes the kernel's shrinking rule may eat.  ``masks[c]`` is class
    c as a row mask of the graph the classes were read off.
    """

    classes: tuple[tuple[VertexId, ...], ...]
    masks: tuple[int, ...]
    rows: tuple[int, ...]
    reducible: tuple[bool, ...]

    def quotient_graph(self) -> Graph:
        """The quotient on lexicographically-smallest class representatives."""
        # classes are ordered by smallest member, so the representatives are
        # already in vertex order and the quotient rows index them directly
        return Graph(tuple(members[0] for members in self.classes), self.rows)


def critical_clique_graph(g: Graph) -> CriticalCliqueGraph:
    """The closed-neighborhood classes of `g` and their quotient, in O(n + m).

    Classes are numbered by smallest member.  A quotient row is read off the
    row of one representative, and a class is reducible when each of its
    quotient neighbors is adjacent to all the others.
    """
    by_closed: dict[int, list[int]] = {}
    for i, row in enumerate(g.rows):
        by_closed.setdefault(row | 1 << i, []).append(i)
    groups = list(by_closed.values())  # first seen first: by smallest member
    class_of = [0] * g.n
    for c, group in enumerate(groups):
        for i in group:
            class_of[i] = c
    rows = []
    for c, group in enumerate(groups):
        row = 0
        for j in bits(g.rows[group[0]]):
            row |= 1 << class_of[j]
        rows.append(row & ~(1 << c))
    reducible = tuple(
        all(not row & ~rows[d] & ~(1 << d) for d in bits(row)) for row in rows
    )
    classes = tuple(tuple(g.vertices[i] for i in group) for group in groups)
    masks = tuple(sum(1 << i for i in group) for group in groups)
    return CriticalCliqueGraph(classes, masks, tuple(rows), reducible)
