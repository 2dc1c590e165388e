"""Counterexample hunting over all small graphs, up to isomorphism.

The question being hunted: is there a graph where *no* minimum-cost
editing-with-splitting solution keeps every closed-neighborhood class whole?
For each graph one pass of the uncapped label search, started from the
cost of the all-singletons cover (|E|), returns the exact optimum together
with *all* optimal covers, so the flags quantify over genuinely every
optimum; the hunter reports whether some optimum cuts a class and whether
some optimum respects them all, with witnesses.  Covers stay row masks, and
each is tested against the class masks of `critical_clique_graph`; only the
two witnesses are named.  The search picks its own vertex order for the
enumeration (see `solvers.cevs_search`); the reports do not depend on it,
since covers are sorted before witnesses are chosen.

Isomorphism classes are enumerated by canonical form.  The canonical form of
an n-vertex graph is the lexicographically smallest adjacency bitstring over
all vertex orderings, reading the upper triangle column by column:
pair (i,j), i < j, ordered by (j,i).  That order lets the minimum be built
one position at a time: place vertices level by level, keep only the
orderings whose next column is minimal, and merge orderings that agree on
the adjacency patterns of the unplaced vertices (which fix the placed set)
since their continuations coincide.  Level n is built by orderly
generation: the first n-1 columns of a canonical form are the canonical
form of its first n-1 vertices, so each canonical n-vertex graph extends a
canonical (n-1)-vertex one by a last column, and keeping the extensions
that are their own canonical form lists every class exactly once, in
increasing order, with no deduplication.  A last column below a bound read
off the shorter form's columns cannot be canonical, so only the columns
from that bound up are canonized: 2682 of the 9984 extensions at n=7 and
28062 of 133632 at n=8.  The n=8 level ships as package data (12346
classes); smaller levels are computed on demand.  Scaling past n=8 is the
bottleneck: level 9 alone has 274668 classes and roughly 3.2 million
extensions.
"""

from __future__ import annotations

import bisect
import functools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from importlib import resources
from typing import Iterator, Sequence

from .certificates import SigmaCliqueCover, masks_cost, sets_respect_classes
from .formats import graph_to_obj
from .graph import Graph, VertexId, component_masks, critical_clique_graph
from .solvers import cevs_search, check_size


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------


def _canonical_bits(rows: list[int] | tuple[int, ...], n: int) -> int:
    # a state is the tuple of unplaced (vertex, pattern) pairs
    states: set[tuple[tuple[int, int], ...]] = {tuple((v, 0) for v in range(n))}
    bits = 0
    for placed in range(n):
        best = min(pat for pats in states for _, pat in pats)
        if placed:
            bits = (bits << placed) | best
        states = {
            tuple((w, (pw << 1) | (rows[v] >> w & 1)) for w, pw in pats if w != v)
            for pats in states
            for v, pat in pats
            if pat == best
        }
    return bits


def canonical_form(g: Graph) -> tuple[int, int]:
    """(n, bits): the lexicographically minimal adjacency bitstring as an int."""
    return g.n, _canonical_bits(g.rows, g.n)


def _rows_from_bits(n: int, bits: int) -> list[int]:
    rows = [0] * n
    total = n * (n - 1) // 2
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits >> (total - 1 - pos) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos += 1
    return rows


def graph_from_canonical(n: int, bits: int) -> Graph:
    # the names "0" .. "n-1" sort numerically, so they are already in vertex
    # order and the canonical rows are the graph's rows
    names = tuple(VertexId(str(i)) for i in range(n))
    return Graph(names, tuple(_rows_from_bits(n, bits)))


# ---------------------------------------------------------------------------
# enumeration, with the n=8 level as package data
# ---------------------------------------------------------------------------

def _least_last_column(bits: int, n: int) -> int:
    """The least last column that can extend the (n-1)-vertex form `bits` to
    a canonical n-vertex form: the largest of its columns k in 1..n-2, each
    shifted left by n-1-k (see `_extend_level`)."""
    least = 0
    for k in range(n - 2, 0, -1):
        # the columns are packed last one lowest, column k being k bits wide
        least = max(least, (bits & ((1 << k) - 1)) << (n - 1 - k))
        bits >>= k
    return least


def _extend_level(prev: Sequence[int], n: int) -> list[int]:
    """The canonical n-vertex forms, increasing, from the (n-1)-vertex ones.

    Orderly generation.  The canonical form is the least bitstring over all
    orderings, and its first n-1 columns depend only on the first n-1
    vertices.  An ordering with a smaller prefix would give a smaller
    string, so the canonical form's prefix is the least prefix over all
    orderings; in particular it is the least over orderings of those same
    n-1 vertices, that is their canonical form.  So every canonical form c
    has c >> (n-1) in `prev`, and testing each extension c of each entry of
    `prev` for canonicity finds every class exactly once.  The ranges of c
    are disjoint and increase with `prev`, so the output is sorted.

    Most extensions fail a cheap test first.  Let c extend `bits` by a last
    column `last` (vertex n-1's adjacency to 0..n-2, vertex 0 the most
    significant bit).  For k in 1..n-2, the ordering 0..k-1, n-1, k..n-2
    keeps columns 0..k-1 of c and has the top k bits of `last`, that is
    last >> (n-1-k), as its column k.  If that is below column k of c, this
    ordering gives a smaller string and c is not canonical.  Since
    last >> s < col holds exactly when last < col << s, only the columns
    from `_least_last_column(bits, n)` up are canonized; the others are
    rejected without a test.  This leaves 376 of 1088 extensions at n=6,
    2682 of 9984 at n=7 and 28062 of 133632 at n=8.
    """
    out: list[int] = []
    for bits in prev:
        base = bits << (n - 1)
        for c in range(base + _least_last_column(bits, n), base + (1 << (n - 1))):
            if _canonical_bits(_rows_from_bits(n, c), n) == c:
                out.append(c)
    return out


@functools.cache
def _level(n: int) -> tuple[int, ...]:
    """The canonical n-vertex forms, increasing; level 8 is package data."""
    if n <= 1:
        return (0,)
    if n == 8:
        text = resources.files("splitclust").joinpath("data/graphs8.txt").read_text()
        return tuple(int(line, 16) for line in text.split())
    return tuple(_extend_level(_level(n - 1), n))


def _classes(n: int, connected_only: bool) -> Iterator[tuple[int, int]]:
    """(index, bits) of the level-n classes, the disconnected ones left out
    when `connected_only`."""
    for index, bits in enumerate(_level(n)):
        if not connected_only or len(component_masks(_rows_from_bits(n, bits))) <= 1:
            yield index, bits


def enumerate_graphs(
    n: int, *, connected_only: bool = False, size_limit: int | None = None
) -> list[Graph]:
    """All n-vertex graphs up to isomorphism, canonical, in canonical-form order."""
    check_size("hunt", n, size_limit)
    return [graph_from_canonical(n, bits) for _, bits in _classes(n, connected_only)]


# ---------------------------------------------------------------------------
# per-graph analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HuntReport:
    n: int
    index: int  # position within the full level-n canonical list
    canonical: str
    graph: Graph
    optimum: int
    optimal_covers: int
    exists_optimum_cutting: bool
    exists_optimum_respecting: bool
    witness_cutting: SigmaCliqueCover | None
    witness_respecting: SigmaCliqueCover | None


def _analyze(g: Graph, n: int, index: int, bits: int) -> HuntReport:
    found = cevs_search(g, g.edge_count)
    assert found is not None, "the all-singletons cover was not reached"
    optimum, covers = found
    classes = critical_clique_graph(g).masks

    def members(mask: int) -> tuple[int, ...]:
        return tuple(i for i in range(n) if mask >> i & 1)

    # the first cover that cuts a class (False) and that respects all (True);
    # index order is name order, so sorting the covers by their sets' sorted
    # member indices sorts them as their sets' sorted names would
    witnesses: dict[bool, SigmaCliqueCover] = {}
    for masks in sorted(covers, key=lambda masks: sorted(map(members, masks))):
        assert masks_cost(g, masks).total == optimum, "kept covers differ in cost"
        respects = sets_respect_classes(masks, classes)
        if respects not in witnesses:
            witnesses[respects] = SigmaCliqueCover.of(map(g.vertices_of_mask, masks))
    return HuntReport(
        n=n,
        index=index,
        canonical=f"{n}:{bits:x}",
        graph=g,
        optimum=optimum,
        optimal_covers=len(covers),
        exists_optimum_cutting=False in witnesses,
        exists_optimum_respecting=True in witnesses,
        witness_cutting=witnesses.get(False),
        witness_respecting=witnesses.get(True),
    )


def hunt_graph(g: Graph, *, size_limit: int | None = None) -> HuntReport:
    """Analyze one graph; its index refers to the canonical enumeration."""
    n, bits = canonical_form(g)
    check_size("hunt", n, size_limit)
    level = _level(n)
    index = bisect.bisect_left(level, bits)
    assert index < len(level) and level[index] == bits, "canonical form not in level"
    return _analyze(g, n, index, bits)


def _hunt_worker(args) -> HuntReport:
    n, index, bits = args
    return _analyze(graph_from_canonical(n, bits), n, index, bits)


def hunt(
    max_n: int,
    *,
    connected_only: bool = False,
    parallel: bool = False,
    skip_until: tuple[int, int] | None = None,
    size_limit: int | None = None,
) -> Iterator[HuntReport]:
    """Reports for every graph with 1..max_n vertices, smallest first, as a
    lazy iterator; the size limit is checked by the call itself.

    `skip_until = (n, index)` resumes after that report (same flags assumed).
    """
    check_size("hunt", max_n, size_limit)
    items = (
        (n, index, bits)
        for n in range(1, max_n + 1)
        for index, bits in _classes(n, connected_only)
        if skip_until is None or (n, index) > skip_until
    )
    return _pooled(items) if parallel else map(_hunt_worker, items)


def _pooled(items: Iterator[tuple[int, int, int]]) -> Iterator[HuntReport]:
    with ProcessPoolExecutor() as pool:
        yield from pool.map(_hunt_worker, items, chunksize=8)


def report_to_obj(report: HuntReport) -> dict:
    def cover_obj(cover: SigmaCliqueCover | None):
        if cover is None:
            return None
        return [[str(v) for v in sorted(s)] for s in cover.sets]

    return {
        "schema": "splitclust.hunt/1",
        "n": report.n,
        "index": report.index,
        "canonical": report.canonical,
        "graph": graph_to_obj(report.graph),
        "optimum": report.optimum,
        "optimalCovers": report.optimal_covers,
        "existsOptimumCutting": report.exists_optimum_cutting,
        "existsOptimumRespecting": report.exists_optimum_respecting,
        "witnessCutting": cover_obj(report.witness_cutting),
        "witnessRespecting": cover_obj(report.witness_respecting),
    }
