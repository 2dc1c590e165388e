"""Counterexample hunting over all small graphs, up to isomorphism.

The question being hunted: is there a graph where *no* minimum-cost
editing-with-splitting solution keeps every closed-neighborhood class whole?
For each graph the label search, deepened from its packing bound up to the
cost of the all-singletons cover (|E|), returns the exact optimum together
with *all* optimal covers, so the flags quantify over genuinely every
optimum; the hunter reports whether some optimum cuts a class and whether
some optimum respects them all, with witnesses.  Covers stay row masks, and
each is tested against the class masks of `critical_clique_graph`; only the
two witnesses are named.  The search picks its own vertex order for the
enumeration (see `solvers.cevs_search`); the reports do not depend on it,
since covers are sorted before witnesses are chosen.  `hunt` resumes a
sweep from the reports already made, checking them against the start of
the sweep as it skips them; writing and reading reports is `formats`'s.

Isomorphism classes are enumerated by canonical form.  The canonical form of
an n-vertex graph is the lexicographically smallest adjacency bitstring over
all vertex orderings, reading the upper triangle column by column:
pair (i,j), i < j, ordered by (j,i).  That order lets the minimum be built
one position at a time: place vertices level by level, keep only the
orderings whose next column is minimal, and merge orderings that agree on
the adjacency patterns of the unplaced vertices (which fix the placed set)
since their continuations coincide.  The n=8 level ships as package data
(12346 classes), and every smaller level is read off it: level n is the set
of distinct n-vertex prefixes of the level-8 forms (see `_level`).  Levels
past 8 are built by orderly generation: the first n-1 columns of a
canonical form are the canonical form of its first n-1 vertices, so each
canonical n-vertex graph extends a canonical (n-1)-vertex one by a last
column, and keeping the extensions that are their own canonical form lists
every class exactly once, in increasing order, with no deduplication.  A
last column below a bound read off the shorter form's columns cannot be
canonical, so only the columns from that bound up are canonized.  Scaling
past n=8 is the bottleneck: level 9 alone has 274668 classes and roughly
3.2 million extensions.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from importlib import resources
from typing import Iterator, Sequence

from .certificates import SigmaCliqueCover, masks_cost, sets_respect_classes
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
    """The canonical n-vertex forms, increasing.

    Level 8 is package data, and every level below it is the set of
    distinct n-vertex prefixes c >> (28 - n(n-1)/2) of the level-8 forms.
    A prefix of a canonical form is canonical (see `_extend_level`).
    Conversely, every canonical n-vertex form c is the prefix of a level-8
    form: adding a universal vertex u to an n-vertex graph G gives
    canon(G+u) = canon(G) << n | (2^n - 1), whose prefix is canon(G), and
    8-n such steps reach level 8.  To see it, take any ordering of G+u and
    swap u with the vertex w after it, at positions p and p+1.  Column p
    goes from 1^p to adj(w, prefix) <= 1^p.  If the two are equal, column
    p+1 is (1^p, 1) both before and after, and every later column x reads
    (adj(x,w), 1) in place of (1, adj(x,w)), which is no larger.  So the
    string never grows; moving u to the end leaves an ordering of G
    followed by the column 1^n, least when G's ordering is canonical.

    Level 8 is sorted, so the forms with one prefix are a run, and a
    bisection past each run lists the prefixes in increasing order without
    visiting every form.  Levels past 8 are built upward from level 8 by
    `_extend_level`.
    """
    if n <= 1:
        return (0,)
    if n < 8:
        level8, shift = _level(8), 28 - n * (n - 1) // 2
        out: list[int] = []
        i = 0
        while i < len(level8):
            out.append(level8[i] >> shift)
            i = bisect.bisect_left(level8, (out[-1] + 1) << shift, i)
        return tuple(out)
    if n == 8:
        text = resources.files("splitclust").joinpath("data/graphs8.txt").read_text()
        return tuple(map(int, text.split(), itertools.repeat(16)))
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


class NotASweepPrefix(Exception):
    """The reports said to be made already are not the sweep's first ones."""


def hunt(
    max_n: int,
    *,
    connected_only: bool = False,
    parallel: bool = False,
    done: Sequence[tuple[int, int]] = (),
    size_limit: int | None = None,
) -> Iterator[HuntReport]:
    """Reports for every graph with 1..max_n vertices, smallest first, as a
    lazy iterator, after the reports already made.

    `done` holds the (n, index) of the reports already made.  The call
    itself checks the size limit, and then walks the start of the sweep
    once: it raises NotASweepPrefix unless `done` is that start, and skips it.
    """
    check_size("hunt", max_n, size_limit)
    # (n, index, canonical bits) of each class, each level read when first reached
    items = ((n, index, bits) for n in range(1, max_n + 1)
             for index, bits in _classes(n, connected_only))
    made = itertools.islice(items, len(done))
    for k, (have, want) in enumerate(itertools.zip_longest(done, made), 1):
        if want is None or have != want[:2]:
            expected = "no report" if want is None else f"n {want[0]} index {want[1]}"
            raise NotASweepPrefix(
                f"report {k} is n {have[0]} index {have[1]}, where this sweep has {expected}"
            )
    return _pooled(items) if parallel else map(_hunt_worker, items)


def _pooled(items: Iterator[tuple[int, int, int]]) -> Iterator[HuntReport]:
    with ProcessPoolExecutor() as pool:
        yield from pool.map(_hunt_worker, items, chunksize=8)
