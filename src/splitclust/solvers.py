"""Exact solvers for desk-scale instances.

All four problems are NP-hard, so everything here is branch and bound with
admissible lower bounds, built to be exact, deterministic, and honest about
scale: soft size limits reject inputs that would silently take hours, and
every limit can be overridden per call with `size_limit=`, which the command
line sets from --size-limit-override.

* Edge covering by cliques (scc) branches on the lexicographically smallest
  uncovered edge over all cliques containing it, largest candidate first.
  The lower bound at a node is the sum over vertices v of the minimum number
  of cliques needed to node-cover v's still-uncovered neighborhood: any
  future set through v restricted to that neighborhood is one such clique,
  so the sum never exceeds the weight still to be paid.  Those minima are a
  memoized branch-and-bound of their own (on the smallest uncovered vertex,
  over maximal cliques containing it), shared with solve_ncc_exact; one
  table serves the whole graph.  Each connected component is searched on
  the input's own rows, as a row mask, by iterative deepening: caps rise
  from the root bound, and the search at a cap stops at its first leaf,
  which at the first cap that admits one is the optimum.  A child's bound
  is its parent's, corrected on the rows the chosen clique touches, and the
  search keeps an explicit stack rather than recursing once per chosen set.
* Splitting to clusters (cvs) is solved on the scc instance that
  `convert_cvs_scc` gives, on the same graph, so under the scc size limit.
* Editing with splitting (cevs) assigns each vertex, in turn, a nonempty
  set of cluster labels; a vertex in t labels pays t-1, and each earlier
  vertex pays 1 when the pair disagrees with adjacency (edge across labels,
  or non-edge sharing one), counted with bitmasks over the placed vertices.
  A child placing vertex i is pruned by the larger of two bounds on what
  is still to pay: a greedy packing of the induced paths whose center and
  far endpoint are both > i, each of which must still be paid for at a
  vertex > i, and the sum over the vertices v > i of the least v pays for
  its excess and its pairs with the placed vertices, given their labels.
  A node computes each such least once, and each child updates the sum by
  bit tests, since one placement raises each term by 0 or 1.  The search
  deepens its cap from the root bound, and the first cap that admits a
  leaf is the optimum, whose leaves are then exactly the optimal covers.
  Like the scc search, it keeps an explicit stack of nodes rather than
  recursing once per vertex placed.
  `solve_cevs_exact` and the hunter run this one search; it needs no cap
  on the number of labels (see `cevs_search`).
  It visits the vertices fewest-open-neighbours first, skips label
  combinations that mirror one already tried, and combines at a vertex only
  the labels whose non-neighbours of it fit in the room left (equal labels
  pass or fail together); none of this changes the set of optima it
  returns, and the filter leaves the nodes and the child order as they
  were.  Covers come out as row masks of the graph; `solve_cevs_exact`
  certifies the optimum with the least `_certificate_key` and names its sets.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .certificates import (
    ModificationSequence,
    NodeCliqueCover,
    P3Packing,
    SigmaCliqueCover,
    p3_conflict_keys,
)
from .graph import Graph, VertexId, bits, component_masks, induced_p3_indices
from .reductions import (
    Instance,
    Problem,
    convert_cvs_scc,
    cover_to_modifications,
    cover_to_splits,
)

DEFAULT_SIZE_LIMITS = {
    "scc": 18,
    "ncc": 18,
    "cevs": 9,
    "packing": 10,
    "hunt": 8,
}


class SizeLimitExceeded(Exception):
    """The input is past the soft size limit for this operation."""


def check_size(kind: str, n: int, override: int | None) -> None:
    """Raise SizeLimitExceeded when n vertices are past the `kind` limit.

    The limit is `override` when given, else DEFAULT_SIZE_LIMITS[kind].
    """
    limit = DEFAULT_SIZE_LIMITS[kind] if override is None else override
    if n > limit:
        raise SizeLimitExceeded(
            f"{n} vertices exceed the {kind} soft limit of {limit}"
            " (pass a larger size_limit to override)"
        )


# ---------------------------------------------------------------------------
# node clique cover numbers, memoized by vertex mask
# ---------------------------------------------------------------------------


class _NccTable:
    """Minimum clique-partition sizes of induced subgraphs of a fixed graph.

    Branches on the smallest vertex of the mask over the maximal cliques
    containing it; shrinking other classes shows maximal candidates suffice.
    """

    def __init__(self, rows: tuple[int, ...]):
        self.rows = rows
        self.memo: dict[int, int] = {0: 0}

    def _maximal_cliques_at(self, mask: int) -> list[int]:
        """The cliques of `mask` containing its smallest vertex and maximal
        within `mask`, in the order of a depth-first walk that adds vertices
        in increasing order.

        A node holds its clique q, the vertices `common` adjacent to all of
        q, and the vertices `above` it may still add.  A vertex of `common`
        below `above` was skipped; if it is adjacent to every vertex still to
        be added it stays in `common`, so no clique below the node is
        maximal and the node is dropped.
        """
        rows = self.rows
        out: list[int] = []
        low = mask & -mask
        stack = [(low, rows[low.bit_length() - 1] & mask, ~0)]
        while stack:
            q, common, above = stack.pop()
            if not common:
                out.append(q)
                continue
            cand = common & above
            skipped = common & ~above
            while skipped:
                y = skipped.bit_length() - 1
                skipped ^= 1 << y
                if not cand & ~rows[y]:
                    cand = 0
                    break
            # pushed from the highest vertex down, so the lowest is walked first
            while cand:
                x = cand.bit_length() - 1
                bit = 1 << x
                cand ^= bit
                stack.append((q | bit, common & rows[x] & mask, ~((bit << 1) - 1)))
        return out

    def min_size(self, mask: int) -> int:
        """The minimum clique partition size of `mask`; it is memoized, and
        so is each remainder of a clique of `_maximal_cliques_at(mask)`, and so on.

        A miss keeps its own stack of masks, one per clique taken, so the
        depth is not bound by the recursion limit.  A frame waiting for the
        remainder of its k-th clique resumes at that clique, now memoized.
        """
        memo = self.memo
        hit = memo.get(mask)
        if hit is not None:
            return hit
        cliques_at = self._maximal_cliques_at
        stack = []
        # best: the least partition size so far of a remainder m & ~q, each
        # of which is below |m|
        m, cliques, k, best = mask, cliques_at(mask), 0, mask.bit_count()
        while True:
            if k < len(cliques):
                q = cliques[k]
                r = memo.get(m & ~q)
                if r is None:
                    stack.append((m, cliques, k, best))
                    m &= ~q
                    cliques, k, best = cliques_at(m), 0, m.bit_count()
                    continue
                if r < best:
                    best = r
                k += 1
                continue
            best += 1
            memo[m] = best
            if not stack:
                return best
            m, cliques, k, best = stack.pop()

    def partition(self, mask: int) -> list[int]:
        """A minimum clique partition of `mask`, read off the memo: at each
        remainder, the first clique whose own remainder `min_size` found least."""
        memo, need = self.memo, self.min_size(mask)
        out = []
        while mask:
            need -= 1
            q = next(q for q in self._maximal_cliques_at(mask) if memo[mask & ~q] == need)
            out.append(q)
            mask &= ~q
        return out


def solve_ncc_exact(
    g: Graph, budget: int, *, size_limit: int | None = None
) -> NodeCliqueCover | None:
    """A minimum clique partition of the vertices, if at most `budget` cliques do."""
    check_size("ncc", g.n, size_limit)
    table = _NccTable(g.rows)
    full = (1 << g.n) - 1
    if table.min_size(full) > budget:
        return None
    return NodeCliqueCover.of(
        [g.vertices_of_mask(q) for q in table.partition(full)]
    )


# ---------------------------------------------------------------------------
# minimum-weight edge covering by cliques
# ---------------------------------------------------------------------------


def _cliques_with_edge(rows: tuple[int, ...], i: int, j: int) -> list[int]:
    """Every clique (as a mask) containing the edge ij, each exactly once."""
    out: list[int] = []
    # each entry is a clique and the candidates above its highest added bit
    stack = [((1 << i) | (1 << j), rows[i] & rows[j])]
    while stack:
        q, cand = stack.pop()
        out.append(q)
        rest = cand
        while rest:
            bit = rest & -rest
            rest &= rest - 1
            x = bit.bit_length() - 1
            stack.append((q | bit, cand & rows[x] & ~((bit << 1) - 1)))
    return out


def _scc_first_cover(table: _NccTable, comp: int, root_bound: int, cap: int) -> list[int] | None:
    """The first clique family of the search order that covers every edge of
    the component `comp`, a row mask of `table.rows`, within weight `cap`,
    or None when no family does.

    A node is the uncovered part of each row of `comp`, keyed by vertex in
    increasing order.  It branches on the smallest uncovered edge, found by
    scanning for the first nonzero row, over the cliques through it, by
    (-size, mask).  A node's bound is the sum of `table.min_size` over its
    rows; `root_bound` must be that sum at the root.  A child's bound
    differs only on the rows its clique touches, and every row of a node is
    already in `table.memo`, summed into the node's own bound.  A child is
    pruned when its weight plus its bound exceeds `cap`.  The search keeps
    its own stack, so its depth is not bound by the recursion limit.

    On a clique the first candidate is the whole clique, the unique largest
    one; its weight |comp| equals the root bound, so it is the first leaf,
    taken here without listing the 2^(|comp|-2) cliques through its edges.
    """
    if root_bound == 0:
        return []
    rows = table.rows
    if all(rows[x] | 1 << x == comp for x in bits(comp)):
        return [comp] if root_bound <= cap else None
    min_size, memo = table.min_size, table.memo

    def candidates(uncov: dict[int, int]):
        for i, row in uncov.items():
            if row:
                break
        j = (row & -row).bit_length() - 1
        cands = sorted(_cliques_with_edge(rows, i, j), key=lambda q: (-q.bit_count(), q))
        return iter(cands)

    root = {x: rows[x] for x in bits(comp)}
    stack = [(root, 0, root_bound, candidates(root))]
    chosen: list[int] = []
    while stack:
        uncov, weight, bound, cands = stack[-1]
        for q in cands:
            w = weight + q.bit_count()
            b = bound
            rest = q
            while rest:
                row = uncov[(rest & -rest).bit_length() - 1]
                rest &= rest - 1
                b += min_size(row & ~q) - memo[row]
            if w + b <= cap:
                break
        else:
            stack.pop()
            if chosen:
                chosen.pop()
            continue
        chosen.append(q)
        if b == 0:
            return chosen
        child = dict(uncov)
        rest = q
        while rest:
            x = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            child[x] &= ~q
        stack.append((child, w, b, candidates(child)))
    return None


def solve_scc_exact(
    g: Graph, budget: int, *, size_limit: int | None = None
) -> SigmaCliqueCover | None:
    """A minimum-weight clique cover of the edges, if its weight <= budget.

    Solved component by component by iterative deepening: a component with
    root bound lb is searched at caps lb, lb+1, ... up to lb plus the slack
    the budget leaves over all root bounds, and the slack it uses is taken
    from the slack left for the next component.  Every lower cap has failed,
    so the first cap that admits a cover is the component's optimum.

    The certificate is the first optimal leaf of the search order, the leaf
    a search that keeps an incumbent and improves it down to the optimum
    would return.  The bound is admissible: no node on the path to that leaf
    has weight plus bound above the optimum, so the leaf is never pruned
    while the cap is at least the optimum.  At cap = optimum every leaf the
    search reaches within the cap is optimal, so the first one reached is
    that leaf, and the search stops there.

    Each component is a row mask of `g`, searched with one `_NccTable` for
    the whole graph, whose memo keys of different components are disjoint.
    The certificate is the one the component would give as a graph of its
    own, which keeps the vertex order: its indices are the component's
    indices in `g`, relabeled in increasing order.  Such a relabeling keeps
    the order of vertices and, as masks compare by their highest differing
    bit, of masks; so it keeps the smallest uncovered edge, the (-size,
    mask) order and `_NccTable._maximal_cliques_at`'s order.
    """
    check_size("scc", g.n, size_limit)
    rows = g.rows
    table = _NccTable(rows)
    comps = component_masks(rows)
    lbs = [sum(table.min_size(rows[x]) for x in bits(c) if rows[x]) for c in comps]
    slack = budget - sum(lbs)
    sets: list[frozenset[VertexId]] = []
    for comp, lb in zip(comps, lbs):
        for cap in range(lb, lb + slack + 1):
            masks = _scc_first_cover(table, comp, lb, cap)
            if masks is not None:
                break
        else:
            return None
        slack -= cap - lb
        sets += [frozenset(g.vertices_of_mask(q)) for q in masks]
    if slack < 0:
        return None
    return SigmaCliqueCover.of(sets)


def solve_cvs_exact(
    inst: Instance, *, size_limit: int | None = None
) -> ModificationSequence | None:
    """A shortest all-splits sequence to a cluster graph, if length <= budget.

    The cvs instance is the scc instance on the same graph, so the one
    search that runs is the scc search, under the scc size limit.
    """
    scc, _ = convert_cvs_scc(inst)
    cover = solve_scc_exact(scc.graph, scc.budget, size_limit=size_limit)
    if cover is None:
        return None
    seq = cover_to_splits(scc.graph, cover)
    assert seq.length <= inst.budget, "cover weight drifted past the split budget"
    return seq


# ---------------------------------------------------------------------------
# induced-path packings
# ---------------------------------------------------------------------------


def _first_fit(keys: Iterable[list[int]]) -> list[int]:
    """First fit: the positions of the triples, given by their
    `p3_conflict_keys`, each sharing no key with any one chosen before it."""
    used: set[int] = set()
    chosen = []
    for k, mine in enumerate(keys):
        if used.isdisjoint(mine):
            used.update(mine)
            chosen.append(k)
    return chosen


def _greedy_packing(triples: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    return [triples[k] for k in _first_fit(map(p3_conflict_keys, triples))]


def _suffix_packing_bounds(rows: Sequence[int]) -> list[int]:
    """pk[i] = greedy packing size among triples (x, c, z) with c, z >= i.

    pk[i] bounds the cost the cevs search still charges once vertices 0..i-1
    are placed, that is the excess of vertices >= i plus the pairs whose
    later endpoint is >= i.  An induced path (x, c, z), x < z, must pay one
    of: an excess at c (c in two or more sets), the pair xc, the pair cz, or
    the pair xz (if c sits in one set S and both edges are kept, x and z
    share S across a non-edge).  With c >= i and z >= i every one of these is
    charged at a vertex >= i, whether or not x is placed.  Packed paths have
    distinct centers and share no pair, so they are charged distinct units.
    A path with c < i or z < i stays out: its excess at c or its pair xz is
    charged at a placed vertex and may already be paid.

    Each triple is keyed once, by min(c, z) and its `p3_conflict_keys`, and
    the first fit for each i runs over the keys in triple order.
    """
    keyed = [
        (min(t[1], t[2]), p3_conflict_keys(t)) for t in sorted(induced_p3_indices(rows))
    ]
    return [
        len(_first_fit(keys for low, keys in keyed if low >= i))
        for i in range(len(rows) + 1)
    ]


def _exact_packing(triples: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    m = len(triples)
    keys = [p3_conflict_keys(t) for t in triples]
    conflict = [0] * m
    for a in range(m):
        mine = set(keys[a])
        for b in range(a + 1, m):
            if not mine.isdisjoint(keys[b]):
                conflict[a] |= 1 << b
                conflict[b] |= 1 << a
    best_sets = [triples[k] for k in _first_fit(keys)]
    best_count = len(best_sets)

    # candidates left and triples taken; a leaf that passes its bound is better
    stack = [((1 << m) - 1, ())]
    while stack:
        cand, chosen = stack.pop()
        count = len(chosen)
        centers = set()
        rest = cand
        while rest:  # bits, inline: this is the search's inner loop
            x = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            centers.add(triples[x][1])
        if count + min(cand.bit_count(), len(centers)) <= best_count:
            continue
        if cand == 0:
            best_count, best_sets = count, [triples[x] for x in chosen]
            continue
        bit = cand & -cand
        x = bit.bit_length() - 1
        # the skip child is bounded after the take subtree raised best_count
        stack.append((cand & ~bit, chosen))
        stack.append((cand & ~conflict[x] & ~bit, (*chosen, x)))
    return best_sets


def max_p3_packing(
    g: Graph, *, exact: bool = False, size_limit: int | None = None
) -> P3Packing:
    """A packing of induced three-vertex paths: pairwise sharing at most one
    vertex and with distinct centers.

    Greedy first-fit in lexicographic triple order by default; `exact` runs a
    branch and bound over the conflict structure instead (soft size limit,
    since packings certify lower bounds and greedy is always sound).
    """
    triples = sorted(induced_p3_indices(g.rows))
    if exact:
        check_size("packing", g.n, size_limit)
        chosen = _exact_packing(triples)
    else:
        chosen = _greedy_packing(triples)
    return P3Packing.of(
        [(g.vertices[x], g.vertices[j], g.vertices[z]) for x, j, z in chosen]
    )


# ---------------------------------------------------------------------------
# editing with splitting
# ---------------------------------------------------------------------------


def _search_order(rows: Sequence[int]) -> list[int]:
    """A greedy search order: repeatedly the unplaced vertex with the fewest
    unplaced neighbours, ties to the most placed neighbours, then the
    smallest index."""
    unplaced = (1 << len(rows)) - 1
    order = []
    while unplaced:
        *_, v = min(
            ((rows[v] & unplaced).bit_count(), -(rows[v] & ~unplaced).bit_count(), v)
            for v in bits(unplaced)
        )
        order.append(v)
        unplaced &= ~(1 << v)
    return order


_Owed = tuple[int, list[int], list[int], list[list[int]]]
_NOTHING_OWED: _Owed = (0, [], [], [])


def _owed(rows: Sequence[int], i: int, members: Sequence[int]) -> _Owed:
    """What the vertices after i owe at the node where vertices 0..i-1 sit
    in the labels `members`, in the form `_owed_after` reads.

    lb(v) is defined in `cevs_search`.  A set S of labels is minimal for v
    when it costs lb(v), and v is exact when lb(v) = |A|.  Only labels
    meeting A are combined: a label missing A is nonempty with its placed
    members in N, so adding it to S costs one more label and saves nothing,
    and it never ties.  Returns the sum of lb(v) over v > i; for each v
    adjacent to i, the union of its minimal S as a mask of label positions;
    the same unions for the v adjacent to i that are not exact; and the
    minimal S, as such masks, of each v not adjacent to i and not exact.
    """
    prev = (1 << i) - 1
    total = 0
    hits: list[int] = []
    open_hits: list[int] = []
    avoid: list[list[int]] = []
    labels = [(1 << lbl, m) for lbl, m in enumerate(members)]
    for v in range(i + 1, len(rows)):
        adj = rows[v] & prev
        if not adj:
            # lb(v) = 0, exact, and no minimal S
            if rows[v] >> i & 1:
                hits.append(0)
            continue
        non = prev & ~adj
        best = adj.bit_count()
        mins: list[int] = []
        meets = [lm for lm in labels if lm[1] & adj]
        # the sets S of one size, as (taken, US, position of the last label);
        # one of size e + 1 costs at least e, so the sizes stop past best + 1
        level = [(0, 0, -1)]
        e = 0
        while level and e <= best:
            grown = []
            for taken, shared, k in level:
                for k in range(k + 1, len(meets)):
                    bit, m = meets[k]
                    s = shared | m
                    c = e + (adj & ~s).bit_count() + (non & s).bit_count()
                    if c < best:
                        best = c
                        mins = [taken | bit]
                    elif c == best:
                        mins.append(taken | bit)
                    grown.append((taken | bit, s, k))
            level = grown
            e += 1
        total += best
        exact = best == adj.bit_count()
        if rows[v] >> i & 1:
            union = 0
            for taken in mins:
                union |= taken
            hits.append(union)
            if not exact:
                open_hits.append(union)
        elif not exact:
            avoid.append(mins)
    return total, hits, open_hits, avoid


def _owed_after(owed: _Owed, taken: int) -> tuple[int, int]:
    """The sum of lb over the vertices after i at the child where i joins
    the labels `taken` (a mask of label positions) and opens no new label,
    and at the children where it opens one or more: each lb stays or rises
    by one, as `cevs_search` argues, decided by bit tests on `owed`."""
    total, hits, open_hits, avoid = owed
    both = total
    for mins in avoid:
        for s in mins:
            if not s & taken:
                break
        else:
            both += 1
    owe0 = owe1 = both
    for union in hits:
        if not union & taken:
            owe0 += 1
    for union in open_hits:
        if not union & taken:
            owe1 += 1
    return owe0, owe1


def cevs_search(g: Graph, budget: int):
    """Every minimum-cost cover of editing with splitting, if the optimum is
    at most `budget`.

    Vertices are assigned label sets one at a time.  A vertex taking t
    labels pays t-1 immediately (its share of the size excess), and each
    placed pair pays 1 when adjacency and label-sharing disagree, so the
    accumulated cost of a full assignment is exactly the cover cost.  Label
    counts need no explicit bound: every label is nonempty, so the excess
    already paid bounds them by |V| + budget.  Every cover within budget is
    therefore reachable, and exactness rests on that bound alone, with no
    assumption about how many distinct sets an optimum needs.

    Iterative deepening.  The search runs at caps pk[0], pk[0]+1, ... up to
    `budget`, where pk is the suffix packing bound, and a child placing
    vertex i is pruned when its cost plus max(pk[i+1], what the vertices
    after i owe, below) exceeds the cap.  Below the optimum no leaf is
    within the cap.  At cap = optimum both bounds are admissible, so no
    node on the path to an optimal leaf is pruned, and every leaf reached
    is optimal.  So the first cap that reaches a leaf is the optimum, and
    its leaves are all the optimal assignments, in any child order.

    The search keeps its own stack of nodes (i, cost, members), where
    `members` is the tuple of label masks over the placed vertices and each
    child gets its own, so its depth is not bound by the recursion limit.
    Pruning compares a node with the cap alone, never with a leaf found
    before it, so at each cap the set of nodes visited, and of leaves
    reached, does not depend on the order in which nodes are popped.

    It returns (optimum, covers), where `covers` is the set of all distinct
    minimum-cost covers, each a sorted tuple of row masks of `g`, one per
    label, or None when the optimum exceeds the budget (a budget of |E|, the
    cost of the all-singletons cover, always suffices).

    What the unplaced vertices owe.  At a node where the vertices before i
    are placed, take an unplaced vertex v, with A its placed neighbours and
    N its placed non-neighbours, and let

        lb(v) = min(|A|, min over nonempty sets S of labels meeting A
                         of |S| - 1 + |A - US| + |N & US|).

    Every completion charges v at least lb(v) for its excess and its pairs
    with placed vertices, which v pays itself.  v joins some set S of the
    node's labels and perhaps labels opened later; those hold no placed
    vertex, so each adds excess and changes no such pair.  With S empty v
    pays at least |A|.  A label missing A is nonempty with its placed
    members in N, so adding it to S costs one more label and saves no pair.
    Each such pair is charged at its unplaced end, so the charges of
    distinct v are distinct units, and the sum of lb(v) over the unplaced v
    is admissible, as is its maximum with pk.

    Placing vertex i, in the old labels `taken` and r new labels, changes
    each lb(v), v > i, by exactly 0 or 1.  Let a set S be minimal when it
    costs lb(v), U_v be the union of the minimal S, and v be exact when
    lb(v) = |A|.  If i is in A, a set S meeting `taken` keeps its cost and
    any other costs one more; the empty choice costs one more too, and with
    r >= 1 the new label alone costs the old |A|.  So lb(v) stays exactly
    when `taken` meets U_v, or when r >= 1 and v is exact.  If i is in N,
    a set meeting `taken` costs one more and any other keeps its cost,
    while new labels hold only i and miss A.  So lb(v) stays exactly when v
    is exact or some minimal S avoids `taken`.  A node computes each v's
    lb, U_v and minimal S once (`_owed`), when its first child passes the
    pk test; each child's sum is then one pass of bit tests (`_owed_after`).
    Since no lb falls, the node's own sum also narrows the room its
    children share.

    Children.  With room = cap - cost - pk[i+1] left at vertex i, narrowed
    to cap - cost - max(pk[i+1], the node's sum) once that sum is known,
    the children that take no old label come first: r >= 1 new labels, at
    r-1 plus the placed neighbours.  Then each combination
    of e >= 1 old labels is costed once, as e-1 plus its pair costs, which
    bounds e by room+1, and each count r >= 0 of new labels whose child
    passes both bounds is a child.  Only the labels vertex i can afford are
    combined: those holding at most `room` of its non-neighbours.  A
    combination pays for every non-neighbour in each of its labels, so one
    holding a label past the room is past the room itself.  Equal labels
    pass or fail this filter together, so the mirror rule below is
    untouched, and the nodes, the children and their order are those of
    the unfiltered search.  Over the 1,044 canonical forms with 7 vertices
    it visits 92,562 nodes (pops, leaves included, summed over the caps)
    either way, 451,771 with pk alone, and draws 445,583 nonempty label
    combinations instead of 842,538.

    Vertex order.  The vertices are searched in `_search_order`, a greedy
    order that places the vertex with the fewest unplaced neighbours next.
    Over all 1,044 classes with 7 vertices, each under the benchmark's
    fixed relabeling, it visits 92,501 nodes, where index order visits
    107,276 (445,590 and 1,176,740 with pk alone).  The set of all
    minimum-cost covers does not depend on the order.

    Mirror-image labels.  Labels created together at one vertex stay equal
    until one takes a vertex the other does not, and swapping two equal
    labels from then on gives another assignment with the same cover and
    cost.  So a combination may hold label l, while it equals label l-1,
    only if it holds l-1 too.  The labels taken are then a prefix of each
    run of equal labels, which keeps equal labels adjacent.  Each cover
    keeps exactly one of its assignments, so every distinct cover is still
    reached, once.
    """
    n = g.n
    order = _search_order(g.rows)
    rows = [
        sum(1 << k for k, u in enumerate(order) if g.rows[v] >> u & 1) for v in order
    ]
    pk = _suffix_packing_bounds(rows)
    found: set[tuple[int, ...]] = set()
    for cap in range(pk[0], budget + 1):
        stack: list[tuple[int, int, tuple[int, ...]]] = [(0, 0, ())]
        while stack:
            i, cost, members = stack.pop()
            if i == n:
                found.add(members)
                continue
            ibit = 1 << i
            prev = ibit - 1
            adj = rows[i] & prev
            non = prev & ~rows[i]
            left = cap - cost  # what vertices i.. may still pay
            pk1 = pk[i + 1]
            room = left - pk1
            # computed once a child passes the room test
            owed = None if i + 1 < n else _NOTHING_OWED
            base = adj.bit_count() - 1  # e = 0: only new labels
            if base < room:
                if owed is None:
                    owed = _owed(rows, i, members)
                top = left - base - max(pk1, _owed_after(owed, 0)[1])
                for r in range(1, top + 1):
                    stack.append((i + 1, cost + base + r, members + (ibit,) * r))
                # every child owes at least what the node owes
                room = left - max(pk1, owed[0])
            ok = []
            tied = 0
            for lbl, m in enumerate(members):
                if (non & m).bit_count() <= room:
                    ok.append(lbl)
                    if lbl and m == members[lbl - 1]:
                        tied |= 1 << lbl
            for e in range(1, min(len(ok), room + 1) + 1):
                for combo in itertools.combinations(ok, e):
                    shared = taken = 0
                    for lbl in combo:
                        shared |= members[lbl]
                        taken |= 1 << lbl
                    if taken & tied & ~(taken << 1):
                        continue
                    base = e - 1 + (adj & ~shared).bit_count() + (non & shared).bit_count()
                    if base > room:
                        continue
                    if owed is None:
                        owed = _owed(rows, i, members)
                    owe0, owe1 = _owed_after(owed, taken)
                    fits = base + max(pk1, owe0) <= left
                    top = left - base - max(pk1, owe1)
                    if not fits and top < 1:
                        continue
                    child = list(members)
                    for lbl in combo:
                        child[lbl] |= ibit
                    joined = tuple(child)
                    if fits:
                        stack.append((i + 1, cost + base, joined))
                    for r in range(1, top + 1):
                        stack.append((i + 1, cost + base + r, joined + (ibit,) * r))
        if found:
            return cap, {
                tuple(sorted(sum(1 << order[k] for k in bits(m)) for m in leaf))
                for leaf in found
            }
    return None


def _certificate_key(
    n: int, masks: Sequence[int]
) -> list[tuple[int, int, tuple[int, ...]]]:
    """The key whose least value over a graph's optimal covers picks the
    cover `solve_cevs_exact` certifies.

    The least key belongs to the first optimal leaf of the label search run
    in index order with the child order below, so certificates depend
    neither on the vertex order nor on the child order that `cevs_search`
    uses.

    Label order.  In index order a label is created at its set's lowest
    vertex, after every label created before.  Labels created together stay
    equal until one takes a vertex the other does not, and under the mirror
    rule that is the earlier one.  So the labels are the sets in order of
    their first difference: of two sets, the one holding the first vertex
    where they differ comes first.  This also orders sets by lowest member,
    so the old labels at v (those holding a vertex below v) come first, and
    their positions among themselves are their positions among all sets.

    Child order.  At vertex v that search tries t_v labels in increasing
    order, then e_v old ones among them in decreasing order, then the old
    labels' positions P_v as combinations in lexicographic order.  So its
    leaves come in increasing order of the tuple of (t_v, -e_v, P_v) over v
    in index order, and the mirror rule keeps the one leaf of each cover
    whose labels are in the order above.

    First optimal leaf.  At cap = optimum the admissible bound prunes no
    optimal leaf, so the first leaf that search reaches is the first optimal
    leaf of the order above: it has the least key.  An optimal cover never
    holds a set twice (dropping the copy cuts the excess and changes
    no sharing), so a cover's labels are its distinct sets.
    """
    sets = sorted(masks, key=lambda m: [-(m >> v & 1) for v in range(n)])
    key = []
    for v in range(n):
        holders = [k for k, m in enumerate(sets) if m >> v & 1]
        old = tuple(k for k in holders if sets[k] & ((1 << v) - 1))
        key.append((len(holders), -len(old), old))
    return key


def solve_cevs_exact(
    inst: Instance, *, size_limit: int | None = None
) -> tuple[SigmaCliqueCover, ModificationSequence] | None:
    """A minimum-cost cover and a matching modification sequence, if <= budget.

    Of the optimal covers, the one with the least `_certificate_key`.
    """
    inst.require(Problem.CEVS)
    g = inst.graph
    check_size("cevs", g.n, size_limit)
    res = cevs_search(g, inst.budget)
    if res is None:
        return None
    cost, covers = res
    masks = min(covers, key=lambda masks: _certificate_key(g.n, masks))
    cover = SigmaCliqueCover.of(map(g.vertices_of_mask, masks))
    seq = cover_to_modifications(g, cover)
    assert seq.length == cost <= inst.budget, "sequence length drifted from cost"
    return cover, seq
