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
  over maximal cliques containing it), shared with solve_ncc_exact.  Each
  component is searched by iterative deepening: caps rise from the root
  bound, and the search at a cap stops at its first leaf, which at the
  first cap that admits one is the optimum.  A child's bound is its
  parent's, corrected on the rows the chosen clique touches, and the search
  keeps an explicit stack rather than recursing once per chosen set.
* Splitting to clusters (cvs) is solved on the scc instance that
  `convert_cvs_scc` gives.
* Editing with splitting (cevs) assigns each vertex, in turn, a nonempty
  set of cluster labels; a vertex in t labels pays t-1, and each earlier
  vertex pays 1 when the pair disagrees with adjacency (edge across labels,
  or non-edge sharing one), counted with bitmasks over the placed vertices.
  The bound at vertex i is a greedy packing of the induced paths whose
  center and far endpoint are both >= i, each of which must still be paid
  for at a vertex >= i.  The search deepens its cap from the root bound, and
  the first cap that admits a leaf is the optimum, whose leaves are then
  exactly the optimal covers.  `solve_cevs_exact` and the hunter run this
  one search; it needs no cap on the number of labels (see `cevs_search`).
  It visits the vertices fewest-open-neighbours first and skips label
  combinations that mirror one already tried, neither of which changes the
  set of optima it returns.  Covers come out as row masks of the
  graph; `solve_cevs_exact` certifies the optimum with the least
  `_certificate_key` and names its sets.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .certificates import (
    ModificationSequence,
    NodeCliqueCover,
    P3Packing,
    SigmaCliqueCover,
)
from .graph import Graph, VertexId, induced_p3_indices
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
    "cvs": 18,
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
        self.choice: dict[int, int] = {}

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
        """The minimum clique partition size of `mask`; `choice` records the
        first clique, in `_maximal_cliques_at` order, of one such partition.

        A miss keeps its own stack of masks, one per clique taken, so the
        depth is not bound by the recursion limit.  A frame waiting for the
        remainder of its k-th clique resumes at that clique, now memoized.
        """
        memo, choice = self.memo, self.choice
        hit = memo.get(mask)
        if hit is not None:
            return hit
        cliques_at = self._maximal_cliques_at
        stack = []
        # best: the least partition size so far of a remainder m & ~q, each
        # of which is below |m|
        m, cliques, k, best, best_q = mask, cliques_at(mask), 0, mask.bit_count(), 0
        while True:
            if k < len(cliques):
                q = cliques[k]
                r = memo.get(m & ~q)
                if r is None:
                    stack.append((m, cliques, k, best, best_q))
                    m &= ~q
                    cliques, k, best, best_q = cliques_at(m), 0, m.bit_count(), 0
                    continue
                if r < best:
                    best, best_q = r, q
                k += 1
                continue
            best += 1
            memo[m] = best
            choice[m] = best_q
            if not stack:
                return best
            m, cliques, k, best, best_q = stack.pop()

    def partition(self, mask: int) -> list[int]:
        self.min_size(mask)
        out = []
        while mask:
            q = self.choice[mask]
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

    def grow(q: int, cand: int) -> None:
        out.append(q)
        rest = cand
        while rest:
            bit = rest & -rest
            rest &= rest - 1
            x = bit.bit_length() - 1
            grow(q | bit, cand & rows[x] & ~((bit << 1) - 1))

    grow((1 << i) | (1 << j), rows[i] & rows[j])
    return out


def _scc_first_cover(table: _NccTable, root_bound: int, cap: int) -> list[int] | None:
    """The first clique family of the search order that covers every edge of
    `table.rows` within weight `cap`, or None when no family does.

    A node is the uncovered part of each row.  It branches on the smallest
    uncovered edge over the cliques through it, by (-size, mask).  A node's
    bound is the sum of `table.min_size` over its rows; `root_bound` must be
    that sum at the root.  A child's bound differs only on the rows its
    clique touches, and every row of a node is already in `table.memo`,
    summed into the node's own bound.  A child is pruned when its weight
    plus its bound exceeds `cap`.  The search keeps its own stack, so its
    depth is not bound by the recursion limit.

    On a clique the first candidate is the whole clique, the unique largest
    one; its weight n equals the root bound, so it is the first leaf, taken
    here without listing the 2^(n-2) cliques through the first edge.
    """
    if root_bound == 0:
        return []
    rows = table.rows
    full = (1 << len(rows)) - 1
    if all(row | 1 << x == full for x, row in enumerate(rows)):
        return [full] if root_bound <= cap else None
    min_size, memo = table.min_size, table.memo

    def children(uncov: list[int], start: int):
        i = start
        while not uncov[i]:
            i += 1
        row = uncov[i]
        j = (row & -row).bit_length() - 1
        cands = sorted(_cliques_with_edge(rows, i, j), key=lambda q: (-q.bit_count(), q))
        return i, iter(cands)

    stack = [(list(rows), 0, root_bound, *children(rows, 0))]
    chosen: list[int] = []
    while stack:
        uncov, weight, bound, i, cands = stack[-1]
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
        child = list(uncov)
        rest = q
        while rest:
            x = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            child[x] &= ~q
        stack.append((child, w, b, *children(child, i)))
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
    """
    check_size("scc", g.n, size_limit)
    comps = [g.induced(g.vertices_of_mask(c)) for c in g.component_masks()]
    tables = [_NccTable(comp.rows) for comp in comps]
    lbs = [
        sum(table.min_size(row) for row in table.rows if row) for table in tables
    ]
    slack = budget - sum(lbs)
    sets: list[frozenset[VertexId]] = []
    for comp, table, lb in zip(comps, tables, lbs):
        for cap in range(lb, lb + slack + 1):
            masks = _scc_first_cover(table, lb, cap)
            if masks is not None:
                break
        else:
            return None
        slack -= cap - lb
        sets += [frozenset(comp.vertices_of_mask(q)) for q in masks]
    if slack < 0:
        return None
    return SigmaCliqueCover.of(sets)


def solve_cvs_exact(
    inst: Instance, *, size_limit: int | None = None
) -> ModificationSequence | None:
    """A shortest all-splits sequence to a cluster graph, if length <= budget."""
    scc, _ = convert_cvs_scc(inst)
    check_size("cvs", scc.graph.n, size_limit)
    cover = solve_scc_exact(scc.graph, scc.budget, size_limit=scc.graph.n)
    if cover is None:
        return None
    seq = cover_to_splits(scc.graph, cover)
    assert seq.length <= inst.budget, "cover weight drifted past the split budget"
    return seq


# ---------------------------------------------------------------------------
# induced-path packings
# ---------------------------------------------------------------------------


def _compatible(t1: tuple[int, int, int], t2: tuple[int, int, int]) -> bool:
    return t1[1] != t2[1] and len(set(t1) & set(t2)) <= 1


def _greedy_packing(triples: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """First fit: each triple compatible with every one chosen before it.

    Two triples of three distinct vertices share two vertices exactly when
    they share a pair, so compatibility with all chosen triples is a lookup
    of the center and of the three pairs.
    """
    chosen: list[tuple[int, int, int]] = []
    centers: set[int] = set()
    pairs: set[tuple[int, int]] = set()
    for t in triples:
        x, c, z = t
        mine = [(min(a, b), max(a, b)) for a, b in ((x, c), (c, z), (x, z))]
        if c not in centers and pairs.isdisjoint(mine):
            chosen.append(t)
            centers.add(c)
            pairs.update(mine)
    return chosen


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
    """
    triples = sorted(induced_p3_indices(rows))
    return [
        len(_greedy_packing([t for t in triples if t[1] >= i and t[2] >= i]))
        for i in range(len(rows) + 1)
    ]


def _exact_packing(triples: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    m = len(triples)
    conflict = [0] * m
    for a in range(m):
        for b in range(a + 1, m):
            if not _compatible(triples[a], triples[b]):
                conflict[a] |= 1 << b
                conflict[b] |= 1 << a
    seed = _greedy_packing(triples)
    best_count = len(seed)
    best_sets = seed

    def centers_left(cand: int) -> int:
        seen = set()
        while cand:
            x = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            seen.add(triples[x][1])
        return len(seen)

    def dfs(cand: int, count: int, chosen: list[int]) -> None:
        nonlocal best_count, best_sets
        if count + min(cand.bit_count(), centers_left(cand)) <= best_count:
            return
        if cand == 0:
            if count > best_count:
                best_count = count
                best_sets = [triples[x] for x in chosen]
            return
        bit = cand & -cand
        x = bit.bit_length() - 1
        chosen.append(x)
        dfs(cand & ~conflict[x] & ~bit, count + 1, chosen)
        chosen.pop()
        dfs(cand & ~bit, count, chosen)

    dfs((1 << m) - 1, 0, [])
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
        v = min(
            (v for v in range(len(rows)) if unplaced >> v & 1),
            key=lambda v: (
                (rows[v] & unplaced).bit_count(),
                -(rows[v] & ~unplaced).bit_count(),
                v,
            ),
        )
        order.append(v)
        unplaced &= ~(1 << v)
    return order


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
    `budget`, where pk is the suffix packing bound, and a child is pruned
    when its cost plus the bound of the next vertex exceeds the cap.  Below
    the optimum no leaf is within the cap.  At cap = optimum the bound is
    admissible, so no node on the path to an optimal leaf is pruned, and
    every leaf reached is optimal.  So the first cap that reaches a leaf is
    the optimum, and its leaves are all the optimal assignments, in any
    child order.  It returns (optimum, covers), where `covers` is the set of
    all distinct minimum-cost covers, each a sorted tuple of row masks of
    `g`, one per label, or None when the optimum exceeds the budget (a
    budget of |E|, the cost of the all-singletons cover, always suffices).

    Children.  With room = cap - cost - pk[i+1] left at vertex i, each
    combination of e old labels is costed once, as e-1 plus its pair costs,
    which bounds e by room+1; then each count r of new labels that fits in
    the room (r >= 1 when e = 0) is a child.

    Vertex order.  The vertices are searched in `_search_order`, a greedy
    order that places the vertex with the fewest unplaced neighbours next.
    Over all 1,044 classes with 7 vertices, each under a fixed relabeling,
    it visits 445,590 search nodes, summed over the caps, where index order
    visits 1,176,740.  The set of all minimum-cost covers does not depend
    on the order.

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
    members: list[int] = []
    found: list[tuple[int, ...]] = []

    def dfs(i: int, cost: int) -> None:
        if i == n:
            found.append(tuple(sorted(members)))
            return
        L = len(members)
        tied = 0
        for lbl in range(1, L):
            if members[lbl] == members[lbl - 1]:
                tied |= 1 << lbl
        ibit = 1 << i
        prev = ibit - 1
        adj = rows[i] & prev
        non = prev & ~rows[i]
        room = cap - cost - pk[i + 1]
        for e in range(min(L, room + 1) + 1):
            for combo in itertools.combinations(range(L), e):
                shared = taken = 0
                for lbl in combo:
                    shared |= members[lbl]
                    taken |= 1 << lbl
                if taken & tied & ~(taken << 1):
                    continue
                base = e - 1 + (adj & ~shared).bit_count() + (non & shared).bit_count()
                if base > room:
                    continue
                for lbl in combo:
                    members[lbl] |= ibit
                for r in range(0 if e else 1, room - base + 1):
                    members.extend([ibit] * r)
                    dfs(i + 1, cost + base + r)
                    del members[L:]
                for lbl in combo:
                    members[lbl] &= ~ibit

    for cap in range(pk[0], budget + 1):
        dfs(0, 0)
        if found:
            break
    else:
        return None

    def unpermuted(mask: int) -> int:
        return sum(1 << v for k, v in enumerate(order) if mask >> k & 1)

    return cap, {tuple(sorted(map(unpermuted, leaf))) for leaf in found}


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
    if inst.problem is not Problem.CEVS:
        raise ValueError(f"expected a cevs instance, got {inst.problem.value}")
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
