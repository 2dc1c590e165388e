"""Brute-force reference implementations used to pin down expected values.

Everything in here is deliberately written against plain tuples,
frozensets and integer masks, without importing the package under test, so
that test expectations come from an independent computation.  All functions are
exponential and only meant for tiny inputs.
"""

from __future__ import annotations

import itertools
import sys
import unicodedata
from functools import lru_cache

Edge = tuple[str, str]


def norm_edge(u: str, v: str) -> Edge:
    return (u, v) if u < v else (v, u)


def make(names, edges) -> tuple[tuple[str, ...], frozenset[Edge]]:
    names = tuple(sorted(names))
    es = frozenset(norm_edge(u, v) for u, v in edges)
    for u, v in es:
        assert u in names and v in names and u != v
    return names, es


def adjacent(edges: frozenset[Edge], u: str, v: str) -> bool:
    return norm_edge(u, v) in edges


def neighbors(names, edges, u: str) -> frozenset[str]:
    return frozenset(v for v in names if v != u and adjacent(edges, u, v))


def is_clique(edges: frozenset[Edge], group) -> bool:
    return all(adjacent(edges, u, v) for u, v in itertools.combinations(sorted(group), 2))


def components(names, edges) -> list[frozenset[str]]:
    remaining = set(names)
    out = []
    while remaining:
        seed = remaining.pop()
        comp = {seed}
        queue = [seed]
        while queue:
            u = queue.pop()
            for v in list(remaining):
                if adjacent(edges, u, v):
                    remaining.discard(v)
                    comp.add(v)
                    queue.append(v)
        out.append(frozenset(comp))
    return out


def is_cluster(names, edges) -> bool:
    return all(is_clique(edges, comp) for comp in components(names, edges))


def all_cliques(names, edges) -> list[frozenset[str]]:
    """Every non-empty clique, singletons included."""
    out = []
    for r in range(1, len(names) + 1):
        for group in itertools.combinations(names, r):
            if is_clique(edges, group):
                out.append(frozenset(group))
    return out


# ---------------------------------------------------------------- covers


def min_scc_weight(names, edges) -> int | None:
    """Minimum total size of a family of cliques covering every edge.

    None when the graph has an edge but no clique family helps, which
    cannot happen; the None branch only guards the recursion.
    """
    cliques = all_cliques(names, edges)
    if not edges:
        return 0

    @lru_cache(maxsize=None)
    def best(unc: frozenset[Edge]) -> int:
        if not unc:
            return 0
        u, v = min(unc)
        result = None
        for c in cliques:
            if u in c and v in c:
                rest = frozenset(e for e in unc if not (e[0] in c and e[1] in c))
                sub = best(rest)
                cand = len(c) + sub
                if result is None or cand < result:
                    result = cand
        assert result is not None
        return result

    return best(edges)


def first_optimal_scc_cover(names, edges) -> list[frozenset[str]]:
    """The sets of the first least-weight leaf of the scc candidate tree,
    component by component.

    A node of a component's tree is its set of uncovered edges.  Its
    children are the cliques through its smallest uncovered edge, largest
    first, and among equal sizes by the bitmask of their positions in
    `names`, smallest first; `names` stands for the vertex order.  The whole
    tree is walked with no bound and no cap, memoized on the uncovered set:
    a node's answer is the first child, in order, whose weight plus its own
    answer's weight is least, followed by that answer's path.
    """
    pos = {v: i for i, v in enumerate(names)}
    cliques = sorted(
        (c for c in all_cliques(names, edges) if len(c) >= 2),
        key=lambda c: (-len(c), sum(1 << pos[v] for v in c)),
    )

    @lru_cache(maxsize=None)
    def best(unc: frozenset[Edge]) -> tuple[int, tuple[frozenset[str], ...]]:
        if not unc:
            return 0, ()
        u, v = min(unc, key=lambda e: (pos[e[0]], pos[e[1]]))
        result = None
        for c in cliques:
            if u in c and v in c:
                weight, path = best(frozenset(e for e in unc if not (e[0] in c and e[1] in c)))
                if result is None or len(c) + weight < result[0]:
                    result = (len(c) + weight, (c, *path))
        return result

    out: list[frozenset[str]] = []
    for comp in components(names, edges):
        out += best(frozenset(e for e in edges if e[0] in comp))[1]
    return out


def set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        yield [[first]] + part


def min_ncc_size(names, edges) -> int:
    """Minimum number of cliques needed to cover every vertex."""
    best = None
    for part in set_partitions(names):
        if all(is_clique(edges, block) for block in part):
            if best is None or len(part) < best:
                best = len(part)
    assert best is not None
    return best


def least_covered(universals, sets) -> str:
    """The universal vertex whose covering sets weigh least, ties by name:
    one scan of the family per universal vertex."""
    return min(universals, key=lambda u: (sum(len(s) for s in sets if u in s), u))


class UnknownName(Exception):
    """A cover names a vertex the graph lacks; the message is the package's."""


def _cover_checks(order, edges, sets):
    """What both cover verifiers read first, by name: the valencies in
    vertex order, and the first set that is not a clique, in cover order.

    `order` lists the vertex names in vertex order.  Raises UnknownName for
    the first set naming a vertex outside `order`, with the smallest such
    name of that set."""
    for s in sets:
        unknown = [v for v in s if v not in order]
        if unknown:
            first = min(unknown, key=parse_vertex_name)
            raise UnknownName(f"certificate references unknown vertex {first}")
    valencies = {v: sum(v in s for s in sets) for v in order}
    for s in sets:
        if not is_clique(edges, s):
            members = ",".join(sorted(s, key=parse_vertex_name))
            return valencies, f"set {{{members}}} is not a clique"
    return valencies, None


def sigma_cover_report(order, edges, sets, budget):
    """(valid, reason, metrics) of verify_sigma_cover, from the definition:
    every set a clique, then every edge in a set, the first missed one in
    the order of (position, position), then the weight within budget."""
    sets = [frozenset(s) for s in sets]
    valencies, reason = _cover_checks(order, edges, sets)
    weight = sum(len(s) for s in sets)
    metrics = {"weight": weight, "budget": budget, "sets": len(sets), "valencies": valencies}
    if reason is None:
        pos = {v: i for i, v in enumerate(order)}
        missed = sorted(
            (e for e in edges if not any(e[0] in s and e[1] in s for s in sets)),
            key=lambda e: sorted((pos[e[0]], pos[e[1]])),
        )
        if missed:
            u, v = sorted(missed[0], key=pos.__getitem__)
            reason = f"edge {u} {v} is covered by no set"
        elif weight > budget:
            reason = f"weight {weight} exceeds budget {budget}"
    return reason is None, reason, metrics


def node_cover_report(order, edges, sets, budget):
    """(valid, reason, metrics) of verify_node_cover, from the definition:
    every set a clique, then every vertex in a set, the first missed one in
    vertex order, then the number of sets within budget."""
    sets = [frozenset(s) for s in sets]
    valencies, reason = _cover_checks(order, edges, sets)
    metrics = {"size": len(sets), "budget": budget, "valencies": valencies}
    if reason is None:
        missed = [v for v in order if not valencies[v]]
        if missed:
            reason = f"vertex {missed[0]} is covered by no set"
        elif len(sets) > budget:
            reason = f"{len(sets)} sets exceed budget {budget}"
    return reason is None, reason, metrics


# ---------------------------------------------------------------- splits


def split_results(names, edges, u: str):
    """All graphs obtainable by one split of u, copies named u+'x'/u+'y'."""
    nbrs = sorted(neighbors(names, edges, u))
    a, b = u + "x", u + "y"
    rest_names = tuple(x for x in names if x != u)
    rest_edges = frozenset(e for e in edges if u not in e)
    seen = set()
    for amask in range(1 << len(nbrs)):
        side_a = frozenset(nbrs[i] for i in range(len(nbrs)) if amask >> i & 1)
        side_b = frozenset(nbrs) - side_a
        # every neighbor must stay covered; overlap is allowed, so widen side_b
        for extra in range(1 << len(side_a)):
            both = frozenset(
                sorted(side_a)[i] for i in range(len(side_a)) if extra >> i & 1
            )
            key = (side_a, side_b | both)
            if key in seen:
                continue
            seen.add(key)
            new_edges = set(rest_edges)
            new_edges.update(norm_edge(a, w) for w in side_a)
            new_edges.update(norm_edge(b, w) for w in side_b | both)
            yield make(rest_names + (a, b), new_edges)


def min_cvs_splits(names, edges, cap: int) -> int | None:
    """Fewest splits reaching a cluster graph, or None if more than cap."""
    level = {(names, edges)}
    for depth in range(cap + 1):
        if any(is_cluster(ns, es) for ns, es in level):
            return depth
        nxt = set()
        for ns, es in level:
            for u in ns:
                nxt.update(split_results(ns, es, u))
        level = nxt
    return None


def min_cevs_ops(names, edges, cap: int) -> int | None:
    """Fewest add/delete/split operations reaching a cluster graph."""
    level = {(names, edges)}
    for depth in range(cap + 1):
        if any(is_cluster(ns, es) for ns, es in level):
            return depth
        nxt = set()
        for ns, es in level:
            for u, v in itertools.combinations(ns, 2):
                e = norm_edge(u, v)
                if e in es:
                    nxt.add((ns, es - {e}))
                else:
                    nxt.add((ns, es | {e}))
            for u in ns:
                nxt.update(split_results(ns, es, u))
        level = nxt
    return None


# ---------------------------------------------------------------- packings


def induced_p3s(names, edges) -> list[tuple[str, str, str]]:
    out = []
    for center in names:
        nbrs = sorted(neighbors(names, edges, center))
        for x, z in itertools.combinations(nbrs, 2):
            if not adjacent(edges, x, z):
                out.append((x, center, z))
    return out


def max_p3_packing_size(names, edges) -> int:
    """Largest set of induced P3s pairwise sharing at most one non-center vertex."""
    triples = induced_p3s(names, edges)

    def ok(a, b) -> bool:
        if a[1] == b[1]:
            return False
        return len(set(a) & set(b)) <= 1

    best = 0
    for r in range(len(triples), 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(triples, r):
            if all(ok(a, b) for a, b in itertools.combinations(combo, 2)):
                best = r
                break
    return best


# ---------------------------------------------------------------- CEVS covers


def cover_cost(names, edges, family) -> int | None:
    """Cost of a family of vertex sets, or None if it does not cover V."""
    family = [frozenset(c) for c in family]
    if set().union(*family, set()) != set(names):
        return None
    cost = sum(len(c) for c in family) - len(names)
    for u, v in itertools.combinations(names, 2):
        shared = any(u in c and v in c for c in family)
        if adjacent(edges, u, v) and not shared:
            cost += 1
        elif not adjacent(edges, u, v) and shared:
            cost += 1
    return cost


def all_optimal_cover_families(names, edges):
    """Every family of distinct vertex sets achieving the minimum cost."""
    subsets = []
    for r in range(1, len(names) + 1):
        subsets.extend(frozenset(c) for c in itertools.combinations(names, r))
    best = None
    found: list[frozenset[frozenset[str]]] = []
    for mask in range(1, 1 << len(subsets)):
        family = [subsets[i] for i in range(len(subsets)) if mask >> i & 1]
        cost = cover_cost(names, edges, family)
        if cost is None:
            continue
        if best is None or cost < best:
            best = cost
            found = [frozenset(family)]
        elif cost == best:
            found.append(frozenset(family))
    return best, set(found)


def first_optimal_leaf(order, edges):
    """The optimum and the cover of the first optimal leaf of a label search
    that places the vertices in `order`.

    Vertex i takes t labels, t increasing; of them, e already exist, e
    decreasing, chosen as combinations of label positions in lexicographic
    order, and t - e are new labels appended at the end.  A label equal to
    the one before it is taken only together with it.  Each placement pays
    t - 1 plus one per earlier vertex whose adjacency disagrees with sharing
    a label.  The cap on the cost is raised from 0 until a leaf fits it, so
    the first leaf found costs the optimum.
    """
    labels: list[set[str]] = []

    def dfs(i: int, cost: int, cap: int):
        if i == len(order):
            return frozenset(frozenset(lbl) for lbl in labels)
        v = order[i]
        n_old = len(labels)
        for t in range(1, cap - cost + 2):
            for e in range(min(t, n_old), -1, -1):
                for combo in itertools.combinations(range(n_old), e):
                    if any(
                        k in combo and k - 1 not in combo and labels[k] == labels[k - 1]
                        for k in range(1, n_old)
                    ):
                        continue
                    shared = set().union(*(labels[k] for k in combo))
                    paid = t - 1 + sum(
                        adjacent(edges, u, v) != (u in shared) for u in order[:i]
                    )
                    if cost + paid > cap:
                        continue
                    for k in combo:
                        labels[k].add(v)
                    labels.extend({v} for _ in range(t - e))
                    leaf = dfs(i + 1, cost + paid, cap)
                    del labels[n_old:]
                    for k in combo:
                        labels[k].discard(v)
                    if leaf is not None:
                        return leaf
        return None

    for cap in itertools.count():
        leaf = dfs(0, 0, cap)
        if leaf is not None:
            return cap, leaf



# ---------------------------------------------------------------- label search bounds
#
# A graph is given as adjacency masks, rows[v] holding bit u for each
# neighbour u of v, and a node of the label search as the vertices 0..i-1
# placed in `labels`, a list of vertex masks.


def suffix_packing_bounds(rows) -> list[int]:
    """pk[i]: the first fit, in lexicographic order, of the induced paths
    (x, c, z), x < z, with c >= i and z >= i; a path fits when no path chosen
    before has its center or shares a pair with it."""
    n = len(rows)
    triples = sorted(
        (x, c, z)
        for c in range(n)
        for x, z in itertools.combinations(range(n), 2)
        if c not in (x, z)
        and rows[c] >> x & 1
        and rows[c] >> z & 1
        and not rows[x] >> z & 1
    )
    out = []
    for i in range(n + 1):
        centers: set[int] = set()
        pairs: set[frozenset[int]] = set()
        for x, c, z in triples:
            mine = {frozenset(p) for p in ((x, c), (c, z), (x, z))}
            if c >= i and z >= i and c not in centers and not pairs & mine:
                centers.add(c)
                pairs |= mine
        out.append(len(centers))
    return out


def _unions(labels) -> list[int]:
    """The union of each subset of the labels, indexed by the subset's mask."""
    out = [0]
    for lbl in labels:
        out += [u | lbl for u in out]
    return out


def _pays(rows, v: int, count: int, shared: int) -> int:
    """What vertex v pays on joining `count` labels whose members before v
    are `shared`: the labels past the first, and each vertex u < v whose
    adjacency to v disagrees with sharing a label."""
    return count - 1 + ((rows[v] ^ shared) & ((1 << v) - 1)).bit_count()


def placed_cost(rows, labels, i: int) -> int:
    """What the placed vertices 0..i-1 have paid."""
    total = 0
    for v in range(i):
        mine = [lbl for lbl in labels if lbl >> v & 1]
        total += _pays(rows, v, len(mine), _unions(mine)[-1])
    return total


def least_owed(rows, labels, i: int) -> list[int]:
    """For each unplaced vertex v >= i, the least it pays toward its labels
    past the first and its pairs with the placed vertices, over every set S
    of the labels, nonempty or not, joined with new labels.  A new label
    holds no placed vertex, so it changes no such pair: one is needed only
    when S is empty, and each one more adds one label."""
    unions = _unions(labels)
    placed = (1 << i) - 1
    out = []
    for v in range(i, len(rows)):
        adj = rows[v] & placed
        out.append(
            min(
                max(s.bit_count() - 1, 0) + ((adj ^ shared) & placed).bit_count()
                for s, shared in enumerate(unions)
            )
        )
    return out


def cheapest_completion(rows, labels, i: int, limit: int) -> int | None:
    """The least cost of a full assignment extending the node, what the
    placed vertices paid included, or None when every one costs more than
    `limit`.

    Vertices i, i+1, ... each join any set of the labels there are, the old
    ones and those opened before it, and open r new labels, with at least one
    label in all; a vertex pays as in `_pays`, with the new labels counted.
    """
    labels = list(labels)
    best = None

    def extend(v: int, cost: int) -> None:
        nonlocal best, limit
        if cost > limit:  # a leaf found since the caller's loop lowered it
            return
        if v == len(rows):
            best, limit = cost, cost - 1
            return
        count = len(labels)
        for s, shared in enumerate(_unions(labels)):
            size = s.bit_count()
            pays = _pays(rows, v, size, shared)
            if cost + pays + (0 if size else 1) > limit:
                continue
            for k in range(count):
                if s >> k & 1:
                    labels[k] |= 1 << v
            for r in range(0 if size else 1, limit - cost - pays + 1):
                labels.extend([1 << v] * r)
                extend(v + 1, cost + pays + r)
                del labels[count:]
            for k in range(count):
                labels[k] &= ~(1 << v)

    extend(i, placed_cost(rows, labels, i))
    return best


def critical_classes(names, edges) -> list[frozenset[str]]:
    closed = {u: neighbors(names, edges, u) | {u} for u in names}
    out = {}
    for u in names:
        out.setdefault(closed[u], set()).add(u)
    return [frozenset(v) for v in out.values()]


def family_respects(names, edges, family) -> bool:
    for cls in critical_classes(names, edges):
        for c in family:
            inter = cls & c
            if inter and inter != cls:
                return False
    return True


# ---------------------------------------------------------------- isomorphism


def labeled_graphs(n: int):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield frozenset(pairs[i] for i in range(len(pairs)) if mask >> i & 1)


def iso_invariant(n: int, pairs: frozenset[tuple[int, int]]) -> tuple:
    """Canonical form by minimizing over all vertex permutations."""
    order = list(itertools.combinations(range(n), 2))
    best = None
    for perm in itertools.permutations(range(n)):
        key = tuple(
            1 if (min(perm[a], perm[b]), max(perm[a], perm[b])) in pairs else 0
            for a, b in order
        )
        if best is None or key < best:
            best = key
    return best


def count_iso_classes(n: int, connected_only: bool = False) -> int:
    seen = set()
    for pairs in labeled_graphs(n):
        if connected_only:
            names = tuple(str(i) for i in range(n))
            es = frozenset(norm_edge(str(a), str(b)) for a, b in pairs)
            if len(components(names, es)) != 1:
                continue
        seen.add(iso_invariant(n, pairs))
    return len(seen)


def are_isomorphic(n1, pairs1, n2, pairs2) -> bool:
    if n1 != n2:
        return False
    return iso_invariant(n1, pairs1) == iso_invariant(n2, pairs2)


# ---------------------------------------------------------------- vertex names


class NameRejected(Exception):
    """The definition rejects a vertex name; the message is the package's."""


def vertex_name(root, branches) -> tuple:
    """The sort key VertexId(root, branches) must be, from the definition.

    A root is a non-empty string with no "." and no character that
    ``str.isspace`` accepts; a branch is the int 0 or 1 (not a bool, not a
    float).  An all-digit root, every character a Unicode decimal digit,
    keys as ``(0, value, root, branches)`` with its value read digit by
    digit, and is refused when it is longer than the interpreter's integer
    string limit; any other root keys as ``(1, 0, root, branches)``.
    """
    steps = tuple(branches)
    if not root or "." in root or any(c.isspace() for c in root):
        raise NameRejected(f"bad vertex root token: {root!r}")
    if not all(type(b) is int and b in (0, 1) for b in steps):
        raise NameRejected(f"branch components must be 0 or 1: {branches!r}")
    digits = [unicodedata.decimal(c, None) for c in root]
    if None in digits:
        return (1, 0, root, steps)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and len(root) > limit:
        raise NameRejected(f"all-digit vertex root of {len(root)} digits is too long")
    value = 0
    for d in digits:
        value = 10 * value + d
    return (0, value, root, steps)


def parse_vertex_name(token: str) -> tuple:
    """The sort key VertexId.parse(token) must be: a root, then "."-separated
    branches each written "0" or "1"."""
    head, *rest = token.split(".")
    if any(part not in ("0", "1") for part in rest):
        raise NameRejected(f"branch components after dots must be 0 or 1: {token!r}")
    return vertex_name(head, tuple(1 if part == "1" else 0 for part in rest))


def build_by_name(graph_module, vertices, edges=()):
    """Graph.build one name at a time, the reference for the package's build.

    Every declared vertex and every edge endpoint goes through
    ``VertexId.parse``; both endpoints are parsed before either is looked
    up.  The package's ``graph`` module comes in as an argument, so this file
    still imports nothing from the package.
    """
    m = graph_module
    vs = [m.VertexId.parse(v) for v in vertices]
    seen = set()
    for v in vs:
        if v in seen:
            raise m.DuplicateVertex(f"duplicate vertex {v}")
        seen.add(v)
    vs.sort()
    index = {v: i for i, v in enumerate(vs)}
    rows = [0] * len(vs)
    for a, b in edges:
        u, w = m.VertexId.parse(a), m.VertexId.parse(b)
        if u not in index:
            raise m.UnknownVertex(f"edge endpoint {u} is not a declared vertex")
        if w not in index:
            raise m.UnknownVertex(f"edge endpoint {w} is not a declared vertex")
        if u == w:
            raise m.GraphError(f"self-loop at {u}")
        rows[index[u]] |= 1 << index[w]
        rows[index[w]] |= 1 << index[u]
    return m.Graph(tuple(vs), tuple(rows))


def extend_universal_by_build(graph_module, g, count):
    """The graph `g` plus `count` universal vertices through
    :func:`build_by_name`, the reference for the package's direct rows.

    The fresh names are u1..u<count>, with the base "u" lengthened while a
    root of `g` starts with it; each is adjacent to every vertex of `g`."""
    base = "u"
    while any(str(v).split(".")[0].startswith(base) for v in g.vertices):
        base += "u"
    fresh = [f"{base}{i}" for i in range(1, count + 1)]
    edges = list(g.edges())
    edges += [(u, v) for u in fresh for v in g.vertices]
    return build_by_name(graph_module, [*g.vertices, *fresh], edges)


def parse_by_name(formats_module, graph_module, text):
    """parse_graph_text one name at a time, the reference for the package's
    parser.

    Every declared vertex and every edge endpoint goes through
    ``VertexId.parse``; duplicates are found on the parsed names, edges on
    frozensets of them, and the lineage check walks the declared names in
    declaration order.  The graph comes from :func:`build_by_name`.
    """
    VertexId, GraphError = graph_module.VertexId, graph_module.GraphError
    header = None
    vertices = []
    seen_vertices = {}  # name -> its line
    edges = []
    seen_edges = set()

    def fail(lineno, msg):
        raise formats_module.FormatError(f"line {lineno}: {msg}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if header is None:
            if fields[0] != "graph" or len(fields) != 3:
                fail(lineno, "expected header 'graph <n> <m>'")
            try:
                header = (int(fields[1]), int(fields[2]))
            except ValueError:
                fail(lineno, "vertex and edge counts must be integers")
            if header[0] < 0 or header[1] < 0:
                fail(lineno, "vertex and edge counts must be non-negative")
            continue
        if fields[0] == "v":
            if len(fields) != 2:
                fail(lineno, "expected 'v <id>'")
            try:
                v = VertexId.parse(fields[1])
            except GraphError as exc:
                fail(lineno, str(exc))
            if v in seen_vertices:
                fail(lineno, f"duplicate vertex {v}")
            seen_vertices[v] = lineno
            vertices.append(v)
        elif fields[0] == "e":
            if len(fields) != 3:
                fail(lineno, "expected 'e <id> <id>'")
            try:
                u, w = VertexId.parse(fields[1]), VertexId.parse(fields[2])
            except GraphError as exc:
                fail(lineno, str(exc))
            if u == w:
                fail(lineno, f"self-loop at {u}")
            if u not in seen_vertices or w not in seen_vertices:
                missing = u if u not in seen_vertices else w
                fail(lineno, f"edge endpoint {missing} is not a declared vertex")
            pair = frozenset((u, w))
            if pair in seen_edges:
                fail(lineno, f"duplicate edge {u} {w}")
            seen_edges.add(pair)
            edges.append((u, w))
        else:
            fail(lineno, f"unknown directive {fields[0]!r}")
    if header is None:
        raise formats_module.FormatError("missing 'graph <n> <m>' header")
    if header != (len(vertices), len(edges)):
        raise formats_module.FormatError(
            f"header announces {header[0]} vertices / {header[1]} edges,"
            f" found {len(vertices)} / {len(edges)}"
        )
    for v in vertices:
        for depth in range(len(v.branches)):
            ancestor = VertexId(v.root, v.branches[:depth])
            if ancestor in seen_vertices:
                fail(seen_vertices[v], f"vertex {v} is a split copy of vertex {ancestor}")
    return build_by_name(graph_module, vertices, edges)
