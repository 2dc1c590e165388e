"""The three workloads: their inputs, their items and the check on each item.

A workload is driven in passes.  ``make_pass(seed, p)`` builds the inputs of
pass ``p`` (untimed) and returns its items in a fixed seeded order; each item
is a callable that calls the library, checks the answer and raises
:class:`WrongAnswer` when the check fails.  The inputs depend on the seed
only, so every pass of a run repeats the same items, built afresh (hunt7 and
solve-desk shuffle them per pass), and an item's id names the same work in
every pass.  Items record their answers in ``Pass.answers`` (hashed into
the digest of pass 0) and add to ``Pass.counts`` (the exact counts of the
traced run).

The library is reached through ``lib``, a namespace of the imported
``splitclust`` modules, looked up at call time so tracing wrappers apply.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from pathlib import Path

from inputs import Planted, gnp, planted, relabeling

# The exact counts an item adds to, with their units.
COUNTS = {
    "formats.bytes": "bytes",  # graph text and certificate files written
    "solvers.yes": "count",
    "solvers.no": "count",
    "solvers.cevs_bound_ratio": "ratio",  # greedy packing / optimum, summed over cevs items
    "kernel.removed": "count",  # vertices the kernel removed
    "reductions.out_edges": "count",  # edges of the reduced instances
    "hunter.optimal_covers": "count",
    "hunter.optimum_sum": "count",
}


class WrongAnswer(Exception):
    """An item's answer failed the benchmark's check."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


class Pass:
    """The items of one pass, and what they record."""

    def __init__(self) -> None:
        self.items: list[tuple[str, object]] = []  # (item id, callable)
        self.answers: list = []
        self.counts: Counter = Counter()

    def add(self, item_id: str, fn) -> None:
        self.items.append((item_id, fn))

    def digest(self) -> str:
        text = json.dumps(sorted(self.answers, key=json.dumps))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def build(lib, n: int, edges) -> object:
    names = [str(v) for v in range(n)]
    return lib.graph.Graph.build(names, [(names[a], names[b]) for a, b in edges])


def sets_of(cover) -> list[list[str]]:
    return [[str(v) for v in c] for c in cover]


# ---------------------------------------------------------------------------
# hunt7: the hunter on a fixed sample of the n = 7 classes
# ---------------------------------------------------------------------------

HUNT_N = 7
HUNT_STRIDE = 24  # every 24th class of the canonical order: 44 of 1,044


class Hunt7:
    """hunter.hunt_graph on a fixed sample of the n = 7 classes, each under a
    fixed relabeling; the seed orders the items of each pass."""

    def setup(self, lib) -> None:
        self.classes = lib.hunter.enumerate_graphs(HUNT_N)
        check(len(self.classes) == 1044, f"{len(self.classes)} classes at n = 7, expected 1044")

    def make_pass(self, lib, seed: int, p: int) -> Pass:
        return _hunt7_pass(lib, self.classes, seed, p)


def _hunt7_pass(lib, classes, seed: int, p: int) -> Pass:
    out = Pass()
    sample = list(range(0, len(classes), HUNT_STRIDE))
    random.Random(f"hunt7-{seed}-{p}").shuffle(sample)
    for index in sample:
        perm = relabeling(index, HUNT_N)
        canon = classes[index]
        edges = [(perm[int(str(u))], perm[int(str(w))]) for u, w in canon.edges()]
        g = build(lib, HUNT_N, edges)
        out.add(f"hunt7/{index}", lambda g=g, index=index: _hunt_item(lib, out, g, index))
    return out


def _hunt_item(lib, out: Pass, g, index: int) -> None:
    report = lib.hunter.hunt_graph(g)
    check(report.n == HUNT_N and report.index == index, f"class {index} reported as {report.index}")
    for witness, respects in ((report.witness_respecting, True), (report.witness_cutting, False)):
        if witness is None:
            continue
        cost = lib.certificates.cover_cost(g, witness).total
        check(cost == report.optimum, f"class {index}: witness cost {cost} != optimum {report.optimum}")
        flag = lib.certificates.cover_respects_critical_cliques(g, witness)
        check(flag is respects, f"class {index}: witness respects flag {flag}")
    check(report.exists_optimum_respecting == (report.witness_respecting is not None), "respecting flag")
    check(report.exists_optimum_cutting == (report.witness_cutting is not None), "cutting flag")
    out.answers.append([index, report.optimum, report.exists_optimum_respecting])
    out.counts["hunter.optimal_covers"] += report.optimal_covers
    out.counts["hunter.optimum_sum"] += report.optimum


# ---------------------------------------------------------------------------
# solve-desk: decide desk-scale instances, certificates round-tripped
# ---------------------------------------------------------------------------

# Instances per pass.  Sizes stay where the seed finishes every instance in
# well under a second: a dense 18-vertex scc instance can run for minutes
# within the size limit, so that defect is not measured here.
# G(n, p) cevs items use n = 6: at n = 7 one item's time varied by more than
# its mean (30 +- 40 ms), and 16 of them moved a pass's time by 13% between
# seeds.  The G(13, p) cvs items, each about five times slower than any other
# kind, are 15% of the 264 items, so that item_p90_ms falls among them and not
# on the edge of their group.
DESK_PLANTED = 32  # n in 12..14, clusters of 3..5, a quarter of vertices in two
DESK_GNP = 40  # n = 13, p in 0.30..0.45
DESK_CEVS_PLANTED = 16  # n = 9, two or three noise pairs
DESK_CEVS_GNP = 32  # n = 6, p in 0.35..0.55


class SolveDesk:
    """Seeded desk-scale decisions; each YES certificate goes through a file."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir

    def setup(self, lib) -> None:
        pass

    def make_pass(self, lib, seed: int, p: int) -> Pass:
        return _solve_desk_pass(lib, seed, p, self.workdir)


def _solve_desk_pass(lib, seed: int, p: int, workdir: Path) -> Pass:
    out = Pass()
    rng = random.Random(f"solve-desk-{seed}")
    instances = []
    for i in range(DESK_PLANTED):
        pl = planted(rng, rng.randint(12, 14), (3, 5), 0.25)
        bounds = {
            "scc": pl.weight_bound,
            "ncc": len(pl.cover),
            "cvs": pl.weight_bound - sum(1 for v in range(pl.n) if any(v in e for e in pl.edges)),
        }
        instances.append((f"planted{i}", pl.n, pl.edges, bounds))
    for i in range(DESK_GNP):
        n = 13
        edges = gnp(rng, n, rng.uniform(0.30, 0.45))
        touched = len({v for e in edges for v in e})
        bounds = {"scc": 2 * len(edges), "ncc": n, "cvs": 2 * len(edges) - touched}
        instances.append((f"gnp{i}", n, edges, bounds))
    for name, n, edges, bounds in instances:
        for problem in ("scc", "ncc", "cvs"):
            item = f"solve-desk/{name}/{problem}"
            out.add(item, lambda n=n, e=edges, pr=problem, b=bounds[problem], item=item:
                    _desk_item(lib, out, workdir, item, build(lib, n, e), pr, b))
    for i in range(DESK_CEVS_PLANTED):
        pl = planted(rng, 9, (3, 4), 0.2, noise=rng.randint(2, 3))
        item = f"solve-desk/planted{i}/cevs"
        out.add(item, lambda pl=pl, item=item:
                _desk_item(lib, out, workdir, item, build(lib, pl.n, pl.edges), "cevs", pl.cost_bound))
    for i in range(DESK_CEVS_GNP):
        edges = gnp(rng, 6, rng.uniform(0.35, 0.55))
        item = f"solve-desk/gnp{i}/cevs"
        out.add(item, lambda e=edges, item=item:
                _desk_item(lib, out, workdir, item, build(lib, 6, e), "cevs", len(e)))
    random.Random(f"solve-desk-{seed}-{p}").shuffle(out.items)
    return out


def _solve(lib, g, problem: str, budget: int):
    """Run the solver; returns (certificate value, optimum), or (None, None)."""
    s, r = lib.solvers, lib.reductions
    if problem == "scc":
        value = s.solve_scc_exact(g, budget)
        measure = "weight"
    elif problem == "ncc":
        value = s.solve_ncc_exact(g, budget)
        measure = "size"
    elif problem == "cvs":
        value = s.solve_cvs_exact(r.Instance(r.Problem.CVS, g, budget))
        measure = "length"
    else:
        res = s.solve_cevs_exact(r.Instance(r.Problem.CEVS, g, budget))
        value = None if res is None else res[1]
        measure = "length"
    return value, None if value is None else getattr(value, measure)


def _verify(lib, g, problem: str, value, budget: int):
    c = lib.certificates
    if problem == "scc":
        return c.verify_sigma_cover(g, value, budget)
    if problem == "ncc":
        return c.verify_node_cover(g, value, budget)
    return c.verify_modification_sequence(g, value, budget, problem)


def _desk_item(lib, out: Pass, workdir: Path, item: str, g, problem: str, bound: int) -> None:
    """Solve at the upper bound (YES), round-trip and verify the certificate,
    then solve at optimum - 1 (NO)."""
    f = lib.formats
    value, optimum = _solve(lib, g, problem, bound)
    check(value is not None, f"{item}: NO at the upper bound {bound}")
    check(optimum <= bound, f"{item}: optimum {optimum} above bound {bound}")
    kind = "cover" if problem in ("scc", "ncc") else "sequence"
    path = workdir / "cert.json"
    f.save_certificate(f.Certificate(problem, bound, kind, value), path)
    out.counts["formats.bytes"] += path.stat().st_size
    cert = f.load_certificate(path)
    check(cert.value == value, f"{item}: certificate changed in its round trip")
    report = _verify(lib, g, problem, cert.value, bound)
    check(report.valid, f"{item}: certificate rejected: {report.reason}")
    out.counts["solvers.yes"] += 1
    if problem == "cevs":
        packing = lib.solvers.max_p3_packing(g)
        check(packing.size <= optimum, f"{item}: packing {packing.size} above optimum {optimum}")
        out.counts["solvers.cevs_bound_ratio"] += packing.size / optimum if optimum else 1.0
    verdict_no = None
    if optimum > 0:
        none, _ = _solve(lib, g, problem, optimum - 1)
        check(none is None, f"{item}: YES at optimum - 1 = {optimum - 1}")
        out.counts["solvers.no"] += 1
        verdict_no = "no"
    out.answers.append([item.split("/", 1)[1], bound, "yes", optimum, verdict_no])


# ---------------------------------------------------------------------------
# poly-large: the polynomial layers on a few hundred vertices
# ---------------------------------------------------------------------------

POLY_GRAPHS = 3  # pipelines per pass
POLY_N = 240  # planted-overlap graph of a pipeline: clusters of 3..6, a fifth overlapping
POLY_REDUCE_N = 18  # source graph of a pipeline's reductions, same kind


class PolyLarge:
    """The polynomial layers on three seeded planted-overlap graphs per pass."""

    def setup(self, lib) -> None:
        pass

    def make_pass(self, lib, seed: int, p: int) -> Pass:
        return _poly_large_pass(lib, seed, p)


def _poly_large_pass(lib, seed: int, p: int) -> Pass:
    """Three pipelines of thirteen items, one library stage each, in pipeline
    order.  The odd count keeps item_p50_ms inside one stage's times, not
    between two."""
    out = Pass()
    rng = random.Random(f"poly-large-{seed}")
    for i in range(POLY_GRAPHS):
        pl = planted(rng, POLY_N, (3, 6), 0.2)
        small = planted(rng, POLY_REDUCE_N, (3, 5), 0.25)
        st: dict = {"g0": build(lib, pl.n, pl.edges), "small": build(lib, small.n, small.edges)}
        stages = [
            (pl, [_poly_text, _poly_critical, _poly_kernel, _poly_verify_cover, _poly_splits,
                  _poly_verify_splits, _poly_packing, _poly_verify_packing, _poly_cost]),
            (small, [_poly_ncc_to_scc, _poly_ncc_cert, _poly_scc_cert, _poly_cvs_to_cevs]),
        ]
        for src, fns in stages:
            for fn in fns:
                name = f"{i}/{fn.__name__[len('_poly_'):]}"
                out.add(f"poly-large/{name}",
                        lambda fn=fn, name=name, src=src, st=st: fn(lib, out, src, st, name))
    return out


def _without_isolates(g):
    iso = g.isolated_vertices()
    return g.without_vertices(iso) if iso else g


def _poly_text(lib, out, pl: Planted, st, name) -> None:
    text = lib.formats.format_graph_text(st["g0"])
    g = lib.formats.parse_graph_text(text)
    check(g == st["g0"], "graph changed in its text round trip")
    st["g"] = g
    st["cover"] = lib.certificates.SigmaCliqueCover.of(sets_of(c for c in pl.cover if len(c) >= 2))
    out.counts["formats.bytes"] += len(text)
    out.answers.append([name, g.n, g.edge_count, len(text)])


def _poly_critical(lib, out, pl, st, name) -> None:
    g = st["g"]
    cc = lib.graph.critical_clique_graph(g)
    closed = Counter(row | 1 << i for i, row in enumerate(g.rows))
    check(sorted(map(len, cc.classes)) == sorted(closed.values()), "critical cliques differ")
    out.answers.append([name, len(cc.classes), sum(cc.reducible)])


def _poly_kernel(lib, out, pl, st, name) -> None:
    g = st["g"]
    r = lib.reductions
    k = pl.weight_bound - (g.n - len(g.isolated_vertices()))
    kern, trace = lib.kernel.kernelize(r.Instance(r.Problem.CVS, g, k))
    check(kern.graph.n <= 3 * k + 3 and kern.budget <= k, "kernel exceeds 3k+3")
    removed = 0
    for step in trace.steps:
        if isinstance(step, lib.kernel.RuleIStep):
            removed += 1 + len(step.cascaded)
        elif isinstance(step, lib.kernel.IsolateRemoval):
            removed += len(step.vertices)
    if not any(isinstance(s, lib.kernel.RuleIIStep) for s in trace.steps):
        check(kern.graph.n == g.n - removed, "kernel trace does not account for its removals")
    check(lib.kernel.rule1_applicable(kern.graph) is None, "Rule I still applies to the kernel")
    out.counts["kernel.removed"] += removed
    out.answers.append([name, k, kern.graph.n, len(trace.steps)])


def _poly_verify_cover(lib, out, pl, st, name) -> None:
    cover = st["cover"]
    report = lib.certificates.verify_sigma_cover(st["g"], cover, pl.weight_bound)
    check(report.valid, f"planted cover rejected: {report.reason}")
    out.answers.append([name, cover.weight])


def _poly_splits(lib, out, pl, st, name) -> None:
    g = st["g"]
    core = _without_isolates(g)
    seq = lib.reductions.cover_to_splits(core, st["cover"])
    check(seq.length == st["cover"].weight - core.n, "split count differs from the excess")
    st["core"], st["seq"] = core, seq
    out.answers.append([name, seq.length])


def _poly_verify_splits(lib, out, pl, st, name) -> None:
    seq = st["seq"]
    report = lib.certificates.verify_modification_sequence(st["core"], seq, seq.length, "cvs")
    check(report.valid, f"split sequence rejected: {report.reason}")
    out.answers.append([name, report.metrics["final_vertices"], report.metrics["final_components"]])


def _poly_packing(lib, out, pl, st, name) -> None:
    st["packing"] = packing = lib.solvers.max_p3_packing(st["g"])
    check(packing.size <= pl.cost_bound, "packing exceeds the planted cost")
    out.answers.append([name, packing.size])


def _poly_verify_packing(lib, out, pl, st, name) -> None:
    report = lib.certificates.verify_p3_packing(st["g"], st["packing"])
    check(report.valid, f"packing rejected: {report.reason}")


def _poly_cost(lib, out, pl, st, name) -> None:
    full = lib.certificates.SigmaCliqueCover.of(sets_of(pl.cover))
    cost = lib.certificates.cover_cost(st["g"], full)
    check(cost.total == pl.cost_bound, f"cover cost {cost.total} != planted {pl.cost_bound}")
    out.answers.append([name, cost.total])


def _poly_ncc_to_scc(lib, out, pl: Planted, st, name) -> None:
    r = lib.reductions
    g = st["small"]
    st["ncc"] = inst = r.Instance(r.Problem.NCC, g, len(pl.cover))
    target, _ = r.reduce_ncc_to_scc(inst)
    ell = 2 * g.edge_count + 1
    check(target.graph.n == g.n + ell and target.graph.edge_count == g.edge_count + ell * g.n,
          "ncc-to-scc graph has the wrong size")
    out.counts["reductions.out_edges"] += target.graph.edge_count
    out.answers.append([name, target.budget, target.graph.edge_count])


def _poly_ncc_cert(lib, out, pl, st, name) -> None:
    node_cover = lib.certificates.NodeCliqueCover.of(sets_of(pl.cover))
    st["sigma"] = sigma = lib.reductions.translate_ncc_cert_to_scc(st["ncc"], node_cover)
    out.answers.append([name, sigma.weight])


def _poly_scc_cert(lib, out, pl, st, name) -> None:
    back = lib.reductions.translate_scc_cert_to_ncc(st["ncc"], st["sigma"])
    check(lib.certificates.verify_node_cover(st["small"], back, len(pl.cover)).valid,
          "translated node cover rejected")
    out.answers.append([name, back.size])


def _poly_cvs_to_cevs(lib, out, pl: Planted, st, name) -> None:
    r = lib.reductions
    g = _without_isolates(st["small"])
    k = pl.weight_bound - g.n
    target, _ = r.reduce_cvs_to_cevs(r.Instance(r.Problem.CVS, g, k))
    c = k + 1
    check(target.graph.n == g.n * c
          and target.graph.edge_count == g.n * c * k // 2 + g.edge_count * c * c,
          "cvs-to-cevs graph has the wrong size")
    out.counts["reductions.out_edges"] += target.graph.edge_count
    out.answers.append([name, target.budget, target.graph.edge_count])


# ---------------------------------------------------------------------------
# warm-up: every traced function once, on a path on three vertices
# ---------------------------------------------------------------------------


def warm_up(lib) -> None:
    """Call every traced public function once on tiny inputs and check them.

    This loads whatever the library imports lazily, and it makes the traced
    run measure every layer on every workload.
    """
    c, r, s, f = lib.certificates, lib.reductions, lib.solvers, lib.formats
    g = f.parse_graph_text(f.format_graph_text(build(lib, 3, [(0, 1), (1, 2)])))
    check(not lib.graph.is_cluster_graph(g), "a path on three vertices is a cluster graph")
    check(len(lib.graph.critical_clique_graph(g).classes) == 3, "path classes")
    cover = s.solve_scc_exact(g, 4)
    check(c.verify_sigma_cover(g, cover, 4).valid, "warm-up scc cover")
    seq = r.cover_to_splits(g, cover)
    check(r.splits_to_cover(g, seq) == cover, "warm-up split round trip")
    split = seq.steps[0].split
    check(lib.graph.is_cluster_graph(lib.graph.apply_split(g, split)), "warm-up split")
    check(s.solve_cvs_exact(r.Instance(r.Problem.CVS, g, 1)).length == 1, "warm-up cvs")
    node = s.solve_ncc_exact(g, 2)
    check(c.verify_node_cover(g, node, 2).valid, "warm-up ncc cover")
    inst = r.Instance(r.Problem.NCC, g, 2)
    r.reduce_ncc_to_scc(inst)
    check(r.translate_scc_cert_to_ncc(inst, r.translate_ncc_cert_to_scc(inst, node)).size == 2,
          "warm-up ncc translation")
    r.reduce_cvs_to_cevs(r.Instance(r.Problem.CVS, g, 1))
    kern, _ = lib.kernel.kernelize(r.Instance(r.Problem.CVS, g, 1))
    check(lib.kernel.rule1_applicable(kern.graph) is None, "warm-up kernel")
    cevs_cover, cevs_seq = s.solve_cevs_exact(r.Instance(r.Problem.CEVS, g, 1))
    check(c.verify_modification_sequence(g, cevs_seq, 1, "cevs").valid, "warm-up cevs")
    check(s.cover_to_modifications(g, cevs_cover) == cevs_seq, "warm-up cevs realization")
    check(c.cover_cost(g, cevs_cover).total == 1, "warm-up cover cost")
    c.cover_respects_critical_cliques(g, cevs_cover)
    check(c.verify_p3_packing(g, s.max_p3_packing(g)).valid, "warm-up packing")
    text = f.dumps_certificate(f.Certificate("scc", 4, "cover", cover))
    check(f.loads_certificate(text).value == cover, "warm-up certificate text")
    check(len(lib.hunter.enumerate_graphs(3)) == 4, "warm-up level 3")
    lib.hunter.canonical_form(g)
    check(lib.hunter.hunt_graph(g).optimum == 1, "warm-up hunt")

