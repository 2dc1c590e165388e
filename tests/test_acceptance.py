from __future__ import annotations

"""End-to-end acceptance checks.

Each test prints one PASS line with its headline numbers; `pytest -v` shows
one verdict line per criterion.  The suites sweep every graph (or every
isomorphism class, where noted) in the stated size range, so a pass is an
exhaustive check of the claimed equivalence on that range, not a sample.
"""

import itertools
import json
import shutil
import time

import oracles
from conftest import DATA, graphs_on, oracle_form, oracle_steps, replay_kernel_trace
from splitclust.certificates import (
    SigmaCliqueCover,
    cover_cost,
    cover_respects_critical_cliques,
    verify_modification_sequence,
    verify_node_cover,
    verify_p3_packing,
    verify_sigma_cover,
)
from splitclust.cli import main
from splitclust.formats import load_certificate, load_graph
from splitclust.graph import Graph
from splitclust.hunter import enumerate_graphs, hunt, hunt_graph
from splitclust.kernel import RuleIIStep, kernelize
from splitclust.reductions import (
    Instance,
    Problem,
    reduce_cvs_to_cevs,
    reduce_ncc_to_scc,
    translate_ncc_cert_to_scc,
    translate_scc_cert_to_ncc,
)
from splitclust.solvers import (
    max_p3_packing,
    solve_cevs_exact,
    solve_cvs_exact,
    solve_ncc_exact,
    solve_scc_exact,
)


def _labeled_graphs(max_n: int):
    for n in range(max_n + 1):
        yield from graphs_on(n)


def _min_splits_or_none(g: Graph, cap: int) -> int | None:
    """Exact minimum number of splits, or None if it exceeds `cap`."""
    core = g.without_vertices(g.isolated_vertices())
    if core.n == 0:
        return 0
    cover = solve_scc_exact(core, core.n + cap)
    if cover is None:
        return None
    return cover.weight - core.n


def test_criterion_1_counterexample_reproduction(tmp_path, capsys):
    started = time.monotonic()
    g = load_graph(DATA / "ccl8.graph")
    for name in ("ccl8.graph", "two-set-cover.json", "six-path-packing.json",
                 "respecting-cover-a.json"):
        shutil.copy(DATA / name, tmp_path / name)

    # the shipped six-path packing verifies, and exact search finds size 6
    packing = load_certificate(DATA / "six-path-packing.json").value
    assert packing.size == 6
    assert verify_p3_packing(g, packing).valid
    assert max_p3_packing(g, exact=True).size == 6
    assert main(["lowerbound", str(tmp_path / "ccl8.graph"),
                 "--exact-packing"]) == 0
    assert "lower bound 6" in capsys.readouterr().out

    # the shipped two-set cover verifies at cost exactly 6 but cuts a class
    assert main(["verify", str(tmp_path / "ccl8.graph"),
                 str(tmp_path / "two-set-cover.json"), "--budget", "6",
                 "--json"]) == 0
    metrics = json.loads(capsys.readouterr().out)["metrics"]
    assert metrics["cost"] == 6
    assert metrics["respectsCriticalCliques"] is False

    # six operations suffice and five do not
    assert main(["solve", str(tmp_path / "ccl8.graph"), "--problem", "cevs",
                 "--budget", "6"]) == 0
    assert main(["solve", str(tmp_path / "ccl8.graph"), "--problem", "cevs",
                 "--budget", "5"]) == 1
    capsys.readouterr()

    # some optimal cover still respects the critical-clique classes
    respecting = load_certificate(DATA / "respecting-cover-a.json").value
    assert cover_cost(g, respecting).total == 6
    assert cover_respects_critical_cliques(g, respecting)

    cutting = load_certificate(DATA / "two-set-cover.json").value
    assert not cover_respects_critical_cliques(g, cutting)

    elapsed = time.monotonic() - started
    assert elapsed < 60
    print(f"criterion 1 PASS: optimum 6 bracketed (packing 6, cover 6, "
          f"NO at 5), the two-set cover cuts a class while another "
          f"respects all classes ({elapsed:.1f}s < 60s)")


def test_criterion_2_splits_equal_cover_overlap():
    """Splitting to a cluster graph == covering edges with k weight to spare."""
    started = time.monotonic()
    pairs = 0
    for n in range(7):
        for g in enumerate_graphs(n):
            isolates = len(g.isolated_vertices())
            for k in range(4):
                via_splits = solve_cvs_exact(Instance(Problem.CVS, g, k))
                via_cover = solve_scc_exact(g, g.n - isolates + k)
                assert (via_splits is None) == (via_cover is None), (n, k)
                if via_splits is not None:
                    assert via_splits.length <= k
                    assert via_cover.weight <= g.n - isolates + k
                pairs += 1
    elapsed = time.monotonic() - started
    assert elapsed < 600
    print(f"criterion 2 PASS: {pairs} instance pairs agree across all "
          f"isomorphism classes with <=6 vertices, k in 0..3 ({elapsed:.1f}s)")


def test_criterion_3_node_cover_reduces_to_edge_cover():
    started = time.monotonic()
    pairs = round_trips = 0
    for g in _labeled_graphs(4):
        for s in range(5):
            inst = Instance(Problem.NCC, g, s)
            reduced, trace = reduce_ncc_to_scc(inst)
            ell = 2 * g.edge_count + 1
            assert reduced.budget == ell * (g.n + s + 1) - 1
            assert reduced.graph.n == g.n + ell
            direct = solve_ncc_exact(g, s)
            via_reduction = solve_scc_exact(reduced.graph, reduced.budget)
            assert (direct is None) == (via_reduction is None), (g.edges(), s)
            pairs += 1
            if direct is None:
                continue
            # translator round trip keeps both certificates within budget
            forward = translate_ncc_cert_to_scc(inst, direct)
            assert verify_sigma_cover(reduced.graph, forward, reduced.budget).valid
            back = translate_scc_cert_to_ncc(inst, via_reduction)
            assert verify_node_cover(g, back, s).valid
            round_trips += 1
    elapsed = time.monotonic() - started
    print(f"criterion 3 PASS: {pairs} decisions agree on every labeled graph "
          f"with <=4 vertices, s in 0..4; {round_trips} certificate round "
          f"trips stayed within budget ({elapsed:.1f}s)")


def test_criterion_4_kernel_suite():
    """Kernels stay within 3k+3 vertices and never change the answer."""
    started = time.monotonic()
    checked = rule2_fires = 0
    for n in range(9):
        for g in enumerate_graphs(n):
            true_splits = _min_splits_or_none(g, 4)  # None means "> 4"
            # with k=4 the vertex bound 3k exceeds n, so Rule II cannot fire
            # and the output is exactly the Rule-I-exhausted core
            core4, _ = kernelize(Instance(Problem.CVS, g, 4))
            core_splits = _min_splits_or_none(core4.graph, 4)
            for k in range(5):
                out, trace = kernelize(Instance(Problem.CVS, g, k))
                assert out.graph.n <= 3 * k + 3
                assert out.budget <= k
                rule2 = [s for s in trace.steps if isinstance(s, RuleIIStep)]
                assert len(rule2) <= 1
                if rule2:
                    # Rule II is final and only fires past the vertex bound
                    assert isinstance(trace.steps[-1], RuleIIStep)
                    assert core4.graph.n > 3 * k
                    rule2_fires += 1
                    expected_no = true_splits is None or true_splits > k
                    assert expected_no, (n, k, true_splits)
                else:
                    assert out.graph == core4.graph and out.budget == k
                    kernel_yes = (core_splits is not None
                                  and core_splits <= k)
                    source_yes = (true_splits is not None
                                  and true_splits <= k)
                    assert kernel_yes == source_yes, (n, k)
                checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 900
    print(f"criterion 4 PASS: {checked} kernelizations over every "
          f"isomorphism class with <=8 vertices, k in 0..4, all within "
          f"3k+3 vertices with unchanged answers; Rule II fired "
          f"{rule2_fires} times ({elapsed:.1f}s < 900s)")


def test_criterion_4a_rules_validated_in_isolation():
    """Replaying each trace step by step through the name-level Rule I
    oracle confirms the rules' local invariants."""
    replayed = 0
    for n in range(6):
        for g in enumerate_graphs(n):
            for k in range(3):
                inst = Instance(Problem.CVS, g, k)
                replay_kernel_trace(inst, *kernelize(inst))
                replayed += 1
    print(f"criterion 4 (rules in isolation) PASS: {replayed} traces "
          f"replayed step by step")


def test_criterion_5_covers_match_modification_sequences():
    started = time.monotonic()
    solved = 0
    for g in _labeled_graphs(5):
        budget = g.edge_count  # deleting every edge always suffices
        res = solve_cevs_exact(Instance(Problem.CEVS, g, budget))
        assert res is not None
        cover, seq = res
        cost = cover_cost(g, cover).total
        assert seq.length == cost
        report = verify_modification_sequence(g, seq, budget, "cevs")
        assert report.valid, report.reason
        names, edges = oracle_form(g)
        recovered = oracles.modifications_to_cover(names, edges, oracle_steps(seq))
        assert cover_cost(g, SigmaCliqueCover.of(recovered)).total <= seq.length
        solved += 1
    elapsed = time.monotonic() - started
    print(f"criterion 5 PASS: on all {solved} labeled graphs with <=5 "
          f"vertices, sequence length == cover cost, every sequence "
          f"verifies, and the recovered cover costs no more ({elapsed:.1f}s)")


def test_criterion_6_splits_reduce_to_editing():
    started = time.monotonic()
    pairs = 0
    for g in _labeled_graphs(4):
        for k in range(3):
            inst = Instance(Problem.CVS, g, k)
            reduced, trace = reduce_cvs_to_cevs(inst)
            assert reduced.budget == k * (k + 1)
            assert reduced.graph.n == g.n * (k + 1)
            direct = solve_cvs_exact(inst) is not None
            via_blowup = solve_cevs_exact(
                reduced, size_limit=reduced.graph.n
            ) is not None
            assert direct == via_blowup, (g.edges(), k)
            pairs += 1
    elapsed = time.monotonic() - started
    print(f"criterion 6 PASS: {pairs} blow-up instances agree with the "
          f"direct split solver on every labeled graph with "
          f"<=4 vertices, k in 0..2 ({elapsed:.1f}s)")


def test_criterion_7_hunter_smoke():
    started = time.monotonic()
    reports = list(hunt(5))
    assert len(reports) == 1 + 2 + 4 + 11 + 34
    assert all(r.exists_optimum_respecting for r in reports)
    elapsed = time.monotonic() - started
    assert elapsed < 300

    ccl8 = load_graph(DATA / "ccl8.graph")
    report = hunt_graph(ccl8)
    assert report.optimum == 6
    assert report.exists_optimum_cutting
    print(f"criterion 7 PASS: hunt over all {len(reports)} classes with "
          f"<=5 vertices finds a class-respecting optimum every time "
          f"({elapsed:.1f}s < 300s); the 8-vertex fixture has a "
          f"class-cutting optimum")
