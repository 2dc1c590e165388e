from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import random

import pytest

import oracles
from conftest import graphs_on, oracle_form, relabeled
from splitclust.certificates import cover_cost, cover_respects_critical_cliques
from splitclust import hunter
from splitclust.formats import Certificate, dumps_certificate, report_to_obj
from splitclust.graph import Graph
from splitclust.hunter import (
    canonical_form,
    enumerate_graphs,
    graph_from_canonical,
    hunt,
    hunt_graph,
)
from splitclust.reductions import Instance, Problem
from splitclust.solvers import SizeLimitExceeded, cevs_search, solve_cevs_exact

# every isomorphism class / connected class count a desk check can reach
ALL_CLASSES = [1, 2, 4, 11, 34, 156, 1044, 12346]
CONNECTED_CLASSES = [1, 1, 2, 6, 21, 112, 853, 11117]

# sha256 of the reports for every class with n <= 6, as one sorted-key JSON
# list, recorded from the iterative-deepening hunter that ran a second,
# enumerating search at the optimum
REPORTS_UPTO_6_SHA256 = (
    "2634b6ff8f2c0ece2f2e8121638db011457d083e74d5efbcc925d97c7f4927c4"
)

# the same for the 1,044 classes with n = 7, recorded from the index-order
# enumerating search before it took the fewest-open-neighbours vertex order
REPORTS_N7_SHA256 = (
    "95d3b4d41c6332a5369700c437230891a33daaf6f315c61be89acc6c949ab2ab"
)

# the same for every 100th class of `enumerate_graphs(8)`, 124 classes,
# recorded from the search that kept an incumbent falling from the budget
REPORTS_N8_SAMPLE_SHA256 = (
    "421716ef77be1107c8bd59d6a5f335410f02cc3fce6012d26bc939e0594d21cb"
)

# sha256 of the 416 `solve_cevs_exact` certificates at budget |E| for every
# class with n <= 6, canonical and relabeled, joined by newlines; recorded
# from the first optimal leaf of the index-order search
SOLVER_CERTIFICATES_UPTO_6_SHA256 = (
    "33ff652b820c6235c73be10bed3af3b485c7f3a521214b3dc61c8634831ea5c7"
)

# ---------------------------------------------------------------- canonical form


def test_canonical_form_is_isomorphism_invariant():
    for n in range(1, 5):
        names = [str(i) for i in range(n)]
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            g = Graph.build(names, [(names[a], names[b]) for a, b in edges])
            base = canonical_form(g)
            for perm in itertools.permutations(range(n)):
                relabeled = Graph.build(
                    names, [(names[perm[a]], names[perm[b]]) for a, b in edges]
                )
                assert canonical_form(relabeled) == base


def test_canonical_form_ignores_vertex_names(ccl8):
    renamed = Graph.build(
        [str(v).upper() for v in ccl8.vertices],
        [(str(u).upper(), str(w).upper()) for u, w in ccl8.edges()],
    )
    assert canonical_form(renamed) == canonical_form(ccl8)


def test_graph_from_canonical_round_trip():
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            nn, bits = canonical_form(g)
            assert nn == n
            rebuilt = graph_from_canonical(n, bits)
            assert canonical_form(rebuilt) == (n, bits)


# ---------------------------------------------------------------- enumeration


def test_enumeration_counts():
    for n, want in enumerate(ALL_CLASSES[:6], start=1):
        assert sum(1 for _ in enumerate_graphs(n)) == want
    for n, want in enumerate(CONNECTED_CLASSES[:6], start=1):
        assert sum(1 for _ in enumerate_graphs(n, connected_only=True)) == want


def test_enumeration_counts_match_bruteforce():
    for n in range(1, 5):
        assert sum(1 for _ in enumerate_graphs(n)) == oracles.count_iso_classes(n)
        assert sum(
            1 for _ in enumerate_graphs(n, connected_only=True)
        ) == oracles.count_iso_classes(n, connected_only=True)


def test_cached_level_counts():
    from splitclust.hunter import _level

    for n, want in enumerate(ALL_CLASSES, start=1):
        assert len(_level(n)) == want


def test_a_level_past_8_is_extended_from_the_level_below(monkeypatch):
    """Level 9 is `_extend_level` of level 8; the extension is recorded, not
    run, since it would canonize every extension of level 8's forms."""
    calls = []

    def extend(prev, n):
        calls.append((prev, n))
        return [3, 5]

    monkeypatch.setattr(hunter, "_extend_level", extend)
    assert hunter._level.__wrapped__(9) == (3, 5)
    assert len(calls) == 1 and calls[0][0] is hunter._level(8) and calls[0][1] == 9


def test_last_column_pre_test_rejects_no_canonical_form():
    """Up to n = 6, every extension below `_least_last_column` is not
    canonical, and the bound is the largest column k, read from the rows,
    shifted past the last column's low n-1-k bits."""
    from splitclust.hunter import _canonical_bits, _least_last_column, _level, _rows_from_bits

    for n in range(2, 7):
        rejected = 0
        for bits in _level(n - 1):
            rows = _rows_from_bits(n - 1, bits)
            columns = [
                sum((rows[k] >> i & 1) << (k - 1 - i) for i in range(k))
                for k in range(n - 1)
            ]
            least = _least_last_column(bits, n)
            assert least == max(
                [columns[k] << (n - 1 - k) for k in range(1, n - 1)], default=0
            )
            for c in range(bits << (n - 1), (bits << (n - 1)) + least):
                assert _canonical_bits(_rows_from_bits(n, c), n) != c
                rejected += 1
        assert rejected or n <= 2


def test_shipped_level_8_is_the_orderly_extension_of_level_7():
    """The shipped n = 8 forms are the orderly extensions of level 7.

    Orderly generation keeps exactly the extensions that are their own
    canonical form, in increasing order.  For a seeded sample of level-7
    forms, the extensions `_extend_level` finds must be exactly the shipped
    entries in that form's range, so a missing class fails too; a sample of
    the entries is re-canonized (all of level 8 would take about 16 s).
    """
    from splitclust.hunter import _canonical_bits, _extend_level, _level, _rows_from_bits

    level8 = _level(8)
    assert all(a < b for a, b in zip(level8, level8[1:]))
    level7 = _level(7)
    assert {c >> 7 for c in level8} <= set(level7)
    for bits in random.Random(1).sample(level7, 100):
        lo = bisect.bisect_left(level8, bits << 7)
        hi = bisect.bisect_left(level8, (bits + 1) << 7)
        assert _extend_level([bits], 8) == list(level8[lo:hi])
    for c in random.Random(1).sample(level8, 1000):
        assert _canonical_bits(_rows_from_bits(8, c), 8) == c


def test_levels_below_8_are_the_orderly_chain_from_level_1():
    """Levels 2..7, read off the shipped level-8 forms, are the levels that
    orderly generation builds up from level 1."""
    from splitclust.hunter import _extend_level, _level

    level = _level(1)
    for n in range(2, 8):
        level = tuple(_extend_level(level, n))
        assert _level(n) == level, n


def test_a_universal_vertex_appends_an_all_ones_column():
    """canon(G + u) == canon(G) << n | (2^n - 1) for a universal vertex u, on
    every class with n <= 6, with u added last and under a seeded
    relabeling: the lemma that makes every level a set of level-8 prefixes."""
    rng = random.Random(3)
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            names = [str(v) for v in g.vertices]
            plus = Graph.build(
                names + [str(n)],
                [(str(a), str(b)) for a, b in g.edges()] + [(v, str(n)) for v in names],
            )
            want = (n + 1, canonical_form(g)[1] << n | ((1 << n) - 1))
            assert canonical_form(plus) == want
            assert canonical_form(relabeled(plus, rng)) == want


def test_no_level_up_to_8_is_regenerated(monkeypatch, ccl8):
    """Enumerating level 7 and hunting a relabeled 7-vertex graph or an
    8-vertex one read the shipped forms and never run orderly generation."""
    seven = relabeled(enumerate_graphs(7)[500], random.Random(5))

    def refuse(*args):
        raise AssertionError("a level up to 8 was regenerated")

    monkeypatch.setattr(hunter, "_extend_level", refuse)
    hunter._level.cache_clear()
    try:
        assert len(enumerate_graphs(7)) == ALL_CLASSES[6]
        assert hunt_graph(seven).index == 500
        assert hunt_graph(ccl8).n == 8
    finally:
        hunter._level.cache_clear()


def test_enumeration_yields_pairwise_non_isomorphic():
    reps = list(enumerate_graphs(4))
    forms = []
    for g in reps:
        names, edges = oracle_form(g)
        pairs = frozenset(
            (int(u), int(w)) for u, w in edges
        )
        forms.append(oracles.iso_invariant(4, pairs))
    assert len(set(forms)) == len(forms)


def test_enumeration_size_limit():
    with pytest.raises(SizeLimitExceeded):
        list(enumerate_graphs(9))


def test_hunt_checks_the_size_limit_when_called():
    with pytest.raises(SizeLimitExceeded):
        hunt(9)  # not iterated


# ---------------------------------------------------------------- analysis


def test_hunt_reports_match_bruteforce_up_to_n4():
    """Each class, canonical and under a seeded relabeling, against the oracle,
    with `cevs_search` run at every budget from 0 to |E|.

    The relabeling moves the vertices' index order, so the enumerating
    search meets each class in more than one vertex order.
    """
    rng = random.Random(9)
    for canon in hunt(4):
        other = relabeled(canon.graph, rng)
        for g, rep in ((canon.graph, canon), (other, hunt_graph(other))):
            names, edges = oracle_form(g)
            best, fams = oracles.all_optimal_cover_families(names, edges)
            assert rep.optimum == best
            assert rep.optimal_covers == len(fams)
            for budget in range(g.edge_count + 1):
                res = cevs_search(g, budget)
                if budget < best:
                    assert res is None
                    continue
                optimum, covers = res
                assert optimum == best
                mine = {
                    frozenset(
                        frozenset(str(v) for v in g.vertices_of_mask(m)) for m in masks
                    )
                    for masks in covers
                }
                assert mine == fams
            cut = any(not oracles.family_respects(names, edges, f) for f in fams)
            resp = any(oracles.family_respects(names, edges, f) for f in fams)
            assert rep.exists_optimum_cutting == cut
            assert rep.exists_optimum_respecting == resp


def test_budget_only_caps_the_search_up_to_n6(reports_upto_6):
    """The budget decides whether `cevs_search` answers, never what: on every
    class with n <= 6, canonical and under a seeded relabeling, every budget
    from the optimum up returns the same optimum and covers, and every
    budget below it returns None."""
    rng = random.Random(17)
    for rep in reports_upto_6:
        for g in (rep.graph, relabeled(rep.graph, rng)):
            opt = rep.optimum
            want = cevs_search(g, g.edge_count)
            assert want[0] == opt and len(want[1]) == rep.optimal_covers
            for budget in (opt, opt + 1, opt + 3):
                assert cevs_search(g, budget) == want, (rep.canonical, budget)
            assert cevs_search(g, opt - 1) is None
            assert cevs_search(g, -1) is None


def test_missing_level_8_data_is_an_os_error(monkeypatch, tmp_path, ccl8):
    """Every level from 2 to 8 is read off the level-8 package data, never
    regenerated in its place."""
    seven = relabeled(enumerate_graphs(7)[500], random.Random(5))
    monkeypatch.setattr(hunter.resources, "files", lambda package: tmp_path)
    hunter._level.cache_clear()
    try:
        for g in (ccl8, seven):
            with pytest.raises(OSError):
                hunt_graph(g)
        with pytest.raises(OSError):
            enumerate_graphs(3)
    finally:
        hunter._level.cache_clear()


@pytest.fixture(scope="module")
def reports_upto_6():
    return list(hunt(6))


def test_reports_upto_n6_match_pinned_digest(reports_upto_6):
    assert len(reports_upto_6) == sum(ALL_CLASSES[:6]) == 208
    blob = json.dumps([report_to_obj(r) for r in reports_upto_6], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == REPORTS_UPTO_6_SHA256


def test_reports_n7_match_pinned_digest():
    """The 1,044 n = 7 reports, pinned like the n <= 6 ones."""
    reports = list(hunt(7, done=[(n, i) for n in range(1, 7) for i in range(ALL_CLASSES[n - 1])]))
    assert len(reports) == ALL_CLASSES[6]
    blob = json.dumps([report_to_obj(r) for r in reports], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == REPORTS_N7_SHA256


def test_reports_n8_sample_match_pinned_digest():
    """Every 100th of the 12,346 n = 8 classes, pinned like the n <= 7 reports."""
    sample = enumerate_graphs(8)[::100]
    assert len(sample) == 124
    blob = json.dumps([report_to_obj(hunt_graph(g)) for g in sample], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == REPORTS_N8_SAMPLE_SHA256


def test_solver_certificates_upto_n6_match_pinned_digest(reports_upto_6):
    """`solve_cevs_exact` at budget |E| on every class with n <= 6, canonical
    and under a seeded relabeling: each sequence is as long as the hunt's
    optimum, and the 416 certificates are pinned byte for byte."""
    rng = random.Random(6)
    texts = []
    for rep in reports_upto_6:
        for g in (rep.graph, relabeled(rep.graph, rng)):
            res = solve_cevs_exact(Instance(Problem.CEVS, g, g.edge_count))
            assert res is not None
            seq = res[1]
            assert seq.length == rep.optimum, rep.canonical
            texts.append(
                dumps_certificate(Certificate("cevs", g.edge_count, "sequence", seq))
            )
    assert len(texts) == 416
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == SOLVER_CERTIFICATES_UPTO_6_SHA256


def test_witnesses_are_sound():
    for rep in hunt(4):
        if rep.witness_cutting is not None:
            assert cover_cost(rep.graph, rep.witness_cutting).total == rep.optimum
            assert not cover_respects_critical_cliques(rep.graph, rep.witness_cutting)
        if rep.witness_respecting is not None:
            assert cover_cost(rep.graph, rep.witness_respecting).total == rep.optimum
            assert cover_respects_critical_cliques(rep.graph, rep.witness_respecting)
        assert rep.exists_optimum_cutting == (rep.witness_cutting is not None)
        assert rep.exists_optimum_respecting == (rep.witness_respecting is not None)


def test_cluster_graphs_report_zero_and_respect():
    k3 = Graph.build("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    rep = hunt_graph(k3)
    assert rep.optimum == 0
    assert not rep.exists_optimum_cutting
    assert rep.exists_optimum_respecting


def test_p3_report(p3):
    rep = hunt_graph(p3)
    assert rep.optimum == 1
    assert rep.optimal_covers == 4
    assert not rep.exists_optimum_cutting  # all classes are singletons
    assert rep.exists_optimum_respecting


def test_counterexample_report(ccl8):
    rep = hunt_graph(ccl8)
    assert rep.n == 8
    assert rep.optimum == 6
    assert rep.exists_optimum_cutting
    assert rep.exists_optimum_respecting
    assert not cover_respects_critical_cliques(ccl8, rep.witness_cutting)
    assert cover_respects_critical_cliques(ccl8, rep.witness_respecting)


def test_hunt_stream_order_and_resume():
    full = list(hunt(3))
    assert [(r.n, r.index) for r in full] == [
        (1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2), (3, 3)
    ]
    tail = list(hunt(3, done=[(1, 0), (2, 0), (2, 1)]))
    assert [(r.n, r.index) for r in tail] == [(3, 0), (3, 1), (3, 2), (3, 3)]


@pytest.mark.parametrize(
    "done, message",
    [
        ([(1, 0), (2, 1)], "report 2 is n 2 index 1, where this sweep has n 2 index 0"),
        ([(1, 0), (2, 0), (2, 1), (3, 0)],
         "report 4 is n 3 index 0, where this sweep has no report"),
    ],
    ids=["another sweep", "past the sweep"],
)
def test_hunt_refuses_done_reports_that_do_not_start_the_sweep(done, message):
    with pytest.raises(hunter.NotASweepPrefix) as exc:
        hunt(2, done=done)
    assert str(exc.value) == message


def test_hunt_connected_only():
    got = [r.canonical for r in hunt(3, connected_only=True)]
    assert len(got) == 1 + 1 + 2


def test_hunt_parallel_matches_sequential():
    seq = [(r.canonical, r.optimum, r.optimal_covers) for r in hunt(4)]
    par = [(r.canonical, r.optimum, r.optimal_covers) for r in hunt(4, parallel=True)]
    assert seq == par


def test_report_to_obj_shape(p3):
    obj = report_to_obj(hunt_graph(p3))
    assert obj["schema"] == "splitclust.hunt/1"
    assert obj["optimum"] == 1
    assert obj["existsOptimumCutting"] is False
    assert obj["existsOptimumRespecting"] is True
    assert obj["witnessCutting"] is None
    assert obj["witnessRespecting"] is not None
    import json

    json.dumps(obj)
