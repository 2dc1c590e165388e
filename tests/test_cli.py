from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import DATA
from splitclust.cli import main
from splitclust.formats import load_certificate, load_graph


@pytest.fixture()
def work(tmp_path):
    """A scratch directory holding copies of the shipped fixture files."""
    for name in ("p3.graph", "k3.graph", "ccl8.graph", "two-set-cover.json",
                 "six-path-packing.json", "respecting-cover-a.json"):
        shutil.copy(DATA / name, tmp_path / name)
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------- solve


def test_solve_cvs_yes_writes_certificate(work, capsys):
    assert run("solve", work / "p3.graph", "--problem", "cvs", "--budget", "1") == 0
    out = capsys.readouterr().out
    assert "YES" in out and "minimum splits 1" in out
    cert = load_certificate(work / "p3.cvs.cert.json")
    assert cert.kind == "sequence" and cert.value.length == 1
    # the written certificate re-verifies through the CLI
    assert run("verify", work / "p3.graph", work / "p3.cvs.cert.json") == 0


def test_solve_cvs_no(work, capsys):
    assert run("solve", work / "p3.graph", "--problem", "cvs", "--budget", "0") == 1
    assert "NO" in capsys.readouterr().out
    assert not (work / "p3.cvs.cert.json").exists()


def test_solve_cevs_counterexample(work, capsys):
    assert run("solve", work / "ccl8.graph", "--problem", "cevs", "--budget", "6") == 0
    out = capsys.readouterr().out
    assert "minimum cost 6" in out
    assert run("solve", work / "ccl8.graph", "--problem", "cevs", "--budget", "5") == 1
    # the YES certificate re-verifies
    assert run("verify", work / "ccl8.graph", work / "ccl8.cevs.cert.json") == 0


def test_solve_scc_json_shape(work, capsys):
    assert run("solve", work / "p3.graph", "--problem", "scc", "--budget", "4",
               "--json") == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["answer"] == "yes" and obj["optimum"] == 4
    assert obj["certificate"]["payload"]["sets"] == [["a", "b"], ["b", "c"]]


def test_solve_ncc(work, capsys):
    assert run("solve", work / "k3.graph", "--problem", "ncc", "--budget", "1") == 0
    assert "minimum cliques 1" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--parallel", "--exact-packing"])
def test_solve_parallel_flag_is_gone(work, capsys, flag):
    assert run("solve", work / "p3.graph", "--problem", "scc", "--budget", "4",
               flag) == 2
    assert flag in capsys.readouterr().err


def test_solve_respects_explicit_output(work):
    target = work / "elsewhere.json"
    assert run("solve", work / "p3.graph", "--problem", "scc", "--budget", "9",
               "-o", target) == 0
    assert target.exists()


# ---------------------------------------------------------------- kernelize


def test_kernelize_triangle(work, capsys):
    assert run("kernelize", work / "k3.graph", "--budget", "0") == 0
    out = capsys.readouterr().out
    assert "kernel: 0 vertices" in out
    kernel = load_graph(work / "k3.kernel.graph")
    assert kernel.n == 0
    trace = json.loads((work / "k3.kernel.trace.json").read_text())
    assert [s["rule"] for s in trace["steps"]] == ["I", "I"]
    # the input file is untouched
    assert load_graph(work / "k3.graph").n == 3


def test_kernelize_rule2_notice(work, capsys):
    assert run("kernelize", work / "p3.graph", "--budget", "0") == 0
    assert "Rule II" in capsys.readouterr().out


# ---------------------------------------------------------------- reduce


def test_reduce_ncc_to_scc_budget(work, capsys):
    assert run("reduce", "--from", "ncc", "--to", "scc",
               work / "k3.graph", "--budget", "1") == 0
    assert "budget 34" in capsys.readouterr().out
    trace = json.loads((work / "k3.ncc-to-scc.trace.json").read_text())
    assert trace["to"]["budget"] == 34
    reduced = load_graph(work / "k3.ncc-to-scc.graph")
    assert reduced.n == 3 + 7


def test_reduce_underflow_is_a_no(work, capsys):
    assert run("reduce", "--from", "scc", "--to", "cvs",
               work / "p3.graph", "--budget", "2") == 1
    assert "trivially negative" in capsys.readouterr().err


def test_reduce_unknown_direction(work, capsys):
    assert run("reduce", "--from", "ncc", "--to", "cevs",
               work / "k3.graph", "--budget", "1") == 2


# ---------------------------------------------------------------- verify


def test_verify_two_set_cover(work, capsys):
    assert run("verify", work / "ccl8.graph", work / "two-set-cover.json",
               "--problem", "cevs", "--budget", "6", "--json") == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["valid"] is True
    assert obj["metrics"]["cost"] == 6
    assert obj["metrics"]["respectsCriticalCliques"] is False


def test_verify_respecting_cover(work, capsys):
    assert run("verify", work / "ccl8.graph", work / "respecting-cover-a.json",
               "--json") == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["metrics"]["respectsCriticalCliques"] is True


def test_verify_budget_override_fails_tight(work, capsys):
    assert run("verify", work / "ccl8.graph", work / "two-set-cover.json",
               "--budget", "5") == 1
    assert "INVALID" in capsys.readouterr().out


def test_verify_packing(work, capsys):
    assert run("verify", work / "ccl8.graph", work / "six-path-packing.json") == 0
    assert "size=6" in capsys.readouterr().out


def test_verify_problem_mismatch(work):
    assert run("verify", work / "ccl8.graph", work / "two-set-cover.json",
               "--problem", "scc") == 2


def test_verify_cover_against_wrong_graph(work, capsys):
    # the cover names vertices the path graph lacks: invalid, not a crash
    assert run("verify", work / "p3.graph", work / "two-set-cover.json") == 1
    assert "INVALID" in capsys.readouterr().out


def test_verify_names_the_same_unknown_vertex_under_any_hash_seed(work):
    # string hashes, and so frozenset iteration, differ with PYTHONHASHSEED;
    # the first set of this cover holds the unknown vertices g and h
    reasons = []
    for seed in ("0", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run(
            [sys.executable, "-m", "splitclust.cli", "verify", "k3.graph",
             "respecting-cover-a.json", "--json"],
            cwd=work, capture_output=True, env=env, timeout=60,
        )
        assert out.returncode == 1
        reasons.append(json.loads(out.stdout)["reason"])
    assert reasons == ["certificate references unknown vertex g"] * 2


def test_cli_output_does_not_depend_on_the_hash_seed(tmp_path):
    # string hashes, and so set and dict orders, differ with PYTHONHASHSEED;
    # every command's stdout and every file it writes must not
    runs = []
    for g in ("ccl8", "k3", "p3"):
        for problem, budget in (("scc", 20), ("ncc", 4), ("cvs", 6), ("cevs", 6)):
            cert = f"{g}.{problem}.cert.json"
            runs.append(["solve", f"{g}.graph", "--problem", problem,
                         "--budget", budget, "-o", cert])
            runs.append(["verify", f"{g}.graph", cert])
        runs.append(["lowerbound", f"{g}.graph", "--exact-packing"])
        runs.append(["kernelize", f"{g}.graph", "--budget", 2])
    for src, dst, budget in (("ncc", "scc", 3), ("cvs", "scc", 2),
                             ("scc", "cvs", 20), ("cvs", "cevs", 2)):
        runs.append(["reduce", "ccl8.graph", "--from", src, "--to", dst,
                     "--budget", budget])
    runs.append(["hunt", "--max-n", 5, "-o", "hunt.jsonl"])
    code = (
        "import json, sys; from splitclust.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    print(argv[0], main([str(a) for a in argv]), flush=True)\n"
    )
    outputs = []
    for seed in ("0", "3"):
        work = tmp_path / seed
        work.mkdir()
        for name in ("ccl8.graph", "k3.graph", "p3.graph"):
            shutil.copy(DATA / name, work / name)
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run(
            [sys.executable, "-c", code, json.dumps(runs)],
            cwd=work, capture_output=True, env=env, timeout=120,
        )
        assert out.returncode == 0, out.stderr.decode()
        files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
        outputs.append((out.stdout, files))
    assert len(outputs[0][1]) == 3 + 12 + 3 * 2 + 4 * 2 + 1
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------- lowerbound


def test_lowerbound_greedy_and_exact(work, capsys):
    assert run("lowerbound", work / "ccl8.graph") == 0
    assert "lower bound 6 (greedy" in capsys.readouterr().out
    assert run("lowerbound", work / "ccl8.graph", "--exact-packing") == 0
    assert "lower bound 6 (exact" in capsys.readouterr().out


def test_lowerbound_writes_packing_certificate(work, capsys):
    target = work / "pack.json"
    assert run("lowerbound", work / "ccl8.graph", "--exact-packing",
               "-o", target) == 0
    capsys.readouterr()
    assert run("verify", work / "ccl8.graph", target) == 0


# ---------------------------------------------------------------- hunt


def test_hunt_single_graph(work, capsys):
    assert run("hunt", "--graph", work / "ccl8.graph") == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["optimum"] == 6
    assert obj["existsOptimumCutting"] is True
    assert obj["existsOptimumRespecting"] is True


def test_hunt_sweep_writes_reports_and_summary(work, capsys):
    out = work / "reports.jsonl"
    assert run("hunt", "--max-n", "3", "-o", out) == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 1 + 2 + 4
    summary = capsys.readouterr().out
    assert "n graphs cutting non-respecting" in summary
    assert "no graph without a class-respecting optimum found" in summary


def test_hunt_resume_skips_done_work(work, capsys):
    out = work / "reports.jsonl"
    assert run("hunt", "--max-n", "3", "-o", out) == 0
    before = out.read_text()
    assert run("hunt", "--max-n", "3", "-o", out, "--resume") == 0
    assert out.read_text() == before  # everything was already done


def test_hunt_resume_drops_a_truncated_last_line(work, capsys):
    out = work / "reports.jsonl"
    assert run("hunt", "--max-n", "3", "-o", out) == 0
    full = out.read_text()
    last_line_start = full.rindex("\n", 0, len(full) - 1) + 1
    out.write_text(full[: last_line_start + 30])  # a crash mid-write
    assert run("hunt", "--max-n", "3", "-o", out, "--resume") == 0
    assert out.read_text() == full


def test_hunt_resume_summary_counts_the_reports_already_written(work, capsys):
    out = work / "reports.jsonl"
    assert run("hunt", "--max-n", "4", "-o", out) == 0
    full, summary = out.read_text(), capsys.readouterr().out
    out.write_text("".join(full.splitlines(keepends=True)[:5]))  # a crash
    assert run("hunt", "--max-n", "4", "-o", out, "--resume") == 0
    assert out.read_text() == full
    assert capsys.readouterr().out == summary


def test_hunt_past_the_size_limit_leaves_the_output_file_alone(work, capsys):
    out = work / "reports.jsonl"
    assert run("hunt", "--max-n", "3", "-o", out) == 0
    before = out.read_bytes()
    capsys.readouterr()
    assert run("hunt", "--max-n", "9", "-o", out) == 3
    assert out.read_bytes() == before
    assert "exceed the hunt soft limit" in capsys.readouterr().err


def test_hunt_resume_past_the_size_limit_keeps_a_cut_short_line(work, capsys):
    out = work / "reports.jsonl"
    assert run("hunt", "--max-n", "3", "-o", out) == 0
    out.write_text(out.read_text() + '{"n": 3, "ind')  # a crash mid-write
    before = out.read_bytes()
    assert run("hunt", "--max-n", "9", "-o", out, "--resume") == 3
    assert out.read_bytes() == before


@pytest.mark.parametrize("field, value", [("n", "1"), ("index", None)])
def test_hunt_resume_on_a_mistyped_report_is_exit_2(work, capsys, field, value):
    out = work / "reports.jsonl"
    assert run("hunt", "--max-n", "2", "-o", out) == 0
    first, rest = out.read_text().split("\n", 1)
    out.write_text(json.dumps({**json.loads(first), field: value}) + "\n" + rest)
    before = out.read_bytes()
    capsys.readouterr()
    assert run("hunt", "--max-n", "3", "-o", out, "--resume") == 2
    err = capsys.readouterr().err
    assert err == f"error: {out} line 1: not a hunt report\n"
    assert out.read_bytes() == before


def test_hunt_resume_on_a_file_that_is_not_utf8_is_exit_2(work, capsys):
    out = work / "reports.jsonl"
    out.write_bytes(b"\xff\xfe\n")
    assert run("hunt", "--max-n", "3", "-o", out, "--resume") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}:") and err.count("\n") == 1
    assert out.read_bytes() == b"\xff\xfe\n"


def test_hunt_argument_exclusivity(work, capsys):
    assert run("hunt") == 2
    assert run("hunt", "--max-n", "3", "--graph", work / "ccl8.graph") == 2


@pytest.mark.parametrize(
    "flags",
    [
        ["--graph", "p3.graph", "-o", "x.jsonl"],
        ["--graph", "p3.graph", "--connected"],
        ["--graph", "p3.graph", "--parallel"],
        ["--graph", "p3.graph", "--resume"],
        ["--max-n", "2", "--resume"],
    ],
)
def test_hunt_rejects_flags_it_would_ignore(work, capsys, monkeypatch, flags):
    monkeypatch.chdir(work)
    assert run("hunt", *flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert not (work / "x.jsonl").exists()


# ---------------------------------------------------------------- exit codes


def test_malformed_graph_is_exit_2(work, capsys):
    bad = work / "bad.graph"
    bad.write_text("graph 1 1\nv a\n")
    assert run("solve", bad, "--problem", "scc", "--budget", "1") == 2
    assert "error" in capsys.readouterr().err


def test_overlong_numeric_vertex_name_is_exit_2(work, capsys):
    # int() refuses strings past Python's integer string limit (4,300 digits)
    long_name = "1" * 5000
    bad = work / "long.graph"
    bad.write_text(f"graph 2 1\nv {long_name}\nv a\ne {long_name} a\n")
    assert run("solve", bad, "--problem", "cevs", "--budget", "1") == 2
    err = capsys.readouterr().err
    assert err == "error: line 2: all-digit vertex root of 5000 digits is too long\n"


def test_missing_budget_is_exit_2(work):
    assert run("solve", work / "p3.graph", "--problem", "scc") == 2


def test_missing_graph_file_is_exit_2(work, capsys):
    assert run("solve", work / "nope.graph", "--problem", "cevs", "--budget", "1") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nope.graph" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("problem", ["cvs", "cevs"])
def test_graph_declaring_a_name_and_its_split_copy_is_exit_2(work, capsys, problem):
    # c.0 is the name a split of c would give its first copy
    g = work / "copy.graph"
    g.write_text(
        "graph 7 11\nv c\nv c.0\nv a\nv b\nv d\nv e\nv f\n"
        "e c a\ne c b\ne c d\ne c e\ne c f\ne c.0 d\n"
        "e a d\ne a e\ne b d\ne b f\ne d e\n"
    )
    assert run("solve", g, "--problem", problem, "--budget", "11") == 2
    err = capsys.readouterr().err
    assert err == "error: line 3: vertex c.0 is a split copy of vertex c\n"


def test_reduce_cvs_to_cevs_blows_an_isolated_vertex_up_to_a_clique(work):
    g = work / "iso.graph"
    g.write_text("graph 3 1\nv a\nv b\nv c\ne a b\n")
    assert run("reduce", g, "--from", "cvs", "--to", "cevs", "--budget", "1") == 0
    reduced = load_graph(work / "iso.cvs-to-cevs.graph")
    assert reduced.n == 6 and reduced.edge_count == 7
    assert [str(v) for v in reduced.neighbors("c_1")] == ["c_2"]
    assert [str(v) for v in reduced.neighbors("c_2")] == ["c_1"]


def test_reduce_cvs_to_cevs_name_collision_is_exit_2(work, capsys):
    # a.0 and a_0 both blow up to a_0_1, a_0_2
    g = work / "collide.graph"
    g.write_text("graph 2 1\nv a.0\nv a_0\ne a.0 a_0\n")
    assert run("reduce", g, "--from", "cvs", "--to", "cevs", "--budget", "1") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "collide under blow-up naming" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2]",
        # strings where lists of names belong: never read letter by letter
        '{"schema": "splitclust.certificate/1", "problem": "scc", "budget": 4,'
        ' "kind": "cover", "payload": {"sets": ["ab", "bc"]}}',
    ],
    ids=["top-level list", "set string"],
)
def test_verify_malformed_certificate_is_exit_2(work, capsys, text):
    cert = work / "bad.json"
    cert.write_text(text)
    assert run("verify", work / "p3.graph", cert) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "{bad}", "--problem", "cevs", "--budget", "1"),
        ("verify", "{bad}", "{cert}"),
        ("verify", "{graph}", "{bad}"),
        ("kernelize", "{bad}", "--budget", "0"),
        ("reduce", "{bad}", "--from", "ncc", "--to", "scc", "--budget", "1"),
        ("lowerbound", "{bad}"),
        ("hunt", "--graph", "{bad}"),
    ],
    ids=["solve", "verify graph", "verify certificate", "kernelize", "reduce",
         "lowerbound", "hunt"],
)
def test_input_file_that_is_not_utf8_is_exit_2(work, capsys, argv):
    bad = work / "bad.bin"
    bad.write_bytes(b"\xff\xfe\n")
    paths = {"bad": bad, "graph": work / "p3.graph", "cert": work / "two-set-cover.json"}
    assert run(*(a.format(**paths) for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err and "not UTF-8" in err
    assert len(err.strip().splitlines()) == 1


def test_verify_deeply_nested_certificate_is_exit_2(work, capsys):
    cert = work / "deep.json"
    cert.write_text("[" * 100_000 + "]" * 100_000)
    assert run("verify", work / "p3.graph", cert) == 2
    err = capsys.readouterr().err
    assert err == "error: certificate JSON is nested too deeply\n"


def test_size_limit_exit_3_and_override(work, capsys):
    big = work / "big.graph"
    names = [f"v{i}" for i in range(10)]
    body = [f"v {n}" for n in names]
    big.write_text("graph 10 0\n" + "\n".join(body) + "\n")
    assert run("solve", big, "--problem", "cevs", "--budget", "0") == 3
    capsys.readouterr()
    assert run("solve", big, "--problem", "cevs", "--budget", "0",
               "--size-limit-override", "10") == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["kernelize", "--budget", "1"],
        ["reduce", "--from", "cvs", "--to", "scc", "--budget", "1"],
    ],
    ids=["kernelize", "reduce"],
)
def test_size_limit_override_only_where_a_limit_applies(work, capsys, argv):
    # kernelize and reduce are polynomial and have no size limit to override
    cmd, *rest = argv
    assert run(cmd, work / "p3.graph", *rest, "--size-limit-override", "0") == 2
    assert "--size-limit-override" in capsys.readouterr().err
