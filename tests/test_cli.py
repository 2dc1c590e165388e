from __future__ import annotations

import copy
import hashlib
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DATA
from splitclust.certificates import (
    ModificationSequence,
    NodeCliqueCover,
    P3Packing,
    SigmaCliqueCover,
)
from splitclust.cli import main
from splitclust.formats import (
    Certificate,
    FormatError,
    dumps_certificate,
    load_certificate,
    load_graph,
)
from splitclust.reductions import Instance, Problem
from splitclust.solvers import max_p3_packing, solve_cvs_exact, solve_scc_exact


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


# the whole human stdout of solve, at the optimum and one below it
_SOLVE_HUMAN = {
    ("p3", "scc", 4): "YES: minimum weight 4 <= budget 4\ncertificate: p3.scc.cert.json\n",
    ("p3", "scc", 3): "NO: no edge cover of weight <= 3\n",
    ("p3", "ncc", 2): "YES: minimum cliques 2 <= budget 2\ncertificate: p3.ncc.cert.json\n",
    ("p3", "ncc", 1): "NO: no node cover with <= 1 cliques\n",
    ("p3", "cvs", 1): "YES: minimum splits 1 <= budget 1\ncertificate: p3.cvs.cert.json\n",
    ("p3", "cvs", 0): "NO: no split sequence of length <= 0\n",
    ("p3", "cevs", 1): "YES: minimum cost 1 (1 additions, 0 deletions, 0 splits)"
                       " <= budget 1\ncertificate: p3.cevs.cert.json\n",
    ("p3", "cevs", 0): "NO: no modification sequence of length <= 0\n",
    ("ccl8", "scc", 14): "YES: minimum weight 14 <= budget 14\n"
                         "certificate: ccl8.scc.cert.json\n",
    ("ccl8", "scc", 13): "NO: no edge cover of weight <= 13\n",
    ("ccl8", "ncc", 3): "YES: minimum cliques 3 <= budget 3\n"
                        "certificate: ccl8.ncc.cert.json\n",
    ("ccl8", "ncc", 2): "NO: no node cover with <= 2 cliques\n",
    ("ccl8", "cvs", 6): "YES: minimum splits 6 <= budget 6\ncertificate: ccl8.cvs.cert.json\n",
    ("ccl8", "cvs", 5): "NO: no split sequence of length <= 5\n",
    ("ccl8", "cevs", 6): "YES: minimum cost 6 (2 additions, 4 deletions, 0 splits)"
                         " <= budget 6\ncertificate: ccl8.cevs.cert.json\n",
    ("ccl8", "cevs", 5): "NO: no modification sequence of length <= 5\n",
}


@pytest.mark.parametrize("graph, problem, budget", _SOLVE_HUMAN)
def test_solve_human_output_is_pinned(work, capsys, monkeypatch, graph, problem, budget):
    monkeypatch.chdir(work)  # relative paths, so the certificate line holds anywhere
    want = _SOLVE_HUMAN[graph, problem, budget]
    code = run("solve", f"{graph}.graph", "--problem", problem, "--budget", budget)
    assert code == (0 if want.startswith("YES") else 1)
    assert capsys.readouterr().out == want
    assert (work / f"{graph}.{problem}.cert.json").exists() == (code == 0)


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


def test_files_are_utf8_under_an_ascii_locale(tmp_path):
    # under the C locale, without UTF-8 mode, the locale's encoding is ASCII;
    # a written file must still be UTF-8, the encoding every reader reads
    text = "graph 3 2\nv \u00e9\nv a\nv b\ne \u00e9 a\ne a b\n"
    (tmp_path / "g.graph").write_text(text, encoding="utf-8")
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
           "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-m", "splitclust.cli", "kernelize",
         "g.graph", "--budget", "1", "-o", "out"],
        cwd=tmp_path, capture_output=True, env=env, timeout=60,
    )
    assert out.returncode == 0, out.stderr.decode()
    written = load_graph(tmp_path / "out.graph")
    assert written == load_graph(tmp_path / "g.graph")  # nothing to kernelize
    assert "\u00e9" in map(str, written.vertices)



def test_human_output_escapes_what_an_ascii_locale_cannot_print(work):
    # the reason names a vertex the locale's encoding lacks; printing it
    # must not end the run in a UnicodeEncodeError traceback
    cert = json.loads((work / "two-set-cover.json").read_text())
    cert["payload"]["sets"] = [["a", "b", "c", "\u00e9"]]
    (work / "c.json").write_text(json.dumps(cert), encoding="utf-8")
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
           "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-m", "splitclust.cli", "verify",
         "p3.graph", "c.json"],
        cwd=work, capture_output=True, env=env, timeout=60,
    )
    assert out.returncode == 1
    assert b"Traceback" not in out.stderr
    assert "unknown vertex" in out.stdout.decode("ascii")
    assert "\\xe9" in out.stdout.decode("ascii")


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


@pytest.fixture(scope="module")
def ccl8_witnesses():
    """A witness of each certificate kind on ccl8 within budget 20: an scc
    optimum is a cover by cliques of every edge, so it is also an ncc cover
    and a cevs cover of cost 20 - 8; a cvs sequence is also a cevs one."""
    g = load_graph(DATA / "ccl8.graph")
    return {
        "cover": solve_scc_exact(g, 20),
        "sequence": solve_cvs_exact(Instance(Problem.CVS, g, 6)),
        "packing": max_p3_packing(g, exact=True),
    }


# the problems each certificate kind has a verifier for, and the value type
# each is read as; a packing bounds the split problems only (six paths bound
# no cover problem: ccl8's ncc optimum is 3)
TAKES = {
    "cover": {"scc": SigmaCliqueCover, "ncc": NodeCliqueCover, "cevs": SigmaCliqueCover},
    "sequence": {"cvs": ModificationSequence, "cevs": ModificationSequence},
    "packing": {"cvs": P3Packing, "cevs": P3Packing},
}


@pytest.mark.parametrize("kind", list(TAKES))
@pytest.mark.parametrize("problem", [x.value for x in Problem])
def test_verify_takes_the_kinds_each_problem_has_a_verifier_for(
    work, capsys, ccl8_witnesses, problem, kind
):
    path = work / "c.json"
    cert = Certificate(problem, 20, kind, ccl8_witnesses[kind])
    path.write_text(dumps_certificate(cert), encoding="utf-8")
    code = run("verify", work / "ccl8.graph", path)
    out, err = capsys.readouterr()
    if problem in TAKES[kind]:
        assert type(load_certificate(path).value) is TAKES[kind][problem]
        assert (code, out.startswith("VALID"), err) == (0, True, "")
    else:
        no_verifier = f"no verifier for {problem} certificates of kind {kind}"
        with pytest.raises(FormatError, match=no_verifier):
            load_certificate(path)
        assert (code, out, err) == (2, "", f"error: {no_verifier}\n")


def test_verify_checks_a_lowerbound_packing_for_either_split_problem(work, capsys):
    # lowerbound writes its packing for cevs, and cvs checks a packing alike
    pk = work / "pk.json"
    assert run("lowerbound", "--exact-packing", work / "ccl8.graph", "-o", pk) == 0
    capsys.readouterr()
    assert run("verify", "--problem", "cvs", work / "ccl8.graph", pk, "--json") == 0
    obj = json.loads(capsys.readouterr().out)
    assert (obj["problem"], obj["kind"], obj["valid"]) == ("cvs", "packing", True)
    assert run("verify", "--problem", "scc", work / "ccl8.graph", pk) == 2
    assert capsys.readouterr() == ("", "error: certificate is for cevs, not scc\n")


def test_verify_checks_a_sequence_only_for_its_own_problem(work, capsys, ccl8_witnesses):
    # a cevs sequence may edit edges, which cvs forbids: the checks differ
    path = work / "s.json"
    cert = Certificate("cevs", 6, "sequence", ccl8_witnesses["sequence"])
    path.write_text(dumps_certificate(cert), encoding="utf-8")
    assert run("verify", "--problem", "cvs", work / "ccl8.graph", path) == 2
    assert capsys.readouterr() == ("", "error: certificate is for cevs, not cvs\n")


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


# sha256 of the `--json` stdout of every run below and of every file in the
# working directory afterwards, the written certificates, graphs and traces
CLI_OUTPUT_SHA256 = "c90a0664176d4018a9ba0fe5ad960f4e05a1580247727454153ac7b6685863e4"


def test_cli_output_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    for name in ("ccl8.graph", "k3.graph", "p3.graph"):
        shutil.copy(DATA / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)  # relative paths, so the bytes hold anywhere
    runs = []
    for g in ("ccl8", "k3", "p3"):
        for problem, budget in (("scc", 20), ("ncc", 4), ("cvs", 6), ("cevs", 6),
                                ("cvs", 0), ("cevs", 1)):
            cert = f"{g}.{problem}{budget}.cert.json"
            runs.append(["solve", f"{g}.graph", "--problem", problem,
                         "--budget", budget, "-o", cert])
            if budget:
                runs.append(["verify", f"{g}.graph", cert])
        runs.append(["lowerbound", f"{g}.graph", "--exact-packing",
                     "-o", f"{g}.packing.json"])
        runs.append(["verify", f"{g}.graph", f"{g}.packing.json"])
        runs.append(["kernelize", f"{g}.graph", "--budget", 2])
    for src, dst, budget in (("ncc", "scc", 3), ("cvs", "scc", 2),
                             ("scc", "cvs", 20), ("cvs", "cevs", 2)):
        runs.append(["reduce", "ccl8.graph", "--from", src, "--to", dst,
                     "--budget", budget])
    digest = hashlib.sha256()
    for argv in runs:
        code = main([*map(str, argv), "--json"])
        digest.update(f"{argv} {code}\n".encode())
        digest.update(capsys.readouterr().out.encode())
    files = sorted(tmp_path.iterdir())
    # k3 at cvs 0 and cevs 1 and p3 at cevs 1 are YES as well
    assert len(files) == 3 + 3 * 4 + 3 + 3 + 3 * 2 + 4 * 2
    for path in files:
        digest.update(f"{path.name} {path.stat().st_size}\n".encode())
        digest.update(path.read_bytes())
    assert digest.hexdigest() == CLI_OUTPUT_SHA256


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



@pytest.mark.parametrize(
    "first, then",
    [
        # the connected sweep's reports, resumed as the full sweep
        (["--max-n", "4", "--connected"], ["--max-n", "5"]),
        # the full sweep's reports, resumed as the connected sweep
        (["--max-n", "4"], ["--max-n", "5", "--connected"]),
        # reports past the end of the sweep asked for
        (["--max-n", "4"], ["--max-n", "3"]),
    ],
)
def test_hunt_resume_of_another_sweep_is_exit_2(work, capsys, first, then):
    out = work / "reports.jsonl"
    assert run("hunt", *first, "-o", out) == 0
    before = out.read_bytes()
    capsys.readouterr()
    assert run("hunt", *then, "-o", out, "--resume") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {out}: report ")
    assert captured.err.count("\n") == 1
    assert out.read_bytes() == before


@pytest.mark.parametrize("flags", [[], ["--connected"]])
def test_hunt_resume_with_a_larger_max_n_extends_the_sweep(work, capsys, flags):
    out, whole = work / "reports.jsonl", work / "whole.jsonl"
    assert run("hunt", "--max-n", "5", *flags, "-o", whole) == 0
    summary = capsys.readouterr().out
    assert run("hunt", "--max-n", "4", *flags, "-o", out) == 0
    assert run("hunt", "--max-n", "5", *flags, "-o", out, "--resume") == 0
    assert out.read_bytes() == whole.read_bytes()
    assert capsys.readouterr().out.endswith(summary)

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


def test_hunt_graph_with_an_empty_path_is_exit_2(work, capsys, monkeypatch):
    # an empty --graph is still --graph: it is read, not taken for a sweep
    monkeypatch.chdir(work)
    assert run("hunt", "--graph", "") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


# ---------------------------------------------------------------- exit codes


@pytest.mark.parametrize(
    "argv, unbuffered",
    [(["lowerbound", "p3.graph"], False), (["lowerbound", "p3.graph"], True),
     (["hunt", "--max-n", "5"], False)],
    ids=["buffered", "unbuffered", "hunt"],
)
def test_a_reader_that_stops_early_is_exit_141(work, argv, unbuffered):
    # the read end is closed before the run starts, so the first write to
    # stdout, or the flush of a short output, fails whatever the timing
    read, write = os.pipe()
    os.close(read)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        out = subprocess.run([sys.executable, "-m", "splitclust.cli", *argv], cwd=work,
                             stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert (out.returncode, out.stderr) == (141, b"")


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


def test_solve_cvs_runs_under_the_scc_size_limit(tmp_path, capsys):
    # a cvs instance is the scc instance on the same graph, and only the
    # scc search runs, so the one limit is the scc limit
    path = tmp_path / "path19.graph"
    names = [f"p{i}" for i in range(19)]
    body = [f"v {n}" for n in names] + [f"e {a} {b}" for a, b in zip(names, names[1:])]
    path.write_text("graph 19 18\n" + "\n".join(body) + "\n")
    assert run("solve", path, "--problem", "cvs", "--budget", "17") == 3
    assert "exceed the scc soft limit of 18" in capsys.readouterr().err
    assert run("solve", path, "--problem", "cvs", "--budget", "17",
               "--size-limit-override", "19") == 0
    assert "YES: minimum splits 17" in capsys.readouterr().out


@pytest.mark.parametrize("problem", ["scc", "cvs"])
def test_solve_a_long_path_past_the_size_limit(tmp_path, capsys, problem):
    # the scc search goes one level deeper per chosen set, 1,199 levels here
    path = tmp_path / "path1200.graph"
    names = [f"p{i}" for i in range(1200)]
    body = [f"v {n}" for n in names] + [f"e {a} {b}" for a, b in zip(names, names[1:])]
    path.write_text("graph 1200 1199\n" + "\n".join(body) + "\n")
    assert run("solve", path, "--problem", problem, "--budget", "3000",
               "--size-limit-override", "5000") == 0
    assert "YES" in capsys.readouterr().out
    assert run("verify", path, tmp_path / f"path1200.{problem}.cert.json") == 0


def test_solve_cevs_on_a_long_matching_past_the_size_limit(tmp_path, capsys):
    # the cevs search goes one level deeper per vertex it places, 1,200 here
    path = tmp_path / "matching1200.graph"
    names = [f"m{i}" for i in range(1200)]
    body = [f"v {n}" for n in names] + [f"e {a} {b}" for a, b in zip(names[::2], names[1::2])]
    path.write_text("graph 1200 600\n" + "\n".join(body) + "\n")
    assert run("solve", path, "--problem", "cevs", "--budget", "0",
               "--size-limit-override", "1200") == 0
    assert "YES" in capsys.readouterr().out
    assert run("verify", path, tmp_path / "matching1200.cevs.cert.json") == 0


def test_solve_ncc_on_many_isolated_vertices_past_the_size_limit(tmp_path, capsys):
    # a minimum clique partition of 1,200 isolated vertices holds 1,200 cliques
    path = tmp_path / "empty1200.graph"
    body = [f"v v{i}" for i in range(1200)]
    path.write_text("graph 1200 0\n" + "\n".join(body) + "\n")
    assert run("solve", path, "--problem", "ncc", "--budget", "1200",
               "--size-limit-override", "5000") == 0
    assert "YES" in capsys.readouterr().out
    assert run("verify", path, tmp_path / "empty1200.ncc.cert.json") == 0


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


# ---------------------------------------------------------------- contract


_ODD_VALUES = [None, True, -1, 1.5, "x", [], {}, 10**30, "é", "a.0"]
_NAMES = ["a_1", "01", "1", "001", "10", "2", "u", "u1", "u01", "uu", "a", "c",
          "x.0", "b.1", "c.1.0", "é", "ü.1"]
_SOLVE_BUDGETS = {"scc": 20, "ncc": 4, "cvs": 6, "cevs": 6}


def _nodes(obj, path=()):
    """Every (path, value) below the root of a JSON tree, in document order."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _nodes(value, path + (key,))


def _mutated(obj, rng: random.Random):
    """A deep copy of a certificate object after 1-3 seeded mutations: a value
    replaced by an odd one, a key deleted, or a list appended to."""
    obj = copy.deepcopy(obj)
    for _ in range(rng.randint(1, 3)):
        odd = copy.deepcopy(rng.choice(_ODD_VALUES))
        nodes = list(_nodes(obj))
        kind = rng.choice(["replace", "delete", "append"])
        if kind == "delete":
            dicts = [v for _, v in nodes if isinstance(v, dict) and v]
            if dicts:
                parent = rng.choice(dicts)
                del parent[rng.choice(sorted(parent))]
                continue
        if kind == "append":
            lists = [v for _, v in nodes if isinstance(v, list)]
            if lists:
                target = rng.choice(lists)
                twin = target and rng.random() < 0.5
                target.append(copy.deepcopy(rng.choice(target)) if twin else odd)
                continue
        if nodes:
            path, _ = rng.choice(nodes)
            parent = obj
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = odd
    return obj


def _random_graph_text(rng: random.Random) -> str:
    names = rng.sample(_NAMES, rng.randint(0, 7))
    edges = [(u, w) for u, w in itertools.combinations(names, 2) if rng.random() < 0.5]
    lines = [f"graph {len(names)} {len(edges)}"]
    lines += [f"v {v}" for v in names]
    lines += [f"e {u} {w}" for u, w in edges]
    return "\n".join(lines) + "\n"


def _says_no(out: str, err: str) -> bool:
    """Whether a run printed a NO answer or an INVALID verdict."""
    if out.startswith("{"):
        obj = json.loads(out)
        return obj.get("answer") == "no" or obj.get("valid") is False
    return out.startswith(("NO", "INVALID")) or err.startswith("NO")


def test_cli_exit_code_contract_on_generated_inputs(tmp_path, monkeypatch, capsys):
    """Seeded mutated certificates go to verify, and seeded small graphs with
    odd names go to every other subcommand.  No exception escapes main, every
    exit code is 0-3, 1 only for a NO answer or an INVALID verdict, and verify
    accepts every certificate solve or lowerbound wrote."""
    monkeypatch.chdir(tmp_path)
    rng = random.Random(8)
    violations = []

    def call(*argv) -> int | None:
        argv = [str(a) for a in argv]
        try:
            code = main(argv)
        except BaseException as exc:  # SystemExit too: main returns its code
            capsys.readouterr()
            violations.append((argv, f"raised {type(exc).__name__}: {exc}"))
            return None
        out, err = capsys.readouterr()
        if code not in (0, 1, 2, 3):
            violations.append((argv, f"exit {code!r}"))
        elif code == 1 and not _says_no(out, err):
            violations.append((argv, f"exit 1 without NO or INVALID: {out!r} {err!r}"))
        return code

    def must_verify(graph, cert) -> None:
        if call("verify", graph, cert) != 0:
            violations.append((["verify", str(graph), str(cert)], "rejected"))

    # six base certificates on the counterexample graph, each one valid
    shutil.copy(DATA / "ccl8.graph", "ccl8.graph")
    shutil.copy(DATA / "two-set-cover.json", "cover.json")
    assert call("lowerbound", "ccl8.graph", "--exact-packing", "-o", "packing.json") == 0
    bases = ["cover.json", "packing.json"]
    for problem, budget in _SOLVE_BUDGETS.items():
        assert call("solve", "ccl8.graph", "--problem", problem, "--budget", budget) == 0
        bases.append(f"ccl8.{problem}.cert.json")
    for base in bases:
        must_verify("ccl8.graph", base)
    objs = [json.loads(Path(base).read_text(encoding="utf-8")) for base in bases]
    for i in range(600):
        path = Path(f"m{i}.json")
        path.write_text(json.dumps(_mutated(objs[i % len(objs)], rng), ensure_ascii=False),
                        encoding="utf-8")
        call("verify", "ccl8.graph", path, *(["--json"] if rng.random() < 0.5 else []))

    # every other subcommand in every form, each with and without --json;
    # hunt prints JSON lines and has no --json, so with it the run is usage (2)
    forms = [("solve", "--problem", p) for p in _SOLVE_BUDGETS]
    forms.append(("kernelize",))
    forms += [("reduce", "--from", a, "--to", b)
              for a in _SOLVE_BUDGETS for b in _SOLVE_BUDGETS]
    forms += [("lowerbound", *exact, *out) for exact in ((), ("--exact-packing",))
              for out in ((), ("-o",))]
    forms.append(("hunt", "--graph"))
    for i in range(300):
        graph = Path(f"g{i}.graph")
        graph.write_text(_random_graph_text(rng), encoding="utf-8")
        cmd, *rest = forms[i % len(forms)]
        flags = ["--json"] if i // len(forms) % 2 else []
        if cmd == "hunt":
            call(cmd, *rest, graph, *flags)
            continue
        if cmd in ("solve", "kernelize", "reduce"):
            flags += ["--budget", rng.randint(0, 8)]
        if "-o" in rest:
            rest = [*rest, f"g{i}.packing.json"]
        code = call(cmd, graph, *rest, *flags)
        if code == 0 and cmd == "solve":
            must_verify(graph, f"g{i}.{rest[1]}.cert.json")
        if code == 0 and "-o" in rest:
            must_verify(graph, rest[-1])
    assert violations == []
