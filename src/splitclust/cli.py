"""Command-line interface.

Subcommands::

    solve       decide an instance and write a certificate on YES
    kernelize   shrink a cvs instance to at most 3k+3 vertices, with a trace
    reduce      rewrite an instance into another problem, with a trace
    verify      check a certificate against a graph and budget
    lowerbound  compute an induced-path packing lower bound
    hunt        sweep all small graphs for optimum-structure counterexamples

Graphs are read from the text format, certificates from JSON envelopes;
budgets travel on the command line; `formats` writes and reads every file,
hunt reports included, and `certificates.CERTIFICATE_KINDS` says which
certificate kinds each problem takes.  Exit codes: 0 = YES / certificate
valid, 1 = NO / certificate invalid, 2 = usage or format error, 3 = size
limit exceeded, 141 = the reader of stdout closed it early.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path

from . import formats
from .certificates import CERTIFICATE_KINDS, NotACover, VerifyReport, cover_cost
from .formats import Certificate, FormatError
from .graph import DuplicateVertex, Graph, UnknownVertex
from .hunter import NotASweepPrefix, hunt, hunt_graph
from .kernel import RuleIIStep, kernelize
from .reductions import (
    BudgetUnderflow,
    Instance,
    Problem,
    convert_cvs_scc,
    convert_scc_cvs,
    reduce_cvs_to_cevs,
    reduce_ncc_to_scc,
)
from .solvers import (
    SizeLimitExceeded,
    max_p3_packing,
    solve_cevs_exact,
    solve_cvs_exact,
    solve_ncc_exact,
    solve_scc_exact,
)


def _nonneg(value: str) -> int:
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return n


def _emit(args, human: str, obj: dict) -> None:
    if args.json:
        sys.stdout.write(formats.dumps_canonical(obj))
    else:
        # vertex names may hold any character; one the output's encoding
        # lacks is printed as an escape, as on standard error, not raised
        encoding = getattr(sys.stdout, "encoding", None) or "utf-8"
        print(human.encode(encoding, "backslashreplace").decode(encoding))


def _default_out(graph_path: str, suffix: str) -> Path:
    return Path(graph_path).with_suffix("").with_name(
        Path(graph_path).with_suffix("").name + suffix
    )


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


# per problem: what a NO says there is none of, the word for the optimum,
# and the certificate's attribute that measures it
_SOLVE_WORDS = {
    Problem.SCC: ("edge cover of weight <= {}", "weight", "weight"),
    Problem.NCC: ("node cover with <= {} cliques", "cliques", "size"),
    Problem.CVS: ("split sequence of length <= {}", "splits", "length"),
    Problem.CEVS: ("modification sequence of length <= {}", "cost", "length"),
}


def cmd_solve(args) -> int:
    g = formats.load_graph(args.graph)
    problem, budget, limit = Problem(args.problem), args.budget, args.size_limit_override
    if problem is Problem.SCC:
        value = solve_scc_exact(g, budget, size_limit=limit)
    elif problem is Problem.NCC:
        value = solve_ncc_exact(g, budget, size_limit=limit)
    elif problem is Problem.CVS:
        value = solve_cvs_exact(Instance(problem, g, budget), size_limit=limit)
    else:
        value = solve_cevs_exact(Instance(problem, g, budget), size_limit=limit)
    none_of, word, measure = _SOLVE_WORDS[problem]
    answer_obj: dict = {"problem": problem.value, "budget": budget}
    if value is None:
        _emit(args, f"NO: no {none_of.format(budget)}", {**answer_obj, "answer": "no"})
        return 1
    detail = ""
    if problem is Problem.CEVS:
        cover, value = value
        cost = cover_cost(g, cover)
        detail = (f" ({cost.nonedges_inside} additions, {cost.edges_outside} deletions,"
                  f" {cost.excess} splits)")
        answer_obj.update(
            cover=formats.cover_to_obj(cover),
            breakdown={"additions": cost.nonedges_inside, "deletions": cost.edges_outside,
                       "splits": cost.excess},
        )
    optimum = getattr(value, measure)
    kind = next(k for (_, k), (t, _) in CERTIFICATE_KINDS.items() if type(value) is t)
    cert = Certificate(problem.value, budget, kind, value)
    out = Path(args.output) if args.output else _default_out(
        args.graph, f".{problem.value}.cert.json"
    )
    formats.save_certificate(cert, out)
    answer_obj.update(optimum=optimum, answer="yes",
                      certificate=formats.certificate_to_obj(cert), certificateFile=str(out))
    _emit(args, f"YES: minimum {word} {optimum}{detail} <= budget {budget}\ncertificate: {out}",
          answer_obj)
    return 0


# ---------------------------------------------------------------------------
# kernelize / reduce
# ---------------------------------------------------------------------------


def _write_outputs(args, suffix: str, g: Graph, trace_obj: dict, summary: str) -> None:
    """Save `g` to <base>.graph and the trace to <base>.trace.json, then report;
    <base> is --output, or the input graph's path with `suffix` for its extension."""
    base = Path(args.output) if args.output else _default_out(args.graph, suffix)
    graph_path = base.with_name(base.name + ".graph")
    trace_path = base.with_name(base.name + ".trace.json")
    formats.save_graph(g, graph_path)
    trace_path.write_text(formats.dumps_canonical(trace_obj), encoding="utf-8")
    _emit(args, f"{summary}\ngraph: {graph_path}\ntrace: {trace_path}",
          {**trace_obj, "graphFile": str(graph_path), "traceFile": str(trace_path)})


def cmd_kernelize(args) -> int:
    g = formats.load_graph(args.graph)
    inst = Instance(Problem.CVS, g, args.budget)
    out_inst, trace = kernelize(inst)
    trace_obj = formats.kernel_trace_to_obj(trace)
    rule2 = any(isinstance(step, RuleIIStep) for step in trace.steps)
    summary = (
        f"kernel: {out_inst.graph.n} vertices, budget {out_inst.budget}"
        f" ({len(trace.steps)} steps{'; decided negative by Rule II' if rule2 else ''})"
    )
    _write_outputs(args, ".kernel", out_inst.graph, trace_obj, summary)
    return 0


# in the order the error for an unknown pair lists them
_REDUCTIONS = {
    ("ncc", "scc"): reduce_ncc_to_scc,
    ("cvs", "scc"): convert_cvs_scc,
    ("scc", "cvs"): convert_scc_cvs,
    ("cvs", "cevs"): reduce_cvs_to_cevs,
}


def cmd_reduce(args) -> int:
    pair = (args.src, args.dst)
    if pair not in _REDUCTIONS:
        available = ", ".join(f"{src}->{dst}" for src, dst in _REDUCTIONS)
        raise FormatError(f"no reduction {args.src} -> {args.dst}; available: {available}")
    g = formats.load_graph(args.graph)
    inst = Instance(Problem(args.src), g, args.budget)
    out_inst, trace = _REDUCTIONS[pair](inst)
    summary = f"reduced to {args.dst}: {out_inst.graph.n} vertices, budget {out_inst.budget}"
    _write_outputs(args, f".{args.src}-to-{args.dst}", out_inst.graph,
                   formats.reduction_trace_to_obj(trace), summary)
    return 0


# ---------------------------------------------------------------------------
# verify / lowerbound
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    g = formats.load_graph(args.graph)
    cert = formats.load_certificate(args.certificate)
    # --problem may name another problem whose check of this kind is the same
    problem = args.problem or cert.problem
    entry = CERTIFICATE_KINDS.get((problem, cert.kind))
    if entry != CERTIFICATE_KINDS[cert.problem, cert.kind]:
        raise FormatError(f"certificate is for {cert.problem}, not {problem}")
    budget = args.budget if args.budget is not None else cert.budget
    try:
        report = entry[1](g, cert.value, budget)
    except (UnknownVertex, NotACover) as exc:
        report = VerifyReport(False, str(exc), {})
    obj = {
        "problem": problem,
        "kind": cert.kind,
        "budget": budget,
        "valid": report.valid,
        "reason": report.reason,
        "metrics": report.metrics,
    }
    human = "VALID" if report.valid else f"INVALID: {report.reason}"
    extra = ", ".join(
        f"{k}={v}" for k, v in report.metrics.items() if not isinstance(v, dict)
    )
    _emit(args, f"{human}" + (f" ({extra})" if extra else ""), obj)
    return 0 if report.valid else 1


def cmd_lowerbound(args) -> int:
    g = formats.load_graph(args.graph)
    packing = max_p3_packing(
        g, exact=args.exact_packing, size_limit=args.size_limit_override
    )
    kind = "exact" if args.exact_packing else "greedy"
    human = f"lower bound {packing.size} ({kind} induced-path packing)"
    obj = {"bound": packing.size, "method": kind, "triples": formats.packing_to_obj(packing)}
    if args.output:
        formats.save_certificate(Certificate("cevs", packing.size, "packing", packing), args.output)
        human += f"\ncertificate: {args.output}"
        obj["certificateFile"] = args.output
    _emit(args, human, obj)
    return 0


# ---------------------------------------------------------------------------
# hunt
# ---------------------------------------------------------------------------


def cmd_hunt(args) -> int:
    if (args.max_n is None) == (args.graph is None):
        print("hunt needs exactly one of --max-n or --graph", file=sys.stderr)
        return 2
    sweep_flags = args.output, args.connected, args.parallel, args.resume
    if args.graph is not None and any(sweep_flags):
        print("hunt --graph takes no -o, --connected, --parallel or --resume",
              file=sys.stderr)
        return 2
    if args.resume and not args.output:
        print("hunt --resume needs -o", file=sys.stderr)
        return 2
    if args.graph is not None:
        report = hunt_graph(
            formats.load_graph(args.graph), size_limit=args.size_limit_override
        )
        sys.stdout.write(formats.dumps_report(report))
        return 0
    path = Path(args.output) if args.output else None
    # (n, index, cutting, respecting) of each report, those already in -o first
    reports, keep = formats.load_reports(path) if args.resume else ([], 0)
    # the call checks the size limit and the reports already made, so it
    # comes before the file is touched
    try:
        runs = hunt(args.max_n, connected_only=args.connected, parallel=args.parallel,
                    done=[r[:2] for r in reports], size_limit=args.size_limit_override)
    except NotASweepPrefix as exc:
        raise FormatError(f"{path}: {exc}; it was written with other flags") from exc
    out = path.open("a" if args.resume else "w", encoding="utf-8") if path else None
    with out or contextlib.nullcontext(sys.stdout) as sink:
        if args.resume:
            sink.truncate(keep)
        for report in runs:
            sink.write(formats.dumps_report(report))
            sink.flush()
            reports.append((report.n, report.index, report.exists_optimum_cutting,
                            report.exists_optimum_respecting))
    summary_sink = sys.stdout if path else sys.stderr
    print("n graphs cutting non-respecting", file=summary_sink)
    for n in range(1, args.max_n + 1):
        rows = [r for r in reports if r[0] == n]
        cutting = sum(1 for r in rows if r[2])
        bad = sum(1 for r in rows if not r[3])
        print(f"{n} {len(rows)} {cutting} {bad}", file=summary_sink)
    total_bad = sum(1 for r in reports if not r[3])
    verdict = (
        "no graph without a class-respecting optimum found"
        if total_bad == 0
        else f"{total_bad} graph(s) without a class-respecting optimum"
    )
    print(verdict, file=summary_sink)
    return 0


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitclust",
        description="clique covers, splitting kernels, exact solvers,"
        " and a counterexample hunter for overlapping clustering",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budget=True):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if budget:
            p.add_argument("--budget", type=_nonneg, required=True)

    def size_limit(p):
        p.add_argument(
            "--size-limit-override", type=_nonneg, default=None, metavar="N",
            help="raise the soft size limit to N vertices",
        )

    p = sub.add_parser("solve", help="decide an instance, writing a certificate on YES")
    p.add_argument("graph")
    p.add_argument("--problem", choices=[x.value for x in Problem], required=True)
    p.add_argument("-o", "--output", help="certificate path")
    common(p)
    size_limit(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("kernelize", help="shrink a cvs instance to <= 3k+3 vertices")
    p.add_argument("graph")
    p.add_argument("-o", "--output", help="output base path")
    common(p)
    p.set_defaults(func=cmd_kernelize)

    p = sub.add_parser("reduce", help="rewrite an instance into another problem")
    p.add_argument("graph")
    p.add_argument("--from", dest="src", choices=[x.value for x in Problem],
                   required=True)
    p.add_argument("--to", dest="dst", choices=[x.value for x in Problem],
                   required=True)
    p.add_argument("-o", "--output", help="output base path")
    common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("verify", help="check a certificate")
    p.add_argument("graph")
    p.add_argument("certificate")
    p.add_argument("--problem", choices=[x.value for x in Problem])
    p.add_argument("--budget", type=_nonneg, default=None,
                   help="defaults to the certificate's budget")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("lowerbound", help="induced-path packing lower bound")
    p.add_argument("graph")
    p.add_argument("--exact-packing", action="store_true")
    p.add_argument("-o", "--output", help="write the packing as a certificate")
    common(p, budget=False)
    size_limit(p)
    p.set_defaults(func=cmd_lowerbound)

    p = sub.add_parser("hunt", help="sweep small graphs for optimum-structure"
                       " counterexamples")
    p.add_argument("--max-n", type=_nonneg)
    p.add_argument("--graph", help="analyze a single graph instead of sweeping")
    p.add_argument("--connected", action="store_true")
    p.add_argument("--parallel", action="store_true")
    p.add_argument("--resume", action="store_true",
                   help="continue after the last report already in -o")
    p.add_argument("-o", "--output", help="report file (line-delimited JSON)")
    size_limit(p)
    p.set_defaults(func=cmd_hunt)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader stopped early: send what is still buffered nowhere,
        # as after SIGPIPE, and end quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (FormatError, DuplicateVertex, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BudgetUnderflow as exc:
        print(f"NO (trivially negative): {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
