"""Command-line interface.

Subcommands::

    solve       decide an instance and write a certificate on YES
    kernelize   shrink a cvs instance to at most 3k+3 vertices, with a trace
    reduce      rewrite an instance into another problem, with a trace
    verify      check a certificate against a graph and budget
    lowerbound  compute an induced-path packing lower bound
    hunt        sweep all small graphs for optimum-structure counterexamples

Graphs are read from the text format, certificates from JSON envelopes;
budgets travel on the command line.  Exit codes: 0 = YES / certificate
valid, 1 = NO / certificate invalid, 2 = usage or format error, 3 = size
limit exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import formats
from .certificates import (
    NotACover,
    VerifyReport,
    cover_cost,
    verify_cevs_cover,
    verify_modification_sequence,
    verify_node_cover,
    verify_p3_packing,
    verify_sigma_cover,
)
from .formats import Certificate, FormatError
from .graph import DuplicateVertex, UnknownVertex
from .hunter import hunt, hunt_graph, report_to_obj
from .kernel import kernelize
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
        print(json.dumps(obj, sort_keys=True, indent=2))
    else:
        print(human)


def _default_out(graph_path: str, suffix: str) -> Path:
    return Path(graph_path).with_suffix("").with_name(
        Path(graph_path).with_suffix("").name + suffix
    )


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    g = formats.load_graph(args.graph)
    problem = Problem(args.problem)
    limit = args.size_limit_override
    answer_obj: dict = {"problem": problem.value, "budget": args.budget}
    if problem is Problem.SCC:
        cover = solve_scc_exact(g, args.budget, size_limit=limit)
        if cover is None:
            _emit(args, f"NO: no edge cover of weight <= {args.budget}",
                  {**answer_obj, "answer": "no"})
            return 1
        cert = Certificate("scc", args.budget, "cover", cover)
        detail = f"minimum weight {cover.weight}"
        answer_obj.update(optimum=cover.weight)
    elif problem is Problem.NCC:
        cover = solve_ncc_exact(g, args.budget, size_limit=limit)
        if cover is None:
            _emit(args, f"NO: no node cover with <= {args.budget} cliques",
                  {**answer_obj, "answer": "no"})
            return 1
        cert = Certificate("ncc", args.budget, "cover", cover)
        detail = f"minimum cliques {cover.size}"
        answer_obj.update(optimum=cover.size)
    elif problem is Problem.CVS:
        seq = solve_cvs_exact(Instance(problem, g, args.budget), size_limit=limit)
        if seq is None:
            _emit(args, f"NO: no split sequence of length <= {args.budget}",
                  {**answer_obj, "answer": "no"})
            return 1
        cert = Certificate("cvs", args.budget, "sequence", seq)
        detail = f"minimum splits {seq.length}"
        answer_obj.update(optimum=seq.length)
    else:
        res = solve_cevs_exact(Instance(problem, g, args.budget), size_limit=limit)
        if res is None:
            _emit(args, f"NO: no modification sequence of length <= {args.budget}",
                  {**answer_obj, "answer": "no"})
            return 1
        cover, seq = res
        cert = Certificate("cevs", args.budget, "sequence", seq)
        breakdown = cover_cost(g, cover)
        detail = (
            f"minimum cost {breakdown.total} ({breakdown.nonedges_inside} additions,"
            f" {breakdown.edges_outside} deletions, {breakdown.excess} splits)"
        )
        answer_obj.update(
            optimum=breakdown.total,
            cover=[[str(v) for v in sorted(s)] for s in cover.sets],
            breakdown={
                "additions": breakdown.nonedges_inside,
                "deletions": breakdown.edges_outside,
                "splits": breakdown.excess,
            },
        )
    out = Path(args.output) if args.output else _default_out(
        args.graph, f".{problem.value}.cert.json"
    )
    formats.save_certificate(cert, out)
    answer_obj.update(answer="yes", certificate=formats.certificate_to_obj(cert),
                      certificateFile=str(out))
    _emit(args, f"YES: {detail} <= budget {args.budget}\ncertificate: {out}", answer_obj)
    return 0


# ---------------------------------------------------------------------------
# kernelize / reduce
# ---------------------------------------------------------------------------


def cmd_kernelize(args) -> int:
    g = formats.load_graph(args.graph)
    inst = Instance(Problem.CVS, g, args.budget)
    out_inst, trace = kernelize(inst)
    base = Path(args.output) if args.output else _default_out(args.graph, ".kernel")
    graph_path = base.with_name(base.name + ".graph")
    trace_path = base.with_name(base.name + ".trace.json")
    formats.save_graph(out_inst.graph, graph_path)
    trace_obj = formats.kernel_trace_to_obj(trace)
    trace_path.write_text(formats.dumps_canonical(trace_obj))
    rule2 = any(step.get("rule") == "II" for step in trace_obj["steps"])
    human = (
        f"kernel: {out_inst.graph.n} vertices, budget {out_inst.budget}"
        f" ({len(trace.steps)} steps{'; decided negative by Rule II' if rule2 else ''})\n"
        f"graph: {graph_path}\ntrace: {trace_path}"
    )
    _emit(args, human, {**trace_obj, "graphFile": str(graph_path),
                        "traceFile": str(trace_path)})
    return 0


_REDUCTIONS = {
    ("ncc", "scc"): reduce_ncc_to_scc,
    ("cvs", "cevs"): reduce_cvs_to_cevs,
    ("cvs", "scc"): convert_cvs_scc,
    ("scc", "cvs"): convert_scc_cvs,
}


def cmd_reduce(args) -> int:
    pair = (args.src, args.dst)
    if pair not in _REDUCTIONS:
        raise FormatError(
            f"no reduction {args.src} -> {args.dst};"
            " available: ncc->scc, cvs->scc, scc->cvs, cvs->cevs"
        )
    g = formats.load_graph(args.graph)
    inst = Instance(Problem(args.src), g, args.budget)
    out_inst, trace = _REDUCTIONS[pair](inst)
    base = Path(args.output) if args.output else _default_out(
        args.graph, f".{args.src}-to-{args.dst}"
    )
    graph_path = base.with_name(base.name + ".graph")
    trace_path = base.with_name(base.name + ".trace.json")
    formats.save_graph(out_inst.graph, graph_path)
    trace_obj = formats.reduction_trace_to_obj(trace)
    trace_path.write_text(formats.dumps_canonical(trace_obj))
    human = (
        f"reduced to {args.dst}: {out_inst.graph.n} vertices,"
        f" budget {out_inst.budget}\ngraph: {graph_path}\ntrace: {trace_path}"
    )
    _emit(args, human, {**trace_obj, "graphFile": str(graph_path),
                        "traceFile": str(trace_path)})
    return 0


# ---------------------------------------------------------------------------
# verify / lowerbound
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    g = formats.load_graph(args.graph)
    cert = formats.load_certificate(args.certificate)
    if args.problem is not None and args.problem != cert.problem:
        raise FormatError(
            f"certificate is for {cert.problem}, not {args.problem}"
        )
    problem = cert.problem
    budget = args.budget if args.budget is not None else cert.budget
    try:
        if cert.kind == "cover" and problem == "scc":
            report = verify_sigma_cover(g, cert.value, budget)
        elif cert.kind == "cover" and problem == "ncc":
            report = verify_node_cover(g, cert.value, budget)
        elif cert.kind == "cover" and problem == "cevs":
            report = verify_cevs_cover(g, cert.value, budget)
        elif cert.kind == "sequence" and problem in ("cvs", "cevs"):
            report = verify_modification_sequence(g, cert.value, budget, problem)
        elif cert.kind == "packing":
            report = verify_p3_packing(g, cert.value)
        else:
            raise FormatError(f"no verifier for {problem} certificates of kind {cert.kind}")
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
    if args.output:
        cert = Certificate("cevs", packing.size, "packing", packing)
        formats.save_certificate(cert, args.output)
    kind = "exact" if args.exact_packing else "greedy"
    triples = [[str(x), str(y), str(z)] for x, y, z in packing.triples]
    human = f"lower bound {packing.size} ({kind} induced-path packing)"
    if args.output:
        human += f"\ncertificate: {args.output}"
    _emit(args, human, {"bound": packing.size, "method": kind, "triples": triples,
                        **({"certificateFile": args.output} if args.output else {})})
    return 0


# ---------------------------------------------------------------------------
# hunt
# ---------------------------------------------------------------------------


def _read_resume(path: Path) -> tuple[tuple[int, int] | None, list[tuple], int]:
    """The (n, index) of the last complete report in `path`, if any, the
    (n, cutting, respecting) flags of every complete report, for the summary,
    and the length in bytes of the complete reports.

    Each report is written as one newline-terminated line, so text after the
    last newline is a report cut short by a crash: the caller cuts it off
    the file, and the run resumes after the last complete report.
    """
    if not path.exists():
        return None, [], 0
    data = path.read_bytes()
    complete = data[: data.rfind(b"\n") + 1]
    try:
        text = complete.decode()
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"{path}: not a hunt report file (not UTF-8: {exc.reason})"
        ) from exc
    last = None
    done = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if line.strip():
            try:
                obj = json.loads(line)
                n, index = obj["n"], obj["index"]
                flags = obj["existsOptimumCutting"], obj["existsOptimumRespecting"]
                # bool is a subclass of int: true is not an n of 1
                if not (type(n) is type(index) is int
                        and all(type(f) is bool for f in flags)):
                    raise TypeError("mistyped report field")
            except (ValueError, KeyError, TypeError) as exc:
                raise FormatError(f"{path} line {lineno}: not a hunt report") from exc
            last = (n, index)
            done.append((n, *flags))
    return last, done, len(complete)


def cmd_hunt(args) -> int:
    if args.graph:
        report = hunt_graph(
            formats.load_graph(args.graph), size_limit=args.size_limit_override
        )
        print(json.dumps(report_to_obj(report), sort_keys=True))
        return 0
    skip, reports, keep = None, [], 0
    if args.resume:
        skip, reports, keep = _read_resume(Path(args.output))
    # the call checks the size limit, so it comes before the file is touched
    runs = hunt(
        args.max_n,
        connected_only=args.connected,
        parallel=args.parallel,
        skip_until=skip,
        size_limit=args.size_limit_override,
    )
    sink = sys.stdout
    handle = None
    if args.output:
        handle = sink = Path(args.output).open("a" if args.resume else "w")
        if args.resume:
            handle.truncate(keep)
    try:
        for report in runs:
            print(json.dumps(report_to_obj(report), sort_keys=True), file=sink, flush=True)
            reports.append(
                (report.n, report.exists_optimum_cutting,
                 report.exists_optimum_respecting)
            )
    finally:
        if handle:
            handle.close()
    summary_sink = sys.stdout if args.output else sys.stderr
    print("n graphs cutting non-respecting", file=summary_sink)
    for n in range(1, args.max_n + 1):
        rows = [r for r in reports if r[0] == n]
        cutting = sum(1 for r in rows if r[1])
        bad = sum(1 for r in rows if not r[2])
        print(f"{n} {len(rows)} {cutting} {bad}", file=summary_sink)
    total_bad = sum(1 for r in reports if not r[2])
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
    if getattr(args, "command", None) == "hunt":
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
    try:
        return args.func(args)
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
