"""Text and JSON wire formats.

Graphs travel as a line-oriented text format::

    # comment
    graph <n> <m>
    v <id>
    e <id> <id>

Ids are whitespace-free tokens; dot-separated suffix components are reserved
for split copies and must be 0 or 1, so a file may not declare both a name
and one of its copies (c and c.0.1).  Duplicate edges, self-loops, undeclared
endpoints, and count mismatches are parse errors.  Budgets never live in the
graph file; they travel on the command line or in certificate envelopes.

Certificates and traces (which embed their instances) travel as JSON
envelopes with a schema tag, hunt reports as one JSON line each; a
certificate's payload is read into the value type that
`certificates.CERTIFICATE_KINDS` gives its (problem, kind).
Serialization is canonical and byte-stable: members are emitted in the
library's vertex order and objects with sorted keys, so writing the same
value twice produces identical bytes.  :func:`dumps_canonical` is the one
writer of indented JSON: a short recursive one whose text is byte for byte what
``json.dumps`` writes with ``sort_keys=True`` and ``indent=2``, plus a
newline.  The standard encoder takes its pure-Python path whenever it
indents, so writing the text directly is faster; strings are escaped by the
C routine ``json.dumps`` itself uses.
Files are written and read as UTF-8, whatever the locale.  A certificate
turns each distinct vertex name into text, or a token into a
:class:`VertexId`, once, however many steps or sets name it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .certificates import (
    CERTIFICATE_KINDS,
    EdgeAdd,
    EdgeDelete,
    ModificationSequence,
    NodeCliqueCover,
    P3Packing,
    SigmaCliqueCover,
    VertexSplit,
)
from .graph import Graph, GraphError, Split, VertexId
from .kernel import IsolateRemoval, RuleIStep, RuleIIStep
from .reductions import Problem

CERTIFICATE_SCHEMA = "splitclust.certificate/1"
TRACE_SCHEMA = "splitclust.trace/1"
PROBLEMS = tuple(p.value for p in Problem)


class FormatError(Exception):
    """Malformed graph text or JSON envelope (CLI exit code 2)."""


# ---------------------------------------------------------------------------
# graph text format
# ---------------------------------------------------------------------------


def parse_graph_text(text: str) -> Graph:
    # VertexId.parse is one-to-one on the tokens it accepts (a root holds no
    # "." and a branch is "0" or "1"), so a dict of declared tokens decides
    # "declared", "duplicate vertex" and "duplicate edge".  A token is parsed only
    # to check a `v` line or an undeclared endpoint; Graph.build maps the rest.
    header: tuple[int, int] | None = None
    declared: dict[str, int] = {}  # token -> its line, in declaration order
    edges: list[tuple[str, str]] = []
    seen_edges: set[tuple[str, str]] = set()

    def fail(lineno: int, msg: str) -> None:
        raise FormatError(f"line {lineno}: {msg}")

    def check(lineno: int, token: str) -> None:
        try:
            VertexId.parse(token)
        except GraphError as exc:
            fail(lineno, str(exc))

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
            v = fields[1]
            check(lineno, v)
            if v in declared:
                fail(lineno, f"duplicate vertex {v}")
            declared[v] = lineno
        elif fields[0] == "e":
            if len(fields) != 3:
                fail(lineno, "expected 'e <id> <id>'")
            _, u, w = fields
            for t in (u, w):
                if t not in declared:
                    check(lineno, t)
            if u == w:
                fail(lineno, f"self-loop at {u}")
            if u not in declared or w not in declared:
                missing = u if u not in declared else w
                fail(lineno, f"edge endpoint {missing} is not a declared vertex")
            pair = (u, w) if u < w else (w, u)
            if pair in seen_edges:
                fail(lineno, f"duplicate edge {u} {w}")
            seen_edges.add(pair)
            edges.append(pair)
        else:
            fail(lineno, f"unknown directive {fields[0]!r}")
    if header is None:
        raise FormatError("missing 'graph <n> <m>' header")
    if header != (len(declared), len(edges)):
        raise FormatError(
            f"header announces {header[0]} vertices / {header[1]} edges,"
            f" found {len(declared)} / {len(edges)}"
        )
    # a split would name its copies like these, so lineage must stay unambiguous
    for v, lineno in declared.items():
        for at in (i for i, ch in enumerate(v) if ch == "."):
            if v[:at] in declared:
                fail(lineno, f"vertex {v} is a split copy of vertex {v[:at]}")
    return Graph.build(declared, edges)


def format_graph_text(g: Graph) -> str:
    lines = [f"graph {g.n} {g.edge_count}"]
    lines += [f"v {v}" for v in g.vertices]
    lines += [f"e {u} {w}" for u, w in g.edges()]
    text = "\n".join(lines) + "\n"
    if "#" in text:  # only a name can hold one, and the reader cuts lines there
        bad = next(v for v in g.vertices if "#" in str(v))
        raise FormatError(f"vertex {bad} holds '#', which starts a comment in graph text")
    return text


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def load_graph(path: str | Path) -> Graph:
    return parse_graph_text(_read_text(path))


def save_graph(g: Graph, path: str | Path) -> None:
    Path(path).write_text(format_graph_text(g), encoding="utf-8")


# ---------------------------------------------------------------------------
# JSON helpers
# ---------------------------------------------------------------------------


_quote = json.encoder.encode_basestring_ascii


def dumps_canonical(obj) -> str:
    """`obj`, a JSON tree with string keys, as ``json.dumps`` writes it with
    ``sort_keys=True`` and ``indent=2``, byte for byte, plus a newline."""
    return _dump(obj, "\n") + "\n"


def _dump(obj, newline: str) -> str:
    """`obj` as JSON text; `newline` is a line break and the current indent.

    A member that is exactly a str is quoted in place, without a call.
    """
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        items = [_quote(v) if type(v) is str else _dump(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        items = [
            _quote(k) + ": " + (_quote(v) if type(v) is str else _dump(v, inner))
            for k, v in sorted(obj.items())
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    return json.dumps(obj)  # numbers, booleans and null


class _Memo(dict):
    """A dict that fills a missing key k with ``fn(k)``: fn runs once per key."""

    def __init__(self, fn) -> None:
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _ids(vs: Iterable[VertexId], text: _Memo) -> list[str]:
    """The sorted names of `vs` as text; `text` is a ``_Memo(str)``."""
    return list(map(text.__getitem__, sorted(vs)))


def graph_to_obj(g: Graph) -> dict:
    return {
        "vertices": [str(v) for v in g.vertices],
        "edges": [[str(u), str(w)] for u, w in g.edges()],
    }


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """A certificate envelope: what it claims and the witness itself."""

    problem: str
    budget: int
    kind: str  # cover | sequence | packing
    value: object


def _steps_to_obj(seq: ModificationSequence) -> list[dict]:
    text = _Memo(str)
    out = []
    for step in seq.steps:
        if isinstance(step, EdgeAdd):
            out.append({"op": "add", "u": text[step.u], "v": text[step.v]})
        elif isinstance(step, EdgeDelete):
            out.append({"op": "delete", "u": text[step.u], "v": text[step.v]})
        else:
            s = step.split
            out.append(
                {
                    "op": "split",
                    "target": text[s.target],
                    "left": _ids(s.neighbors_a, text),
                    "right": _ids(s.neighbors_b, text),
                }
            )
    return out


_EXPECTED = {dict: "a JSON object", list: "a JSON list", str: "a vertex name"}


def _expect(value, kind: type, what: str):
    if not isinstance(value, kind):
        raise FormatError(f"{what} must be {_EXPECTED[kind]}, not {type(value).__name__}")
    return value


def _names(value, what: str) -> list[str]:
    names = _expect(value, list, what)
    for v in names:
        if not isinstance(v, str):
            _expect(v, str, f"{what} member")  # raises
    return names


def _id_set(names: list[str], ids: _Memo) -> frozenset[VertexId]:
    # copied from a set, a frozenset gets the table a set of its size needs
    return frozenset(set(map(ids.__getitem__, names)))


def _steps_from_obj(items, ids: _Memo) -> list:
    steps = []
    for i, item in enumerate(_expect(items, list, "steps")):
        item = _expect(item, dict, f"step {i}")
        op = item.get("op")
        if op in ("add", "delete"):
            u, v = (_expect(item[k], str, f"step {i} {k}") for k in ("u", "v"))
            edge = EdgeAdd if op == "add" else EdgeDelete
            steps.append(edge(ids[u], ids[v]))
        elif op == "split":
            target = _expect(item["target"], str, f"step {i} target")
            left = _names(item["left"], f"step {i} left")
            right = _names(item["right"], f"step {i} right")
            split = Split(ids[target], _id_set(left, ids), _id_set(right, ids))
            steps.append(VertexSplit(split))
        else:
            raise FormatError(f"unknown modification op {op!r}")
    return steps


def cover_to_obj(cover: SigmaCliqueCover | NodeCliqueCover) -> list[list[str]]:
    """A cover's sets, in the cover's order, each as its sorted member names."""
    text = _Memo(str)
    return [_ids(s, text) for s in cover.sets]


def packing_to_obj(packing: P3Packing) -> list[list[str]]:
    return [[str(x), str(y), str(z)] for x, y, z in packing.triples]


def _sets_from_obj(sets, ids: _Memo) -> list[frozenset[VertexId]]:
    return [_id_set(_names(s, "a set"), ids) for s in _expect(sets, list, "sets")]


def _triples_from_obj(triples, ids: _Memo) -> list[tuple[VertexId, VertexId, VertexId]]:
    named = (_names(t, "a triple") for t in _expect(triples, list, "triples"))
    return [(ids[x], ids[y], ids[z]) for x, y, z in named]


# kind -> (payload member, writer of a value, reader of its items)
_PAYLOADS = {
    "cover": ("sets", cover_to_obj, _sets_from_obj),
    "sequence": ("steps", _steps_to_obj, _steps_from_obj),
    "packing": ("triples", packing_to_obj, _triples_from_obj),
}


def certificate_to_obj(cert: Certificate) -> dict:
    if cert.kind not in _PAYLOADS:
        raise ValueError(f"unknown certificate kind {cert.kind!r}")
    member, write, _ = _PAYLOADS[cert.kind]
    return {
        "schema": CERTIFICATE_SCHEMA,
        "problem": cert.problem,
        "budget": cert.budget,
        "kind": cert.kind,
        "payload": {member: write(cert.value)},
    }


def certificate_from_obj(obj) -> Certificate:
    try:
        obj = _expect(obj, dict, "certificate")
        if obj.get("schema") != CERTIFICATE_SCHEMA:
            raise FormatError(f"unknown certificate schema {obj.get('schema')!r}")
        problem = obj["problem"]
        if problem not in PROBLEMS:
            raise FormatError(f"unknown problem {problem!r}")
        budget = obj["budget"]
        # bool is a subclass of int: a JSON true is not a budget of 1
        if not isinstance(budget, int) or isinstance(budget, bool) or budget < 0:
            raise FormatError("budget must be a non-negative integer")
        kind = obj["kind"]
        payload = _expect(obj["payload"], dict, "payload")
        if not isinstance(kind, str) or kind not in _PAYLOADS:
            raise FormatError(f"unknown certificate kind {kind!r}")
        member, _, read = _PAYLOADS[kind]
        items = read(payload[member], _Memo(VertexId.parse))  # one VertexId per token
        # a payload's own faults are named before a pair no verifier takes
        if (problem, kind) not in CERTIFICATE_KINDS:
            raise FormatError(f"no verifier for {problem} certificates of kind {kind}")
        value = CERTIFICATE_KINDS[problem, kind][0].of(items)
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError, GraphError) as exc:
        raise FormatError(f"bad certificate object: {exc}") from exc
    return Certificate(problem, budget, kind, value)


def dumps_certificate(cert: Certificate) -> str:
    return dumps_canonical(certificate_to_obj(cert))


def loads_certificate(text: str) -> Certificate:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"certificate is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FormatError("certificate JSON is nested too deeply") from exc
    return certificate_from_obj(obj)


def load_certificate(path: str | Path) -> Certificate:
    return loads_certificate(_read_text(path))


def save_certificate(cert: Certificate, path: str | Path) -> None:
    Path(path).write_text(dumps_certificate(cert), encoding="utf-8")


# ---------------------------------------------------------------------------
# hunt reports
# ---------------------------------------------------------------------------


def report_to_obj(report) -> dict:
    def cover_obj(cover: SigmaCliqueCover | None):
        return None if cover is None else cover_to_obj(cover)

    return {
        "schema": "splitclust.hunt/1",
        "n": report.n,
        "index": report.index,
        "canonical": report.canonical,
        "graph": graph_to_obj(report.graph),
        "optimum": report.optimum,
        "optimalCovers": report.optimal_covers,
        "existsOptimumCutting": report.exists_optimum_cutting,
        "existsOptimumRespecting": report.exists_optimum_respecting,
        "witnessCutting": cover_obj(report.witness_cutting),
        "witnessRespecting": cover_obj(report.witness_respecting),
    }


def dumps_report(report) -> str:
    """The report as one newline-terminated line of JSON with sorted keys."""
    return json.dumps(report_to_obj(report), sort_keys=True) + "\n"


def load_reports(path: Path) -> tuple[list[tuple[int, int, bool, bool]], int]:
    """The (n, index, cutting, respecting) of every complete report in
    `path`, in file order, and their length in bytes; none if there is no
    `path`.  Each report is one newline-terminated line, so text after the
    last newline is a report cut short by a crash, for the caller to cut off.
    """
    if not path.exists():
        return [], 0
    data = path.read_bytes()
    complete = data[: data.rfind(b"\n") + 1]
    try:
        text = complete.decode()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not a hunt report file (not UTF-8: {exc.reason})") from exc
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
            done.append((n, index, *flags))
    return done, len(complete)


# ---------------------------------------------------------------------------
# instances and traces
# ---------------------------------------------------------------------------


def instance_to_obj(inst) -> dict:
    return {
        "problem": str(inst.problem.value),
        "budget": inst.budget,
        "graph": graph_to_obj(inst.graph),
    }


def reduction_trace_to_obj(trace) -> dict:
    return {
        "schema": TRACE_SCHEMA,
        "kind": trace.kind,
        "from": instance_to_obj(trace.source),
        "to": instance_to_obj(trace.target),
        "parameters": trace.parameters,
    }


def kernel_trace_to_obj(trace) -> dict:
    text = _Memo(str)
    steps = []
    for step in trace.steps:
        if isinstance(step, IsolateRemoval):
            steps.append({"rule": "isolate-removal", "vertices": _ids(step.vertices, text)})
        elif isinstance(step, RuleIStep):
            steps.append(
                {
                    "rule": "I",
                    "removed": text[step.removed],
                    "cascaded": _ids(step.cascaded, text),
                }
            )
        elif isinstance(step, RuleIIStep):
            steps.append({"rule": "II"})
        else:
            raise ValueError(f"unknown kernel step {step!r}")
    return {
        "schema": TRACE_SCHEMA,
        "kind": "kernelize",
        "from": instance_to_obj(trace.source),
        "to": instance_to_obj(trace.target),
        "steps": steps,
    }
