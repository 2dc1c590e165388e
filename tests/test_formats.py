from __future__ import annotations

import dataclasses
import itertools
import json
import random
import sys
import tracemalloc

import pytest

import oracles
import splitclust.formats as formats_module
import splitclust.graph as graph_module
from conftest import DATA, graphs_on
from splitclust.certificates import (
    EdgeAdd,
    EdgeDelete,
    ModificationSequence,
    NodeCliqueCover,
    P3Packing,
    SigmaCliqueCover,
    VertexSplit,
)
from splitclust.formats import (
    Certificate,
    FormatError,
    certificate_from_obj,
    certificate_to_obj,
    dumps_canonical,
    dumps_certificate,
    dumps_report,
    format_graph_text,
    instance_to_obj,
    kernel_trace_to_obj,
    load_certificate,
    load_graph,
    load_reports,
    loads_certificate,
    parse_graph_text,
    reduction_trace_to_obj,
    save_certificate,
    save_graph,
)
from splitclust.graph import Graph, Split, VertexId
from splitclust.hunter import hunt
from splitclust.kernel import kernelize
from splitclust.reductions import Instance, Problem, reduce_ncc_to_scc


# ---------------------------------------------------------------- graph text


def test_parse_basic_graph():
    text = "# toy\ngraph 3 2\nv a\nv b\nv c  # trailing comment\ne a b\ne b c\n"
    g = parse_graph_text(text)
    assert g.n == 3 and g.edge_count == 2
    assert g.rows == (0b010, 0b101, 0b010)


def test_format_is_stable_fixpoint():
    for g in graphs_on(4):
        text = format_graph_text(g)
        assert format_graph_text(parse_graph_text(text)) == text


def test_format_rejects_a_name_the_reader_would_cut_at_its_comment(tmp_path):
    g = Graph.build(["a#b", "c", "d#"], [("a#b", "c")])
    with pytest.raises(FormatError, match="^vertex a#b holds '#', which starts a comment"):
        format_graph_text(g)
    with pytest.raises(FormatError, match="^vertex a#b holds"):
        save_graph(g, tmp_path / "g.graph")
    assert not (tmp_path / "g.graph").exists()


def test_fixture_files_round_trip():
    for name in ("ccl8.graph", "p3.graph", "k3.graph"):
        path = DATA / name
        g = load_graph(path)
        assert format_graph_text(g) == path.read_text()


def test_save_load_graph(tmp_path):
    g = Graph.build(["x", "y.0"], [("x", "y.0")])
    save_graph(g, tmp_path / "t.graph")
    assert load_graph(tmp_path / "t.graph") == g


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "missing 'graph"),
        ("v a\ngraph 1 0\n", "line 1: expected header 'graph <n> <m>'"),
        ("graph two 1\n", "line 1"),
        ("graph 0 -1\n", "line 1: vertex and edge counts must be non-negative"),
        ("graph 1 0\nw a\n", "unknown directive"),
        ("graph 1 0\nv a\nv a\n", "duplicate vertex"),
        ("graph 2 1\nv a\nv b\ne a a\n", "self-loop"),
        ("graph 2 1\nv a\nv b\ne a c\n", "not a declared vertex"),
        ("graph 2 2\nv a\nv b\ne a b\ne b a\n", "duplicate edge"),
        ("graph 3 1\nv a\nv b\ne a b\n", "announces 3 vertices"),
        ("graph 1 0\nv a.2\n", "line 2"),
        ("graph 1 0\nv a b c\n", "expected 'v <id>'"),
        ("graph 2 0\nv c.0.1\nv c\n", "line 2: vertex c.0.1 is a split copy of vertex c"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(FormatError) as info:
        parse_graph_text(text)
    assert fragment in str(info.value)


@pytest.mark.parametrize(
    "text,message",
    [
        # lineage faults are reported in declaration order
        ("graph 3 0\nv c.1\nv c.0\nv c\n", "line 2: vertex c.1 is a split copy of vertex c"),
        # the self-loop check comes before the declared-vertex check
        ("graph 2 1\nv a\nv b\ne z z\n", "line 4: self-loop at z"),
        # a malformed token comes before an undeclared one, on either side
        ("graph 2 1\nv a\nv b\ne a.2 q\n",
         "line 4: branch components after dots must be 0 or 1: 'a.2'"),
        ("graph 2 1\nv a\nv b\ne q a.2\n",
         "line 4: branch components after dots must be 0 or 1: 'a.2'"),
        ("graph 2 1\nv a\nv b\ne a.2 q.x\n",
         "line 4: branch components after dots must be 0 or 1: 'a.2'"),
        ("graph 2 1\nv a\ne a b\nv b\n", "line 3: edge endpoint b is not a declared vertex"),
        # a duplicate edge is named in its own line's order
        ("graph 2 2\nv a\nv b\ne a b\ne b a\n", "line 5: duplicate edge b a"),
        # 01 and 1 are two vertices, so their edge is no self-loop and repeats
        ("graph 2 2\nv 01\nv 1\ne 01 1\ne 1 01\n", "line 5: duplicate edge 1 01"),
        # the header count is checked before lineage
        ("graph 3 0\nv c\nv c.0\n", "header announces 3 vertices / 0 edges, found 2 / 0"),
    ],
)
def test_parse_error_messages_in_full(text, message):
    """Files with more than one fault: the message names the one that wins."""
    with pytest.raises(FormatError) as info:
        parse_graph_text(text)
    assert str(info.value) == message


PARSE_NAMES = ["a", "b", "01", "1", "10", "x.1", "y.0.1", "k"]
PARSE_BAD = ["a.2", "c.", ".0", "a..0", "q.x"]


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except FormatError as exc:
        return str(exc)


def _planted_text(rng) -> str:
    """A graph file on a sample of PARSE_NAMES with 0-2 planted faults; the
    header counts the `v` and `e` lines, so only a fault stops the parse."""
    names = rng.sample(PARSE_NAMES, rng.randint(1, len(PARSE_NAMES)))
    pairs = [p if rng.random() < 0.5 else p[::-1]
             for p in itertools.combinations(names, 2) if rng.random() < 0.5]
    rng.shuffle(pairs)
    lines = [f"v {v}" for v in names] + [f"e {a} {b}" for a, b in pairs]
    extra = 0
    for _ in range(rng.randint(0, 2)):
        fault = rng.randrange(9)
        at = rng.randint(1, len(lines))
        name = rng.choice(names)
        pool = names + ["z", "c.0"] + PARSE_BAD
        if fault == 0:
            lines.insert(at, f"v {rng.choice(names + PARSE_BAD)}")
        elif fault == 1:
            lines.insert(at, "e {0} {0}".format(rng.choice(pool)))
        elif fault == 2:
            lines.insert(at, f"e {rng.choice(pool)} {rng.choice(pool)}")
        elif fault == 3 and pairs:
            a, b = rng.choice(pairs)
            lines.append(f"e {b} {a}" if rng.random() < 0.5 else f"e {a} {b}")
        elif fault == 4 and pairs:  # an edge line before one of its `v` lines
            a, b = rng.choice(pairs)
            lines.remove(f"v {a}")
            lines.append(f"v {a}")
        elif fault == 5:  # a split copy, or the name a copy was split from
            root = name.split(".")[0]
            lines.insert(at, f"v {root}" if root != name else f"v {name}.{rng.randrange(2)}")
        elif fault == 6:
            lines.insert(at, rng.choice(["w a", "e a", "v a b", "e a b c"]))
        elif fault == 7:
            extra += 1
        else:
            lines.insert(at, "# a comment\n")
    n = sum(line.startswith("v ") for line in lines)
    m = sum(line.startswith("e ") for line in lines)
    return "\n".join([f"graph {n + extra} {m}", *lines]) + "\n"


def test_parse_equals_the_name_by_name_reference():
    """parse_graph_text checks tokens and lets Graph.build map them; the
    reference parses every name it meets.  Both give the same graph or the
    same message on seeded files with 0-2 planted faults."""
    def reference(text):
        return oracles.parse_by_name(formats_module, graph_module, text)

    rng = random.Random(21)
    failures = 0
    for _ in range(1500):
        text = _planted_text(rng)
        want = _parse_outcome(reference, text)
        assert _parse_outcome(parse_graph_text, text) == want, text
        failures += isinstance(want, str)
    assert 600 < failures < 1200


def test_parse_constructs_at_most_two_names_per_vertex(monkeypatch):
    """Each `v` line is parsed once to check it and Graph.build parses it
    once more; edge endpoints are looked up by token, never parsed."""
    names = [f"v{i}" for i in range(30)] + ["c.0.1", "c.1"]
    text = format_graph_text(Graph.build(names, itertools.combinations(names, 2)))
    made = 0
    new = VertexId.__new__

    def counting_new(cls, *args):
        nonlocal made
        made += 1
        return new(cls, *args)

    monkeypatch.setattr(VertexId, "__new__", counting_new)
    g = parse_graph_text(text)
    monkeypatch.undo()
    assert g.edge_count == 32 * 31 // 2
    assert made <= 2 * g.n


# ---------------------------------------------------------------- JSON bodies


def test_dumps_canonical_is_sorted_with_newline():
    out = dumps_canonical({"b": 1, "a": [2, 1]})
    assert out.endswith("\n")
    assert out.index('"a"') < out.index('"b"')
    assert json.loads(out) == {"a": [2, 1], "b": 1}


# escapes, control characters, non-ASCII text and a character past the BMP
_JSON_TEXT = ["", "a", "Z9", " ", '"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f",
              "\u00e9", "\u2028", "\u2603", "\U0001f600"]
_JSON_SCALARS = [None, True, False, 0, -1, 7, 2**64 + 1, -(10**40), 0.5, -0.0, 1e300]


def _json_text(rng) -> str:
    return "".join(rng.choice(_JSON_TEXT) for _ in range(rng.randrange(4)))


def _json_tree(rng, depth: int = 0):
    """A container at the top, only leaves at depth 4."""
    kinds = ["list", "dict"] if depth == 0 else ["scalar", "text"]
    kind = rng.choice(kinds + (["list", "dict"] if 0 < depth < 4 else []))
    if kind == "scalar":
        return rng.choice(_JSON_SCALARS)
    if kind == "text":
        return _json_text(rng)
    if kind == "list":
        items = [_json_tree(rng, depth + 1) for _ in range(rng.randrange(4))]
        return tuple(items) if rng.random() < 0.2 else items  # a tuple is a list
    return {_json_text(rng): _json_tree(rng, depth + 1) for _ in range(rng.randrange(4))}


def test_dumps_canonical_equals_the_standard_encoder():
    rng = random.Random(22)
    trees = [{"a": [], "b": {}, "c": [[], [{}], {"d": ()}]}, [], {}, "\u00e9", 10**30]
    trees += [_json_tree(rng) for _ in range(400)]
    for obj in trees:
        assert dumps_canonical(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_instance_to_obj_literal(p3):
    assert instance_to_obj(Instance(Problem.CVS, p3, 2)) == {
        "problem": "cvs",
        "budget": 2,
        "graph": {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]},
    }


@pytest.mark.parametrize(
    "cert",
    [
        Certificate("scc", 4, "cover", SigmaCliqueCover.of([["a", "b"], ["b", "c"]])),
        Certificate("ncc", 2, "cover", NodeCliqueCover.of([["a", "b"], ["c"]])),
        Certificate("cevs", 1, "packing", P3Packing.of([("a", "b", "c")])),
        Certificate(
            "cevs",
            3,
            "sequence",
            ModificationSequence(
                (
                    EdgeAdd("a", "c"),
                    EdgeDelete("b", "c"),
                    VertexSplit(Split.of("a", ["b"], ["c"])),
                )
            ),
        ),
        Certificate("cvs", 0, "sequence", ModificationSequence(())),
    ],
)
def test_certificate_round_trip(cert):
    text = dumps_certificate(cert)
    back = loads_certificate(text)
    assert back.problem == cert.problem
    assert back.budget == cert.budget
    assert back.kind == cert.kind
    assert back.value == cert.value
    assert dumps_certificate(back) == text  # byte-stable


def test_certificate_files_round_trip(tmp_path):
    cert = Certificate("cevs", 6, "cover", SigmaCliqueCover.of([["a", "b"]]))
    save_certificate(cert, tmp_path / "c.json")
    back = load_certificate(tmp_path / "c.json")
    assert back.value == cert.value


def test_fixture_certificates_parse():
    cover = load_certificate(DATA / "two-set-cover.json")
    assert cover.kind == "cover" and cover.budget == 6 and cover.problem == "cevs"
    assert isinstance(cover.value, SigmaCliqueCover) and cover.value.weight == 9

    pack = load_certificate(DATA / "six-path-packing.json")
    assert isinstance(pack.value, P3Packing) and pack.value.size == 6

    for stem in ("a", "b", "c"):
        cert = load_certificate(DATA / f"respecting-cover-{stem}.json")
        assert isinstance(cert.value, SigmaCliqueCover)


def test_ncc_covers_deserialize_as_node_covers():
    obj = certificate_to_obj(
        Certificate("ncc", 2, "cover", NodeCliqueCover.of([["a"], ["b"]]))
    )
    back = certificate_from_obj(obj)
    assert isinstance(back.value, NodeCliqueCover)
    scc_obj = dict(obj, problem="scc")
    assert isinstance(certificate_from_obj(scc_obj).value, SigmaCliqueCover)


@pytest.mark.parametrize(
    "mangle",
    [
        lambda o: o.pop("schema"),
        lambda o: o.update(schema="splitclust.certificate/2"),
        lambda o: o.update(kind="proof"),
        lambda o: o.update(problem="sat"),
        lambda o: o.update(budget=-1),
        lambda o: o["payload"].update(sets=[[]]),
        lambda o: o["payload"].update(sets=["ab", "bc"]),
        lambda o: o["payload"].update(sets="ab"),
        lambda o: o["payload"].update(sets=[["a", 1]]),
        lambda o: o.update(payload=[["a", "b"]]),
        # bool is an int in Python; a JSON true is not a budget of 1
        lambda o: o.update(budget=True),
    ],
)
def test_certificate_validation(mangle):
    obj = certificate_to_obj(
        Certificate("scc", 2, "cover", SigmaCliqueCover.of([["a", "b"]]))
    )
    mangle(obj)
    with pytest.raises(FormatError):
        certificate_from_obj(obj)


def test_writers_refuse_what_they_do_not_know(k3):
    with pytest.raises(ValueError, match="unknown certificate kind 'proof'"):
        certificate_to_obj(Certificate("scc", 1, "proof", None))
    _, trace = kernelize(Instance(Problem.CVS, k3, 0))
    with pytest.raises(ValueError, match="unknown kernel step"):
        kernel_trace_to_obj(dataclasses.replace(trace, steps=(None,)))


def test_sequence_step_validation():
    obj = certificate_to_obj(
        Certificate("cevs", 1, "sequence", ModificationSequence((EdgeAdd("a", "b"),)))
    )
    obj["payload"]["steps"][0]["op"] = "paint"
    with pytest.raises(FormatError):
        certificate_from_obj(obj)


def _envelope(kind: str, payload) -> dict:
    return {"schema": "splitclust.certificate/1", "problem": "cevs", "budget": 3,
            "kind": kind, "payload": payload}


@pytest.mark.parametrize(
    "obj",
    [
        [1, 2],
        _envelope("sequence", {"steps": [1]}),
        _envelope("sequence", {"steps": "ab"}),
        _envelope("sequence", {"steps": [{"op": "add", "u": 1, "v": "b"}]}),
        _envelope("sequence", {"steps": [{"op": "delete", "u": "a", "v": ["b"]}]}),
        _envelope("sequence", {"steps": [
            {"op": "split", "target": "b", "left": "a", "right": ["c"]}]}),
        _envelope("sequence", {"steps": [
            {"op": "split", "target": ["b"], "left": ["a"], "right": ["c"]}]}),
        _envelope("packing", {"triples": ["abc"]}),
        _envelope("packing", {"triples": [["a", "b", 3]]}),
    ],
    ids=["top-level list", "step number", "steps string", "u number", "v list",
         "left string", "target list", "triple string", "triple number"],
)
def test_certificate_json_shapes_are_checked(obj):
    with pytest.raises(FormatError):
        certificate_from_obj(obj)


def test_a_certificate_reads_each_name_once():
    steps = [{"op": "split", "target": f"t{i}", "left": ["hub", f"x{i}"], "right": ["hub"]}
             for i in range(5)]
    steps.append({"op": "add", "u": "y", "v": "hub"})
    seq = certificate_from_obj(_envelope("sequence", {"steps": steps})).value
    hubs = [v for step in seq.steps[:5]
            for side in (step.split.neighbors_a, step.split.neighbors_b)
            for v in side if v == VertexId("hub")]
    hubs.append(seq.steps[5].u)
    assert len(hubs) == 11 and all(v is hubs[0] for v in hubs)
    cover = certificate_from_obj(_envelope("cover", {"sets": [["a", "hub"], ["b", "hub"]]}))
    a, b = ({v for v in s if v == VertexId("hub")} for s in cover.value.sets)
    assert a.pop() is b.pop()


def _split(target, left, right) -> dict:
    return {"op": "split", "target": target, "left": left, "right": right}


@pytest.mark.parametrize(
    "kind, payload, message",
    [
        ("sequence", {"steps": [_split("a", ["b.2"], [])]},
         "bad certificate object: branch components after dots must be 0 or 1: 'b.2'"),
        ("sequence", {"steps": [_split("a b", ["c"], [])]},
         "bad certificate object: bad vertex root token: 'a b'"),
        # every type is checked before any name is read
        ("sequence", {"steps": [_split("a.2", ["b"], ["c", 1])]},
         "step 0 right member must be a vertex name, not int"),
        ("sequence", {"steps": [_split("a", ["b"], []), _split("b.7", ["a"], [])]},
         "bad certificate object: branch components after dots must be 0 or 1: 'b.7'"),
        ("sequence", {"steps": [{"op": "add", "u": "a.9", "v": "b"}]},
         "bad certificate object: branch components after dots must be 0 or 1: 'a.9'"),
        ("sequence", {"steps": [_split("a", ["b"], []), {"op": "add", "u": "a", "v": 1}]},
         "step 1 v must be a vertex name, not int"),
        # a set's names are read before the next set's types are checked
        ("cover", {"sets": [["a", "b.3"], ["c", 1]]},
         "bad certificate object: branch components after dots must be 0 or 1: 'b.3'"),
        ("cover", {"sets": [["a", 1], ["b.3"]]}, "a set member must be a vertex name, not int"),
        ("cover", {"sets": [["a"], []]}, "bad certificate object: cover sets must be nonempty"),
        ("packing", {"triples": [["a", "b", "c", "d.5"]]},
         "bad certificate object: too many values to unpack (expected 3)"),
        ("packing", {"triples": [["a", "b"]]},
         "bad certificate object: not enough values to unpack (expected 3, got 2)"),
        ("packing", {"triples": [["a", "b.4", "c"]]},
         "bad certificate object: branch components after dots must be 0 or 1: 'b.4'"),
        ("sequence", {"steps": [{"op": "add"}]}, "bad certificate object: missing member 'u'"),
    ],
)
def test_certificate_error_messages_in_full(kind, payload, message):
    with pytest.raises(FormatError) as exc:
        certificate_from_obj(_envelope(kind, payload))
    assert str(exc.value) == message


def test_read_sets_are_frozensets_copied_from_sets():
    # a frozenset grown one member at a time gets a larger table than one
    # copied from a set when it has 5 to 7 members
    names = [f"v{i}" for i in range(8)]
    sets = [names[:k] for k in range(2, 9)]
    cover = certificate_from_obj(_envelope("cover", {"sets": sets})).value
    steps = [_split("t", names[:k], names[1:k]) for k in range(2, 9)]
    seq = certificate_from_obj(_envelope("sequence", {"steps": steps})).value
    sides = [*cover.sets, *SigmaCliqueCover.of(sets).sets]
    sides += [side for step in seq.steps
              for side in (step.split.neighbors_a, step.split.neighbors_b)]
    assert {len(side) for side in sides} >= {5, 6, 7}
    for side in sides:
        assert sys.getsizeof(side) == sys.getsizeof(frozenset(set(side)))


# ---------------------------------------------------------------- hunt reports


def test_hunt_reports_read_back_up_to_a_line_cut_short(tmp_path):
    reports = list(hunt(3))
    text = "".join(map(dumps_report, reports))
    assert text.count("\n") == len(reports) == 7
    path = tmp_path / "r.jsonl"
    path.write_text(text + text[:40], encoding="utf-8")  # a crash mid-write
    done, length = load_reports(path)
    assert length == len(text.encode())
    assert done == [(r.n, r.index, r.exists_optimum_cutting, r.exists_optimum_respecting)
                    for r in reports]
    assert load_reports(tmp_path / "missing.jsonl") == ([], 0)


def test_hunt_reports_skip_a_blank_line_and_count_its_byte(tmp_path):
    lines = list(map(dumps_report, hunt(3)))
    path = tmp_path / "r.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    plain = load_reports(path)
    path.write_text(lines[0] + "\n" + "".join(lines[1:]), encoding="utf-8")
    done, length = load_reports(path)
    # the blank line is no report, but --resume keeps it: its byte is counted
    assert done == plain[0] and length == plain[1] + 1 == path.stat().st_size


def test_hunt_reports_are_read_in_less_memory_than_the_file(tmp_path):
    """The reader holds one line at a time, not the file, its text and its
    lines at once."""
    lines = list(map(dumps_report, hunt(5)))
    text = "".join(itertools.islice(itertools.cycle(lines), 5000))
    path = tmp_path / "r.jsonl"
    path.write_text(text, encoding="utf-8")
    tracemalloc.start()
    try:
        done, length = load_reports(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(done) == 5000 and length == path.stat().st_size
    assert peak < length


# ---------------------------------------------------------------- traces


def test_reduction_trace_serializes(p3):
    inst = Instance(Problem.NCC, p3, 2)
    _, trace = reduce_ncc_to_scc(inst)
    obj = reduction_trace_to_obj(trace)
    assert obj["schema"] == "splitclust.trace/1"
    assert obj["kind"] == trace.kind
    assert obj["from"]["problem"] == "ncc" and obj["to"]["problem"] == "scc"
    assert obj["to"]["budget"] == 29
    assert obj["parameters"]["ell"] == 5
    json.dumps(obj)  # serializable


def test_kernel_trace_serializes(k3):
    _, trace = kernelize(Instance(Problem.CVS, k3, 0))
    obj = kernel_trace_to_obj(trace)
    assert obj["schema"] == "splitclust.trace/1"
    assert [s["rule"] for s in obj["steps"]] == ["I", "I"]
    json.dumps(obj)
