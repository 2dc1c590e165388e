from __future__ import annotations

import itertools
from pathlib import Path

import pytest

import oracles
from splitclust.certificates import EdgeAdd, SigmaCliqueCover, VertexSplit
from splitclust.formats import load_graph
from splitclust.graph import Graph, GraphEditor
from splitclust.kernel import IsolateRemoval, RuleIIStep, RuleIStep

DATA = Path(__file__).parent / "data"


def oracle_form(g: Graph):
    """Convert a Graph into the (names, edges) shape oracles.py expects."""
    names = tuple(sorted(str(v) for v in g.vertices))
    edges = frozenset(
        tuple(sorted((str(u), str(v)))) for u, v in g.edges()
    )
    return names, edges


def oracle_steps(seq):
    """Convert a ModificationSequence into the named steps oracles.py replays."""
    out = []
    for step in seq.steps:
        if isinstance(step, VertexSplit):
            split = step.split
            sides = (frozenset(map(str, split.neighbors_a)), frozenset(map(str, split.neighbors_b)))
            out.append(("split", str(split.target), *sides))
        else:
            out.append(("add" if isinstance(step, EdgeAdd) else "delete", str(step.u), str(step.v)))
    return out


def replay_kernel_trace(inst, out, trace) -> tuple[int, int]:
    """Replay a kernelize trace through the name-level Rule I oracle.

    The isolated vertices go first.  Each Rule I step deletes the vertex
    the oracle picks on what the earlier steps left, and cascades what that
    deletion isolates.  Rule I ends exhausted, and Rule II comes last and
    only past 3k vertices.  Returns the Rule I steps and cascades replayed.
    """
    names, edges = oracle_form(inst.graph)
    k, steps = inst.budget, list(trace.steps)
    iso = sorted((v for v in names if not oracles.neighbors(names, edges, v)),
                 key=oracles.parse_vertex_name)
    if iso:
        step = steps.pop(0)
        assert isinstance(step, IsolateRemoval) and [str(v) for v in step.vertices] == iso
        names = tuple(v for v in names if v not in iso)
    rule2 = steps[-1:] == [RuleIIStep()]
    removals = cascades = 0
    for step in steps[: len(steps) - rule2]:
        assert isinstance(step, RuleIStep)
        assert str(step.removed) == oracles.rule1_pick(names, edges)
        names, edges, cascaded = oracles.rule1_step(names, edges, str(step.removed))
        assert tuple(map(str, step.cascaded)) == cascaded
        removals += 1
        cascades += bool(cascaded)
    assert oracles.rule1_pick(names, edges) is None
    if rule2:
        assert len(names) > 3 * k and out.graph.n == 3 and out.budget == 0
    else:
        assert oracle_form(out.graph) == (names, edges) and out.budget == k
    return removals, cascades


def graphs_on(n: int):
    """All labeled graphs on vertices "0".."n-1", one per edge subset."""
    names = [str(i) for i in range(n)]
    pairs = list(itertools.combinations(names, 2))
    for mask in range(1 << len(pairs)):
        yield Graph.build(names, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def relabeled(g: Graph, rng) -> Graph:
    """`g`, with vertices "0".."n-1", under a permutation of the names that
    `rng` shuffles; the permutation moves the vertices' index order."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    names = [str(v) for v in perm]
    return Graph.build(
        names, [(names[int(str(u))], names[int(str(w))]) for u, w in g.edges()]
    )


# Numeric, hierarchical and nested names ("c.0.1" and "x.0.0" descend from
# the 0-copies of "c" and "x").
PLANTED_NAMES = ["c", "c.0.1", "07", "7", "x", "x.0.0", "10", "2", "a.1"]


def planted(rng, n, sizes, overlap, noise=0):
    """A seeded planted-overlap graph and its planted cover, no singletons."""
    names = (PLANTED_NAMES + [f"v{i}" for i in range(n)])[:n]
    rng.shuffle(names)
    clusters, at = [], 0
    while at < n:
        size = rng.randint(*sizes)
        clusters.append(set(names[at : at + size]))
        at += size
    if len(clusters[-1]) == 1:
        last = clusters.pop()
        clusters[-1] |= last
    for v in rng.sample(names, int(overlap * n)):
        others = [c for c in clusters if v not in c]
        if others:  # else one cluster holds every vertex
            rng.choice(others).add(v)
    edges = {p for c in clusters for p in itertools.combinations(sorted(c), 2)}
    for _ in range(noise):
        edges ^= {tuple(sorted(rng.sample(names, 2)))}
    return Graph.build(names, edges), SigmaCliqueCover.of(clusters)


@pytest.fixture
def editors(monkeypatch) -> list[Graph]:
    """The graph of each GraphEditor the test constructs, in order."""
    made: list[Graph] = []
    init = GraphEditor.__init__

    def counting_init(self, g):
        made.append(g)
        init(self, g)

    monkeypatch.setattr(GraphEditor, "__init__", counting_init)
    return made


@pytest.fixture(scope="session")
def ccl8() -> Graph:
    return load_graph(DATA / "ccl8.graph")


@pytest.fixture(scope="session")
def p3() -> Graph:
    return Graph.build("abc", [("a", "b"), ("b", "c")])


@pytest.fixture(scope="session")
def k3() -> Graph:
    return Graph.build("abc", [("a", "b"), ("b", "c"), ("a", "c")])
