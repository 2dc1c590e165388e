from __future__ import annotations

import itertools
from pathlib import Path

import pytest

from splitclust import Graph
from splitclust.formats import load_graph

DATA = Path(__file__).parent / "data"


def oracle_form(g: Graph):
    """Convert a Graph into the (names, edges) shape oracles.py expects."""
    names = tuple(sorted(str(v) for v in g.vertices))
    edges = frozenset(
        tuple(sorted((str(u), str(v)))) for u, v in g.edges()
    )
    return names, edges


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


@pytest.fixture(scope="session")
def ccl8() -> Graph:
    return load_graph(DATA / "ccl8.graph")


@pytest.fixture(scope="session")
def p3() -> Graph:
    return Graph.build("abc", [("a", "b"), ("b", "c")])


@pytest.fixture(scope="session")
def k3() -> Graph:
    return Graph.build("abc", [("a", "b"), ("b", "c"), ("a", "c")])
