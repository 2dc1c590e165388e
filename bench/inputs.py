"""Seeded input generators for the benchmark.

Everything is generated locally from a ``random.Random``; the library under
test only ever receives the resulting ``Graph`` objects or graph text.  The
generators work on plain integer vertex numbers and edge lists and compute
their own bounds, so no library call happens while inputs are made.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Planted:
    """A planted overlapping-cluster graph on vertices 0..n-1.

    ``cover`` lists the planted clusters; every vertex lies in at least one.
    ``noise`` pairs were toggled after the clusters were made cliques, so with
    ``noise == 0`` every cluster is a clique and the clusters cover every edge.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    cover: tuple[tuple[int, ...], ...]
    noise: int

    @property
    def cost_bound(self) -> int:
        """Editing-with-splitting cost of the planted cover: an upper bound."""
        edges = set(self.edges)
        inside = {p for c in self.cover for p in itertools.combinations(c, 2)}
        additions = len(inside - edges)
        deletions = len(edges - inside)
        excess = sum(len(c) for c in self.cover) - self.n
        return additions + deletions + excess

    @property
    def weight_bound(self) -> int:
        """Weight of the planted clusters with two or more members (noise 0)."""
        return sum(len(c) for c in self.cover if len(c) >= 2)


def planted(
    rng: random.Random,
    n: int,
    sizes: tuple[int, int],
    overlap: float,
    noise: int = 0,
) -> Planted:
    """Partition 0..n-1 into clusters of the given size range, then add
    ``overlap * n`` vertices to one more cluster each and toggle ``noise``
    random vertex pairs."""
    order = list(range(n))
    rng.shuffle(order)
    clusters: list[set[int]] = []
    at = 0
    while at < n:
        size = rng.randint(*sizes)
        clusters.append(set(order[at : at + size]))
        at += size
    if len(clusters) > 1:
        for v in rng.sample(range(n), int(overlap * n)):
            rng.choice([c for c in clusters if v not in c]).add(v)
    edges = {p for c in clusters for p in itertools.combinations(sorted(c), 2)}
    for _ in range(noise):
        edges ^= {tuple(sorted(rng.sample(range(n), 2)))}
    cover = tuple(sorted(tuple(sorted(c)) for c in clusters))
    return Planted(n, tuple(sorted(edges)), cover, noise)


def gnp(rng: random.Random, n: int, p: float) -> tuple[tuple[int, int], ...]:
    """Edges of an Erdos-Renyi G(n, p) graph on 0..n-1."""
    return tuple(
        (a, b) for a, b in itertools.combinations(range(n), 2) if rng.random() < p
    )


def relabeling(index: int, n: int) -> list[int]:
    """The fixed vertex relabeling used for class ``index`` of a level.

    It depends on the class alone, not on the run seed: at n = 7 the cost of
    the cevs search changes by a factor of up to three with the vertex
    order, and a run-seeded relabeling moved the total of a fixed sample by
    13% between seeds.
    """
    perm = list(range(n))
    random.Random(f"relabel-{n}-{index}").shuffle(perm)
    return perm
