"""Spans around the library's public functions, recorded from outside.

:func:`install` replaces each traced function by a wrapper, in its own module
and in every loaded ``splitclust`` module that imported it by name, so calls
between modules (``hunter.cover_cost``, ``solvers.cover_to_splits``,
``kernel.critical_clique_graph``) are traced as well.  The returned function
puts the originals back.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
import sys
import time

# Traced public functions, by module; "Graph.build" is a classmethod.
TRACED = {
    "formats": ["parse_graph_text", "format_graph_text", "dumps_certificate", "loads_certificate"],
    "graph": ["Graph.build", "apply_split", "critical_clique_graph", "is_cluster_graph"],
    "certificates": [
        "verify_sigma_cover",
        "verify_node_cover",
        "verify_modification_sequence",
        "verify_p3_packing",
        "cover_cost",
        "cover_respects_critical_cliques",
    ],
    "reductions": [
        "cover_to_splits",
        "splits_to_cover",
        "reduce_ncc_to_scc",
        "reduce_cvs_to_cevs",
        "translate_ncc_cert_to_scc",
        "translate_scc_cert_to_ncc",
    ],
    "kernel": ["kernelize", "rule1_applicable"],
    "solvers": [
        "solve_scc_exact",
        "solve_ncc_exact",
        "solve_cvs_exact",
        "solve_cevs_exact",
        "max_p3_packing",
        "cover_to_modifications",
    ],
    "hunter": ["enumerate_graphs", "canonical_form", "hunt_graph"],
}

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


class Tracer:
    """Collects spans and per-name call counts, inclusive and self time.

    A span is (name, start_ns, end_ns, parent span index or -1, item id).
    Inclusive time counts only the outermost span of a name, so a function
    reached again below itself is not counted twice.
    """

    def __init__(self) -> None:
        self.item = "setup"
        self.spans: list[tuple[str, int, int, int, str]] = []
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.incl_ns = dict.fromkeys(SPAN_NAMES, 0)
        self.self_ns = dict.fromkeys(SPAN_NAMES, 0)
        self._stack: list[list] = []  # [span index, name, start, child ns]
        self._active = dict.fromkeys(SPAN_NAMES, 0)

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((name, 0, 0, parent, self.item))
        self._active[name] += 1
        self._stack.append([len(self.spans) - 1, name, time.perf_counter_ns(), 0])

    def exit(self) -> None:
        end = time.perf_counter_ns()
        index, name, start, child = self._stack.pop()
        duration = end - start
        _, _, _, parent, item = self.spans[index]
        self.spans[index] = (name, start, end, parent, item)
        self._active[name] -= 1
        self.calls[name] += 1
        self.self_ns[name] += duration - child
        if not self._active[name]:
            self.incl_ns[name] += duration
        if self._stack:
            self._stack[-1][3] += duration

    def total_ns(self) -> int:
        return sum(self.self_ns.values())

    def table(self) -> str:
        total = self.total_ns() or 1
        rows = sorted(SPAN_NAMES, key=lambda n: -self.self_ns[n])
        lines = [f"{'span':44} {'calls':>9} {'s':>9} {'self_s':>9} {'self%':>6}"]
        for name in rows:
            if not self.calls[name]:
                continue
            lines.append(
                f"{name:44} {self.calls[name]:9d} {self.incl_ns[name] / 1e9:9.3f}"
                f" {self.self_ns[name] / 1e9:9.3f} {100 * self.self_ns[name] / total:6.1f}"
            )
        # Self time credits a primitive (Graph.build) with the work of its
        # callers; the layer the benchmark called into owns the whole span.
        entry: dict[str, int] = {}
        for name, start, end, parent, _ in self.spans:
            if parent < 0:
                layer = name.split(".")[0]
                entry[layer] = entry.get(layer, 0) + end - start
        shares = sorted(entry.items(), key=lambda kv: -kv[1])
        lines.append("time by the layer the benchmark called: " + ", ".join(
            f"{layer} {100 * ns / total:.1f}%" for layer, ns in shares))
        return "\n".join(lines)

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, item."""
        with open(path, "w") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps([name, start, end, parent, item]) + "\n")


def _wrap(tracer: Tracer, name: str, fn):
    def traced(*args, **kwargs):
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()

    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer):
    """Route every traced function through ``tracer``; returns the undo."""
    import splitclust

    modules = [m for k, m in sys.modules.items() if k == "splitclust" or k.startswith("splitclust.")]
    undo: list[tuple[object, str, object]] = []
    for mod_name, fns in TRACED.items():
        mod = getattr(splitclust, mod_name)
        for fn_name in fns:
            name = f"{mod_name}.{fn_name}"
            if fn_name == "Graph.build":
                cls = mod.Graph
                orig = cls.__dict__["build"]
                undo.append((cls, "build", orig))
                cls.build = classmethod(_wrap(tracer, name, orig.__func__))
                continue
            orig = getattr(mod, fn_name)
            wrapped = _wrap(tracer, name, orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        undo.append((m, attr, orig))
                        setattr(m, attr, wrapped)

    def uninstall() -> None:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return uninstall
