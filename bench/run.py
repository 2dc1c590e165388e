#!/usr/bin/env python3
"""The splitclust benchmark.  Run from the repository root:

    python3 bench/run.py --workload hunt7 --seed 1 --seconds 30 --trace 0

One process, one client, a closed loop: items run one after another in a
fixed seeded order, each checked as soon as it returns.  Items come in
passes.  The seed fixes a workload's inputs; every pass rebuilds them untimed
and runs the same items again, so each item is timed once per pass.  Passes
repeat until ``--seconds`` of timed work is spent (at least three passes).

Times are CPU times, scaled to a fixed machine speed.  The library runs in
one thread and waits for nothing but small certificate files, so its CPU
time is the wall time it would take on an unshared machine; on a shared one
the wall time also holds the time other tenants kept the CPU.  A reference
computation is timed between items (see ``speed.py``), and each item's CPU
time is scaled by the reference's CPU time around it.  An item's time is the
median of its scaled repetitions, and cpu_s, their sum, is the time of one
pass.  item_p50_ms and item_p90_ms are quantiles of all scaled repetitions.
setup_s is the median of several full set-ups, each from a fresh import and
scaled the same way.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` sets up once and
runs every pass twice, first untraced and then traced through wrappers around
the library's public functions (see ``spans.py``), and prints the per-layer
metrics of the traced set-up and the traced first pass, a self-time table,
and the tracing overhead.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The library is imported from ``src/`` next to this directory; the benchmark
exits with code 2 when it is not there.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MODULES = ("graph", "formats", "certificates", "reductions", "kernel", "solvers", "hunter")
DEFAULT_SEED = 1
SETUP_REPS = (3, 15)  # untraced set-ups per run: at least 3, at most 15,
SETUP_MIN_S = 1.0  # and more than 3 until they add up to this many seconds
SETUP_LIMIT_S = 60  # a set-up running longer fails the run
MIN_PASSES = 3  # repetitions of each item in an untraced run
ITEM_LIMIT_S = 30  # a runaway item fails instead of hanging the run
RUN_LIMIT_S = 140  # no item starts after this; the items left fail
DIGESTS = BENCH / "digests.json"  # answers of pass 0 for DEFAULT_SEED


class ItemTimeout(BaseException):
    """An item ran past ITEM_LIMIT_S.  Not an Exception, so that no handler
    inside the library can swallow it."""


def _alarm(signum, frame):
    raise ItemTimeout()


def import_library() -> SimpleNamespace:
    """Import splitclust afresh, so each set-up repetition pays the import and
    starts from empty module-level caches (the hunter's levels)."""
    for name in [k for k in sys.modules if k == "splitclust" or k.startswith("splitclust.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"splitclust.{m}") for m in MODULES})


def run_pass(items, reps: dict, failures: list, started: float, speed, tracer=None) -> tuple[float, float]:
    """Run the items in order, adding (start, cpu s) of each to its list in
    ``reps`` and timing the reference between them; returns the pass's wall
    and CPU seconds.  Once the run is RUN_LIMIT_S old, the items not yet
    started fail."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for k, (item_id, fn) in enumerate(items):
        if time.perf_counter() - started > RUN_LIMIT_S:
            failures += [f"{left}: not started, the run passed {RUN_LIMIT_S} s" for left, _ in items[k:]]
            break
        if tracer:
            tracer.item = item_id
        speed.maybe_probe()
        c0, t0 = time.process_time(), time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, ITEM_LIMIT_S)
        try:
            fn()
        except ItemTimeout:
            failures.append(f"{item_id}: ran past {ITEM_LIMIT_S} s")
        except Exception as exc:
            if not failures:
                traceback.print_exc()
            failures.append(f"{item_id}: {type(exc).__name__}: {exc}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        reps.setdefault(item_id, []).append((t0, time.process_time() - c0))
    return time.perf_counter() - wall0, time.process_time() - cpu0


def more_passes(done: int, spent: float, args, started: float) -> bool:
    """Another pass while it fits in --seconds; the untraced run also needs
    MIN_PASSES passes, the traced run one."""
    if time.perf_counter() - started > RUN_LIMIT_S:
        return False
    if done < (1 if args.trace else MIN_PASSES):
        return True
    return spent + spent / done <= args.seconds


def more_setups(times: list[float], args, started: float) -> bool:
    """Another set-up?  None starts after RUN_LIMIT_S / 3, and each ends
    within SETUP_LIMIT_S, so the first item always starts."""
    if not times:
        return True
    if args.trace or len(times) >= SETUP_REPS[1] or time.perf_counter() - started > RUN_LIMIT_S / 3:
        return False
    return len(times) < SETUP_REPS[0] or sum(times) < SETUP_MIN_S


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["hunt7", "solve-desk", "poly-large"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "splitclust" / "__init__.py").is_file():
        print(f"bench: no splitclust sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)
    import spans as tracing
    import workloads
    from speed import WINDOW, Speed

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        make_workload = {
            "hunt7": workloads.Hunt7,
            "solve-desk": lambda: workloads.SolveDesk(Path(tmp)),
            "poly-large": workloads.PolyLarge,
        }[args.workload]
        failures: list[str] = []  # items that failed
        problems: list[str] = []  # checks on the run as a whole
        tracer0 = tracing.Tracer() if args.trace else None

        # Set-up: import, warm-up, the workload's own set-up (the hunter level
        # build) and the inputs of pass 0.  The untraced run repeats it and
        # reports the median; the traced run sets up once, traced.
        speed = Speed()
        setup_times: list[float] = []  # wall
        setup_scaled: list[float] = []  # scaled CPU
        while more_setups(setup_times, args, started):
            lib = workload = first = undo = None  # the previous set-up's state goes first
            gc.collect()
            speed.probe(WINDOW)
            t0, c0 = time.perf_counter(), time.process_time()
            signal.setitimer(signal.ITIMER_REAL, SETUP_LIMIT_S)
            try:
                lib = import_library()
                undo = tracing.install(tracer0) if tracer0 else None
                workload = make_workload()
                workloads.warm_up(lib)
                workload.setup(lib)
                first = workload.make_pass(lib, args.seed, 0)
            except (Exception, ItemTimeout):
                print(f"bench: set-up failed:\n{traceback.format_exc()}", file=sys.stderr)
                return 1
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                if undo:
                    undo()
            setup_times.append(time.perf_counter() - t0)
            cpu = time.process_time() - c0
            speed.probe(WINDOW)
            setup_scaled.append(cpu * speed.scale(t0))

        reps: dict[str, list] = {}  # item id -> [(start, cpu)] of the untraced passes
        walls, cpus, traced_cpus = [], [], []
        attempted = 0
        spent = 0.0
        digest = counts0 = None
        p = 0
        while more_passes(len(walls), spent, args, started):
            batch = first if p == 0 else workload.make_pass(lib, args.seed, p)
            wall, cpu = run_pass(batch.items, reps, failures, started, speed)
            attempted += len(batch.items)
            walls.append(wall)
            cpus.append(cpu)
            spent += wall
            if p == 0:
                digest = batch.digest()
            if tracer0:
                # The same inputs, rebuilt, through the wrappers.
                twin = workload.make_pass(lib, args.seed, p)
                tracer = tracer0 if p == 0 else tracing.Tracer()
                undo = tracing.install(tracer)
                try:
                    wall, cpu = run_pass(twin.items, {}, failures, started, speed, tracer)
                finally:
                    undo()
                attempted += len(twin.items)
                traced_cpus.append(cpu)
                spent += wall
                if p == 0:
                    counts0 = twin.counts
                    if twin.counts != batch.counts or twin.digest() != digest:
                        problems.append("traced pass 0 disagrees with its untraced twin")
            p += 1
        speed.probe(WINDOW)

    pinned = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    if args.seed == DEFAULT_SEED and args.workload in pinned and pinned[args.workload] != digest:
        problems.append(f"answer digest {digest} differs from the pinned {pinned[args.workload]}")

    for line in failures[:5] + problems:
        print(f"FAILED {line}", file=sys.stderr)
    failed = len(failures)
    print(f"workload {args.workload} seed {args.seed} machine {json.dumps(machine())}")
    print(f"passes {len(walls)} items {len(reps)} per pass, digest(pass 0) {digest}")
    print("set-up walls " + " ".join(f"{t:.3f}" for t in setup_times))
    print("pass walls " + " ".join(f"{w:.3f}" for w in walls))
    print("pass CPU times " + " ".join(f"{c:.3f}" for c in cpus))
    print(f"failed_frac {failed / max(attempted, 1):.4f} ratio ({failed} of {attempted})")

    if tracer0:
        overhead = statistics.median(t - u for t, u in zip(traced_cpus, cpus))
        tracer0.dump(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        print("self time, traced set-up and pass 0:")
        print(tracer0.table())
        metrics = {}
        for name in tracing.SPAN_NAMES:
            metrics[f"{name}.calls"] = (tracer0.calls[name], "count")
            metrics[f"{name}.s"] = (tracer0.incl_ns[name] / 1e9, "s")
            metrics[f"{name}.self_s"] = (tracer0.self_ns[name] / 1e9, "s")
        for name, unit in workloads.COUNTS.items():
            metrics[name] = ((counts0 or {}).get(name, 0), unit)
        metrics["trace.overhead_s"] = (overhead, "s")
        print(f"tracing overhead {overhead:.4f} s per pass (traced minus untraced CPU time)")
    else:
        scaled = [[c * speed.scale(t) for t, c in runs] for runs in reps.values()]
        cpu_s = sum(statistics.median(runs) for runs in scaled)
        ms = [c * 1000 for runs in scaled for c in runs]
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "cpu_s": (cpu_s, "s"),
            "items_per_s": (len(scaled) / cpu_s, "1/s"),
            "item_p50_ms": (statistics.median(ms), "ms"),
            "item_p90_ms": (statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else ms[0], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")

    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
