"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload design_sweep --seed 1 \\
        --seconds 15 --trace 0

Each workload repeats whole passes over its fixed inputs until the next
pass would overrun ``--seconds``; at least one pass always runs, so a
workload whose single pass outlasts ``--seconds`` (design_sweep,
pod_scaling) runs exactly one.  Set-up runs at least three times.

Host times are noisy on a shared machine, so ``wall_s`` (median pass)
and ``setup_s`` (median set-up) are *normalized* seconds: each is timed
against a fixed reference kernel sampled alongside it and reported in
seconds of a machine on which that kernel takes
``harness.REF_NOMINAL_S`` (see ``harness.Meter``).  The raw host seconds
are the per-layer ``wall_raw_s`` and ``setup_raw_s``.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` splits the time in three: untraced passes, passes traced
with the benchmark's own spans (``repro.obs`` off, so they take the
untraced code path), and passes with a ``repro.obs`` collector active
for the obs counters.  It reports the per-layer metrics, including the
overhead of each kind of tracing over the untraced passes; its spans
and the obs counters and span totals are written to ``.perfbench/``.
Every metric is declared, with its unit and better-direction, in
``BENCHMARK.json``.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import sys
from contextlib import contextmanager
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
#: Set-up runs at least this many times, and again while the repeats
#: so far took under a second (cheap set-ups get a steadier median).
SETUP_REPEATS = 3
SETUP_MAX_REPEATS = 15


def pin_process() -> None:
    """One BLAS/OpenMP thread, and no compile cache on disk that an
    earlier run could have filled.  Call before numpy is imported."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    for var in ("REPRO_COMPILE_CACHE", "REPRO_CACHE_DIR"):
        os.environ.pop(var, None)


def _commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(root: Path) -> dict:
    import numpy

    src_lines = sum(len(p.read_text().splitlines())
                    for p in (root / "src").rglob("*.py"))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": _commit(root),
            "src_lines": src_lines}


def declared(root: Path) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def measure(workload, name: str, seed: int, seconds: float, trace: bool,
            out_dir: Path):
    """Set up, run the timed passes, and return (checker, metrics)."""
    from repro import obs

    from perfbench import harness
    from perfbench.tracing import Tracer

    obs.disable()
    setups = []
    while len(setups) < SETUP_REPEATS or (
            sum(m.seconds for m in setups) < 1.0
            and len(setups) < SETUP_MAX_REPEATS):
        meter = harness.Meter()
        state = workload.setup(seed)
        meter.tick(force=True)
        setups.append(meter)
    checker = harness.Checker()
    budget = seconds / 3 if trace else seconds
    meters, results = harness.run_passes(workload, state, budget, checker)
    first = results[0]
    if not trace:
        return checker, {
            "setup_s": median(m.normalized_s for m in setups),
            "wall_s": median(m.normalized_s for m in meters),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    setup_tracer = Tracer()
    with setup_tracer.patched():
        workload.setup(seed)
    builds = setup_tracer.named("workloads.build")

    # Span-traced passes run with repro.obs off, so they take the same
    # code path as the untraced passes (simulate_pod, for one, simulates
    # more when a collector is active).
    tracer = Tracer()
    with tracer.patched():
        traced, _ = harness.run_passes(
            workload, state, budget, checker, tracer,
            first_index=len(meters))

    # The obs counters and obs span times come from passes of their own.
    totals = harness.ObsTotals()

    @contextmanager
    def collecting():
        with obs.collecting() as collector:
            yield
        totals.add(collector)

    counted, _ = harness.run_passes(
        workload, state, budget, checker,
        first_index=len(meters) + len(traced), on_pass=collecting)
    untraced_units = median(m.ref_units for m in meters)
    metrics = {
        "setup_raw_s": median(m.seconds for m in setups),
        "wall_raw_s": median(m.seconds for m in meters),
        "workloads.build_s": sum(s.dur for s in builds),
        "workloads.ir_ops": sum(s.ops for s in builds),
        "obs.overhead_ratio": (median(m.ref_units for m in traced)
                               / untraced_units),
        "obs.collect_ratio": (median(m.ref_units for m in counted)
                              / untraced_units),
    }
    metrics.update(harness.layer_metrics(tracer, len(traced), totals,
                                         len(counted)))
    metrics.update(workload.modeled_metrics(first))
    metrics.update(workload.host_metrics(tracer, results))
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"spans-{name}-seed{seed}.jsonl")
    (out_dir / f"obs-{name}-seed{seed}.json").write_text(json.dumps(
        {"counters": totals.counters, "span_calls": totals.span_calls,
         "span_secs": totals.span_secs}, indent=1, sort_keys=True))
    return checker, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_process()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    # Import the program from source and the benchmark as a package (not
    # its modules by bare name from the script's own directory).
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    decl = declared(ROOT)
    if args.workload not in decl["workloads"]:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{decl['workloads']}", file=sys.stderr)
        return 2
    workload = importlib.import_module(f"perfbench.{args.workload}")
    checker, metrics = measure(workload, args.workload, args.seed,
                               args.seconds, bool(args.trace),
                               ROOT / ".perfbench")

    units = decl["per_layer" if args.trace else "end_to_end"]
    extra = sorted(set(metrics) - set(units))
    if extra:
        print(f"undeclared metrics: {extra}", file=sys.stderr)
        return 1
    values = {name: float(metrics.get(name, 0.0)) for name in units}

    env = environment(ROOT)
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# workload={args.workload} seed={args.seed} "
          f"trace={args.trace} attempted={checker.attempted} "
          f"failed={checker.failed}")
    for name, value in values.items():
        print(f"{name:40s} {value:>20.6g} {units[name]}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
