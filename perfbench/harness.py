"""What every workload shares: correctness accounting, the timed pass
loop, obs aggregation and the per-layer metrics read from spans."""

from __future__ import annotations

import sys
import time
import traceback
from contextlib import contextmanager, nullcontext

from perfbench.stats import ratio
from perfbench.tracing import Tracer


class Checker:
    """Counts work items and the items whose correctness checks failed.

    A failed check or an exception inside an item marks that item
    failed, prints why to stderr and lets the run continue, so every
    failure reaches ``fail_ratio`` instead of aborting the run.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self._item_failed = False
        self._label = ""

    @contextmanager
    def item(self, label: str):
        self.attempted += 1
        self._item_failed = False
        self._label = label
        try:
            yield
        except Exception:  # an item that raises is a failed item
            traceback.print_exc(file=sys.stderr)
            self._fail("raised")
        finally:
            self._label = ""

    def expect(self, ok: bool, what: str) -> bool:
        if not ok:
            self._fail(what)
        return ok

    def _fail(self, what: str) -> None:
        print(f"check failed [{self._label}]: {what}", file=sys.stderr)
        if not self._item_failed:
            self._item_failed = True
            self.failed += 1


class ObsTotals:
    """Counters and span totals of ``repro.obs``, summed over passes."""

    def __init__(self):
        self.counters: dict[str, float] = {}
        self.span_calls: dict[str, int] = {}
        self.span_secs: dict[str, float] = {}

    def add(self, collector) -> None:
        for name, value in collector.counters.items():
            self.counters[name] = self.counters.get(name, 0.0) + value
        for name, (calls, secs) in collector.span_totals().items():
            self.span_calls[name] = self.span_calls.get(name, 0) + calls
            self.span_secs[name] = self.span_secs.get(name, 0.0) + secs

    def count(self, *names: str) -> float:
        return sum(self.counters.get(n, 0.0) for n in names)

    def calls(self, *names: str) -> int:
        return sum(self.span_calls.get(n, 0) for n in names)

    def secs(self, *names: str) -> float:
        return sum(self.span_secs.get(n, 0.0) for n in names)

    def hit_ratio(self, prefix: str) -> float:
        hits = self.count(f"{prefix}.hit")
        return ratio(hits, hits + self.count(f"{prefix}.miss"))


#: Seconds between reference-kernel samples inside a pass.
REF_INTERVAL_S = 0.5

#: The reference kernel's time on an idle 2-vCPU x86-64 host; converts
#: reference units back to seconds of such a machine.
REF_NOMINAL_S = 0.04

_REF_MODULUS = (1 << 31) - 1


def reference_seconds() -> float:
    """Time a fixed ~40 ms kernel mixing the program's two cost sources:
    interpreted Python (dict and float work) and small-array numpy
    modular arithmetic.  The kernel never changes, so its time tracks
    only how fast the shared machine is running right now."""
    import numpy as np

    a = (np.arange(1, 8193, dtype=np.int64) * 7919
         % (1 << 30)).reshape(16, 512)
    t0 = time.perf_counter()
    acc: dict[int, float] = {}
    for i in range(100_000):
        k = i & 511
        acc[k] = acc.get(k, 0.0) * 0.5 + i
    x = a
    for _ in range(450):
        x = (x * a) % _REF_MODULUS
        x = x[:, ::-1].copy()
    return time.perf_counter() - t0


class Meter:
    """Times one pass in host seconds and in normalized seconds.

    Workloads call :meth:`tick` between work items; about once per
    :data:`REF_INTERVAL_S` it samples :func:`reference_seconds` and
    charges the segment since the last sample at the mean reference
    time of its two ends.  A neighbour on the shared machine that slows
    the pass slows the kernel too, so the normalized time (reference
    units times :data:`REF_NOMINAL_S`) is much steadier from run to run
    than the host seconds.  Kernel time is excluded from both figures.
    """

    def __init__(self):
        self.seconds = 0.0
        self.ref_units = 0.0
        self._ref = reference_seconds()
        self._t = time.perf_counter()

    def tick(self, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and now - self._t < REF_INTERVAL_S:
            return
        ref = reference_seconds()
        segment = now - self._t
        self.seconds += segment
        self.ref_units += segment / ((self._ref + ref) / 2)
        self._ref = ref
        self._t = time.perf_counter()

    @property
    def normalized_s(self) -> float:
        return self.ref_units * REF_NOMINAL_S

    @contextmanager
    def excluded(self):
        """Leave the ``with`` body (the benchmark's own input generation
        and checking) out of the pass time."""
        self.tick(force=True)
        try:
            yield
        finally:
            self._t = time.perf_counter()


def run_passes(workload, state, budget_s: float, checker: Checker,
               tracer=None, first_index: int = 0, on_pass=None):
    """Run whole passes until the next one would overrun ``budget_s``.

    At least one pass always runs.  Returns the pass :class:`Meter`
    readings and the pass results.  ``tracer`` defaults to a fresh,
    unpatched :class:`Tracer`; ``on_pass`` wraps each pass (the traced
    run uses it to collect obs counters per pass).
    """
    tracer = tracer if tracer is not None else Tracer()
    meters, results = [], []
    start = time.perf_counter()
    while True:
        index = first_index + len(meters)
        t0 = time.perf_counter()
        meter = Meter()
        with on_pass() if on_pass is not None else nullcontext():
            results.append(workload.run_pass(state, tracer, checker, meter,
                                             index))
        meter.tick(force=True)
        meters.append(meter)
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > budget_s:
            return meters, results


def layer_metrics(tr, passes: int, ob: ObsTotals,
                  obs_passes: int) -> dict[str, float]:
    """Per-layer host metrics every workload reports, per pass: span
    times from the ``passes`` span-traced passes, obs counters and obs
    span times from the ``obs_passes`` obs-collecting passes."""
    p, q = float(passes), float(obs_passes)
    sims = tr.named("core.simulate")
    sim_s = sum(s.dur for s in sims)
    pods = tr.named("pod.simulate_pod")
    pod_sims = [s for s in sims if tr.has_ancestor(s, "pod.simulate_pod")]
    gate = [s for s in sims if tr.parent_name(s) == "compiler.pressure"]
    lookups = [s for i, s in enumerate(tr.spans)
               if s.name == "compiler.compile_program"
               and not any(c.name in ("compiler.hoist", "compiler.pressure")
                           for c in tr.children(i))]
    runs = [s for s in tr.named("reliability.run")
            if not tr.has_ancestor(s, "reliability.verify")]
    accepted = ob.count("compiler.reorder.gate_accepted")
    return {
        "compiler.hoist_s": tr.total("compiler.hoist") / p,
        "compiler.pressure_s": tr.total("compiler.pressure") / p,
        "compiler.pressure_gate_s": sum(s.dur for s in gate) / p,
        "compiler.pressure.accept_ratio": ratio(
            accepted, accepted + ob.count("compiler.reorder.gate_rejected")),
        "compiler.hoist.groups": ob.count("compiler.hoist.hoisted_groups") / q,
        "compiler.hoist.modups_saved":
            ob.count("compiler.hoist.modups_saved") / q,
        "compiler.cache.hit_ratio": ob.hit_ratio("compiler.cache"),
        "compiler.cache.lookup_s": sum(s.dur for s in lookups) / p,
        "core.simulate_s": sim_s / p,
        "core.simulate_calls": len(sims) / p,
        "core.sim_ops_per_s": ratio(sum(s.ops for s in sims), sim_s),
        "pod.partition_s": tr.total("pod.partition") / p,
        "pod.simulate_pod_s": tr.total("pod.simulate_pod") / p,
        "pod.sims_per_call": ratio(len(pod_sims), len(pods)),
        "pod.mincut.applied_ratio": ratio(
            ob.count("compiler.mincut.applied"),
            ob.count("compiler.mincut.considered")),
        "serve.submit_s": tr.total("serve.submit") / p,
        "serve.pump_self_s": tr.self_time("serve.pump") / p,
        "reliability.run_s": sum(s.dur for s in runs) / p,
        "reliability.verify_s": tr.total("reliability.verify") / p,
        "reliability.checksum_s": ob.secs("reliability.checksum.seal",
                                          "reliability.checksum.verify") / q,
        "reliability.checkpoints":
            ob.count("reliability.recovery.checkpoints") / q,
        "reliability.rollbacks":
            ob.count("reliability.recovery.rollbacks") / q,
        "reliability.replayed_ops":
            ob.count("reliability.recovery.replayed_ops") / q,
        "fhe.keyswitch_s": ob.secs("keyswitch.boosted",
                                   "keyswitch.standard") / q,
        "fhe.keyswitch_calls": ob.calls("keyswitch.boosted",
                                        "keyswitch.standard") / q,
        "fhe.ntt_s": ob.secs("ntt.forward", "ntt.inverse") / q,
        "fhe.ntt_calls": ob.calls("ntt.forward", "ntt.inverse") / q,
        "fhe.bootstrap_s": tr.total("fhe.bootstrap") / p,
        "fhe.cache.hint_hit_ratio": ob.hit_ratio("fhe.cache.hint"),
        "fhe.cache.plaintext_hit_ratio": ob.hit_ratio("fhe.cache.plaintext"),
        "fhe.cache.conversion_hit_ratio": ob.hit_ratio("fhe.cache.conversion"),
    }
