"""encrypted_serving: functional CKKS behind the serve and recovery layers.

Open loop on virtual time.  The benchmark's own seeded Poisson generator
drives the public ``Server`` API at three offered rates: below the p99
knee, at it, and in overload.  The traffic mix is ``LoadSpec``'s
default: 8 tenants, 35 % lstm, 12 % tight deadlines and a poison tenant,
with seeded chip faults armed through ``Server(fault_factory=...)``
using the public ``FaultInjector``.  Arrivals are submitted exactly at
their due time, so the generator is never late, and latency is measured
from that due time.  Each rate's request count is sized so the SLO
class has at least 10 samples beyond its p99 with a wide margin; a rate
without them fails the pass.  Each pass builds its servers outside its
timed part, so a pass runs no program simulation.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.compiler import CompileCache
from repro.obs.collector import paused as obs_paused
from repro.reliability import faults
from repro.reliability.errors import (
    CircuitOpen,
    DeadlineExceeded,
    Overloaded,
    ParameterError,
)
from repro.serve import (
    COMPLETED,
    FAILED,
    LoadSpec,
    ServeConfig,
    Server,
    VirtualClock,
)
from repro.workloads.serving import SERVE_KINDS, slot_reference

from perfbench.stats import percentile, qualifies, ratio

RATES = (100_000, 150_000, 300_000)
REQUESTS = {100_000: 1900, 150_000: 1900, 300_000: 3000}
KNEE = 150_000
OVERLOAD = 300_000
SLO_LIMIT_S = 4e-3
ANSWER_TOL = 1e-3
SHED_REASONS = ("overload", "deadline", "breaker", "invalid")
# Faults that fire this many times defeat the in-executor budget and
# force a serve-level retry; once is absorbed by checkpoint replay.
STUBBORN, TRANSIENT = 4, 1


class FaultPlan:
    """Seeded per-batch chip faults, armed by wrapping one step.

    ``LoadSpec.fault_rate`` of the batches get a fault and
    ``stubborn_fraction`` of those are stubborn, spread evenly over
    batch ids rather than drawn per batch, so the fault work in a pass
    does not vary with the seed; the seed picks the faulty step and the
    flipped bits.  Each firing runs under its own ``FaultInjector``
    scoped to that step, so an arm can never leak into a later batch.
    Faults fire only on a batch's first attempt; the serve-level retry
    must succeed.
    """

    def __init__(self, seed: int, spec: LoadSpec):
        self.seed = seed
        self.spec = spec
        self.rng = np.random.default_rng(seed)
        self.plans: dict[int, tuple[str, int, int] | None] = {}
        self.fired_batches: set[int] = set()

    @staticmethod
    def _every(index: int, fraction: float) -> bool:
        """True for an evenly spread ``fraction`` of indices 0, 1, ..."""
        return int((index + 1) * fraction) > int(index * fraction)

    def _plan(self, batch_id: int, n_steps: int):
        if batch_id not in self.plans:
            plan = None
            if self._every(batch_id, self.spec.fault_rate):
                nth = int(batch_id * self.spec.fault_rate)
                site = faults.SITES[nth % len(faults.SITES)]
                persist = (STUBBORN
                           if self._every(nth, self.spec.stubborn_fraction)
                           else TRANSIENT)
                plan = (site, int(self.rng.integers(n_steps)), persist)
            self.plans[batch_id] = plan
        return self.plans[batch_id]

    def __call__(self, batch_id: int, attempt: int, steps):
        plan = self._plan(batch_id, len(steps))
        if plan is None or attempt > 0:
            return steps
        site, index, persist = plan
        if site in (faults.NTT, faults.HBM):
            # Keyswitch-internal sites fire inside a rotation.
            rotations = [i for i, (name, _) in enumerate(steps)
                         if name.startswith("reduce")]
            index = min(rotations, key=lambda i: abs(i - index))
        name, fn = steps[index]
        fired = [0]

        def with_fault(ctx, state):
            if fired[0] >= persist:
                return fn(ctx, state)
            fired[0] += 1
            self.fired_batches.add(batch_id)
            injector = faults.FaultInjector(
                seed=self.seed * 7919 + batch_id * 31 + fired[0])
            injector.arm(site)
            if site in (faults.LIMB, faults.RF):
                target = state["x"] if site == faults.LIMB else state["base"]
                half = target.c0 if fired[0] % 2 else target.c1
                injector.maybe_corrupt(site, half.data)
                return fn(ctx, state)
            with faults.injecting(injector):
                return fn(ctx, state)

        out = list(steps)
        out[index] = (name, with_fault)
        return out


def make_server(cfg: ServeConfig, cache: CompileCache,
                plan: FaultPlan) -> Server:
    """A server with ``service_seconds`` warmed for every batch shape."""
    server = Server(cfg, clock=VirtualClock(), cache=cache,
                    fault_factory=plan)
    for kind in SERVE_KINDS:
        for occupancy in range(1, cfg.max_batch + 1):
            server.service_seconds(kind, occupancy)
    return server


def setup(seed: int):
    """Fill the compile cache and time building one pass's servers
    (keygen, rotation hints, warmed service times)."""
    spec = LoadSpec(seed=seed)
    cfg = ServeConfig(seed=seed, verify_responses=True)
    cache = CompileCache()
    for _ in RATES:
        make_server(cfg, cache, FaultPlan(seed, spec))
    return {"seed": seed, "spec": spec, "cfg": cfg, "cache": cache}


@contextmanager
def _outside_pass(tr, meter):
    """Leave the ``with`` body out of the pass: untimed, and seen by
    neither the benchmark's spans nor a ``repro.obs`` collector."""
    with meter.excluded(), tr.paused(), obs_paused():
        yield


def _arrivals(spec: LoadSpec, cfg: ServeConfig, rate: float, n: int,
              seed: int):
    """Due times and request attributes, all drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    due = np.cumsum(rng.exponential(1.0 / rate, n))
    out = []
    for t in due:
        tenant = f"t{int(rng.integers(spec.tenants))}"
        kind = SERVE_KINDS[1] if rng.random() < spec.lstm_fraction \
            else SERVE_KINDS[0]
        payload = rng.uniform(-1.0, 1.0, cfg.block_slots)
        poison = tenant == spec.poison_tenant
        if poison and rng.random() < spec.poison_fraction:
            if rng.random() < 0.5:
                payload[int(rng.integers(cfg.block_slots))] = np.nan
            else:
                payload = payload * (cfg.payload_limit * 10.0)
        tight = rng.random() < spec.tight_fraction
        deadline = float(rng.uniform(spec.tight_lo_s, spec.tight_hi_s)
                         if tight else
                         rng.uniform(spec.deadline_lo_s, spec.deadline_hi_s))
        out.append({"due": float(t), "tenant": tenant, "kind": kind,
                    "payload": payload, "deadline": deadline,
                    "slo": not poison and not tight})
    return out


def _drive(server: Server, arrivals, tr, meter) -> dict[int, int]:
    """Submit every arrival at its due time; returns request id -> index.
    Shed arrivals get no request id; the server counts them by reason."""
    clock = server.clock
    ids: dict[int, int] = {}
    i = 0
    while i < len(arrivals) or server.queue:
        meter.tick()
        wake = server.next_wake(clock.now())
        if i < len(arrivals) and arrivals[i]["due"] <= wake:
            a = arrivals[i]
            clock.advance_to(a["due"])
            tr.item = f"request{i}"
            try:
                req = server.submit(a["tenant"], a["kind"], a["payload"],
                                    deadline_s=a["deadline"])
                ids[req.id] = i
            except (Overloaded, DeadlineExceeded, CircuitOpen,
                    ParameterError):
                pass
            i += 1
        elif wake != float("inf"):
            clock.advance_to(wake)
        else:
            break
        tr.item = f"batch{len(server.batches)}"
        while server.pump():
            tr.item = f"batch{len(server.batches)}"
    return ids


def _audit(server: Server, check, rate: int) -> None:
    """Every completed answer matches the numpy slot reference."""
    by_batch = {b.batch_id: b for b in server.batches}
    cfg = server.cfg
    for resp in server.responses:
        with check.item(f"{rate}qps.request{resp.request.id}"):
            if resp.status != COMPLETED:
                continue
            batch = by_batch[resp.batch_id]
            vec, layout = server.packer.pack(batch.requests)
            ref = slot_reference(batch.kind, vec, server.weights,
                                 cfg.block_slots)
            want = ref[layout.readout_slot(batch.requests.index(
                resp.request))]
            check.expect(abs(resp.value - want) <= ANSWER_TOL,
                         f"wrong answer {resp.value} != {want}")


def _summarize(server: Server, plan: FaultPlan, arrivals, ids,
               check, rate: int) -> dict:
    t = server.tally
    with check.item(f"{rate}qps.tally"):
        shed = sum(t[f"shed.{r}"] for r in (*SHED_REASONS, "capacity"))
        check.expect(t["offered"] == len(arrivals),
                     "offered != requests generated")
        check.expect(t["offered"] == t["admitted"] + shed,
                     "offered != admitted + shed")
        check.expect(t["admitted"] == t["completed"] + t["expired"]
                     + t["failed"], "admitted != completed + expired + failed")
    by_index = {ids[r.request.id]: r for r in server.responses}
    slo_all, slo_done = [], []
    for i, a in enumerate(arrivals):
        if not a["slo"]:
            continue
        resp = by_index.get(i)
        if resp is not None and resp.status == COMPLETED:
            slo_all.append(resp.latency_s)
            slo_done.append(resp.latency_s)
        else:
            slo_all.append(float("inf"))  # shed, expired or failed
    elapsed = max(server.clock.now(), server.chip_free_at)
    waits = [b.dispatched_at - r.submitted
             for b in server.batches for r in b.requests]
    failed_batches = {r.batch_id for r in server.responses
                      if r.status == FAILED}
    with check.item(f"{rate}qps.percentiles"):
        # A reported p99 needs MIN_TAIL samples beyond it; too few means
        # REQUESTS is too small for this traffic, and the pass fails.
        for what, values in (("SLO-class completions", slo_done),
                             ("queue waits", waits)):
            check.expect(qualifies(len(values), 0.99),
                         f"{len(values)} {what} are too few for a p99")
    return {
        "slo_all": slo_all, "slo_done": slo_done, "waits": waits,
        "tally": dict(t), "elapsed": elapsed,
        "utilization": server.utilization(elapsed),
        "occupied": sum(len(b.requests) for b in server.batches),
        "slots": len(server.batches) * server.cfg.max_batch,
        "faulted": len(plan.fired_batches),
        "recovered": len(plan.fired_batches - failed_batches),
    }


def run_pass(state, tr, check, meter, index):
    seed, spec, cfg = state["seed"], state["spec"], state["cfg"]
    rates = {}
    for r_i, rate in enumerate(RATES):
        with _outside_pass(tr, meter):
            arrivals = _arrivals(spec, cfg, rate, REQUESTS[rate],
                                 seed * 1000 + r_i + index * 100)
            plan = FaultPlan(seed * 10 + r_i + 101, spec)
            server = make_server(cfg, state["cache"], plan)
        ids = _drive(server, arrivals, tr, meter)
        with meter.excluded():
            _audit(server, check, rate)
            rates[rate] = _summarize(server, plan, arrivals, ids, check,
                                     rate)
    return rates


def _pct_ms(values, q: float) -> float:
    """Percentile in ms; 0 when too few samples lie beyond it, which
    the pass has already counted as a failed check."""
    return percentile(values, q) * 1e3 if qualifies(len(values), q) else 0.0


def modeled_metrics(rates) -> dict[str, float]:
    knee, over = rates[KNEE], rates[OVERLOAD]
    meets = [rate for rate in RATES
             if qualifies(len(rates[rate]["slo_all"]), 0.99)
             and percentile(rates[rate]["slo_all"], 0.99) <= SLO_LIMIT_S]
    out = {
        "serve.p50_ms": _pct_ms(knee["slo_done"], 0.50),
        "serve.p99_ms": _pct_ms(knee["slo_done"], 0.99),
        "serve.max_qps_at_slo": float(max(meets, default=0)),
        "serve.goodput_qps": sum(lat <= SLO_LIMIT_S
                                 for lat in over["slo_done"])
        / over["elapsed"],
        "serve.queue_wait_ms.p50": _pct_ms(knee["waits"], 0.50),
        "serve.queue_wait_ms.p99": _pct_ms(knee["waits"], 0.99),
        "serve.utilization": knee["utilization"],
        "serve.dispatches": sum(r["tally"]["dispatches"]
                                for r in rates.values()),
        "serve.batch_fill_ratio": ratio(
            sum(r["occupied"] for r in rates.values()),
            sum(r["slots"] for r in rates.values())),
        "serve.retries": sum(r["tally"]["retries"] for r in rates.values()),
        "reliability.recovered_ratio": ratio(
            sum(r["recovered"] for r in rates.values()),
            sum(r["faulted"] for r in rates.values())),
    }
    for reason in SHED_REASONS:
        out[f"serve.shed.{reason}"] = sum(r["tally"][f"shed.{reason}"]
                                          for r in rates.values())
    for rate, r in rates.items():
        out[f"serve.p99_ms.{rate}"] = _pct_ms(r["slo_done"], 0.99)
        out[f"serve.slo_miss_ratio.{rate}"] = ratio(
            sum(lat == float("inf") for lat in r["slo_all"]),
            len(r["slo_all"]))
    return out


def host_metrics(tr, untraced) -> dict[str, float]:
    return {}
