"""Static cycle-level simulator for CraterLake-style machines.

Executes a :class:`repro.ir.Program` against a :class:`ChipConfig`,
modeling

* per-op compute time as the limiting resource among FU classes, register
  file ports (with vector chaining's reduction) and the transpose network
  (`repro.core.cost`);
* the single-level register file as a Belady-MIN-managed store of
  ciphertexts, plaintexts and keyswitch hints - the compiler's eviction
  policy (Sec. 6) - with *free-on-last-use* dead-dropping: a resident
  whose next use is the ``inf`` sentinel is released the moment its last
  consumer issues, so dead values never occupy capacity or surface as
  Belady victims;
* HBM as a bandwidth-limited stream, overlapped with compute through
  decoupled data orchestration: a lookahead prefetcher streams operands
  for up to ``ChipConfig.prefetch_depth`` ops ahead of the compute head,
  reserving them in the register file under their Belady next-use.
  Depth 1 is the classic recurrence (memory for op i streams when the
  compute head reaches it, overlapping op i-1's compute); deeper windows
  hide operand streams behind earlier ops' compute.

Outputs match what the paper's evaluation reports: execution time, FU and
bandwidth utilization (Fig. 9), off-chip traffic split into KSH / inputs /
intermediate loads / stores (Fig. 10a), and activity counts the energy
model converts into the Fig. 10b power breakdown.  Scheduling-quality
observables (Belady evictions, dead drops, prefetch hits, and the
stall-cause split) land both on :class:`SimResult` and, when tracing is
enabled, as ``sim.*`` counters (see docs/TRACING.md).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.core.config import ChipConfig
from repro.core.cost import (
    ciphertext_words,
    class_capacity,
    op_cost,
    op_latency,
    plaintext_words,
    raised_words,
)
from repro.ir import HOIST_MODUP, INPUT, OUTPUT, ROTATE_HOISTED, Program
from repro.obs import collector as obs
from repro.reliability.validate import validate_program

# Object categories for traffic accounting (Fig. 10a).
KSH = "ksh"
INPUTS = "inputs"
INTERM = "interm"

_INF = float("inf")


@dataclass
class SimResult:
    """Everything the evaluation needs from one simulated run."""

    name: str
    config_name: str
    cycles: float
    compute_cycles: float
    mem_cycles: float
    fu_busy_cycles: dict[str, float]
    traffic_words: dict[str, float]  # ksh / inputs / interm_load / interm_store
    scalar_mults: float
    scalar_adds: float
    kshgen_words: float
    network_words: float
    clock_hz: float
    bytes_per_word: float
    fu_units: dict[str, int] = field(default_factory=dict)
    port_stream_elements: float = 0.0
    rf_capacity_words: int = 0
    peak_resident_words: float = 0.0
    # Scheduling-quality observables (also emitted as sim.* counters when
    # tracing is on; carried here so gates and regression tables need no
    # collector).
    rf_evictions: int = 0          # Belady victims displaced under pressure
    dead_drops: int = 0            # residents released on their last use
    prefetch_hits: int = 0         # operand fetches already streamed ahead
    stall_cycles: float = 0.0      # compute cycles lost waiting on memory
    prefetch_window_stall_cycles: float = 0.0  # stall share a deeper
    #                                window could have hidden (operand
    #                                streams issued only at the head)
    # Critical-path cycles attributed to each op tag (FheBuilder.phase
    # label; "" for untagged ops).  Each op's critical-path advance lands
    # in its tag's bucket, so the buckets telescope exactly to
    # ``program_cycles`` - the serving layer uses this to charge chip
    # time to a batch's phases (and, divided by occupancy, to individual
    # requests).
    tag_cycles: dict[str, float] = field(default_factory=dict)
    # Overlap accounting (the pod layer's double-buffered transfers).
    # ``program_cycles`` is the critical path of the op stream alone,
    # before any stream charging; ``serialized_cycles`` is what
    # ``cycles`` would have been had every stream been charged
    # serialized - for runs without overlapped streams the two fields
    # equal ``cycles``.
    program_cycles: float = 0.0
    serialized_cycles: float = 0.0
    overlap_hidden_cycles: float = 0.0  # serialized - overlapped cost
    link_port_cycles: float = 0.0       # busiest per-direction link port

    @property
    def seconds(self) -> float:
        return self.cycles / self.clock_hz

    @property
    def milliseconds(self) -> float:
        return self.seconds * 1e3

    @property
    def total_traffic_bytes(self) -> float:
        return sum(self.traffic_words.values()) * self.bytes_per_word

    @property
    def bandwidth_utilization(self) -> float:
        return min(1.0, self.mem_cycles / self.cycles) if self.cycles else 0.0

    def fu_utilization(self) -> float:
        """Average busy fraction across the chip's FUs (Fig. 9 metric):
        per-class busy cycles weighted by how many units each class has
        (CraterLake: CRB, 2 NTT, Aut, KSHGen, 5 Mul, 5 Add = 15 FUs)."""
        if not self.cycles or not self.fu_units:
            return 0.0
        busy = sum(
            cycles * self.fu_units.get(cls, 1)
            for cls, cycles in self.fu_busy_cycles.items()
        )
        total_units = sum(self.fu_units.values())
        return min(1.0, busy / (total_units * self.cycles))


@dataclass(slots=True)
class _Resident:
    words: float
    category: str
    dirty: bool
    next_use: float  # op index of next use; inf if none
    seq: int         # insertion order of the name (dict order)


class _RegisterFile:
    """Belady-MIN managed on-chip storage (the compiler's plan, Sec. 6).

    The victim is the resident with the furthest next use, then the
    fewest words, then the earliest insertion.  It comes off a
    lazy-deletion min-heap keyed on ``(-next_use, words, seq)``: every
    key change pushes a fresh entry (:meth:`set_next_use`), and a popped
    entry that no longer matches its resident's current key is skipped.
    """

    def __init__(self, capacity_words: float):
        self.capacity = capacity_words
        self.objects: dict[str, _Resident] = {}
        self.used = 0.0
        self.peak = 0.0
        self._heap: list[tuple[float, float, int, str]] = []
        self._seq = 0

    def lookup(self, obj: str) -> _Resident | None:
        return self.objects.get(obj)

    def set_next_use(self, obj: str, record: _Resident,
                     next_use: float) -> None:
        """Re-key resident ``obj`` (whose record is ``record``)."""
        if next_use != record.next_use:
            record.next_use = next_use
            self._push(obj, record)

    def _push(self, obj: str, record: _Resident) -> None:
        heap = self._heap
        heapq.heappush(heap, (-record.next_use, record.words, record.seq, obj))
        if len(heap) > 2 * len(self.objects) + 64:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap from the residents' current keys, dropping
        stale entries so it stays proportional to the residents."""
        self._heap = [(-r.next_use, r.words, r.seq, o)
                      for o, r in self.objects.items()]
        heapq.heapify(self._heap)

    def _victim(self) -> str:
        heap = self._heap
        objects = self.objects
        while True:
            neg_use, words, seq, obj = heapq.heappop(heap)
            record = objects.get(obj)
            if (record is not None and record.seq == seq
                    and record.next_use == -neg_use
                    and record.words == words):
                return obj

    def insert(self, obj: str, words: float, category: str, dirty: bool,
               next_use: float) -> list[tuple[str, _Resident]]:
        """Make obj resident; returns evicted (name, record) pairs."""
        evicted = []
        if words > self.capacity:
            # Operand larger than the register file: it streams through;
            # model as transient residency (no eviction bookkeeping).
            return evicted
        old = self.objects.get(obj)
        if old is not None:
            # Overwriting a resident name releases its old words before
            # any eviction and keeps its dict position and seq.  The old
            # record's heap entries go stale, so it is never a victim.
            seq = old.seq
            self.used -= old.words
            old.seq = -1
        else:
            seq = self._seq
            self._seq += 1
        while self.used + words > self.capacity:
            victim = self._victim()
            record = self.objects.pop(victim)
            self.used -= record.words
            evicted.append((victim, record))
        record = _Resident(words, category, dirty, next_use, seq)
        self.objects[obj] = record
        self._push(obj, record)
        self.used += words
        self.peak = max(self.peak, self.used)
        return evicted

    def drop(self, obj: str) -> _Resident | None:
        record = self.objects.pop(obj, None)
        if record is not None:
            self.used -= record.words
        return record


def _touched(op) -> list[str]:
    """Names op reads or writes, in the order the dead-drop sweep visits
    them."""
    touched = list(op.operands)
    if op.hint_id:
        touched.append(op.hint_id)
    if op.plaintext_id:
        touched.append(op.plaintext_id)
    touched.append(op.result)
    return touched


def _next_use_table(touched: list[list[str]]) -> list[dict[str, float]]:
    """``table[i][obj]`` = first op index > i that touches obj, from
    each op's :func:`_touched` list.

    Values are op indices widened to float because ``inf`` is the
    "never used again" sentinel: the register file's Belady policy sorts
    victims by next use (``inf`` first), and the simulator's dead-drop
    sweep releases any resident whose entry is ``inf`` at its last use.
    """
    last: dict[str, float] = {}
    table: list[dict[str, float]] = [{} for _ in touched]
    for i in range(len(touched) - 1, -1, -1):
        table[i] = {obj: last.get(obj, _INF) for obj in touched[i]}
        for obj in touched[i]:
            last[obj] = i
    return table


def _fetch_plan(op, hint_words: float, n: int) -> list[tuple[str, float, str]]:
    """Memory objects op needs resident before compute: (obj, words,
    category) triples in stream order.  INPUT ops fetch their own result
    (client data arriving from memory); OUTPUT ops fetch nothing."""
    if op.kind == OUTPUT:
        return []
    if op.kind == INPUT:
        return [(op.result, ciphertext_words(n, op.level), INPUTS)]
    plan = []
    # A rotate_hoisted's first operand is the shared raised-digit object
    # (t digits of L + alpha residues, a hoist_modup result), not a
    # 2-polynomial ciphertext.
    for slot, operand in enumerate(op.operands):
        if op.kind == ROTATE_HOISTED and slot == 0:
            words = raised_words(n, op.level, op.digits)
        else:
            words = ciphertext_words(n, op.level)
        plan.append((operand, words, INTERM))
    if op.plaintext_id is not None:
        words = (2 * n if op.compact_pt
                 else plaintext_words(n, op.level)) * op.repeat
        plan.append((op.plaintext_id, words, INPUTS))
    if op.hint_id is not None and hint_words:
        plan.append((op.hint_id, hint_words, KSH))
    return plan


def simulate(program: Program, cfg: ChipConfig,
             checkpoint_every: int = 0, *,
             streams: dict[str, tuple[float, float, bool]] | None = None,
             chip: int | None = None) -> SimResult:
    """Run ``program`` on machine ``cfg``; see module docstring.

    The op stream is priced exactly as given: lowering (hoisting,
    scheduling, the compile cache) is the compiler's job
    (`repro.compiler.compile_program`), done before this call.

    ``streams`` charges off-chip transfers this chip owes beyond the
    program's own HBM traffic - the pod layer (`repro.pod`) uses it for
    interconnect sends/receives.  Each entry maps a stream name to
    ``(words, words_per_cycle, overlap)``; the words land under that
    name in ``traffic_words``, after the program's own traffic, in
    entry order.

    * ``overlap=False`` serializes the stream onto the memory clock at
      its own rate (a pod link is slower than HBM), so link-bound
      shards show up as memory-bound in the same units as Fig. 10a.
    * ``overlap=True`` models a *double-buffered* transfer: a dedicated
      port (the link direction) carries the stream concurrently with
      compute, and only the stream's memory-system crossing claims
      memory cycles - at HBM rate when the link is the slower side (the
      crossing hides in otherwise-idle bandwidth the way
      ``prefetch_depth`` claims free capacity), at the stream's own
      rate when the stream itself is the bottleneck (bandwidth-bound
      fallback, which degenerates to serialized charging).

    The final cycle count is ``max(compute, memory, busiest port)`` -
    the ``max(compute, comm)`` shape of a pipelined stage.
    ``serialized_cycles`` is what it would have been with every stream
    serialized, accumulated in the same loop, so it never falls below
    ``cycles``; the gap lands in ``overlap_hidden_cycles``.  Overlap
    is never better than ``max(program_cycles, busiest port)``.

    ``chip`` tags every emitted :class:`~repro.obs.collector.OpEvent`
    with a pod chip index, giving each chip its own process row in the
    Chrome-trace export; ``None`` (the default) keeps the single-chip
    layout.

    ``checkpoint_every`` > 0 models checkpointed execution (the recovery
    layer's schedule-boundary snapshots, `repro.reliability.recovery`):
    after every k-th compute op, the live intermediate state - all dirty
    ciphertext residents - is written back through the HBM stream.  The
    extra traffic lands under a ``"ckpt"`` key (present only when
    enabled, so uncheckpointed results keep their exact shape) and
    advances the memory clock, making the resilience bandwidth cost
    visible in the same units as Fig. 10a's traffic split.
    """
    validate_program(program, cfg)
    n = program.degree
    ops = program.ops
    n_ops = len(ops)
    depth = cfg.prefetch_depth
    rf = _RegisterFile(cfg.register_file_words)
    touched = [_touched(op) for op in ops]
    next_use = _next_use_table(touched)
    # Where each value is materialized on chip; INPUT results live in
    # memory from the start (client data), so they are prefetchable.
    producer = {op.result: i for i, op in enumerate(ops)
                if op.kind not in (INPUT, OUTPUT)}

    fu_busy: dict[str, float] = {}
    prev_result: str | None = None
    traffic = {KSH: 0.0, INPUTS: 0.0, "interm_load": 0.0, "interm_store": 0.0}
    if checkpoint_every:
        traffic["ckpt"] = 0.0
    compute_ops = 0
    # Run totals of the OpCost fields SimResult reports, summed per op in
    # program order (a count x value product would round differently).
    scalar_mults = scalar_adds = kshgen_words = 0.0
    network_words = port_stream_elements = 0.0
    mem_clock = 0.0
    comp_clock = 0.0
    words_per_cycle = cfg.hbm_words_per_cycle

    # Per-signature costs: op_cost reads only an op's kind, level, digits
    # and repeat, and cfg and the degree are fixed for this run, so ops
    # sharing that signature share (cost, compute cycles, per-class FU
    # cycles, pipeline-fill latency).
    by_signature: dict[tuple, tuple] = {}
    costs: list[tuple | None] = [None] * n_ops
    for i, op in enumerate(ops):
        if op.kind in (INPUT, OUTPUT):
            continue
        key = (op.kind, op.level, op.digits, op.repeat)
        entry = by_signature.get(key)
        if entry is None:
            cost = op_cost(cfg, op, n)
            fu_cycles = tuple(
                (cls, elements / max(1.0, class_capacity(cfg, cls)))
                for cls, elements in cost.fu_elements.items())
            entry = by_signature[key] = (
                cost, cost.compute_cycles(cfg), fu_cycles,
                op_latency(cfg, op, n))
        costs[i] = entry
    # Fetch plans, precomputed so the prefetcher can stream a future op's
    # operands before the compute head reaches it.
    plans = [_fetch_plan(op, costs[i][0].hint_words if costs[i] else 0.0, n)
             for i, op in enumerate(ops)]
    issued = [False] * n_ops       # op's fetch plan already streamed
    ready_at = [0.0] * n_ops       # mem clock when the op's stream was done
    prefetched: set[str] = set()   # residents brought in ahead of their op

    # Per-op observability accumulators; fetch paths increment them, the
    # head loop resets them per op and folds them into the run totals.
    evicted = [0]
    dead_drops = [0]
    hits = [0]
    total_evictions = 0
    total_dead_drops = 0
    total_hits = 0
    total_stall = 0.0
    total_window_stall = 0.0

    def fetch(obj: str, words: float, category: str, uses_at: float) -> float:
        """Ensure obj is resident for the compute head; return words moved
        from memory (0 when already resident, e.g. reuse or prefetch)."""
        record = rf.lookup(obj)
        if record is not None:
            rf.set_next_use(obj, record, uses_at)
            if obj in prefetched:
                prefetched.discard(obj)
                hits[0] += 1
            return 0.0
        moved = words
        if category == KSH:
            traffic[KSH] += words
        elif category == INPUTS:
            traffic[INPUTS] += words
        else:
            traffic["interm_load"] += words
        dirty = category == INTERM
        for victim, vrec in rf.insert(obj, words, category, dirty, uses_at):
            prefetched.discard(victim)
            evicted[0] += 1
            if vrec.dirty and vrec.next_use != _INF:
                traffic["interm_store"] += vrec.words
                moved += vrec.words
        return moved

    def prefetch(obj: str, words: float, category: str, target: int) -> float:
        """Stream obj ahead of its op; reserved under Belady next-use
        ``target`` (the op that will consume it).  Returns words moved.

        Prefetch claims only free capacity - it never evicts a resident.
        Displacing data the compute head still needs for data a *future*
        op needs is how lookahead turns into thrash (fetch, lose, fetch
        again); under pressure the window simply stops growing and the
        head fetches at its own turn, exactly as at depth 1."""
        record = rf.lookup(obj)
        if record is not None:
            # Already resident (reuse, or an earlier window op fetched
            # it); keep the nearest use so Belady never under-protects it.
            rf.set_next_use(obj, record, min(record.next_use, target))
            return 0.0
        if rf.used + words > rf.capacity:
            return 0.0
        prefetched.add(obj)
        return fetch(obj, words, category, target)

    def dead_sweep(i: int) -> None:
        """Free-on-last-use: release residents op i touched whose next
        use is the ``inf`` sentinel, so dead values stop occupying
        capacity and forcing Belady evictions."""
        for obj in touched[i]:
            record = rf.lookup(obj)
            if record is not None and record.next_use == _INF:
                rf.drop(obj)
                dead_drops[0] += 1

    tr = obs.active()
    tag_cycles: dict[str, float] = {}

    def charge_tag(op, crit_before: float) -> None:
        """Attribute this op's critical-path advance to its tag bucket;
        the per-tag sums telescope exactly to the final cycle count."""
        advance = max(comp_clock, mem_clock) - crit_before
        if advance:
            tag_cycles[op.tag] = tag_cycles.get(op.tag, 0.0) + advance

    def record(op, index: int, crit_before: float, mem_before: float,
               compute_start: float, compute_cycles: float,
               stall: float, mem_words: float,
               fu_cycles: tuple[tuple[str, float], ...] = ()) -> None:
        """Emit one OpEvent; ``cycles`` is the critical-path advance, so
        the events telescope exactly to the final cycle count."""
        tr.emit_op(obs.OpEvent(
            index=index, kind=op.kind, result=op.result, level=op.level,
            tag=op.tag,
            cycles=max(comp_clock, mem_clock) - crit_before,
            compute_start=compute_start, compute_cycles=compute_cycles,
            mem_start=mem_before, mem_cycles=mem_clock - mem_before,
            stall_cycles=stall, mem_words=mem_words, evictions=evicted[0],
            fu_cycles=dict(fu_cycles),
            chip=chip,
        ))
        tr.count("sim.ops")
        tr.count(f"sim.ops.{op.kind}")
        if evicted[0]:
            tr.count("sim.rf_evictions", evicted[0])
        if dead_drops[0]:
            tr.count("sim.dead_drops", dead_drops[0])
        if hits[0]:
            tr.count("sim.prefetch_hits", hits[0])

    for i, op in enumerate(ops):
        uses = next_use[i]
        mem_words = 0.0
        evicted[0] = 0
        dead_drops[0] = 0
        hits[0] = 0
        crit_before = max(comp_clock, mem_clock)
        mem_before = mem_clock

        if op.kind == OUTPUT:
            words = ciphertext_words(n, op.level)
            traffic["interm_store"] += words
            mem_clock += words / words_per_cycle
            for operand in op.operands:
                rec = rf.lookup(operand)
                if rec is None:
                    continue
                # The store leaves the value backed by memory: the RF copy
                # stays valid but clean (a later eviction needs no second
                # writeback), and it is released outright on its last use.
                rec.dirty = False
                rf.set_next_use(operand, rec, uses.get(operand, _INF))
                if rec.next_use == _INF:
                    rf.drop(operand)
                    dead_drops[0] += 1
            # The stored object's own record: hand-built (non-SSA) streams
            # may reuse the output name for a resident value, which would
            # otherwise linger dead in the RF.
            if op.result not in op.operands and rf.drop(op.result) is not None:
                dead_drops[0] += 1
            total_dead_drops += dead_drops[0]
            charge_tag(op, crit_before)
            if tr is not None:
                record(op, i, crit_before, mem_before, comp_clock, 0.0,
                       0.0, words)
            continue

        # Operand residency: stream this op's remaining fetches (all of
        # them at depth 1; at deeper windows most were prefetched and
        # count as hits, and only prefetch victims are re-fetched here).
        for obj, words, category in plans[i]:
            mem_words += fetch(obj, words, category, uses.get(obj, _INF))
        issued[i] = True
        fetch_cycles = mem_words / words_per_cycle
        own_cycles = fetch_cycles

        if op.kind == INPUT:
            mem_clock += own_cycles
            dead_sweep(i)
            total_evictions += evicted[0]
            total_dead_drops += dead_drops[0]
            total_hits += hits[0]
            charge_tag(op, crit_before)
            if tr is not None:
                record(op, i, crit_before, mem_before, comp_clock, 0.0,
                       0.0, mem_words)
            continue

        cost, cycles, fu_cycles, latency = costs[i]
        scalar_mults += cost.scalar_mults
        scalar_adds += cost.scalar_adds
        kshgen_words += cost.kshgen_elements
        network_words += cost.network_words
        port_stream_elements += cost.port_stream_elements

        # Result allocation (produced on chip; traffic only if evicted and
        # reloaded later).
        result_words = (raised_words(n, op.level, op.digits)
                        if op.kind == HOIST_MODUP
                        else ciphertext_words(n, op.level))
        for victim, vrec in rf.insert(op.result, result_words,
                                      INTERM, True, uses[op.result]):
            prefetched.discard(victim)
            evicted[0] += 1
            if vrec.dirty and vrec.next_use != _INF:
                traffic["interm_store"] += vrec.words
                mem_words += vrec.words
                own_cycles += vrec.words / words_per_cycle

        # Decoupled data orchestration: compute for op i starts when the
        # previous op is done and its own stream has arrived.  Prefetched
        # operands arrived at an earlier memory clock (ready_at), so only
        # the residual fetched at the head delays this op.
        mem_clock += own_cycles
        # At depth 1 (the classic one-op-deep recurrence) compute never
        # runs ahead of the in-order memory stream; with lookahead, a
        # fully prefetched op waits only for its own stream's completion
        # time (ready_at), not for the window's later fetches.  Writeback
        # residuals (evicted dirty victims) occupy the stream but do not
        # gate this op's compute - only missing operands do.
        if depth == 1 or fetch_cycles:
            op_ready = mem_clock
        else:
            op_ready = ready_at[i]
        # Pipeline-fill latency is exposed only when this op consumes the
        # previous op's result (a true dependence chain); independent ops
        # overlap in the static schedule.
        chained = prev_result is not None and prev_result in op.operands
        if chained:
            cycles += latency
        prev_result = op.result
        compute_start = max(comp_clock, op_ready)
        stall = compute_start - comp_clock
        # Stall-cause split: the share covered by streams issued only at
        # the head (a deeper prefetch window could have hidden it) vs the
        # share where the memory stream itself is the backlog.
        window_stall = min(stall, own_cycles)
        total_stall += stall
        total_window_stall += window_stall
        comp_clock = compute_start + cycles
        for cls, busy in fu_cycles:
            fu_busy[cls] = fu_busy.get(cls, 0.0) + busy

        # Free-on-last-use before the prefetcher claims space: dead
        # residents this op just consumed never become Belady victims.
        dead_sweep(i)

        # Lookahead data orchestration: while this op computes, stream
        # operands for the next prefetch_depth - 1 ops (skipping values
        # their producers have not materialized yet - those are forwarded
        # on chip, not fetched).
        for j in range(i + 1, min(i + depth, n_ops)):
            if issued[j] or ops[j].kind == OUTPUT:
                continue
            moved_ahead = 0.0
            for obj, words, category in plans[j]:
                if producer.get(obj, -1) > i:
                    continue  # produced later on chip; nothing to stream
                moved_ahead += prefetch(obj, words, category, j)
            issued[j] = True
            if moved_ahead:
                mem_words += moved_ahead
                mem_clock += moved_ahead / words_per_cycle
            ready_at[j] = mem_clock

        # Checkpoint boundary: snapshot the live intermediate state through
        # HBM.  Charged before the op's event is recorded so the advance
        # still telescopes into the per-op cycle accounting.
        compute_ops += 1
        if checkpoint_every and compute_ops % checkpoint_every == 0:
            ckpt_words = sum(
                r.words for r in rf.objects.values()
                if r.category == INTERM and r.dirty
            )
            if ckpt_words:
                traffic["ckpt"] += ckpt_words
                mem_words += ckpt_words
                mem_clock += ckpt_words / words_per_cycle
                if tr is not None:
                    tr.count("sim.checkpoints")
                    tr.count("sim.checkpoint_words", ckpt_words)
        total_evictions += evicted[0]
        total_dead_drops += dead_drops[0]
        total_hits += hits[0]
        charge_tag(op, crit_before)
        if tr is not None:
            if chained and cfg.chaining:
                tr.count("sim.chain_hits")
            record(op, i, crit_before, mem_before, compute_start, cycles,
                   stall, mem_words, fu_cycles)

    if tr is not None:
        if total_stall:
            tr.count("sim.stall_cycles", total_stall)
            tr.count("sim.stall_cycles.bandwidth",
                     total_stall - total_window_stall)
        if total_window_stall:
            tr.count("sim.prefetch_window_stalls", total_window_stall)

    program_cycles = max(comp_clock, mem_clock)

    # Externally-owed streams (the pod layer's link sends/receives).
    # ``serial_mem`` charges every stream serialized at its own rate;
    # the memory clock charges a serialized stream the same, but an
    # overlapped one only its memory-system crossing at the faster of
    # HBM and the stream, while its own per-direction port carries it
    # concurrently with compute.
    serial_mem = mem_clock
    link_port_cycles = 0.0
    for stream, (words, stream_wpc, overlap) in (streams or {}).items():
        if words <= 0:
            continue
        rate = stream_wpc or words_per_cycle
        traffic[stream] = traffic.get(stream, 0.0) + words
        serial_mem += words / rate
        if overlap:
            mem_clock += words / max(words_per_cycle, rate)
            link_port_cycles = max(link_port_cycles, words / rate)
        else:
            mem_clock += words / rate
        if tr is not None:
            tr.count(f"sim.stream.{stream}", words)
    total_cycles = max(comp_clock, mem_clock, link_port_cycles)
    serialized_cycles = max(comp_clock, serial_mem)
    overlap_hidden = max(0.0, serialized_cycles - total_cycles)
    if tr is not None:
        if overlap_hidden:
            tr.count("sim.overlap.hidden_cycles", overlap_hidden)
        if link_port_cycles:
            tr.count("sim.overlap.port_cycles", link_port_cycles)
    return SimResult(
        name=program.name,
        config_name=cfg.name,
        cycles=total_cycles,
        compute_cycles=comp_clock,
        mem_cycles=mem_clock,
        fu_busy_cycles=fu_busy,
        traffic_words=traffic,
        scalar_mults=scalar_mults,
        scalar_adds=scalar_adds,
        kshgen_words=kshgen_words,
        network_words=network_words,
        clock_hz=cfg.clock_hz,
        bytes_per_word=cfg.bytes_per_word,
        fu_units={
            "ntt": cfg.ntt_units, "mul": cfg.mul_units,
            "add": cfg.add_units, "aut": cfg.aut_units,
            "crb": 1 if cfg.crb else 0,
            "kshgen": 1 if cfg.kshgen else 0,
        },
        port_stream_elements=port_stream_elements,
        rf_capacity_words=cfg.register_file_words,
        peak_resident_words=rf.peak,
        rf_evictions=total_evictions,
        dead_drops=total_dead_drops,
        prefetch_hits=total_hits,
        stall_cycles=total_stall,
        prefetch_window_stall_cycles=total_window_stall,
        tag_cycles=tag_cycles,
        program_cycles=program_cycles,
        serialized_cycles=serialized_cycles,
        overlap_hidden_cycles=overlap_hidden,
        link_port_cycles=link_port_cycles,
    )
