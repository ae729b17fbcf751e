"""Operation ordering passes (Sec. 6, step 2).

The paper orders homomorphic operations with a tiling analysis (Timeloop-
style) so that large operands - keyswitch hints above all - are reused
while resident, and so the live set fits the register file.  The
list-scheduling equivalent here is :func:`order_for_pressure`: among
ready ops, prefer the one whose scheduling *shrinks* the live set the
most (Sethi-Ullman-style weight in words over operand ciphertexts /
raised digits / hints / plaintexts), with hint-reuse chaining (the op
using the most recently touched hint or plaintext) only as a tie-break,
and a per-workload simulator gate that keeps the reordering only when it
does not pessimize cycles or evictions.

Dependences are operand-producer edges, so the reordering is always
semantics-preserving.
"""

from __future__ import annotations

import heapq
from collections import defaultdict

from repro.core.config import ChipConfig
from repro.core.cost import (
    ciphertext_words,
    op_cost,
    plaintext_words,
    raised_words,
)
from repro.ir import HOIST_MODUP, INPUT, OUTPUT, HomOp, Program
from repro.obs import collector as obs
from repro.reliability.errors import ScheduleError


def _reuse_key(op: HomOp) -> str | None:
    """The hint-reuse chain key: an op chains onto the last scheduled op
    sharing its key.  A hoist_modup keys on its result (the raised
    digits), while its group's rotate_hoisted ops keep hint keying:
    clustering a whole group back to back would make every member's
    result live at once and thrash the register file, while
    hint-chained order interleaves each rotation with its consumers and
    the raised digits stay resident by Belady (their next use is always
    near)."""
    if op.kind == HOIST_MODUP:
        return op.result
    return op.hint_id or op.plaintext_id


def order_for_pressure(program: Program,
                       cfg: ChipConfig | None = None,
                       window: int = 32) -> Program:
    """Register-pressure-aware list scheduling, gated by the simulator.

    Follows program (dataflow) order, but pulls a dependency-ready
    *killer* forward: an op within ``window`` positions of the oldest
    ready op whose scheduling *shrinks* the live set (Sethi-Ullman-style
    weight in words - the result it allocates minus the operand
    ciphertexts / raised digits / hints / plaintexts it is the last
    reader of).  Last-use consumers therefore run as soon as their
    inputs exist and values die young, which is what shrinks the Belady
    register file's victim count; ties prefer an op reusing the
    last-touched hint (the hint-reuse chain rule), then the
    oldest op.  Ops that merely *grow* the live set are never pulled
    forward, and the bounded window keeps the schedule near dataflow
    order: these op streams run within a hair of register-file capacity,
    and pulling an op far forward makes its result live across the
    entire gap - a reliable way to turn clean evictions into dirty
    writebacks.

    Like the hoisting pass, the result is gated per workload against the
    cycle-level simulator on ``cfg`` (default: the CraterLake
    configuration): the reordering is kept only if it pessimizes neither
    critical-path cycles nor ``interm_store`` writeback traffic,
    otherwise the original program is returned unchanged.  The gate
    simulations run under :func:`repro.obs.collector.paused` so they
    never leak op events or counters into a live trace.
    """
    from repro.compiler.hoisting import _reference_cfg
    from repro.core.simulator import simulate

    cfg = cfg or _reference_cfg()
    with obs.span("compiler.order_for_pressure", "compiler"):
        candidate = _order_for_pressure(program, cfg, window)
        with obs.paused():
            base = simulate(program, cfg)
            cand = simulate(candidate, cfg)
    stores = "interm_store"
    if (cand.cycles <= base.cycles
            and cand.traffic_words[stores] <= base.traffic_words[stores]):
        obs.count("compiler.reorder.gate_accepted")
        obs.count("compiler.reorder.gate_cycles_saved",
                  base.cycles - cand.cycles)
        obs.count("compiler.reorder.gate_evictions_saved",
                  base.rf_evictions - cand.rf_evictions)
        return candidate
    obs.count("compiler.reorder.gate_rejected")
    return program


def _order_for_pressure(program: Program, cfg: ChipConfig,
                        window: int = 32) -> Program:
    ops = program.ops
    n = program.degree
    n_ops = len(ops)
    producers: dict[str, int] = {op.result: i for i, op in enumerate(ops)}

    consumers: dict[int, list[int]] = defaultdict(list)
    readers: dict[str, list[int]] = defaultdict(list)
    indegree = [0] * n_ops
    for i, op in enumerate(ops):
        for operand in set(op.operands):
            readers[operand].append(i)
            j = producers.get(operand)
            if j is not None and j != i:
                consumers[j].append(i)
                indegree[i] += 1

    # Live-set weights, in register-file words (the Sethi-Ullman number's
    # currency here): what each value, hint and plaintext occupies while
    # resident.  Mirrors the simulator's sizing exactly.
    def _result_words(i: int) -> float:
        op = ops[i]
        if op.kind == OUTPUT:
            return 0.0
        if op.kind == HOIST_MODUP:
            return raised_words(n, op.level, op.digits)
        return ciphertext_words(n, op.level)

    obj_words = {op.result: _result_words(i) for i, op in enumerate(ops)
                 if op.kind != OUTPUT}
    uses_left = {obj: len(r) for obj, r in readers.items()}

    hint_words_of: dict[str, float] = {}
    hint_left: dict[str, int] = defaultdict(int)
    pt_words_of: dict[str, float] = {}
    pt_left: dict[str, int] = defaultdict(int)
    for i, op in enumerate(ops):
        if op.kind in (INPUT, OUTPUT):
            continue
        if op.hint_id is not None:
            hw = op_cost(cfg, op, n).hint_words
            if hw:
                hint_words_of[op.hint_id] = max(
                    hint_words_of.get(op.hint_id, 0.0), hw)
                hint_left[op.hint_id] += 1
        if op.plaintext_id is not None:
            pw = (2 * n if op.compact_pt
                  else plaintext_words(n, op.level)) * op.repeat
            pt_words_of[op.plaintext_id] = max(
                pt_words_of.get(op.plaintext_id, 0.0), pw)
            pt_left[op.plaintext_id] += 1

    live_hints: set[str] = set()
    live_pts: set[str] = set()

    def growth(i: int) -> float:
        """Net live-set change (words) if op i is scheduled now: result
        allocation minus everything this op is the last reader of."""
        op = ops[i]
        g = _result_words(i)
        for obj in set(op.operands):
            if uses_left[obj] == 1:
                g -= obj_words.get(obj, 0.0)
        if op.hint_id in hint_words_of:
            if op.hint_id not in live_hints:
                g += hint_words_of[op.hint_id]
            if hint_left[op.hint_id] == 1:
                g -= hint_words_of[op.hint_id]
        if op.plaintext_id in pt_words_of:
            if op.plaintext_id not in live_pts:
                g += pt_words_of[op.plaintext_id]
            if pt_left[op.plaintext_id] == 1:
                g -= pt_words_of[op.plaintext_id]
        return g

    ready_heap: list[int] = []           # ready ops by program index
    ready = [False] * n_ops
    done = [False] * n_ops

    def register(i: int) -> None:
        ready[i] = True
        heapq.heappush(ready_heap, i)

    for i, d in enumerate(indegree):
        if d == 0:
            register(i)

    scheduled: list[HomOp] = []
    last_key: str | None = None
    while len(scheduled) < n_ops:
        while ready_heap and done[ready_heap[0]]:
            heapq.heappop(ready_heap)
        if not ready_heap:
            raise ScheduleError("dependency cycle in program (builder bug)")
        oldest = ready_heap[0]
        # Candidate entries sort by (live-set growth, chain rank, program
        # index): least growth wins, hint-reuse chaining breaks ties,
        # program order breaks the rest.  Only strict killers (growth<0)
        # compete with the oldest ready op - pressure may pull work
        # *forward to free registers*, never merely reshuffle it.
        def entry(c: int) -> tuple[float, int, int]:
            key = _reuse_key(ops[c])
            chained = 0 if (key is not None and key == last_key) else 1
            return (growth(c), chained, c)

        best = entry(oldest)
        for c in range(oldest + 1, min(oldest + window + 1, n_ops)):
            if ready[c] and not done[c]:
                e = entry(c)
                if e[0] < 0 and e < best:
                    best = e
        i = best[2]
        if i != oldest:
            obs.count("compiler.reorder.killer_picks")
            if best[1] == 0:
                obs.count("compiler.reorder.chain_tiebreaks")
        else:
            obs.count("compiler.reorder.program_order_picks")
        op = ops[i]
        done[i] = True
        scheduled.append(op)
        last_key = _reuse_key(op) or last_key

        # Liveness bookkeeping for future growth() calls.
        for obj in set(op.operands):
            uses_left[obj] -= 1
        if op.hint_id in hint_words_of:
            hint_left[op.hint_id] -= 1
            if hint_left[op.hint_id] == 0:
                live_hints.discard(op.hint_id)
            else:
                live_hints.add(op.hint_id)
        if op.plaintext_id in pt_words_of:
            pt_left[op.plaintext_id] -= 1
            if pt_left[op.plaintext_id] == 0:
                live_pts.discard(op.plaintext_id)
            else:
                live_pts.add(op.plaintext_id)
        for j in consumers[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                register(j)

    out = Program(name=program.name, degree=program.degree,
                  max_level=program.max_level,
                  description=program.description)
    out.ops = scheduled
    return out
