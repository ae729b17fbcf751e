"""Cycle-level simulator: timing, Belady storage, traffic accounting."""

import pytest

from repro.compiler.dsl import FheBuilder
from repro.core import simulator
from repro.core.config import ChipConfig
from repro.core.simulator import simulate
from repro.ir import INPUT, OUTPUT, HomOp, Program
from repro.workloads import benchmark

CFG = ChipConfig()


def tiny_program(level=20, rotations=4, distinct_hints=2):
    b = FheBuilder("tiny", degree=65536, max_level=level)
    x = b.input("x", level)
    for i in range(rotations):
        x = b.rotate(x, 1, hint_id=f"h{i % distinct_hints}")
    b.output(x)
    return b.build()


def test_empty_program():
    res = simulate(Program(name="empty", degree=65536, max_level=10), CFG)
    assert res.cycles == 0
    assert res.total_traffic_bytes == 0


def test_degree_guard():
    prog = Program(name="big", degree=131072, max_level=10)
    with pytest.raises(ValueError, match="native maximum"):
        simulate(prog, CFG)
    simulate(prog, ChipConfig.craterlake_128k())  # fine on the variant


def test_hint_reuse_reduces_traffic():
    many = simulate(tiny_program(rotations=8, distinct_hints=8), CFG)
    few = simulate(tiny_program(rotations=8, distinct_hints=1), CFG)
    assert few.traffic_words["ksh"] < many.traffic_words["ksh"] / 4
    # Compute work is identical either way.
    assert few.fu_busy_cycles == many.fu_busy_cycles


def test_time_is_max_of_compute_and_memory():
    res = simulate(tiny_program(), CFG)
    assert res.cycles >= res.mem_cycles
    assert res.cycles >= res.compute_cycles - 1e-9
    assert res.cycles == max(res.compute_cycles, res.mem_cycles)


def test_op_cost_runs_once_per_signature(monkeypatch):
    """op_cost reads only (kind, level, digits, repeat), so a run prices
    each distinct signature once, however many ops share it."""
    calls = []
    real_op_cost = simulator.op_cost

    def counting_op_cost(cfg, op, degree):
        calls.append(op)
        return real_op_cost(cfg, op, degree)

    monkeypatch.setattr(simulator, "op_cost", counting_op_cost)
    program = benchmark("resnet20")
    simulate(program, CFG)
    signatures = {(op.kind, op.level, op.digits, op.repeat)
                  for op in program.ops if op.kind not in (INPUT, OUTPUT)}
    assert len(calls) == len(signatures)


def test_memory_bound_when_hints_never_reused():
    res = simulate(tiny_program(rotations=30, distinct_hints=30), CFG)
    assert res.bandwidth_utilization > 0.9


def test_small_register_file_thrashes():
    prog = tiny_program(level=60, rotations=24, distinct_hints=6)
    big = simulate(prog, CFG)
    small = simulate(prog, CFG.with_register_file(30))
    assert small.traffic_words["ksh"] > big.traffic_words["ksh"]
    assert small.cycles > big.cycles


def test_belady_keeps_the_reused_hint():
    """Two hints alternate; a third is used once in the middle.  With room
    for ~two hints, Belady must evict the single-use one."""
    b = FheBuilder("belady", degree=65536, max_level=60)
    x = b.input("x", 60)
    pattern = ["a", "b", "once", "a", "b", "a", "b", "a", "b"]
    for i, h in enumerate(pattern):
        x = b.rotate(x, 1, hint_id=h)
    prog = b.build()
    # Hint ~26 MB at L=60; RF of 64 MB fits two hints + operands-ish.
    res = simulate(prog, CFG.with_register_file(96))
    hint_words = None
    from repro.core.cost import boosted_keyswitch_cost

    hint_words = boosted_keyswitch_cost(CFG, 65536, 60, 2).hint_words
    loads = res.traffic_words["ksh"] / hint_words
    # Optimal: a, b, once fetched once each, plus at most ~2 re-fetches.
    assert loads <= 5.5, loads


def test_traffic_categories():
    b = FheBuilder("cats", degree=65536, max_level=20)
    x = b.input("x", 20)
    y = b.pmult(x, "weights", rescale=False)
    z = b.mult(x, y)
    b.output(z)
    res = simulate(b.build(), CFG)
    assert res.traffic_words["inputs"] > 0       # the input ct + plaintext
    assert res.traffic_words["ksh"] > 0          # relin hint
    assert res.traffic_words["interm_store"] > 0  # the output writeback


def test_compact_plaintexts_move_less():
    def prog(compact):
        b = FheBuilder("c", degree=65536, max_level=40)
        x = b.input("x", 40)
        x = b.pmult(x, "w", rescale=False, compact=compact)
        b.output(x)
        return b.build()
    full = simulate(prog(False), CFG)
    small = simulate(prog(True), CFG)
    assert small.traffic_words["inputs"] < full.traffic_words["inputs"]


def test_f1plus_slower_on_deep_keyswitching():
    from repro.baselines import f1plus_config

    prog = tiny_program(level=57, rotations=12, distinct_hints=3)
    cl = simulate(prog, CFG)
    f1 = simulate(prog, f1plus_config())
    assert f1.cycles > 3 * cl.cycles


def test_fu_utilization_bounds():
    res = simulate(tiny_program(), CFG)
    assert 0 <= res.fu_utilization() <= 1
    assert 0 <= res.bandwidth_utilization <= 1


# -- lookahead orchestration, dead-dropping, and the sim.* observables ----


def test_prefetch_depth_must_cover_current_op():
    from repro.reliability.errors import ConfigError

    with pytest.raises(ConfigError, match="prefetch window"):
        ChipConfig(prefetch_depth=0)


def test_prefetch_window_is_cycle_and_traffic_neutral():
    """The memory stream already runs decoupled from compute, and the
    prefetcher only claims free capacity - so deepening the window may
    reorder fetches but must not change totals on a stream that fits."""
    prog = tiny_program(level=60, rotations=12, distinct_hints=3)
    base = simulate(prog, CFG)
    for depth in (2, 4):
        deep = simulate(prog, CFG.with_prefetch_depth(depth))
        assert deep.cycles == base.cycles
        assert deep.traffic_words == base.traffic_words


def test_prefetch_hits_are_counted_at_depth():
    prog = tiny_program(level=60, rotations=12, distinct_hints=3)
    assert simulate(prog, CFG).prefetch_hits == 0
    deep = simulate(prog, CFG.with_prefetch_depth(4))
    assert deep.prefetch_hits > 0


def test_prefetch_never_evicts_residents():
    """Under pressure the window stops growing instead of displacing data
    the compute head still needs: evictions at depth k never exceed the
    depth-1 count."""
    prog = tiny_program(level=60, rotations=24, distinct_hints=6)
    cfg = CFG.with_register_file(30)   # forces thrash at depth 1
    base = simulate(prog, cfg)
    assert base.rf_evictions > 0
    deep = simulate(prog, cfg.with_prefetch_depth(8))
    assert deep.rf_evictions <= base.rf_evictions
    assert deep.traffic_words["ksh"] <= base.traffic_words["ksh"]


def test_dead_values_are_dropped_on_last_use():
    """Free-on-last-use: a chain of rotates kills each intermediate at
    its single consumer, so residents are released instead of lingering
    as Belady victims."""
    res = simulate(tiny_program(rotations=8, distinct_hints=2), CFG)
    assert res.dead_drops > 0
    assert res.rf_evictions == 0


def test_output_drops_stored_record_for_non_ssa_streams():
    """An OUTPUT whose result name shadows a resident value (hand-built,
    non-SSA streams) must release that record too - and its operand, once
    stored, is dead and dropped as well."""
    prog = Program(name="shadow", degree=65536, max_level=10)
    prog.append(HomOp(kind="input", level=10, result="x"))
    prog.append(HomOp(kind="add", level=10, result="y", operands=("x", "x")))
    prog.append(HomOp(kind="output", level=10, result="y", operands=("x",)))
    res = simulate(prog, CFG)
    # x dropped as a stored dead operand; y dropped as the shadowed record
    # (y is the op's own result name, hence counted via the result branch).
    assert res.dead_drops >= 2


def test_op_events_telescope_at_all_depths():
    from repro.obs import collector as obs

    prog = tiny_program(level=60, rotations=12, distinct_hints=3)
    for depth in (1, 2, 8):
        with obs.collecting() as c:
            res = simulate(prog, CFG.with_prefetch_depth(depth))
        assert c.total_op_cycles() == pytest.approx(res.cycles)
        assert c.counters.get("sim.rf_evictions", 0) == res.rf_evictions
        assert c.counters.get("sim.dead_drops", 0) == res.dead_drops
        assert c.counters.get("sim.prefetch_hits", 0) == res.prefetch_hits
        assert c.counters.get("sim.stall_cycles", 0) == pytest.approx(
            res.stall_cycles)


def test_stall_cause_split_is_consistent():
    res = simulate(tiny_program(rotations=30, distinct_hints=30), CFG)
    assert res.stall_cycles > 0          # memory-bound: compute waits
    assert 0 <= res.prefetch_window_stall_cycles <= res.stall_cycles


def test_tag_cycles_telescope_to_total():
    """Per-tag critical-path attribution partitions the total exactly:
    every cycle of critical-path advance is charged to exactly one
    phase tag, so the tag shares sum to SimResult.cycles."""
    b = FheBuilder("tagged", degree=65536, max_level=20)
    b.phase("load")
    x = b.input("x", 20)
    b.phase("spin")
    for i in range(6):
        x = b.rotate(x, 1, hint_id=f"h{i % 2}")
    b.phase("emit")
    b.output(x)
    res = simulate(b.build(), CFG)
    assert res.tag_cycles
    assert sum(res.tag_cycles.values()) == pytest.approx(res.cycles)
    assert set(res.tag_cycles) <= {"load", "spin", "emit"}
    assert res.tag_cycles.get("spin", 0) > 0


def test_tag_cycles_scale_with_occupancy_repeat():
    """A pmult with repeat=k streams k plaintexts: its phase's share
    grows with k while untouched phases keep their cost - the serving
    layer's per-request attribution depends on this."""
    def prog(repeat):
        b = FheBuilder("occ", degree=65536, max_level=20)
        b.phase("in")
        x = b.input("x", 20)
        b.phase("score")
        x = b.pmult(x, "w", repeat=repeat)
        b.phase("reduce")
        x = b.rotate(x, 1, hint_id="h0")
        b.output(x)
        return b.build()

    lean = simulate(prog(1), CFG)
    full = simulate(prog(8), CFG)
    assert full.tag_cycles["score"] > lean.tag_cycles["score"]
    # Attribution is critical-path advance, not isolated op cost: the
    # bigger score phase's streaming can HIDE part of the later hint
    # load, so reduce's share may shrink with occupancy - never grow.
    assert full.tag_cycles["reduce"] <= lean.tag_cycles["reduce"] + 1e-9
    assert full.cycles > lean.cycles
