"""Property test: checkpoint save -> load -> resume is exact.

Across random seeds and levels, resuming a program from a checkpoint
(through the in-memory store) must yield ciphertexts bit-identical to the
uninterrupted run, and checkpointed simulation must price the same
program to identical cycle counts every time.  This is the determinism
contract :class:`repro.reliability.recovery.RecoveringExecutor` relies
on when it promises replayed results match fault-free execution.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ir
from repro.core.config import ChipConfig
from repro.core.simulator import simulate
from repro.fhe.ckks import CkksContext, CkksParams
from repro.reliability import guards
from repro.reliability.recovery import (
    RingBufferStore,
    restore_checkpoint,
    take_checkpoint,
)

_CTX_CACHE: dict[int, tuple] = {}


def _context(max_level: int):
    """One sealed context per level; hypothesis reruns share them."""
    cached = _CTX_CACHE.get(max_level)
    if cached is None:
        params = CkksParams(degree=128, max_level=max_level, digits=1,
                            secret_hamming=8, seed=100 + max_level)
        ctx = CkksContext(params,
                          policy=guards.ReliabilityPolicy(checksums=True))
        sk = ctx.keygen()
        rot = ctx.rotation_hint(sk, 1)
        cached = _CTX_CACHE[max_level] = (ctx, sk, rot)
    return cached


def _run_steps(ctx, rot, state, start, stop):
    for i in range(start, stop):
        if i % 2 == 0:
            state["acc"] = ctx.rotate(state["acc"], 1, rot)
        else:
            state["acc"] = ctx.add(state["acc"], state["base"])
    return state


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       max_level=st.integers(min_value=2, max_value=4),
       split=st.integers(min_value=1, max_value=5))
def test_checkpoint_save_load_resume_is_bit_exact(seed, max_level, split):
    ctx, sk, rot = _context(max_level)
    rng = np.random.default_rng(seed)
    values = 0.5 * rng.standard_normal(ctx.params.slots)
    base_vals = 0.5 * rng.standard_normal(ctx.params.slots)
    total = 6

    def fresh_state():
        # Encryption draws from the context rng, so both runs must start
        # from byte-identical ciphertexts: snapshot one encryption.
        return {"acc": ctx.restore(start_acc), "base": ctx.restore(start_base)}

    start_acc = ctx.snapshot(ctx.encrypt_values(sk, values))
    start_base = ctx.snapshot(ctx.encrypt_values(sk, base_vals))

    # Uninterrupted reference run.
    ref = _run_steps(ctx, rot, fresh_state(), 0, total)["acc"]

    # Interrupted run: execute to `split`, checkpoint into the store,
    # drop the live state (as a rollback would), resume from the
    # restored snapshot.
    state = _run_steps(ctx, rot, fresh_state(), 0, split)
    store = RingBufferStore()
    store.save(take_checkpoint(ctx, state, split))
    del state
    loaded = store.latest()
    assert loaded.step == split
    resumed = _run_steps(ctx, rot, restore_checkpoint(loaded),
                         loaded.step, total)["acc"]

    assert np.array_equal(resumed.c0.data, ref.c0.data)
    assert np.array_equal(resumed.c1.data, ref.c1.data)
    assert resumed.scale == ref.scale
    assert resumed.basis.moduli == ref.basis.moduli


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       level=st.integers(min_value=2, max_value=6),
       every=st.integers(min_value=1, max_value=4))
def test_checkpointed_simulation_cycles_deterministic(seed, level, every):
    rng = np.random.default_rng(seed)
    ops = [ir.HomOp(kind=ir.INPUT, level=level, result="a"),
           ir.HomOp(kind=ir.INPUT, level=level, result="b")]
    prev = "a"
    for i in range(int(rng.integers(3, 9))):
        kind = ir.ADD if rng.random() < 0.5 else ir.ROTATE
        op = ir.HomOp(kind=kind, level=level, result=f"t{i}",
                      operands=(prev, "b") if kind == ir.ADD else (prev,),
                      hint_id="h" if kind == ir.ROTATE else None)
        ops.append(op)
        prev = f"t{i}"
    ops.append(ir.HomOp(kind=ir.OUTPUT, level=level, result="out",
                        operands=(prev,)))
    prog = ir.Program(name="ckpt-prop", degree=4096, max_level=level,
                      ops=ops)
    cfg = ChipConfig()

    first = simulate(prog, cfg, checkpoint_every=every)
    second = simulate(prog, cfg, checkpoint_every=every)
    assert first.cycles == second.cycles
    assert first.traffic_words == second.traffic_words
    # Checkpointing only ever adds memory traffic, never removes cycles.
    plain = simulate(prog, cfg)
    assert first.cycles >= plain.cycles
    assert "ckpt" in first.traffic_words and "ckpt" not in plain.traffic_words
