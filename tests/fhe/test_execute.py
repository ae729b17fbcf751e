"""The IR executor runs every op kind exactly as the CKKS layer does.

Each program here is checked bit for bit against the same computation
written as direct :class:`~repro.fhe.ckks.CkksContext` calls, and the
state-dict discipline the checkpointing executor depends on (a chain
keeps a fixed set of keys; temporaries leave the dict when they die) is
checked on :func:`~repro.fhe.execute.program_steps`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compiler import FheBuilder
from repro.core.config import ChipConfig
from repro.core.cost import op_cost
from repro.fhe.execute import execute, program_steps
from repro.fhe.hoisting import HoistedRotator
from repro.ir import (
    HOIST_MODUP,
    INPUT,
    OUTPUT,
    PMULT,
    ROTATE,
    ROTATE_HOISTED,
    HomOp,
    Program,
)
from repro.reliability.errors import ScheduleError

CFG = ChipConfig()


def _same(got, want) -> None:
    assert np.array_equal(got.c0.data, want.c0.data)
    assert np.array_equal(got.c1.data, want.c1.data)
    assert got.scale == want.scale


@pytest.fixture(scope="module")
def keys(fhe):
    return {1: fhe.rot1, 2: fhe.ctx.rotation_hint(fhe.sk, 2),
            "relin": fhe.relin, "conj": fhe.conj}


def test_every_op_kind_matches_direct_ckks_calls(fhe, keys):
    ctx = fhe.ctx
    b = FheBuilder("all-kinds", degree=512, max_level=6)
    x, y = b.input("x", 6), b.input("y", 6)
    outs = [
        b.pmult(x, "w"),                 # PMULT + its RESCALE: one pmult
        b.pmult(y, "w", rescale=False),  # lone PMULT: product unrescaled
        b.mult(x, y),                    # MULT, then a lone RESCALE
        b.add(x, y),
        b.rotate(x, 1),
        b.conjugate(y),
    ]
    for v in outs:
        b.output(v)
    program = b.build()
    # Two hoisted rotations of x share one ModUp.
    program.ops[-1:-1] = [
        HomOp(kind=HOIST_MODUP, level=6, result="up", operands=("in_x%1",)),
        HomOp(kind=ROTATE_HOISTED, level=6, result="h1",
              operands=("up", "in_x%1"), hint_id="rot1", steps=1),
        HomOp(kind=ROTATE_HOISTED, level=6, result="h2",
              operands=("up", "in_x%1"), hint_id="rot2", steps=2),
        HomOp(kind=OUTPUT, level=6, result="o1", operands=("h1",)),
        HomOp(kind=OUTPUT, level=6, result="o2", operands=("h2",)),
    ]
    w = 0.5 * np.random.default_rng(1).standard_normal(fhe.slots)
    ct_x = ctx.encrypt_values(fhe.sk, fhe.random_values(1))
    ct_y = ctx.encrypt_values(fhe.sk, fhe.random_values(2))

    got = execute(program, ctx, {"in_x%1": ct_x, "in_y%2": ct_y}, keys,
                  {"w": w})

    rotator = HoistedRotator(ctx, ct_x, alpha=ctx.params.alpha)
    want = [
        ctx.pmult(ct_x, w),
        ctx.pmult_deferred(ct_y, w),
        ctx.rescale(ctx.multiply(ct_x, ct_y, fhe.relin)),
        ctx.add(ct_x, ct_y),
        ctx.rotate(ct_x, 1, fhe.rot1),
        rotator.rotate(1, fhe.rot1),
        rotator.rotate(2, keys[2]),
        ctx.conjugate(ct_y, fhe.conj),
    ]
    assert len(got) == len(want)
    for g, w_ in zip(got.values(), want):
        _same(g, w_)


def test_chain_keeps_a_fixed_set_of_state_keys(fhe):
    ctx = fhe.ctx
    b = FheBuilder("chain", degree=512, max_level=6)
    x = b.input("x", 6)
    x = b.pmult(x, "w")
    for s in (1, 1):
        x = b.add(x, b.rotate(x, s))
    b.output(x)
    program = b.build()
    w = np.full(fhe.slots, 0.5)
    steps, cycles = program_steps(program, CFG, {1: fhe.rot1}, {"w": w},
                                  bind={"in_x%1": "x"})

    assert [name for name, _ in steps] == ["w", "rot1", "rot1"]
    ct = ctx.encrypt_values(fhe.sk, fhe.random_values(3))
    state = {"x": ct, "resident": ct}
    for _, fn in steps:
        fn(ctx, state)
        assert sorted(state) == ["resident", "x"]
    want = ctx.pmult(ct, w)
    for s in (1, 1):
        want = ctx.add(want, ctx.rotate(want, s, fhe.rot1))
    _same(state["x"], want)

    # Each step costs the sum of its ops: the pmult step includes its
    # rescale, the rotation steps their add; INPUT/OUTPUT are free.
    by_step = [[0, 1, 2], [3, 4], [5, 6, 7]]
    assert cycles == [
        sum(op_cost(CFG, program.ops[i], 512).compute_cycles(CFG)
            for i in idx) for idx in by_step]


def test_outputs_never_die_and_names_stay_distinct(fhe):
    # ``t`` is output and then redefined while the first value is still
    # held as a result, and ``a`` is output too, so no operand dies at
    # the redefinition: the second ``t`` gets a key of its own.
    ops = [HomOp(kind=INPUT, level=6, result="a"),
           HomOp(kind=ROTATE, level=6, result="t", operands=("a",),
                 hint_id="rot1", steps=1),
           HomOp(kind=OUTPUT, level=6, result="o1", operands=("t",)),
           HomOp(kind=ROTATE, level=6, result="t", operands=("a",),
                 hint_id="rot1", steps=1),
           HomOp(kind=OUTPUT, level=6, result="o2", operands=("t",)),
           HomOp(kind=OUTPUT, level=6, result="o3", operands=("a",))]
    program = Program(name="redefine", degree=512, max_level=6, ops=ops)
    steps, _ = program_steps(program, CFG, {1: fhe.rot1})
    state = {"a": fhe.ctx.encrypt_values(fhe.sk, fhe.random_values(4))}
    for _, fn in steps:
        fn(fhe.ctx, state)
    assert sorted(state) == ["a", "t", "t@3"]


@pytest.mark.parametrize("op, message", [
    (HomOp(kind=PMULT, level=6, result="p", operands=("a",),
           plaintext_id="w", repeat=2), "repeat"),
    (HomOp(kind=ROTATE, level=6, result="r", operands=("a",),
           hint_id="rot1"), "amount"),
    (HomOp(kind=ROTATE, level=6, result="r", operands=("nowhere",),
           hint_id="rot1", steps=1), "producer"),
])
def test_unexecutable_programs_raise_schedule_error(fhe, op, message):
    program = Program(name="bad", degree=512, max_level=6,
                      ops=[HomOp(kind=INPUT, level=6, result="a"), op])
    ct = fhe.ctx.encrypt_values(fhe.sk, fhe.random_values(5))
    with pytest.raises(ScheduleError, match=message):
        execute(program, fhe.ctx, {"a": ct}, {1: fhe.rot1}, {"w": [1.0]})


def test_unbound_input_raises_schedule_error(fhe):
    program = Program(name="unbound", degree=512, max_level=6,
                      ops=[HomOp(kind=INPUT, level=6, result="a")])
    with pytest.raises(ScheduleError, match="not bound"):
        execute(program, fhe.ctx, {})
