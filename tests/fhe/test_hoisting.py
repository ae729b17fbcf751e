"""Hoisted rotations: one ModUp shared across many rotations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ChipConfig
from repro.core.cost import (
    boosted_keyswitch_cost,
    hoist_modup_cost,
    hoisted_rotate_keyswitch_cost,
)
from repro.fhe.execute import execute
from repro.fhe.hoisting import HoistedRotator, hoisting_savings
from repro.ir import HOIST_MODUP, INPUT, OUTPUT, ROTATE_HOISTED, HomOp, Program
from repro.reliability.errors import ParameterError


def test_hoisted_rotation_matches_plain(fhe):
    ctx, sk = fhe.ctx, fhe.sk
    z = fhe.random_values(31)
    ct = ctx.encrypt_values(sk, z)
    plan = {s: ctx.rotation_hint(sk, s) for s in (1, 3, 7)}
    rotator = HoistedRotator(ctx, ct, alpha=ctx.params.alpha)
    for steps, hint in plan.items():
        out = rotator.rotate(steps, hint)
        want = np.roll(z, -steps)
        got = ctx.decrypt(sk, out)
        assert np.max(np.abs(got - want)) < 1e-3, steps
        # And agrees with the unhoisted path.
        plain = ctx.decrypt(sk, ctx.rotate(ct, steps, plan[steps]))
        assert np.max(np.abs(got - plain)) < 1e-3, steps


def test_hoisting_empty_plan(fhe):
    # A hoisted ModUp with an empty rotation plan emits nothing; with
    # one rotation it emits exactly that rotation.
    ct = fhe.ctx.encrypt_values(fhe.sk, fhe.random_values(32))
    ops = [HomOp(kind=INPUT, level=6, result="x"),
           HomOp(kind=HOIST_MODUP, level=6, result="up", operands=("x",))]
    program = Program(name="empty-plan", degree=512, max_level=6, ops=ops)
    assert execute(program, fhe.ctx, {"x": ct}) == {}
    program.ops += [
        HomOp(kind=ROTATE_HOISTED, level=6, result="r", operands=("up", "x"),
              hint_id="rot1", steps=1),
        HomOp(kind=OUTPUT, level=6, result="out", operands=("r",))]
    out = execute(program, fhe.ctx, {"x": ct}, {1: fhe.rot1})["r"]
    want = fhe.ctx.rotate(ct, 1, fhe.rot1)
    assert np.array_equal(out.c0.data, want.c0.data)
    assert np.array_equal(out.c1.data, want.c1.data)


def test_hoisted_rotator_reuses_decomposition(fhe):
    ctx, sk = fhe.ctx, fhe.sk
    ct = ctx.encrypt_values(sk, fhe.random_values(33))
    rotator = HoistedRotator(ctx, ct, alpha=ctx.params.alpha)
    digits_before = [d.data.copy() for d in rotator.raised_digits]
    rotator.rotate(1, ctx.rotation_hint(sk, 1))
    rotator.rotate(2, ctx.rotation_hint(sk, 2))
    # The shared decomposition is never mutated by rotations.
    for before, after in zip(digits_before, rotator.raised_digits):
        assert np.array_equal(before, after.data)


_CFG = ChipConfig()


def _ntt_passes(cost) -> float:
    """NTT elements of one op / N = the number of full NTT passes."""
    return cost.fu_elements.get("ntt", 0.0)


@settings(max_examples=200, deadline=None)
@given(level=st.integers(2, 60), digits=st.integers(1, 4),
       rotations=st.integers(1, 64))
def test_hoisting_savings_matches_cost_model(level, digits, rotations):
    """The docstring's closed form IS the cost model, for swept (L, t, k).

    ``hoisting_savings`` promises ``separate = k*(L + tL + 2a + 2L)`` and
    ``hoisted = (L + tL) + k*(2a + 2L)`` NTT passes; check both against
    the cost model's NTT element counts (per N) rather than trusting two
    independently maintained formulas to agree at a single point.
    """
    digits = min(digits, level)
    n = 1024
    alpha = -(-level // digits)
    fused = _ntt_passes(boosted_keyswitch_cost(_CFG, n, level, digits)) / n
    hoist = _ntt_passes(hoist_modup_cost(_CFG, n, level, digits)) / n
    per_rot = _ntt_passes(
        hoisted_rotate_keyswitch_cost(_CFG, n, level, digits)) / n
    assert fused == level + digits * level + 2 * alpha + 2 * level
    assert hoist == level + digits * level
    assert per_rot == 2 * alpha + 2 * level
    separate = rotations * fused
    hoisted = hoist + rotations * per_rot
    assert hoisting_savings(level, digits, rotations) == pytest.approx(
        separate / hoisted)


@settings(max_examples=100, deadline=None)
@given(level=st.integers(2, 60), digits=st.integers(1, 4))
def test_hoisted_split_is_exact_complement(level, digits):
    """hoist_modup + hoisted remainder == fused keyswitch, field by field.

    This is the k = 1 break-even property the compiler pass relies on:
    a singleton group costs exactly the same hoisted as fused, so the
    rewrite can never pessimize.
    """
    digits = min(digits, level)
    n = 1024
    fused = boosted_keyswitch_cost(_CFG, n, level, digits)
    split = hoist_modup_cost(_CFG, n, level, digits)
    split.merge(hoisted_rotate_keyswitch_cost(_CFG, n, level, digits))
    assert split.fu_elements == fused.fu_elements
    assert split.port_stream_elements == pytest.approx(
        fused.port_stream_elements)
    assert split.network_words == pytest.approx(fused.network_words)
    assert split.scalar_mults == fused.scalar_mults
    assert split.scalar_adds == fused.scalar_adds
    assert split.hint_words == fused.hint_words
    assert split.kshgen_elements == fused.kshgen_elements


def test_hoisting_savings_growth():
    # Savings grow with the number of rotations sharing the hoist and
    # approach the 6L/4L = 1.5 asymptote for 1-digit keyswitching.
    assert hoisting_savings(60, 1, 32) > hoisting_savings(60, 1, 2)
    assert hoisting_savings(60, 1, 1) == pytest.approx(1.0)
    assert 1.4 < hoisting_savings(60, 1, 512) < 1.5


def test_hoisted_rotator_rejects_bad_alpha(fhe):
    ctx, sk = fhe.ctx, fhe.sk
    ct = ctx.encrypt_values(sk, fhe.random_values(34))
    with pytest.raises(ParameterError):
        HoistedRotator(ctx, ct, alpha=0)
    with pytest.raises(ParameterError):
        HoistedRotator(ctx, ct, alpha=len(ctx.aux_basis) + 1)
    # The full special basis is the largest *valid* alpha.
    rotator = HoistedRotator(ctx, ct, alpha=len(ctx.aux_basis))
    got = ctx.decrypt(sk, rotator.rotate(1, fhe.rot1))
    want = ctx.decrypt(sk, ctx.rotate(ct, 1, fhe.rot1))
    assert np.max(np.abs(got - want)) < 1e-3
