"""The step contract a ``Server(fault_factory=...)`` hook relies on.

Fault plans outside this package (the committed benchmark's among them)
wrap the steps a batch runs, so the shape of that list is an interface:

* every entry is a ``(name, fn)`` pair whose name begins with the tag
  of the serving phase it runs (``score``, ``reduce``, ``mask``, ...);
* exactly the steps that keyswitch are named ``reduce...`` - a plan
  that aims an NTT or HBM fault at a keyswitch picks steps by that
  prefix;
* between steps the state dict holds exactly ``"x"``, the working
  ciphertext, and ``"base"``, a resident the program never touches.

The steps are the serving IR program cut by
:func:`repro.fhe.execute.program_steps`, and each is priced as the sum
of its ops' compute cycles, so a pmult step includes its rescale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ChipConfig
from repro.core.cost import op_cost
from repro.fhe.execute import program_steps
from repro.ir import PMULT, RESCALE, HomOp
from repro.obs import collector as obs
from repro.serve import ServeConfig, Server, VirtualClock
from repro.workloads.serving import (
    KIND_DEPTH,
    SERVE_KINDS,
    rotation_strides,
    serving_program,
)

PHASES = ("score", "reduce", "mask", "score2", "reduce2")


def _observe(kind: str):
    """Run one clean batch; per step: name, state keys after it, and
    how many keyswitches it ran."""
    seen = []

    def factory(batch_id, attempt, steps):
        wrapped = []
        for name, fn in steps:
            def observed(ctx, state, name=name, fn=fn):
                with obs.collecting() as c:
                    fn(ctx, state)
                seen.append((name, sorted(state),
                             c.counters.get("fhe.keyswitch.boosted", 0)))
            wrapped.append((name, observed))
        return wrapped

    cfg = ServeConfig()
    server = Server(cfg, clock=VirtualClock(), fault_factory=factory)
    rng = np.random.default_rng(1)
    for t in range(2):
        server.submit(f"t{t}", kind, rng.uniform(-1, 1, cfg.block_slots))
    server.clock.advance(cfg.batch_window_s)
    assert server.pump()
    assert all(r.ok for r in server.responses)
    return seen


@pytest.mark.parametrize("kind", SERVE_KINDS)
def test_fault_factory_step_contract(kind):
    seen = _observe(kind)
    strides = rotation_strides(ServeConfig().block_slots)
    assert len(seen) == KIND_DEPTH[kind] + len(strides) * (
        2 if kind == "lstm" else 1)
    for name, keys, keyswitches in seen:
        assert name.split("/")[0] in PHASES
        assert keys == ["base", "x"]
        assert (keyswitches > 0) == name.startswith("reduce")
    assert [n for n, _, _ in seen if n.startswith("reduce/")] == [
        f"reduce/rot{s}" for s in strides]


def test_pmult_steps_are_priced_with_their_rescale():
    cfg, chip = ServeConfig(), ChipConfig()
    prog = serving_program("lstm", cfg.degree, cfg.max_level,
                           cfg.block_slots, 1)
    steps, cycles = program_steps(prog, chip)
    level = cfg.max_level
    for (name, _), price in zip(steps, cycles):
        if name.startswith(("score", "mask")):
            pmult = HomOp(kind=PMULT, level=level, result="p",
                          operands=("a",), plaintext_id="w")
            rescale = HomOp(kind=RESCALE, level=level, result="r",
                            operands=("p",))
            assert price == sum(
                op_cost(chip, op, cfg.degree).compute_cycles(chip)
                for op in (pmult, rescale))
            level -= 1
    assert level == cfg.max_level - KIND_DEPTH["lstm"]
