"""Model-parallel cuts run: executed shards decrypt to the unpartitioned
answer, bit for bit.

The partitioner tests check cuts structurally (conservation, stitching,
``validate_program``).  Here a fault-free :class:`PodExecutor` *executes*
the shards on the CKKS layer in pipeline order: each stitched
``pod-cut`` INPUT is fed, over a sealed link transfer, the ciphertext its
producer shard emitted through the matching stitched OUTPUT.  A cut that
dropped, duplicated, reordered or mis-stitched an op would change the
residues.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compiler import FheBuilder, hoist_rotations
from repro.core.config import ChipConfig
from repro.fhe.execute import execute
from repro.ir import HOIST_MODUP, INPUT
from repro.pod import MODEL_PARALLEL, PodConfig, PodExecutor, partition
from repro.workloads.serving import (
    rotation_strides,
    serving_plaintexts,
    serving_program,
    serving_weights,
)

CFG = ChipConfig()


def _serving(fhe):
    program = serving_program("lstm", fhe.ctx.params.degree, 6, 16, 1)
    keys = {s: fhe.ctx.rotation_hint(fhe.sk, s) for s in rotation_strides(16)}
    plaintexts = serving_plaintexts(serving_weights(3, fhe.slots, 16))
    return program, keys, plaintexts


def _hoisted(fhe):
    # Paper-scale cost metadata so the hoisting gate fires; the executor
    # ignores levels, so the program runs on the small test ring.
    # Three rounds, each rotating the previous round's sum, so there are
    # three hoisting groups (the first batches its repeated amount).
    b = FheBuilder("hoist-toy", degree=65536, max_level=60)
    x = b.input("x", 57)
    for amounts in ((1, 2, 3, 1), (1, 2, 3), (2, 3, 1)):
        acc = x
        for steps in amounts:
            acc = b.add(acc, b.rotate(x, steps))
        x = acc
    b.output(x)
    program = hoist_rotations(b.build(), CFG)
    assert sum(op.kind == HOIST_MODUP for op in program.ops) == 3
    keys = {s: fhe.ctx.rotation_hint(fhe.sk, s) for s in (1, 2, 3)}
    return program, keys, None


@pytest.mark.parametrize("build", [_serving, _hoisted],
                         ids=["serving_lstm", "hoisted_toy"])
@pytest.mark.parametrize("chips", [2, 3])
def test_executed_shards_decrypt_to_the_unpartitioned_answer(fhe, build,
                                                             chips):
    program, keys, plaintexts = build(fhe)
    ct = fhe.ctx.encrypt_values(
        fhe.sk, 0.5 * np.random.default_rng(chips).standard_normal(fhe.slots))
    inputs = {op.result: ct for op in program.ops if op.kind == INPUT}
    want = execute(program, fhe.ctx, inputs, keys, plaintexts)

    # A 1 Tb/s link makes cutting the paper-scale hoisted toy pay off.
    pod = PodConfig(chips=chips, strategy=MODEL_PARALLEL, link_gbps=1000.0)
    part = partition(program, CFG, pod)
    assert all(shard.stitched_inputs for shard in part.shards[1:])
    ex = PodExecutor(fhe.ctx, pod, part, inputs, keys, plaintexts)
    got = ex.run()
    assert ex.stats.transfers == len(part.edges)

    assert want and got.keys() == want.keys()
    for name, w in want.items():
        g = got[name]
        assert np.array_equal(g.c0.data, w.c0.data)
        assert np.array_equal(g.c1.data, w.c1.data)
        assert g.scale == w.scale
        assert np.array_equal(fhe.ctx.decrypt(fhe.sk, g),
                              fhe.ctx.decrypt(fhe.sk, w))
