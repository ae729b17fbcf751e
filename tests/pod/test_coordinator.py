"""PodExecutor fault recovery: migration, retransmit, escalation.

The executor runs a model-parallel partition of the lstm serving
program.  Every test compares against the unpartitioned execution of
that program - the recovery contract is *bit-exact* equivalence, not
approximate agreement.
"""

import numpy as np
import pytest

from repro.core.config import ChipConfig
from repro.fhe.ckks import CkksContext, CkksParams
from repro.fhe.execute import execute
from repro.ir import INPUT
from repro.pod import (
    MODEL_PARALLEL,
    CutEdge,
    PodConfig,
    PodExecutor,
    partition,
)
from repro.pod.config import LINK_RETRIES
from repro.reliability import guards
from repro.reliability.errors import (
    ChipFailure,
    InterconnectError,
    ParameterError,
)
from repro.reliability.faults import CHIP, LINK, FaultInjector
from repro.workloads.serving import (
    rotation_strides,
    serving_plaintexts,
    serving_program,
    serving_weights,
)

CHIPS = 3
STEPS = 11  # the lstm program's steps: one per hint or plaintext load
BLOCK = 16


@pytest.fixture(scope="module")
def pod_fixture():
    params = CkksParams(degree=64, max_level=4, digits=1,
                        secret_hamming=8, seed=99)
    ctx = CkksContext(params,
                      policy=guards.ReliabilityPolicy(checksums=True))
    sk = ctx.keygen()
    keys = {s: ctx.rotation_hint(sk, s) for s in rotation_strides(BLOCK)}
    plaintexts = serving_plaintexts(serving_weights(3, params.slots, BLOCK))
    program = serving_program("lstm", params.degree, params.max_level,
                              BLOCK, 1)
    pod = PodConfig(chips=CHIPS, strategy=MODEL_PARALLEL, seed=7)
    part = partition(program, ChipConfig(), pod)
    rng = np.random.default_rng(99)
    ct = ctx.seal(ctx.encrypt_values(
        sk, 0.5 * rng.standard_normal(params.slots)))
    inputs = {op.result: ct for op in program.ops if op.kind == INPUT}
    want = execute(program, ctx, inputs, keys, plaintexts)
    return ctx, pod, part, inputs, keys, plaintexts, want


def build(fixture, injector=None, pod=None):
    ctx, default_pod, part, inputs, keys, plaintexts, _ = fixture
    return PodExecutor(ctx, pod or default_pod, part, inputs, keys,
                       plaintexts, injector=injector)


def assert_matches(got, fixture):
    want = fixture[-1]
    assert want and got.keys() == want.keys()
    for name, w in want.items():
        assert np.array_equal(got[name].c0.data, w.c0.data)
        assert np.array_equal(got[name].c1.data, w.c1.data)
        assert got[name].scale == w.scale


def test_clean_run_is_deterministic(pod_fixture):
    first = build(pod_fixture)
    assert_matches(first.run(), pod_fixture)
    assert first.stats.steps == STEPS
    assert first.stats.transfers == len(pod_fixture[2].edges)
    again = build(pod_fixture)
    assert_matches(again.run(), pod_fixture)
    assert not (again.stats.chip_failures or again.stats.retransmits)


@pytest.mark.parametrize("skip", range(STEPS))
def test_chip_failstop_recovers_bit_exact(pod_fixture, skip):
    """Whichever step a chip is lost before, its shards migrate and
    replay to the same bits."""
    inj = FaultInjector(seed=5)
    inj.arm(CHIP, skip=skip)
    ex = build(pod_fixture, injector=inj)
    final = ex.run()
    assert ex.stats.chip_failures == 1
    assert ex.stats.migrations >= 1
    assert len(ex.dead) == 1
    assert_matches(final, pod_fixture)


def test_link_corruption_detected_and_retransmitted(pod_fixture):
    inj = FaultInjector(seed=5)
    inj.arm(LINK, skip=1)
    ex = build(pod_fixture, injector=inj)
    final = ex.run()
    assert ex.stats.link_faults_detected == 1
    assert ex.stats.retransmits == 1
    assert ex.stats.backoff_s > 0
    assert_matches(final, pod_fixture)


def test_stubborn_link_fault_exhausts_then_succeeds(pod_fixture):
    """A corruption burst one shy of the budget still recovers."""
    inj = FaultInjector(seed=5)
    inj.arm(LINK, skip=0, count=LINK_RETRIES)
    ex = build(pod_fixture, injector=inj)
    final = ex.run()
    assert ex.stats.link_faults_detected == 3
    assert ex.stats.retransmits == 3
    assert_matches(final, pod_fixture)


def test_link_budget_exhaustion_escalates_typed(pod_fixture):
    inj = FaultInjector(seed=5)
    inj.arm(LINK, skip=0, count=LINK_RETRIES + 1)  # every attempt corrupted
    ex = build(pod_fixture, injector=inj)
    with pytest.raises(InterconnectError):
        ex.run()


def test_losing_every_chip_raises_chipfailure(pod_fixture):
    ex = build(pod_fixture)
    ex.run()  # every shard now has a checkpoint to restore from
    # Kill all chips by hand; the next failure has nowhere to migrate.
    ex._fail_chip(0)
    ex._fail_chip(1)
    with pytest.raises(ChipFailure):
        ex._fail_chip(2)


def test_transfer_of_missing_value_is_parameter_error(pod_fixture):
    ex = build(pod_fixture)
    with pytest.raises(ParameterError):
        ex._transfer(CutEdge(value="nonexistent", src=0, dst=1, words=0.0))


def test_plan_outside_pod_rejected(pod_fixture):
    """A partition with more shards than the pod has chips."""
    with pytest.raises(ParameterError):
        build(pod_fixture, pod=PodConfig(chips=2))
