"""Pod-coordinated functional execution with chip/link fault recovery.

The :class:`PodExecutor` runs a :class:`~repro.pod.partition.Partition`
on real CKKS work (the `repro.fhe` layer): each shard is one logical
chip whose program runs as :func:`~repro.fhe.execute.program_steps`
steps, and each :class:`~repro.pod.partition.CutEdge` is a link
transfer from the producer shard's stitched ``pod-cut`` OUTPUT into the
consumer's stitched INPUT.  Shards run in pipeline order and every edge
goes forward, so a shard's receipts all arrive before its first step.
The executor survives the pod's two failure domains:

* **chip fail-stop** (``reliability.faults.CHIP`` site) - a chip stops
  before one of its steps.  The coordinator observes the loss (fail-stop
  is detected by construction: the dispatched step never reports back),
  migrates every logical chip hosted there onto the least-loaded
  survivor, restores each from its last sealed checkpoint (reusing
  `repro.reliability.recovery`'s snapshots), re-applies the receipts
  logged since that checkpoint (sealed copies of every cross-chip
  payload delivered - classic message-logging recovery, so replay never
  needs a sender to rewind), and replays the missing steps.  Replay is
  deterministic, so recovery is bit-exact.
* **link corruption** (``reliability.faults.LINK`` site) - a cross-chip
  transfer is damaged in flight.  Transfers travel as sealed snapshots
  (:func:`~repro.reliability.recovery.snapshot_ciphertext`); the
  receiver's restore re-verifies the per-limb seals, so any flipped bit
  raises and the payload is never accepted.  The sender retransmits
  from its intact copy with seeded exponential backoff up to the pod's
  ``LINK_RETRIES`` budget, then escalates with
  :class:`~repro.reliability.errors.InterconnectError`.

Everything is seeded; two runs with the same inputs and injector state
produce bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.config import ChipConfig
from repro.fhe.execute import output_keys, program_steps
from repro.ir import INPUT, OUTPUT
from repro.obs import collector as obs
from repro.pod.config import (
    CHECKPOINT_STEPS,
    LINK_BACKOFF_BASE_S,
    LINK_RETRIES,
    PodConfig,
)
from repro.pod.partition import CUT_TAG, CutEdge, Partition
from repro.reliability.errors import (
    ChipFailure,
    FaultDetectedError,
    InterconnectError,
    ParameterError,
)
from repro.reliability.faults import CHIP, LINK, FaultInjector
from repro.reliability.recovery import (
    Checkpoint,
    CiphertextSnapshot,
    backoff_s,
    restore_checkpoint,
    snapshot_ciphertext,
    take_checkpoint,
)


@dataclass
class PodStats:
    """What one pod execution did and survived."""

    steps: int = 0
    transfers: int = 0
    chip_failures: int = 0
    migrations: int = 0          # logical chips re-homed after a failure
    replayed_steps: int = 0      # steps re-executed from a checkpoint
    link_faults_detected: int = 0
    retransmits: int = 0
    backoff_s: float = 0.0       # virtual retransmit backoff accumulated
    checkpoints: int = 0
    restores: int = 0
    # Links (src, dst) that delivered at least one corrupted attempt -
    # campaign coverage evidence, not a counter.
    faulted_links: set = field(default_factory=set)


class PodExecutor:
    """Fault-tolerant execution of a partition, one shard per chip.

    ``inputs`` maps the program's INPUT names to ciphertexts; ``keys``
    and ``plaintexts`` are as for :func:`~repro.fhe.execute.execute`.
    """

    def __init__(self, ctx, pod: PodConfig, part: Partition, inputs: dict,
                 keys=None, plaintexts=None,
                 injector: FaultInjector | None = None):
        if part.chips > pod.chips:
            raise ParameterError("more shards than chips in the pod",
                                 shards=part.chips, chips=pod.chips)
        self.ctx = ctx
        self.pod = pod
        self.injector = injector
        self.rng = np.random.default_rng(pod.seed)
        # Step prices are the simulator's business; only the steps run.
        self.plans = [program_steps(s.program, ChipConfig(), keys,
                                    plaintexts)[0] for s in part.shards]
        self._out_keys = [output_keys(s.program) for s in part.shards]
        # The program's own outputs, per shard (stitched legs excluded).
        self._results = [
            [op.operands[0] for op in s.program.ops
             if op.kind == OUTPUT and op.tag != CUT_TAG]
            for s in part.shards]
        self._edges_in = [[e for e in part.edges if e.dst == c]
                          for c in range(part.chips)]
        # Executor owns its state: callers can reuse input ciphertexts
        # across runs (the campaign does, per trial).
        self.states = [
            {op.result: inputs[op.result].copy() for op in s.program.ops
             if op.kind == INPUT and op.result in inputs}
            for s in part.shards]
        self.hosted_on = list(range(part.chips))  # logical -> physical
        self.dead: set[int] = set()
        self.done = [0] * part.chips  # steps completed per shard
        self.stats = PodStats()
        self._ckpts: list[Checkpoint | None] = [None] * part.chips
        # Receive log: sealed copies of payloads delivered since each
        # shard's last checkpoint - re-applied after a restore so
        # recovery never needs a sender to rewind.
        self._rx_log: list[list[tuple[str, CiphertextSnapshot]]] = \
            [[] for _ in range(part.chips)]

    # -- failure handling ---------------------------------------------------

    def _hosted(self, phys: int) -> list[int]:
        return [c for c, p in enumerate(self.hosted_on) if p == phys]

    def _fail_chip(self, phys: int) -> None:
        """Fail-stop ``phys``: migrate its logical chips to the
        least-loaded survivor and rebuild them from their checkpoints."""
        self.dead.add(phys)
        self.stats.chip_failures += 1
        obs.count("pod.chip_failures")
        survivors = [p for p in range(self.pod.chips) if p not in self.dead]
        if not survivors:
            raise ChipFailure(
                "pod lost its last chip; no survivor to migrate onto",
                chip=phys)
        for c in self._hosted(phys):
            self.hosted_on[c] = min(
                survivors, key=lambda p: (len(self._hosted(p)), p))
            self.stats.migrations += 1
            obs.count("pod.migrations")
            # The dead chip's live state went with it: restore, re-apply
            # the receipts logged since the checkpoint, replay the rest.
            ckpt = self._ckpts[c]
            with obs.span("pod.restore", "pod"):
                self.states[c] = restore_checkpoint(ckpt)
            self.stats.restores += 1
            for key, snap in self._rx_log[c]:
                self.states[c][key] = snap.restore()
            for _, fn in self.plans[c][ckpt.step:self.done[c]]:
                with obs.span("pod.replay_step", "pod"):
                    fn(self.ctx, self.states[c])
                self.stats.replayed_steps += 1
                obs.count("pod.replayed_steps")

    # -- transfers ----------------------------------------------------------

    def _transfer(self, e: CutEdge) -> None:
        sender = self.states[e.src]
        key = self._out_keys[e.src].get(e.value)
        if key not in sender:
            raise ParameterError("transfer of a value the sender lacks",
                                 src=e.src, value=e.value)
        snap = snapshot_ciphertext(sender[key])  # sealed, sender-side
        attempts = LINK_RETRIES + 1
        for attempt in range(attempts):
            wire = replace(snap, data0=snap.data0.copy(),
                           data1=snap.data1.copy())
            if self.injector is not None:
                half = wire.data0 if self.rng.random() < 0.5 else wire.data1
                self.injector.maybe_corrupt(LINK, half)
            try:
                received = wire.restore()  # re-verifies the seals
            except FaultDetectedError:
                self.stats.link_faults_detected += 1
                self.stats.faulted_links.add((e.src, e.dst))
                obs.count("pod.link_faults_detected")
                if attempt + 1 < attempts:
                    self.stats.retransmits += 1
                    self.stats.backoff_s += backoff_s(
                        LINK_BACKOFF_BASE_S, attempt, self.rng)
                    obs.count("pod.retransmits")
                continue
            # The consumer's stitched INPUT is bound under its own name.
            self.states[e.dst][e.value] = received
            self._rx_log[e.dst].append((e.value, wire))
            self.stats.transfers += 1
            obs.count("pod.transfers")
            return
        raise InterconnectError(
            "link retransmit budget exhausted; transfer never arrived "
            "intact", src=e.src, dst=e.dst, value=e.value,
            retries=LINK_RETRIES)

    # -- main loop ----------------------------------------------------------

    def _checkpoint(self, c: int) -> None:
        with obs.span("pod.checkpoint", "pod"):
            self._ckpts[c] = take_checkpoint(
                self.ctx, self.states[c], step=self.done[c],
                label=f"pod-chip{c}")
        self._rx_log[c] = []  # receipts now inside the checkpoint
        self.stats.checkpoints += 1
        obs.count("pod.checkpoints")

    def run(self) -> dict:
        """Run every shard in pipeline order; returns the program's
        outputs (value name -> ciphertext), as
        :func:`~repro.fhe.execute.execute` does.

        Raises :class:`ChipFailure` only when the last chip dies, and
        :class:`InterconnectError` only when a transfer exhausts its
        retransmit budget - everything survivable is survived.
        """
        for c in range(len(self.plans)):  # baseline: any death restores
            self._checkpoint(c)
        for c, steps in enumerate(self.plans):
            for e in self._edges_in[c]:
                self._transfer(e)
            for i, (_, fn) in enumerate(steps):
                if self.injector is not None and self.injector.fires(CHIP):
                    self._fail_chip(self.hosted_on[c])
                with obs.span("pod.step", "pod"):
                    fn(self.ctx, self.states[c])
                self.done[c] = i + 1
                self.stats.steps += 1
                obs.count("pod.steps")
                if self.done[c] % CHECKPOINT_STEPS == 0:
                    self._checkpoint(c)
        return {value: self.states[c][self._out_keys[c][value]]
                for c, values in enumerate(self._results)
                for value in values}
