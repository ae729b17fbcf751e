"""Seeded pod fault campaign: chip fail-stop + link corruption.

Mirrors the reliability and serving campaigns: one seed drives
everything, each trial arms exactly one fault (alternating the two pod
failure domains), and the gates are absolute -

* **100% detection**: every injected chip loss is observed (the
  dispatched step never reports back) and every injected link
  corruption is caught by the receiver's seal check;
* **0 wrong answers**: every trial's program outputs are bit-identical
  to the unpartitioned execution of the same program (recovery is
  replay, replay is deterministic);
* **0 unrecovered**: no survivable fault escalates out of the executor.

Stubborn link faults (every fourth link trial) corrupt consecutive
retransmits of the same transfer - still inside the pod's
``LINK_RETRIES`` budget, so the executor absorbs them; the campaign
reports them separately because they exercise the backoff path.

Run it from the command line::

    PYTHONPATH=src python -m repro.pod --campaign
    PYTHONPATH=src python -m repro.pod --campaign --check

``--check`` regression-gates the result against
``tests/pod/baseline.json`` exactly like the serving campaign.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.config import ChipConfig
from repro.fhe.execute import execute
from repro.ir import INPUT
from repro.pod.config import MODEL_PARALLEL, PodConfig
from repro.pod.coordinator import PodExecutor
from repro.pod.partition import partition
from repro.reliability.errors import ChipFailure, InterconnectError
from repro.reliability.faults import CHIP, LINK, FaultInjector
from repro.workloads.serving import (
    rotation_strides,
    serving_plaintexts,
    serving_program,
    serving_weights,
)


@dataclass
class PodSiteStats:
    injected: int = 0
    detected: int = 0

    @property
    def detection_rate(self) -> float:
        return self.detected / self.injected if self.injected else 0.0


@dataclass
class PodCampaignResult:
    """One pod campaign's aggregate outcome (JSON-stable)."""

    seed: int
    events: int                  # faults actually injected
    chips: int
    trials: int
    clean_trials: int
    sites: dict[str, PodSiteStats]
    distinct_links: int          # links that saw >= 1 corruption
    distinct_chips_failed: int
    false_positives: int
    wrong_answers: int
    unrecovered: int
    stubborn_faults: int
    migrations: int
    replayed_steps: int
    retransmits: int
    backoff_s: float
    checkpoints: int
    total_seconds: float

    def detection_rate(self, site: str) -> float:
        return self.sites[site].detection_rate

    def to_json(self) -> dict:
        return {
            "seed": self.seed, "events": self.events, "chips": self.chips,
            "trials": self.trials,
            "clean_trials": self.clean_trials,
            "sites": {
                site: {"injected": s.injected, "detected": s.detected}
                for site, s in self.sites.items()
            },
            "distinct_links": self.distinct_links,
            "distinct_chips_failed": self.distinct_chips_failed,
            "false_positives": self.false_positives,
            "wrong_answers": self.wrong_answers,
            "unrecovered": self.unrecovered,
            "stubborn_faults": self.stubborn_faults,
            "migrations": self.migrations,
            "replayed_steps": self.replayed_steps,
            "retransmits": self.retransmits,
            "checkpoints": self.checkpoints,
        }

    def report(self) -> str:
        from repro.analysis.report import format_table

        rows = [
            [site, s.injected, s.detected, f"{s.detection_rate:.1%}"]
            for site, s in self.sites.items()
        ]
        table = format_table(
            ["site", "injected", "detected", "rate"], rows,
            title=f"Pod fault campaign (seed={self.seed}, "
                  f"{self.chips} chips)",
        )
        lines = [
            table,
            "",
            f"trials: {self.trials} faulted + {self.clean_trials} clean "
            f"({self.events} faults injected)",
            f"coverage: {self.distinct_links} distinct links corrupted, "
            f"{self.distinct_chips_failed} distinct chips fail-stopped, "
            f"{self.stubborn_faults} stubborn (multi-retransmit) faults",
            f"recovery: {self.migrations} shard migrations, "
            f"{self.replayed_steps} steps replayed, "
            f"{self.retransmits} retransmits "
            f"({self.backoff_s * 1e3:.2f} ms virtual backoff), "
            f"{self.checkpoints} pod checkpoints",
            f"verdict: {self.wrong_answers} wrong answers, "
            f"{self.unrecovered} unrecovered, "
            f"{self.false_positives} clean-run false positives "
            f"({self.total_seconds:.1f}s wall)",
        ]
        return "\n".join(lines)


BLOCK = 16  # the served query block: four reduction strides


def _outputs_equal(got: dict, want: dict) -> bool:
    """Bit-exact comparison of every program output."""
    return got.keys() == want.keys() and all(
        np.array_equal(got[k].c0.data, w.c0.data)
        and np.array_equal(got[k].c1.data, w.c1.data)
        and got[k].scale == w.scale
        for k, w in want.items())


def run_pod_campaign(seed: int = 2022, events: int = 520, chips: int = 4,
                     degree: int = 64, max_level: int = 4,
                     clean_trials: int = 5) -> PodCampaignResult:
    """Inject >= ``events`` seeded pod faults and measure the outcome.

    Every trial executes the program a model-parallel ``Server`` prices
    - the lstm serving program, cut by :func:`partition` over ``chips``
    chips - from the same encrypted input, arms exactly one fault (chip
    fail-stop on even trials, link corruption on odd, every fourth link
    trial stubborn: the corruption persists across retransmits), and
    compares the program outputs bit-for-bit against the unpartitioned
    :func:`~repro.fhe.execute.execute`.  Driven entirely by ``seed``:
    reruns are identical.
    """
    from repro.fhe.ckks import CkksContext, CkksParams
    from repro.reliability import guards

    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    params = CkksParams(degree=degree, max_level=max_level, digits=1,
                        secret_hamming=max(8, degree // 16), seed=seed)
    ctx = CkksContext(params,
                      policy=guards.ReliabilityPolicy(checksums=True))
    sk = ctx.keygen()
    keys = {s: ctx.rotation_hint(sk, s) for s in rotation_strides(BLOCK)}
    plaintexts = serving_plaintexts(
        serving_weights(seed, params.slots, BLOCK))
    program = serving_program("lstm", degree, max_level, BLOCK, 1)
    pod = PodConfig(chips=chips, strategy=MODEL_PARALLEL, seed=seed)
    part = partition(program, ChipConfig(), pod)
    vals = 0.5 * rng.standard_normal(params.slots)
    inputs = {op.result: ctx.seal(ctx.encrypt_values(sk, vals))
              for op in program.ops if op.kind == INPUT}

    def fresh_executor(injector=None) -> PodExecutor:
        return PodExecutor(ctx, pod, part, inputs, keys, plaintexts,
                           injector=injector)

    # -- reference + clean phase: no injector, outputs must agree -----------
    reference = execute(program, ctx, inputs, keys, plaintexts)
    false_positives = 0
    for _ in range(clean_trials):
        ex = fresh_executor()
        final = ex.run()
        if ex.stats.chip_failures or ex.stats.link_faults_detected \
                or not _outputs_equal(final, reference):
            false_positives += 1

    # Opportunity counts in a clean run, for arming skips: one fires()
    # per step, one corruption chance per transfer.
    chip_opps = sum(len(steps) for steps in fresh_executor().plans)
    link_opps = len(part.edges)

    sites = {CHIP: PodSiteStats(), LINK: PodSiteStats()}
    faulted_links: set[tuple[int, int]] = set()
    failed_chips: set[int] = set()
    wrong = unrecovered = stubborn = 0
    migrations = replayed = retransmits = checkpoints = 0
    backoff_s = 0.0
    injector = FaultInjector(seed=seed + 1)
    trials = 0
    link_trials = 0

    while sites[CHIP].injected + sites[LINK].injected < events:
        site = CHIP if trials % 2 == 0 else LINK
        trials += 1
        count = 1
        if site == CHIP:
            injector.arm(CHIP, skip=int(rng.integers(chip_opps)))
        else:
            link_trials += 1
            if link_trials % 4 == 0:
                count = 2  # stubborn: survives the first retransmit
                stubborn += 1
            injector.arm(LINK, skip=int(rng.integers(link_opps)),
                         count=count)

        before = injector.injected[site]
        ex = fresh_executor(injector)
        try:
            final = ex.run()
        except (ChipFailure, InterconnectError):
            final = None
            unrecovered += 1
        # An arm whose skip outran the run's opportunities never fired;
        # that trial injected nothing and counts for nothing.
        unfired = injector._armed.pop(site, None) is not None
        injected = injector.injected[site] - before
        sites[site].injected += injected
        if site == CHIP:
            sites[site].detected += min(injected, ex.stats.chip_failures)
            failed_chips |= ex.dead
        else:
            sites[site].detected += min(injected,
                                        ex.stats.link_faults_detected)
            faulted_links |= ex.stats.faulted_links
            if unfired and count == 2:
                stubborn -= 1  # armed burst never (fully) exercised
        migrations += ex.stats.migrations
        replayed += ex.stats.replayed_steps
        retransmits += ex.stats.retransmits
        backoff_s += ex.stats.backoff_s
        checkpoints += ex.stats.checkpoints
        if final is not None and injected \
                and not _outputs_equal(final, reference):
            wrong += 1

    return PodCampaignResult(
        seed=seed, events=sites[CHIP].injected + sites[LINK].injected,
        chips=chips, trials=trials,
        clean_trials=clean_trials, sites=sites,
        distinct_links=len(faulted_links),
        distinct_chips_failed=len(failed_chips),
        false_positives=false_positives, wrong_answers=wrong,
        unrecovered=unrecovered, stubborn_faults=stubborn,
        migrations=migrations, replayed_steps=replayed,
        retransmits=retransmits, backoff_s=backoff_s,
        checkpoints=checkpoints,
        total_seconds=time.perf_counter() - t0,
    )


# -- regression gate ---------------------------------------------------------

_EXACT_FIELDS = ("events", "chips", "trials", "clean_trials",
                 "distinct_links", "distinct_chips_failed",
                 "false_positives", "wrong_answers", "unrecovered",
                 "stubborn_faults", "migrations", "replayed_steps",
                 "retransmits", "checkpoints")


def check_against_baseline(result: PodCampaignResult,
                           baseline_path) -> list[str]:
    """Compare a campaign result against a committed baseline; returns
    human-readable problems (empty = pass).  Counts are integers and the
    campaign is seeded, so every field must match exactly."""
    baseline = json.loads(Path(baseline_path).read_text())
    got = result.to_json()
    problems = []
    for f in _EXACT_FIELDS:
        if got[f] != baseline[f]:
            problems.append(f"{f}: got {got[f]}, baseline {baseline[f]}")
    for site, want in baseline["sites"].items():
        have = got["sites"].get(site)
        if have != want:
            problems.append(f"sites[{site}]: got {have}, baseline {want}")
    # The absolute gates hold regardless of what the baseline says.
    for site, s in result.sites.items():
        if s.injected and s.detection_rate < 1.0:
            problems.append(
                f"detection[{site}]: {s.detection_rate:.1%} < 100%")
    if result.wrong_answers:
        problems.append(f"{result.wrong_answers} wrong answers")
    if result.unrecovered:
        problems.append(f"{result.unrecovered} unrecovered faults")
    return problems
