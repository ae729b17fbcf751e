"""Serving front-end configuration and its pre-flight validation.

One frozen dataclass holds what a deployment actually varies: the
packing geometry, the seed, the queue bound, the batch window, response
verification and the payload cap.  The serving policy around them -
deadlines, the degradation ladder, retry/backoff, the per-tenant
circuit breaker - has one value in use, so it lives below as module
constants.  Construction runs
:func:`repro.reliability.validate.validate_config`, which recognizes
serve configs structurally and rejects nonsense (zero queue depth, a
non-finite payload cap, a block that does not tile the slot count) with
:class:`~repro.reliability.errors.ConfigError` before a single request
is accepted - the same fail-in-microseconds contract the chip simulator
gives (program, ChipConfig) pairings.

The defaults describe a small-but-real instance: N=256 (128 slots),
16-slot tenant blocks, so 8 tenants share one ciphertext.  Production
geometry is the same code at N=65536: 32K slots / 256-slot logreg query
blocks = 128 tenants per ciphertext; everything here scales with the
``degree``/``block_slots`` ratio, the functional CKKS layer is just too
slow at full N for unit-test turnaround.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.reliability.recovery import backoff_s
from repro.reliability.validate import validate_config

# -- admission control ---------------------------------------------------
DEFAULT_DEADLINE_S = 5e-3    # deadline when the client sets none

# -- graceful degradation ------------------------------------------------
# At this backlog fraction of queue_depth the server degrades: it stops
# waiting for full batches and divides the packing target, trading
# throughput for bounded latency *before* shedding.
DEGRADE_WATERMARK = 0.5
DEGRADE_BATCH_DIVISOR = 2

# -- retries / faults ----------------------------------------------------
MAX_RETRIES = 2              # serve-level batch re-executions
BACKOFF_BASE_S = 1e-4        # base of the backoff_s schedule
CHECKPOINT_EVERY = 2         # RecoveringExecutor checkpoint cadence
EXECUTOR_RETRIES = 1         # in-executor checkpoint replays

# -- per-tenant circuit breaker ------------------------------------------
BREAKER_THRESHOLD = 3        # consecutive failures before opening
BREAKER_COOLDOWN_S = 2e-2    # open -> half-open probe delay


@dataclass(frozen=True)
class ServeConfig:
    """Static configuration of one serving front-end instance."""

    # -- CKKS / packing geometry ------------------------------------------
    degree: int = 256            # ring degree N of the shared ciphertext
    max_level: int = 5           # levels; the deepest kind (lstm) consumes
    #                              3 and must still END at level >= 2: at
    #                              level 1 the single remaining modulus
    #                              roughly equals the scale, so the
    #                              representable range collapses to ~0.5
    #                              and real workload values silently wrap
    block_slots: int = 16        # slots one tenant query occupies
    max_batch: int = 8           # tenant queries packed per ciphertext
    seed: int = 2022             # keys, weights, jitter - everything

    # -- admission / batching ---------------------------------------------
    queue_depth: int = 64        # bound on queued requests (hard)
    batch_window_s: float = 2e-4 # max wait for a batch to fill

    # -- verification ------------------------------------------------------
    verify_responses: bool = False  # clean-replay every completed batch
    #                              and compare decrypted slots bit-exactly
    #                              (the campaign's 0-wrong-answer check)

    # -- payload sanity (tenant-attributable) ------------------------------
    payload_limit: float = 8.0   # max |value| accepted at admission

    def __post_init__(self):
        validate_config(self)

    @property
    def slots(self) -> int:
        return self.degree // 2

    @property
    def capacity(self) -> int:
        """Tenant blocks one ciphertext can carry."""
        return self.slots // self.block_slots

    def retry_budget_s(self) -> float:
        """Worst-case serve-level backoff a faulted batch accumulates.

        ``MAX_RETRIES`` pauses, each bounded by the *ceiling* pause (the
        last retry's :func:`backoff_s` step at full positive jitter).
        The admission ETA folds this in so a request whose deadline only
        holds if nothing ever faults is shed up front instead of
        expiring after occupying the chip.
        """
        return MAX_RETRIES * backoff_s(BACKOFF_BASE_S, MAX_RETRIES - 1)

    def with_(self, **changes) -> "ServeConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)
