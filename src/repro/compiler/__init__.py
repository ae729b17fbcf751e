"""The CraterLake compiler (Sec. 6): from FHE programs to op streams.

A Python-embedded DSL (`repro.compiler.dsl`) builds dataflow programs of
homomorphic operations; kernels (`repro.compiler.kernels`) provide the
building blocks every benchmark uses (BSGS matrix-vector products,
polynomial activations, rotate-and-sum reductions); the digit scheduler
(`repro.compiler.digits`) picks the keyswitching variant per level for a
security target (Sec. 3.1); the hoisting pass (`repro.compiler.hoisting`)
rewrites groups of same-source rotations into shared-ModUp form
(Halevi-Shoup); and the ordering pass (`repro.compiler.ordering`)
reorders independent ops: `order_for_pressure` is a register-pressure-
aware, simulator-gated list scheduler with hint-reuse chaining as its
tie-break - the compiler's main lever on off-chip traffic.

:func:`compile_program` (`repro.compiler.cache`) is the one-call pipeline
entry - a fixed pipeline of hoisting, then pressure scheduling, behind an
optional content-addressed compile cache that persists lowered schedules
across calls and processes.  The full pipeline and artifact contract are documented in
docs/COMPILER.md.

Stability guarantees
--------------------
The compiler's output is deterministic: lowering the same
:class:`~repro.ir.Program` for the same
:class:`~repro.core.config.ChipConfig` always produces the identical op stream (no randomness, no wall-clock input,
simulator-gated decisions included).  That determinism is load-bearing -
it is what lets the compile cache substitute a deserialized artifact for
a recompile bit-for-bit.  Code that would break it (hash-order
iteration over ops, randomized tie-breaking) must not be introduced
without bumping :data:`repro.compiler.cache.FORMAT_VERSION`.

Fingerprints (:func:`repro.compiler.cache.fingerprint`) are invariant
under SSA value renames and hint/plaintext-id renames (names are
canonicalized to first-appearance indices before hashing) and under
``Program.name`` / ``ChipConfig.name`` changes; *every* other program,
config, or pod-descriptor change invalidates them.  Any change to the
canonicalization or to pass semantics that alters lowered output for an
unchanged input requires a ``FORMAT_VERSION`` bump so stale artifacts
are rejected rather than replayed.
"""

from repro.compiler.cache import (
    FORMAT_VERSION,
    CompileCache,
    compile_program,
    fingerprint,
    load_artifact,
    save_artifact,
)
from repro.compiler.digits import digit_schedule
from repro.compiler.dsl import FheBuilder, Value
from repro.compiler.hoisting import hoist_rotations
from repro.compiler.kernels import (
    blocked_matvec,
    matvec,
    polynomial_activation,
    rotate_accumulate,
)
from repro.compiler.ordering import order_for_pressure
from repro.compiler.placement import (
    Placement,
    amortized_cost_per_op,
    plan_refreshes,
)

__all__ = [
    "FORMAT_VERSION",
    "CompileCache",
    "FheBuilder",
    "Value",
    "compile_program",
    "digit_schedule",
    "fingerprint",
    "load_artifact",
    "save_artifact",
    "blocked_matvec",
    "matvec",
    "polynomial_activation",
    "rotate_accumulate",
    "hoist_rotations",
    "order_for_pressure",
    "Placement",
    "amortized_cost_per_op",
    "plan_refreshes",
]
