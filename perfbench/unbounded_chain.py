"""unbounded_chain: the paper's headline capability, executed for real.

Closed loop, one caller, and the only workload that runs
``Bootstrapper.bootstrap`` (with its linear transforms and polynomial
evaluation).  At the test suite's bootstrap parameters (N=512, L=15, one
digit, key seed 11) a level-1 ciphertext of seeded values goes through
rounds of bootstrap + plaintext multiply by seeded unit-modulus values,
which bring it back to level 1 for the next round.  Every round is
decrypted and compared against numpy; errors accumulate along a chain,
so each pass starts a fresh chain of :data:`ROUNDS` rounds.  Setup keys
the context and runs one warm-up bootstrap, which fills the hint caches.
"""

from __future__ import annotations

import math
import time
from statistics import median

import numpy as np

from repro.fhe import Bootstrapper, CkksContext, CkksParams


ROUNDS = 4
#: The bootstrap tests' decrypt tolerance.
TOLERANCE = 5e-3


def setup(seed: int):
    ctx = CkksContext(CkksParams(degree=512, max_level=15, digits=1,
                                 secret_hamming=16, seed=11))
    sk = ctx.keygen()
    boot = Bootstrapper(ctx, sk)
    boot.bootstrap(ctx.encrypt_values(sk, np.zeros(ctx.params.slots),
                                      level=1))
    return {"seed": seed, "ctx": ctx, "sk": sk, "boot": boot}


def run_pass(state, tr, check, meter, index):
    ctx, sk, boot = state["ctx"], state["sk"], state["boot"]
    rng = np.random.default_rng([state["seed"], index])
    n = ctx.params.slots
    want = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 0.02
    ct = ctx.encrypt_values(sk, want, level=1)
    boot_s, errors = [], []
    for r in range(ROUNDS):
        meter.tick()
        tr.item = f"chain{index}.round{r}"
        with check.item(tr.item):
            t0 = time.perf_counter()
            fresh = boot.bootstrap(ct)
            boot_s.append(time.perf_counter() - t0)
            factor = np.exp(2j * np.pi * rng.random(n))
            ct = ctx.drop_to_level(ctx.pmult(fresh, factor), 1)
            want = want * factor
            err = float(np.max(np.abs(ctx.decrypt(sk, ct) - want)))
            errors.append(err)
            check.expect(err < TOLERANCE,
                         f"decrypt error {err:.3g} >= {TOLERANCE}")
    return {"boot_s": boot_s, "errors": errors}


def modeled_metrics(first) -> dict[str, float]:
    return {"boot.precision_bits": -math.log2(max(first["errors"]))}


def host_metrics(tr, untraced) -> dict[str, float]:
    samples = [s for r in untraced for s in r["boot_s"]]
    return {"boot_s.p50": median(samples), "boot.samples": len(samples)}
