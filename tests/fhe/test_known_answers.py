"""Frozen known answers for the CKKS kernels at a toy degree.

Every other fhe test compares the library against an in-tree oracle
(a per-limb reference, numpy slot arithmetic, a decrypt tolerance).  An
oracle that drifts together with the code it checks proves nothing, so
this module pins the exact residues instead: fixed-seed inputs go
through the NTT (forward and inverse), one boosted keyswitch, one
rotation, one rescale and one plaintext multiply, and the sha256 of each
output must equal the digest committed in ``data/known_answers.json``.

A digest changes only when the arithmetic changes.  If a change is
intended, regenerate the file with
``PYTHONPATH=src python -m tests.fhe.test_known_answers`` and say why in
CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.fhe.ckks import CkksContext, CkksParams
from repro.fhe.keyswitch import boosted_keyswitch
from repro.fhe.ntt import BatchedNttContext
from repro.fhe.poly import EVAL, RnsPoly

DATA = Path(__file__).parent / "data" / "known_answers.json"


def _digest(*arrays, scale: float | None = None) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.uint64).tobytes())
    if scale is not None:
        h.update(float(scale).hex().encode())
    return h.hexdigest()


def _ct_digest(ct) -> str:
    return _digest(ct.c0.data, ct.c1.data, scale=ct.scale)


def compute_digests() -> dict[str, str]:
    """Run every pinned kernel from fixed seeds; returns name -> sha256."""
    params = CkksParams(degree=64, max_level=4, digits=1, secret_hamming=8,
                        seed=2024)
    ctx = CkksContext(params)
    sk = ctx.keygen()
    rng = np.random.default_rng(2024)
    out = {}

    basis = ctx.q_basis
    rows = np.stack([rng.integers(0, q, size=params.degree, dtype=np.uint64)
                     for q in basis])
    ntt = BatchedNttContext.get(basis.moduli, params.degree)
    forward = ntt.forward(rows)
    out["ntt_forward"] = _digest(forward)
    out["ntt_inverse"] = _digest(ntt.inverse(rows))
    assert np.array_equal(ntt.inverse(forward), rows)

    rot = ctx.rotation_hint(sk, 1)
    poly = RnsPoly.uniform_random(basis, params.degree, rng, EVAL)
    ks0, ks1 = boosted_keyswitch(poly, rot, ctx.aux_basis)
    out["boosted_keyswitch"] = _digest(ks0.data, ks1.data)

    ct = ctx.encrypt_values(sk, 0.5 * rng.standard_normal(params.slots))
    out["encrypt"] = _ct_digest(ct)
    out["rotate"] = _ct_digest(ctx.rotate(ct, 1, rot))
    out["rescale"] = _ct_digest(ctx.rescale(ct))
    out["pmult"] = _ct_digest(
        ctx.pmult(ct, 0.5 * rng.standard_normal(params.slots)))
    return out


def test_kernels_match_frozen_digests():
    want = json.loads(DATA.read_text())
    got = compute_digests()
    assert sorted(got) == sorted(want)
    mismatched = [name for name in want if got[name] != want[name]]
    assert not mismatched, f"kernel outputs changed: {mismatched}"


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(compute_digests(), indent=1, sort_keys=True)
                    + "\n")
    print(f"wrote {DATA}")
