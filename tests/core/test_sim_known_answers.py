"""Frozen known answers for the cycle-level simulator.

Every field of every :class:`SimResult` below is compared exactly against
``data/sim_known_answers.json``.  Floats are stored as their ``repr``
(the shortest string that round-trips), so a change in the last bit of
any cycle count, traffic word or utilization input fails here - the
simulator's host-speed work must leave the modeled numbers untouched.

Regenerate only when a modeled number is meant to change, and say why in
CHANGES.md::

    PYTHONPATH=src python tests/core/test_sim_known_answers.py
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.baselines.f1plus import f1plus_config
from repro.compiler.cache import compile_program
from repro.core.config import ChipConfig
from repro.core.simulator import SimResult, simulate
from repro.workloads import DEEP_BENCHMARKS, benchmark

DATA = Path(__file__).parent / "data" / "sim_known_answers.json"


def _cases() -> dict:
    cases = {}
    for name in DEEP_BENCHMARKS:
        cases[f"{name}.rf256"] = (
            lambda name=name: simulate(benchmark(name), ChipConfig()))
        cases[f"{name}.rf100"] = (
            lambda name=name: simulate(benchmark(name),
                                       ChipConfig().with_register_file(100)))
    cases["packed_bootstrap.f1plus"] = (
        lambda: simulate(benchmark("packed_bootstrap"), f1plus_config()))
    cases["packed_bootstrap.pf4"] = (
        lambda: simulate(benchmark("packed_bootstrap"),
                         ChipConfig().with_prefetch_depth(4)))
    cases["packed_bootstrap.ckpt8"] = (
        lambda: simulate(benchmark("packed_bootstrap"), ChipConfig(),
                         checkpoint_every=8))
    cases["packed_bootstrap.streams"] = (
        lambda: simulate(benchmark("packed_bootstrap"), ChipConfig(),
                         extra_streams={"link_in": (1.0e6, 8.0)},
                         overlap_streams={"link_out": (4.0e6, 2.0)}))
    # Hoisted keyswitches (hoist_modup / rotate_hoisted) only appear in
    # lowered programs.
    cases["packed_bootstrap.hoisted"] = (
        lambda: simulate(compile_program(benchmark("packed_bootstrap"),
                                         ChipConfig(), cache=False),
                         ChipConfig()))
    return cases


def _freeze(value):
    """JSON-ready copy with every float as its round-tripping repr, so
    int/float type and every bit of every float are compared."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {str(k): _freeze(v) for k, v in value.items()}
    return value


def frozen(result: SimResult) -> dict:
    return {f.name: _freeze(getattr(result, f.name))
            for f in dataclasses.fields(result)}


@pytest.fixture(scope="module")
def known() -> dict:
    return json.loads(DATA.read_text())


def test_known_answers_cover_every_case(known):
    assert sorted(known) == sorted(_cases())


@pytest.mark.parametrize("case", sorted(_cases()))
def test_sim_result_matches_known_answer(case, known):
    got = frozen(_cases()[case]())
    want = known[case]
    assert got.keys() == want.keys()
    mismatched = {k: (got[k], want[k]) for k in got if got[k] != want[k]}
    assert not mismatched, mismatched


def _write() -> None:
    DATA.parent.mkdir(exist_ok=True)
    answers = {case: frozen(run()) for case, run in sorted(_cases().items())}
    DATA.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _write()
