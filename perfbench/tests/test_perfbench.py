"""Tests for the benchmark's own code (run with ``python3 -m pytest
perfbench/tests`` from the repository root)."""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro.workloads as workloads
from perfbench import (
    design_sweep,
    encrypted_serving,
    harness,
    pod_scaling,
    run,
    stats,
    unbounded_chain,
)
from perfbench.tracing import Tracer

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _declared(section: str) -> dict[str, dict]:
    return {m["name"]: m for m in SPEC[section]}


def _modeled_twice(module, seed: int, setup=None):
    """Modeled metrics of two fresh runs, and the last run's first pass."""
    out = []
    for _ in range(2):
        state = setup() if setup is not None else module.setup(seed)
        check = harness.Checker()
        first = module.run_pass(state, Tracer(), check, harness.Meter(), 0)
        assert check.failed == 0
        out.append(module.modeled_metrics(first))
    return out[0], out[1], first


# -- the declaration --------------------------------------------------------

def test_benchmark_json_follows_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [m["name"] for s in ("end_to_end", "per_layer")
             for m in SPEC[s]] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and NAME.match(w["name"])
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        assert (ROOT / "perfbench" / f"{w['name']}.py").is_file()
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert _declared("end_to_end")["setup_s"]["unit"] == "s"
    assert max(m["bound"] for m in SPEC["end_to_end"]) \
        == _declared("end_to_end")["setup_s"]["bound"]
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower")


# -- the percentile rule ----------------------------------------------------

def test_percentile_needs_ten_samples_beyond_it():
    assert stats.qualifies(1000, 0.99)
    assert not stats.qualifies(999, 0.99)
    assert stats.qualifies(20, 0.50) and not stats.qualifies(19, 0.50)
    values = list(range(1000))
    assert stats.percentile(values, 0.99) == 989
    assert sum(v > stats.percentile(values, 0.99) for v in values) == 10
    with pytest.raises(ValueError):
        stats.percentile(values[:999], 0.99)


def test_misses_sort_beyond_every_latency():
    ten_misses = [1.0] * 990 + [math.inf] * 10
    assert stats.percentile(ten_misses, 0.99) == 1.0
    eleven_misses = [1.0] * 989 + [math.inf] * 11
    assert stats.percentile(eleven_misses, 0.99) == math.inf


# -- correctness accounting and tracing -------------------------------------

def test_checker_counts_failed_items_and_keeps_running():
    check = harness.Checker()
    with check.item("ok"):
        check.expect(True, "fine")
    with check.item("bad"):
        check.expect(False, "first")
        check.expect(False, "second")
    with check.item("raises"):
        raise RuntimeError("boom")
    assert (check.attempted, check.failed) == (3, 2)


def test_tracer_self_time_and_patches_restore():
    import repro.core.simulator as simulator

    original = simulator.simulate
    tr = Tracer()
    with tr.patched():
        assert simulator.simulate is not original
        with tr.span("outer"):
            with tr.span("inner"):
                pass
    assert simulator.simulate is original
    assert tr.missing == []
    outer, inner = tr.spans
    assert inner.parent == 0
    assert tr.self_time("outer") == pytest.approx(outer.dur - inner.dur)


# -- every printed metric is declared ---------------------------------------

class _FakeWorkload:
    @staticmethod
    def setup(seed):
        return seed

    @staticmethod
    def run_pass(state, tr, check, meter, index):
        with check.item("fake"):
            with tr.span("core.simulate"):
                pass
        return {}

    @staticmethod
    def modeled_metrics(first):
        return {}

    @staticmethod
    def host_metrics(tr, untraced):
        return {}


def test_run_level_metrics_are_declared(tmp_path):
    _, e2e = run.measure(_FakeWorkload, "fake", 1, 0.01, False, tmp_path)
    assert set(e2e) == set(_declared("end_to_end"))
    _, layer = run.measure(_FakeWorkload, "fake", 1, 0.01, True, tmp_path)
    assert set(layer) <= set(_declared("per_layer"))
    assert layer["obs.overhead_ratio"] > 0
    assert layer["core.simulate_calls"] == 1


def _small_sweep():
    return {"packed_bootstrap": workloads.benchmark("packed_bootstrap")}


def _shrink(module, monkeypatch) -> None:
    """One small benchmark per simulator workload; 120 requests per
    rate for serving, with the p99 sample-size rule (tested above) off."""
    if module is pod_scaling:
        monkeypatch.setattr(pod_scaling, "BENCHES", ("packed_bootstrap",))
    if module is encrypted_serving:
        monkeypatch.setattr(encrypted_serving, "REQUESTS",
                            dict.fromkeys(encrypted_serving.RATES, 120))
        monkeypatch.setattr(stats, "MIN_TAIL", 0)


@pytest.mark.parametrize("module,seed,setup", [
    (design_sweep, 1, _small_sweep),
    (pod_scaling, 1, None),
    (encrypted_serving, 3, None),
])
def test_modeled_metrics_repeat_bit_for_bit_and_are_declared(
        module, seed, setup, monkeypatch):
    _shrink(module, monkeypatch)
    a, b, first = _modeled_twice(module, seed, setup)
    assert a == b
    declared = _declared("per_layer")
    assert set(a) <= set(declared)
    assert set(module.host_metrics(Tracer(), [first])) <= set(declared)


def test_too_few_samples_for_a_p99_fail_the_pass(monkeypatch):
    monkeypatch.setattr(encrypted_serving, "REQUESTS",
                        dict.fromkeys(encrypted_serving.RATES, 120))
    state = encrypted_serving.setup(3)
    check = harness.Checker()
    rates = encrypted_serving.run_pass(state, Tracer(), check,
                                       harness.Meter(), 0)
    # One failed percentile item per rate, and nothing else wrong.
    assert check.failed == len(encrypted_serving.RATES)
    assert all(not stats.qualifies(len(r["slo_done"]), 0.99)
               for r in rates.values())


def test_chain_precision_repeats_bit_for_bit(monkeypatch):
    monkeypatch.setattr(unbounded_chain, "ROUNDS", 1)
    a, b, first = _modeled_twice(unbounded_chain, 5)
    assert a == b and a["boot.precision_bits"] > 7
    host = unbounded_chain.host_metrics(Tracer(), [first])
    assert set(a) | set(host) <= set(_declared("per_layer"))


# -- the command ------------------------------------------------------------

def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
