"""Pod campaign: reproducibility, gates, and baseline drift detection.

The full 520-event campaign is CI's pod smoke job
(``python -m repro.pod --campaign --check``); these tests run a scaled
campaign twice for bit-reproducibility and exercise the gate logic.
"""

import json

import pytest

from repro.pod.campaign import check_against_baseline, run_pod_campaign

EVENTS = 16  # small but alternates both sites and hits a stubborn trial


@pytest.fixture(scope="module")
def result():
    return run_pod_campaign(seed=5, events=EVENTS, chips=3)


def test_campaign_meets_absolute_gates(result):
    assert result.events >= EVENTS
    for site, s in result.sites.items():
        assert s.injected > 0, f"site {site} never exercised"
        assert s.detection_rate == 1.0
    assert result.wrong_answers == 0
    assert result.unrecovered == 0
    assert result.false_positives == 0
    # Coverage: faults landed on >= 2 distinct links and chips.
    assert result.distinct_links >= 2
    assert result.distinct_chips_failed >= 2


def test_campaign_is_bit_reproducible(result):
    again = run_pod_campaign(seed=5, events=EVENTS, chips=3)
    a, b = result.to_json(), again.to_json()
    assert a == b


def test_baseline_check_detects_drift(result, tmp_path):
    own = tmp_path / "own.json"
    own.write_text(json.dumps(result.to_json()))
    assert check_against_baseline(result, own) == []
    # Any drifted integer is a reported problem.
    drifted = dict(result.to_json())
    drifted["migrations"] += 1
    drifted["sites"] = dict(drifted["sites"])
    own.write_text(json.dumps(drifted))
    problems = check_against_baseline(result, own)
    assert any("migrations" in p for p in problems)


def test_absolute_gates_hold_even_with_matching_baseline(result, tmp_path):
    """A baseline that itself encodes a wrong answer cannot launder the
    campaign: the absolute gates are appended regardless."""
    bad = dict(result.to_json())
    bad["wrong_answers"] = 3
    own = tmp_path / "bad.json"
    own.write_text(json.dumps(bad))
    problems = check_against_baseline(result, own)
    # Our result is clean, so only the mismatch is reported - but a
    # result *with* wrong answers is reported even when baselines agree.
    assert any("wrong_answers" in p for p in problems)
