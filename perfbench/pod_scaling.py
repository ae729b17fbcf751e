"""pod_scaling: many mid-size shard simulations with overlap streams.

Closed loop, one caller.  ``simulate_pod`` runs resnet20, logreg and
packed_bootstrap model-parallel at 2, 4 and 8 chips, clean and with one
chip failed (N-1), which also races the greedy and min-cut cutters.  The
control leg is one data-parallel 8-chip point: a single ``simulate`` and
no cut search.  Nothing is compiled, so compiler changes should not move
this workload; lstm is left out because one 8-chip call alone costs
about 7 s.  The seed is unused: every input is fixed.
"""

from __future__ import annotations

import repro.workloads as workloads
from repro.core import ChipConfig
from repro.core import simulator
from repro.pod import DATA_PARALLEL, MODEL_PARALLEL, PodConfig
from repro.pod import simulator as pod_simulator

from perfbench.stats import gmean, ratio

BENCHES = ("resnet20", "logreg", "packed_bootstrap")
CHIPS = (2, 4, 8)
CONTROL = "resnet20"


def setup(seed: int):
    return {b: workloads.benchmark(b) for b in BENCHES}


def _check_cover(check, res, n_ops: int) -> None:
    shards = res.partition.shards
    if res.strategy == DATA_PARALLEL:
        full = tuple(range(n_ops))
        check.expect(all(s.op_indices == full for s in shards),
                     "a data-parallel shard does not mirror the program")
        return
    indices = [i for s in shards for i in s.op_indices]
    check.expect(len(indices) == len(set(indices)),
                 "model-parallel shards overlap")
    check.expect(sorted(indices) == list(range(n_ops)),
                 "model-parallel shards do not cover the program")


def _pod_point(programs, single, bench, pod, failed, tr, check, meter, out,
               key):
    meter.tick()
    tr.item = key
    with check.item(key):
        res = pod_simulator.simulate_pod(programs[bench], ChipConfig(), pod,
                                         failed_chips=failed)
        _check_cover(check, res, len(programs[bench].ops))
        speedup = res.speedup(single[bench])
        check.expect(1.0 <= speedup <= len(res.alive),
                     f"speedup {speedup} outside [1, {len(res.alive)}]")
        out[key] = (res, speedup)


def run_pass(programs, tr, check, meter, index):
    cfg = ChipConfig()
    single, points = {}, {}
    for bench, program in programs.items():
        meter.tick()
        tr.item = f"{bench}.1chip"
        with check.item(tr.item):
            single[bench] = simulator.simulate(program, cfg)
    for bench in programs:
        if bench not in single:
            continue
        for k in CHIPS:
            pod = PodConfig(chips=k, strategy=MODEL_PARALLEL)
            for failed in ((), (k - 1,)):
                key = f"{bench}.{k}.{'n-1' if failed else 'clean'}"
                _pod_point(programs, single, bench, pod, failed, tr, check,
                           meter, points, key)
    if CONTROL in single:
        _pod_point(programs, single, CONTROL,
                   PodConfig(chips=8, strategy=DATA_PARALLEL), (), tr, check,
                   meter, points, f"{CONTROL}.8.data")
    return points


def modeled_metrics(points) -> dict[str, float]:
    top = max(CHIPS)
    model = {k: v for k, v in points.items() if not k.endswith(".data")}
    clean = [points[k] for k in model if k.endswith(f".{top}.clean")]
    degraded = [points[k] for k in model if k.endswith(f".{top}.n-1")]
    out = {
        "pod.speedup_gmean": gmean(s for _, s in clean),
        "pod.degraded_speedup_gmean": gmean(s for _, s in degraded),
        "pod.fill_ms_gmean": gmean(r.batch_seconds * 1e3 for r, _ in clean),
        "pod.link_words": sum(r.link_words for r, _ in model.values()),
        "pod.overlap_hidden_ratio": ratio(
            sum(r.overlap_hidden_cycles for r, _ in model.values()),
            sum(r.batch_cycles for r, _ in model.values())),
    }
    for key, (_, speedup) in model.items():
        bench, k, mode = key.rsplit(".", 2)
        if mode == "clean":
            out[f"pod.speedup.{bench}.{k}"] = speedup
    return out


def host_metrics(tr, untraced) -> dict[str, float]:
    return {}
