"""CLI for the pod layer: ``python -m repro.pod --campaign``.

Runs the seeded pod fault campaign (`repro.pod.campaign`), prints its
report, and optionally regression-checks against the committed baseline
(``--check``) exactly like the reliability and serving CLIs - CI runs
``--campaign --check`` plus ``--gate`` as the pod smoke gate.
``--scaling`` prints the 1/2/4/8-chip throughput table instead;
``--gate`` runs the absolute scaling acceptance checks (8-chip
model-parallel speedup floor, data rows bit-identical to the
pre-overlap serialized model).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.pod.campaign import check_against_baseline, run_pod_campaign

DEFAULT_BASELINE = Path(__file__).resolve().parents[3] \
    / "tests" / "pod" / "baseline.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.pod",
        description="K-chip pod fault campaign and scaling study")
    parser.add_argument("--campaign", action="store_true",
                        help="run the seeded chip/link fault campaign")
    parser.add_argument("--events", type=int, default=520,
                        help="minimum faults to inject (default 520)")
    parser.add_argument("--chips", type=int, default=4)
    parser.add_argument("--degree", type=int, default=64)
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--check", nargs="?", const=str(DEFAULT_BASELINE),
                        metavar="BASELINE",
                        help="compare against a baseline JSON "
                             "(default: tests/pod/baseline.json)")
    parser.add_argument("--emit-baseline", metavar="PATH",
                        help="write this run's result as a new baseline")
    parser.add_argument("--json", action="store_true",
                        help="print the machine-readable result instead "
                             "of the report")
    parser.add_argument("--scaling", action="store_true",
                        help="print the 1/2/4/8-chip throughput table")
    parser.add_argument("--gate", action="store_true",
                        help="run the absolute scaling gate (model "
                             "speedup floor + data-row bit-identity)")
    args = parser.parse_args(argv)

    if args.gate:
        from repro.pod.scaling import scaling_gate

        problems = scaling_gate()
        if problems:
            print(f"SCALING GATE FAILED ({len(problems)} problems):")
            for p in problems:
                print(f"  - {p}")
            return 1
        print("scaling gate passed")
        return 0

    if args.scaling:
        from repro.pod.scaling import scaling_table

        print(scaling_table())
        return 0

    if not args.campaign:
        parser.print_help()
        return 2

    result = run_pod_campaign(seed=args.seed, events=args.events,
                              chips=args.chips, degree=args.degree)

    if args.json:
        print(json.dumps(result.to_json(), indent=2))
    else:
        print(result.report())

    if args.emit_baseline:
        Path(args.emit_baseline).write_text(
            json.dumps(result.to_json(), indent=2) + "\n")
        print(f"baseline written to {args.emit_baseline}")

    if args.check:
        problems = check_against_baseline(result, args.check)
        if problems:
            print(f"\nBASELINE CHECK FAILED ({len(problems)} problems):")
            for p in problems:
                print(f"  - {p}")
            return 1
        print(f"\nbaseline check passed ({args.check})")
        return 0

    # Without --check the absolute gates still decide the exit code.
    ok = (result.wrong_answers == 0 and result.unrecovered == 0
          and result.false_positives == 0
          and all(s.detection_rate == 1.0
                  for s in result.sites.values() if s.injected))
    if ok:
        print("\nOK: 100% detection, 0 wrong answers, 0 unrecovered")
    else:
        print("\nFAIL: pod campaign gates violated")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
