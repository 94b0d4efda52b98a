"""End-to-end benchmark of the AliCoCo serving and evolution stack.

Usage, from the root of the repository::

    python3 e2ebench/run.py --workload rerank-single --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced once and traced twice on fresh deployments, and prints
the per-layer metrics (spans are written to ``e2ebench/out/``).  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed correctness or
sanity check exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait until it has exited.

    Spawning a shard worker starts the tracker as a helper process; left
    alone it outlives this process until it notices the closed pipe.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (SOURCE / "repro").is_dir():
        print(f"e2ebench: no library source at {SOURCE}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCE), str(HERE)]
    try:
        return _run(args)
    finally:
        _stop_resource_tracker()


def _run(args: argparse.Namespace) -> int:
    from deploy import (
        CLUSTER_CONFIG,
        OUT_DIR,
        SERVICE_CONFIG,
        build_inputs,
        usable_cores,
    )
    from workloads import WORKLOADS, CheckFailed, Run

    if args.workload not in WORKLOADS:
        print(
            f"e2ebench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload]
    print(
        f"workload {workload.name}  seed {args.seed}  seconds {args.seconds}  "
        f"trace {args.trace}  usable cores {usable_cores()}"
    )
    print(f"service config {SERVICE_CONFIG}")
    if workload.deployment == "proc2":
        print(f"cluster config {CLUSTER_CONFIG}")
    run = Run(workload, build_inputs(), args.seed, args.seconds)
    try:
        if args.trace:
            spans_path = OUT_DIR / f"spans-{workload.name}.jsonl"
            metrics, result = run.per_layer(spans_path)
        else:
            metrics, result = run.end_to_end()
    except CheckFailed as failure:
        for note in run.notes:
            print(note)
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
        return 1
    for note in run.notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name:<26} {value:14.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": result.attempted,
                "failed": result.failed + result.cycle_failures,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
