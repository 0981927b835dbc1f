"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-max --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` makes an
untraced and a traced run of the same work and prints every per-layer
metric.  Each metric is printed as ``name value unit``; the last line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 only for a run that passed the correctness gate; a
run that could not complete prints no result line.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

#: Hard stop: a run that hangs is killed before the 180 s budget.
WATCHDOG_S = 170


class _Watchdog(Exception):
    pass


def _expire(signum, frame):
    raise _Watchdog(f"run exceeded {WATCHDOG_S}s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        import bench
    except ImportError as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    spec = bench.WORKLOADS.get(args.workload)
    if spec is None:
        print(
            f"perfbench: unknown workload {args.workload!r} "
            f"(one of {', '.join(bench.WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    signal.signal(signal.SIGALRM, _expire)
    signal.alarm(WATCHDOG_S)
    try:
        result = bench.run_workload(
            spec, args.seed, args.seconds, trace=bool(args.trace)
        )
    except (_Watchdog, bench.BenchError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
    if args.trace:
        metrics = result["layers"]
    else:
        metrics = {
            name: {"value": value, "unit": bench.E2E_UNITS[name]}
            for name, value in result["metrics"].items()
        }
    for name, note in result["notes"].items():
        print(f"# {name}: {note}")
    for reason in result["reasons"]:
        print(f"# FAILED: {reason}")
    for name, m in metrics.items():
        value = "unmeasured" if m["value"] is None else m["value"]
        print(f"{name} {value} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
