"""Layered serving benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload serve-read --seed 1 \
        --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` installs span wrappers on the live stack and reports the
per-layer metrics instead (spans are written as JSONL under
``.perfbench_out/``).  Human-readable lines go first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only for a
run whose every correctness check passed.

The program under test is imported from ``src/`` next to this directory;
without it the benchmark exits with code 2 and prints no result.

The process pins itself to one CPU before it builds anything.  The whole
stack shares one interpreter lock, so it cannot use a second core for
Python work anyway; on a virtual machine, though, every hand-off between
the client, event-loop and worker threads across two virtual CPUs pays the
hypervisor's wake-up latency, which roughly doubled the read latency and
made it drift with the host's load.  Pinning keeps that noise out of the
figures; it also means the benchmark cannot show a gain from spreading
work over several cores.

The gated timings (``setup_s``, ``p50_ms``, ``ops_per_s``) are scaled to
a reference host speed.  On a shared virtual machine the same code runs up
to ~1.8x slower for tens of seconds at a time while a neighbour is busy,
which spread raw timings of one commit by 20-40% between runs.  Every
0.1 s of measuring, and around every set-up, the benchmark times a fixed
probe of its own (keyed BLAKE2b, big-integer XOR, HMAC, dict and sort work
on four 1 KB pages); each window's timings are multiplied by the probe's
reference time over its measured time.  ``p50_ms`` is the median scaled
request latency and ``ops_per_s`` the median of the windows' scaled
throughput, so a burst of slow journal fsyncs in a few windows does not
move them.  The report prints the raw figures beside the scaled ones, and
the host speed seen over the run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve-read", "batch-write", "cluster-rw"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    import workloads

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    spans_path = (os.path.join(
        out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        if args.trace else None)
    try:
        result = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace),
            workdir=workdir, spans_path=spans_path,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in result.report:
        print(line)
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
