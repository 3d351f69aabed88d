"""The isqkit benchmark: one workload, one seed, one JSON line of figures.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 15 --trace 0

Workloads are ``analyze``, ``execute``, ``cosim`` and ``closure`` (see
``workloads.py`` and ``BENCHMARK.json``).  Each run starts fresh
interpreters (``worker.py``): one uncounted warm-up that compiles the
sources, several that only set up and so time ``import isqkit`` plus input
generation, and one that measures.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones, and
the spans and input properties are written under ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_RUNS = 5
TIMEOUT_S = 150


def spawn(args: argparse.Namespace, mode: str, out: str) -> subprocess.Popen:
    argv = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
            "--mode", mode, "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out]
    return subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)


def finish(proc: subprocess.Popen, deadline: float) -> str:
    """The rest of a worker's output once it has exited; kills it at the deadline."""
    try:
        rest, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("perfbench: worker exceeded the time limit")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker exited with code {proc.returncode}")
    return rest


def ready(proc: subprocess.Popen) -> str:
    """Wait for the worker's ``ready <digest>`` line and return the digest."""
    line = proc.stdout.readline().split()
    if len(line) != 2 or line[0] != "ready":
        proc.kill()
        proc.communicate()
        raise SystemExit(f"perfbench: worker failed during set-up (exit code {proc.returncode})")
    return line[1]


def setup_probe(args, out: str, deadline: float) -> tuple[float, str]:
    """Set-up time of one fresh worker, corrected to nominal machine speed, and its input digest."""
    references = [speed.reference_loop() for _ in range(speed.WINDOW)]
    start = perf_counter()
    proc = spawn(args, "setup", out)
    digest = ready(proc)
    seconds = perf_counter() - start
    finish(proc, deadline)
    return speed.corrected([seconds], references)[0], digest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("analyze", "execute", "cosim", "closure"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "isqkit", "__init__.py")):
        print("perfbench: run from the root of an isqkit checkout (no src/isqkit here)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    units = {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    deadline = perf_counter() + TIMEOUT_S

    setup_probe(args, out, deadline)  # warm-up: compiles the sources once, as an installed package has
    probes = [setup_probe(args, out, deadline) for _ in range(SETUP_RUNS if args.trace == 0 else 1)]
    proc = spawn(args, "measure", out)
    digests = {d for _, d in probes} | {ready(proc)}
    lines = finish(proc, deadline).splitlines()
    result = json.loads(lines[-1])

    for failure in result["failures"]:
        print(f"perfbench: failed operation: {failure}", file=sys.stderr)
    if len(digests) != 1:
        print(f"perfbench: the same seed generated different inputs: {sorted(digests)}", file=sys.stderr)
    correct = result["failed"] == 0 and len(digests) == 1

    if args.trace:
        values = result["metrics"]
    else:
        values = {
            "setup_s": statistics.median(s for s, _ in probes),
            "ops_per_s": result["ops_per_s"],
            "op_p50_ms": result["op_p50_ms"],
            "op_p90_ms": result["op_p90_ms"],
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_ratio": 1 - result["failed"] / result["attempted"],
        }
        print(
            f"{args.workload} seed={args.seed}: {result['samples']} operations timed, "
            f"p90 over {result['samples']} samples ({result['samples'] // 10} beyond it), "
            f"setup_s the median of {len(probes)} fresh interpreters, inputs digest {' '.join(digests)}; "
            f"machine at {result['speed']:.3f}x nominal speed, {result['wall_ops_per_s']:.3f} ops/s uncorrected"
        )
    declared = units["per_layer" if args.trace else "end_to_end"]
    if set(values) != set(declared):
        raise SystemExit(f"perfbench: metrics {sorted(set(values) ^ set(declared))} disagree with BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
