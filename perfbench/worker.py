"""One fresh interpreter running one workload: set up, then measure.

Run by ``run.py``; not meant to be called by hand.  The worker imports
isqkit from the checkout's ``src``, generates the workload's operations from
the seed and prints ``ready <digest>``.  In ``setup`` mode it stops there.
In ``measure`` mode it then drives the pool as a closed loop (one client,
one operation at a time) for the given seconds, checks every answer, and
prints one JSON line with its figures.

With ``--trace 1`` each operation runs twice in a row, untraced and then
traced; the traced runs give the per-layer figures and the ratio of the
two gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from time import perf_counter

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import isqkit  # noqa: E402

import refs  # noqa: E402
import speed  # noqa: E402
from spans import SpanStats, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# p90 needs at least ten samples beyond it
MIN_SAMPLES = 100
# counts whose per-pass figure is the largest value, not the sum
PEAK_COUNTS = ("execution.run.visited", "natfu.cosim.max_state_bits")
MODULES = ("isa", "threads", "execution", "funit", "natfu", "finfu", "cli")
CLI_COMMANDS = ("run", "extract", "normalize", "cosim", "degrees", "leq")


def digest(ops) -> str:
    return hashlib.sha256(repr([(op.shape, op.data) for op in ops]).encode()).hexdigest()[:16]


def attempt(op, op_id: int, tr: Tracer):
    """Run one operation; returns (seconds, ok, counts, failure text or None)."""
    tr.begin_op(op_id, f"op.{op.shape}")
    start = perf_counter()
    try:
        answer = op.run(tr)
        failure = None
    except Exception:  # a crash is a failed operation, reported with its traceback
        answer, failure = None, traceback.format_exc(limit=3)
    seconds = perf_counter() - start
    counts = tr.end_op()
    if failure is None and answer != op.expect:
        failure = f"{op.shape} {op.data!r:.120}: got {answer!r:.200}, expected {op.expect!r:.200}"
    return seconds, failure is None, counts, failure


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans, per_op: dict, ops, traced: int, overhead: float) -> dict:
    """Per-layer figures: self time per call, rates over self time, counts per pass of the pool."""
    stats = SpanStats(spans)
    c: dict[str, float] = {}
    for counts in per_op.values():
        for key, value in counts.items():
            c[key] = max(c.get(key, 0), value) if key in PEAK_COUNTS else c.get(key, 0) + value
    bits = 0
    for op in ops:
        if "rm" in op.props:
            bits = max(bits, refs.rm_max_state_bits(*op.props["rm"]))
        elif op.shape == "univ3":
            bits = max(bits, (3 ** op.props["i"] << op.props["n"]).bit_length())
    cosim_calls = stats.calls[("natfu.rmlful", "cosim")]
    cosim_busy = sum(
        stats.busy[(name, "cosim")] for name in ("natfu.rmlful", "funit.derived_op", "funit.derived_op.eval")
    )
    passes = traced / len(ops)
    m = {
        "isa.parse_program.instr_per_s": stats.rate("isa.parse_program"),
        "isa.normalize.busy_s": stats.busy_per_call("isa.normalize"),
        "isa.normalize.growth": ratio(c.get("isa.normalize.out", 0), c.get("isa.normalize.in", 0)),
        "isa.render_program.busy_s": stats.busy_per_call("isa.render_program"),
        "threads.extract.states": c.get("threads.extract.states", 0),
        "threads.extract.busy_s": stats.busy_per_call("threads.extract"),
        "threads.bisimilar.busy_s": stats.busy_per_call("threads.bisimilar"),
        "threads.compile_thread.busy_s": stats.busy_per_call("threads.compile_thread"),
        "threads.minimize.busy_s": stats.busy_per_call("threads.minimize"),
        "threads.minimize.kept_ratio": ratio(c.get("threads.minimize.out", 0), c.get("threads.minimize.in", 0)),
        "execution.run.steps": c.get("execution.run.steps", 0),
        "execution.run.steps_per_s.cd_on": stats.rate(("execution.run", "cd_on")),
        "execution.run.steps_per_s.cd_off": stats.rate(("execution.run", "cd_off")),
        "execution.run.status.completed": c.get("execution.run.status.completed", 0),
        "execution.run.status.divergent": c.get("execution.run.status.proven_divergent", 0),
        "execution.run.status.budget": c.get("execution.run.status.budget_exhausted", 0),
        "execution.run.divergence_steps": ratio(
            c.get("execution.run.divergence_steps", 0), c.get("execution.run.status.proven_divergent", 0)
        ),
        "execution.run.visited_peak": c.get("execution.run.visited", 0),
        "services.family_foci": ratio(c.get("services.family_foci", 0), c.get("execution.run.calls", 0)),
        "funit.derived_op.calls": c.get("funit.derived_op.calls", 0),
        "funit.derived_op.eval_busy_s": stats.busy_per_call("funit.derived_op.eval"),
        "funit.inline_compose.busy_s": stats.busy_per_call("funit.inline_compose"),
        "natfu.rmlful.busy_s": ratio(cosim_busy, cosim_calls),
        "natfu.rm_run.busy_s": stats.busy_per_call("natfu.rm_run"),
        "natfu.cosim.max_state_bits": bits,
        "finfu.derived_closure.busy_s": stats.busy_per_call("finfu.derived_closure"),
        "finfu.derived_closure.members": c.get("finfu.derived_closure.members", 0),
        "finfu.leq_by_closure.busy_s": stats.busy_per_call("finfu.leq_by_closure"),
        "finfu.count_degrees.busy_s": stats.busy_per_call("finfu.count_degrees"),
        "finfu.count_degrees.sets": c.get("finfu.count_degrees.sets", 0),
        "finfu.count_degrees.sets_per_s": stats.rate("finfu.count_degrees"),
        "finfu.count_degrees.exact": ratio(c.get("finfu.count_degrees.exact", 0), c.get("finfu.count_degrees.runs", 0)),
    }
    for command in CLI_COMMANDS:
        m[f"cli.{command}.busy_s"] = stats.busy_per_call(f"cli.{command}")
    for module in MODULES:
        m[f"{module}.self_s"] = ratio(stats.module_self(module), passes)
    m["trace.overhead_ratio"] = overhead
    return m


def measure(ops, seconds: float, traced: bool, out_prefix: str) -> dict:
    plain = Tracer(False)
    tracer = Tracer(True)
    times: list[float] = []
    references: list[float] = []
    failures: list[str] = []
    attempted = failed = 0
    per_op: dict[int, dict] = {}
    plain_total = traced_total = 0.0
    i = 0
    while i < len(ops) or plain_total + traced_total < seconds or (not traced and i < MIN_SAMPLES):
        op = ops[i % len(ops)]
        runs = [(plain, False)] + ([(tracer, True)] if traced else [])
        for tr, is_traced in runs:
            if not traced:
                references.append(speed.reference_loop())
            spent, ok, counts, failure = attempt(op, i, tr)
            attempted += 1
            if not ok:
                failed += 1
                if len(failures) < 5:
                    failures.append(failure)
            if is_traced:
                traced_total += spent
                per_op.setdefault(i % len(ops), counts)
            else:
                plain_total += spent
                times.append(spent)
        i += 1
    result = {"attempted": attempted, "failed": failed, "failures": failures}
    if traced:
        tracer.write(out_prefix + "-trace.jsonl")
        result["metrics"] = layer_metrics(tracer.spans, per_op, ops, i, traced_total / plain_total)
    else:
        scaled = speed.corrected(times, references)
        result.update(
            samples=len(scaled),
            ops_per_s=len(scaled) / sum(scaled),
            op_p50_ms=1000 * statistics.median(scaled),
            op_p90_ms=1000 * statistics.quantiles(scaled, n=10)[-1],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            wall_ops_per_s=len(times) / sum(times),
            speed=speed.NOMINAL_S / statistics.median(references),
        )
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="directory for inputs, spans and scratch files")
    args = parser.parse_args()
    if not os.path.abspath(isqkit.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"worker: isqkit imported from {isqkit.__file__}, not from this checkout", file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix="work-", dir=args.out)
    try:
        ops = WORKLOADS[args.workload](random.Random(args.seed), workdir)
        print("ready", digest(ops), flush=True)
        if args.mode == "setup":
            return 0
        prefix = os.path.join(args.out, f"{args.workload}-{args.seed}")
        with open(prefix + "-inputs.json", "w", encoding="utf-8") as handle:
            json.dump({"digest": digest(ops), "ops": [{"shape": op.shape, **op.props} for op in ops]}, handle)
        print(json.dumps(measure(ops, args.seconds, bool(args.trace), prefix)), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
