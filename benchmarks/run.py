"""Benchmark entry point.

    python3 benchmarks/run.py --workload {search,check,audit,all} --seed N \\
        --seconds S --trace {0,1}

Runs set-up (several times; the median is ``setup_s``), then closed-loop
rounds of the workload's CLI operations for about S seconds, checking every
output.  With ``--trace 0`` the last stdout line is the end-to-end result;
with ``--trace 1`` every untraced round is followed by a traced one, and the
last line carries the per-layer metrics.  The result line's wall and CPU
times are ``wall_ref`` and ``cpu_ref``, in passes of a fixed reference loop
timed during the same operations, because raw seconds drift with the
host's load; raw ``wall_s`` and ``cpu_s`` are printed next to them.  Every
metric is also printed by name with its unit.  Exits 1 when any operation failed, 2 when the package
source is missing.  ``--workload all`` runs each workload in its own
process, one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import harness
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACE_OUT = ROOT / ".bench_out"

SETUP_REPEATS = 7


def _declared() -> tuple[dict, dict]:
    """Units of the end-to-end and per-layer metrics BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def _print_metrics(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units.get(name, '')}".rstrip())


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    e2e_units, layer_units = _declared()
    workdir = WORK / f"{name}-{os.getpid()}"
    tracer = harness.Tracer() if trace else None
    try:
        setup_times, setup_stats = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            fp = harness.fresh_import()
            plan = workloads.setup(name, seed, workdir, fp, tracer)
            setup_times.append(time.perf_counter() - t0)
            if tracer is not None:
                setup_stats.append(tracer.take())
        problems = [msg for check in plan.checks if (msg := check()) is not None]
        if problems:
            for msg in problems:
                print(f"set-up check failed: {msg}", file=sys.stderr)
            return 1
        untraced, traced = harness.measure(fp.cli.main, plan.ops, seconds, tracer)
    except workloads.SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = [r for rnd in untraced + traced for r in rnd]
    failed = [r for r in results if r.error is not None]
    for r in failed:
        print(f"FAILED {r.op.label}: {' '.join(r.op.argv)}\n  {r.error}", file=sys.stderr)

    e2e = harness.end_to_end(untraced)
    e2e["setup_s"] = median(setup_times)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e["failed_frac"] = len(failed) / len(results)
    units = dict(e2e_units, wall_s="s", cpu_s="s", failed_frac="ratio", lubell_trials_per_s="1/s")

    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}  nproc {os.cpu_count()}")
    print(f"closed loop, 1 client, 1 process, 1 thread; {len(plan.ops)} ops per round, "
          f"{len(untraced)} untraced and {len(traced)} traced rounds")
    print("round wall_s: " + " ".join(f"{sum(r.wall for r in rnd):.3f}" for rnd in untraced))
    print("end-to-end (untraced rounds; per-operation medians summed over a round):")
    _print_metrics(e2e, units)

    if trace:
        layers = harness.medians([
            harness.layer_metrics(rnd, workloads.SEARCH_LABELS, workloads.CHECK_LABELS)
            for rnd in traced
        ])
        layers["constructions.build_s"] = median(
            harness.stat_sum([s], "constructions.build", harness.SECONDS) for s in setup_stats
        )
        layers["trace.overhead_s"] = harness.typical(traced, lambda r: r.wall) - e2e["wall_s"]
        print("per-layer (traced rounds, median):")
        _print_metrics(layers, layer_units)
        _write_trace(name, seed, tracer, traced)
        reported, declared = layers, layer_units
    else:
        reported, declared = e2e, e2e_units
    missing = set(declared) - set(reported)
    undeclared = set(layers) - set(declared) if trace else set()
    if missing or undeclared:
        raise RuntimeError(f"metrics missing: {sorted(missing)}; not declared: {sorted(undeclared)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": reported[k], "unit": declared[k]} for k in declared},
    }))
    return 1 if failed else 0


def _write_trace(name: str, seed: int, tracer, traced_rounds) -> None:
    TRACE_OUT.mkdir(exist_ok=True)
    per_op = [
        {"round": i, "op": r.op.label,
         "stats": [[n, p, *entry] for (n, p), entry in r.stats.items()]}
        for i, rnd in enumerate(traced_rounds) for r in rnd
    ]
    doc = {
        "fields": {"spans": ["op", "name", "parent", "start", "end"],
                   "stats": ["name", "parent", "calls", "seconds", "child_seconds", "tally"]},
        "spans": tracer.spans,
        "ops": per_op,
    }
    (TRACE_OUT / f"trace-{name}-seed{seed}.json").write_text(json.dumps(doc))


def run_all(args) -> int:
    """Each workload in its own process; echoes their output and ends with
    one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in ("search", "check", "audit"):
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        worst = max(worst, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 2 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("search", "check", "audit", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "forbidposet" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
