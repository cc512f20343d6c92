"""bench_e2e — one command, four surfaces, one layered latency budget.

    python3 bench_e2e/run.py --workload lib_cold --seed 11 --seconds 10 --trace 0
    python3 bench_e2e/run.py [--seed N] [--repeat R] [--trace] [--smoke] [--out FILE]

With ``--workload`` one workload runs in this interpreter and the last
line of standard output is the result object the benchmark driver reads
(``correct``, ``attempted``, ``failed``, ``metrics``); the line before it,
prefixed ``DETAIL``, carries the environment record, sample counts and
``answers_sha256``.  Without ``--workload`` every workload of
``BENCHMARK.json`` runs in a fresh interpreter each (cache state, GC
history and RSS do not leak between them), every metric is printed by
name with its unit, and ``--out`` keeps the lot for ``compare.py``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench_e2e import corpus  # noqa: E402 - needs the checkout root on sys.path

MIN_CORES = 2
NEEDS_TWO_CORES = ("http_warm", "shard_scatter")
SMOKE_SECONDS_SHARE = 0.1


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as stream:
        return json.load(stream)


def environment(seed: int) -> dict:
    """Where these numbers were taken: enough to spot a degenerate host."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=False,
        )
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": commit,
        "loadavg_1m": os.getloadavg()[0],
        "seed": seed,
    }


def refuse_degenerate(workload: str) -> None:
    """A one-core host cannot run two clients beside a server, or a shard
    pool beside its caller; a flat result would be worse than none."""
    cores = len(os.sched_getaffinity(0))
    if workload in NEEDS_TWO_CORES and cores < MIN_CORES:
        sys.stderr.write(
            "!! bench_e2e: %s needs %d usable cores, this host offers %d — "
            "refusing to record a degenerate result !!\n" % (workload, MIN_CORES, cores)
        )
        raise SystemExit(3)


def run_one(args, contract: dict) -> int:
    from bench_e2e import layers
    from bench_e2e.harness import Context, GateError

    names = [entry["name"] for entry in contract["workloads"]]
    if args.workload not in names:
        sys.stderr.write("bench_e2e: unknown workload %r (have %s)\n" % (args.workload, names))
        return 2
    refuse_degenerate(args.workload)
    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
    )
    module = importlib.import_module("bench_e2e.workloads.%s" % args.workload)
    try:
        outcome = module.run(ctx)
    except GateError as error:
        sys.stderr.write("bench_e2e: correctness gate failed: %s\n" % error)
        return 1

    declared = contract["per_layer"] if ctx.trace else contract["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    # Every end-to-end metric from every workload; a per-layer metric from
    # the workloads its layer runs in, and 0 from the others.
    expected = layers.owned(ctx.workload, units) if ctx.trace else set(units)
    if set(outcome.metrics) != expected:
        sys.stderr.write(
            "bench_e2e: metrics out of step with BENCHMARK.json: unexpected %s, missing %s\n"
            % (sorted(set(outcome.metrics) - expected), sorted(expected - set(outcome.metrics)))
        )
        return 1
    metrics = {
        name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    detail = {
        "workload": ctx.workload,
        "seconds": ctx.seconds,
        "trace": ctx.trace,
        "smoke": ctx.smoke,
        "env": environment(ctx.seed),
        **outcome.detail,
    }
    print("DETAIL " + json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if outcome.failed == 0 else 1


def _child(workload: str, args, trace: int) -> dict:
    """One workload run in a fresh interpreter.  A run that failed is
    kept, with its exit code and whatever result it printed, so that
    ``compare.py`` sees a broken workload and not a missing one."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    started = time.perf_counter()
    finished = subprocess.run(command, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - started
    sys.stderr.write(finished.stderr)
    lines = finished.stdout.strip().splitlines()
    printed = len(lines) >= 2 and lines[-2].startswith("DETAIL ")
    if finished.returncode != 0:
        sys.stderr.write(
            "bench_e2e: %s (trace=%d) exited %d\n" % (workload, trace, finished.returncode)
        )
    return {
        "workload": workload,
        "seed": args.seed,
        "trace": bool(trace),
        "wall_s": wall,
        "exit_code": finished.returncode,
        "result": json.loads(lines[-1]) if printed else None,
        "detail": json.loads(lines[-2][len("DETAIL "):]) if printed else None,
    }


def run_all(args, contract: dict) -> int:
    runs: List[dict] = []
    status = 0
    for entry in contract["workloads"]:
        plan = [0] * args.repeat + ([1] if args.trace else [])
        for trace in plan:
            run = _child(entry["name"], args, trace)
            runs.append(run)
            if run["exit_code"] != 0:
                status = 1
            if run["result"] is None:
                continue
            print(
                "%s  seed %d  %s  (%.1f s)"
                % (entry["name"], args.seed, "traced" if trace else "untraced", run["wall_s"])
            )
            for name, metric in run["result"]["metrics"].items():
                print("  %-32s %16.6f %s" % (name, metric["value"], metric["unit"]))
            print(
                "  %-32s %d of %d" % ("failed", run["result"]["failed"], run["result"]["attempted"])
            )
    document = {
        "benchmark": "bench_e2e",
        "smoke": args.smoke,
        "seconds": args.seconds,
        "env": environment(args.seed),
        "claim": None,
        "runs": runs,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None, help="run this workload only, driver output")
    parser.add_argument("--seed", type=int, default=11, help="workload seed (the corpus seed is fixed)")
    parser.add_argument("--seconds", type=float, default=None, help="timed seconds per run")
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
        help="1: record spans and report the per-layer metrics",
    )
    parser.add_argument("--smoke", action="store_true", help="1 500-vertex corpus, a tenth of the time")
    parser.add_argument("--repeat", type=int, default=1, help="untraced runs per workload (all-workloads mode)")
    parser.add_argument("--out", default=None, help="write the collected runs here (all-workloads mode)")
    args = parser.parse_args(argv)

    corpus.require_program()
    contract = load_contract()
    if args.seconds is None:
        args.seconds = contract["run_seconds"] * (SMOKE_SECONDS_SHARE if args.smoke else 1.0)
    if args.workload is not None:
        return run_one(args, contract)
    return run_all(args, contract)


if __name__ == "__main__":
    sys.exit(main())
