"""Compare two sets of bench_e2e results, one row per metric and workload.

    python3 bench_e2e/compare.py A.json B.json
    python3 bench_e2e/compare.py --base A1.json A2.json --change B1.json B2.json

Each file is what ``run.py --out`` wrote.  For every workload and every
end-to-end metric of ``BENCHMARK.json`` the row gives both medians with
their run counts, the change as a share of the base median, the bound, and
a verdict:

* ``regressed`` — the change's median is worse than the base's by more
  than the bound, or the change side has no value for the row at all (the
  workload crashed, failed its gate or was not run);
* ``improved`` — better by more than the spread between either side's runs;
* ``unchanged`` — neither;
* ``unresolved`` — the spread between repeats (interquartile range over
  the median with four or more runs, otherwise the full range) is wider
  than the bound on either side, or the base side has no value.

The bound of a row is the workload's own, from ``bounds.json`` beside this
file (about three times the spread measured on that workload), and never
looser than the one ``BENCHMARK.json`` fixes for the metric on all four.
Two more rows per workload compare what is not a timing: ``failed_share``
(failed / attempted over all runs, a run without a result counting as one
failed attempt; bound 0, any rise is ``regressed``) and ``answers_sha256``
(per seed both sides ran, the digests must be one and the same).

``--smoke`` results measure a different corpus and are refused.  The exit
code is 0 only when no row is ``regressed`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


@dataclass
class Side:
    """The untraced runs of one side, by workload."""

    values: Dict[Tuple[str, str], List[float]] = field(default_factory=dict)
    attempted: Dict[str, int] = field(default_factory=dict)
    failed: Dict[str, int] = field(default_factory=dict)
    digests: Dict[Tuple[str, int], Set[str]] = field(default_factory=dict)  # (workload, seed)


def load_side(paths: Sequence[str]) -> Side:
    side = Side()
    for path in paths:
        with open(path, "r", encoding="utf-8") as stream:
            document = json.load(stream)
        if document.get("smoke"):
            raise SystemExit("%s is a --smoke result; it measures another corpus" % path)
        for run in document["runs"]:
            if run["trace"]:
                continue
            workload = run["workload"]
            result = run.get("result")
            # A run that printed no result attempted the workload and failed it.
            side.attempted[workload] = side.attempted.get(workload, 0) + (
                result["attempted"] if result else 1
            )
            side.failed[workload] = side.failed.get(workload, 0) + (
                result["failed"] if result else 1
            )
            if result is None or run.get("exit_code", 0) != 0:
                continue  # its timings describe a broken run
            for name, metric in result["metrics"].items():
                side.values.setdefault((workload, name), []).append(metric["value"])
            side.digests.setdefault((workload, run["seed"]), set()).add(
                run["detail"]["answers_sha256"]
            )
    return side


def spread(values: Sequence[float]) -> float:
    """Run-to-run spread as a share of the median."""
    center = statistics.median(values)
    if len(values) < 2 or center == 0:
        return 0.0
    if len(values) >= 4:
        quartiles = statistics.quantiles(values, n=4)
        return (quartiles[2] - quartiles[0]) / abs(center)
    return (max(values) - min(values)) / abs(center)


def verdict(base: Sequence[float], change: Sequence[float], better: str, bound: float) -> Tuple[str, float]:
    """-> (verdict, change as a share of the base median, positive = worse)."""
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    delta = (change_median - base_median) / abs(base_median) if base_median else 0.0
    worse = delta if better == "lower" else -delta
    noise = max(spread(base), spread(change))
    if noise > bound:
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if -worse > noise:
        return "improved", worse
    return "unchanged", worse


def _absent(base_has: bool, change_has: bool) -> Optional[str]:
    """The verdict of a row one side has nothing for."""
    if not base_has:
        return "unresolved"
    if not change_has:
        return "regressed"
    return None


def _metric_row(workload: str, metric: dict, bound: float, base: Side, change: Side) -> dict:
    key = (workload, metric["name"])
    ours, theirs = base.values.get(key, []), change.values.get(key, [])
    row = {
        "workload": workload,
        "metric": metric["name"],
        "unit": metric["unit"],
        "base_median": statistics.median(ours) if ours else None,
        "base_runs": len(ours),
        "change_median": statistics.median(theirs) if theirs else None,
        "change_runs": len(theirs),
        "bound": bound,
        "worse_by": None,
        "spread": max(spread(ours) if ours else 0.0, spread(theirs) if theirs else 0.0),
    }
    row["verdict"] = _absent(bool(ours), bool(theirs))
    if row["verdict"] is None:
        row["verdict"], row["worse_by"] = verdict(ours, theirs, metric["better"], bound)
    return row


def _failed_row(workload: str, base: Side, change: Side) -> dict:
    def share(side: Side) -> Optional[float]:
        attempted = side.attempted.get(workload, 0)
        return side.failed.get(workload, 0) / attempted if attempted else None

    ours, theirs = share(base), share(change)
    row = {
        "workload": workload,
        "metric": "failed_share",
        "unit": "ratio",
        "base_median": ours,
        "base_runs": base.attempted.get(workload, 0),  # operations, not runs
        "change_median": theirs,
        "change_runs": change.attempted.get(workload, 0),
        "bound": 0.0,
        "worse_by": None if ours is None or theirs is None else theirs - ours,
        "spread": 0.0,
    }
    row["verdict"] = _absent(ours is not None, theirs is not None)
    if row["verdict"] is None:
        row["verdict"] = (
            "regressed" if theirs > ours else "improved" if theirs < ours else "unchanged"
        )
    return row


def _answers_row(workload: str, base: Side, change: Side) -> dict:
    seeds = sorted(
        seed
        for name, seed in base.digests
        if name == workload and (workload, seed) in change.digests
    )
    same = all(
        len(base.digests[workload, seed] | change.digests[workload, seed]) == 1 for seed in seeds
    )
    return {
        "workload": workload,
        "metric": "answers_sha256",
        "unit": "seeds",
        "base_median": None,
        "base_runs": len(seeds),
        "change_median": None,
        "change_runs": len(seeds),
        "bound": 0.0,
        "worse_by": None,
        "spread": 0.0,
        # Without a seed both sides ran, nothing says the outputs agree.
        "verdict": "unresolved" if not seeds else "unchanged" if same else "regressed",
    }


def compare(base: Side, change: Side, contract: dict, bounds: Dict[str, Dict[str, float]]) -> List[dict]:
    rows = []
    for workload in [entry["name"] for entry in contract["workloads"]]:
        for metric in contract["end_to_end"]:
            own = bounds.get(workload, {}).get(metric["name"], metric["bound"])
            rows.append(_metric_row(workload, metric, min(own, metric["bound"]), base, change))
        rows.append(_failed_row(workload, base, change))
        rows.append(_answers_row(workload, base, change))
    return rows


def render(rows: Sequence[dict]) -> str:
    def number(value: Optional[float]) -> str:
        return "%11s" % "-" if value is None else "%11.4f" % value

    lines = [
        "%-14s %-26s %16s %16s %10s %6s %7s  %s"
        % ("workload", "metric", "base (runs)", "change (runs)", "worse by", "bound", "spread", "verdict")
    ]
    for row in rows:
        worse = "%10s" % "-" if row["worse_by"] is None else "%+9.2f%%" % (100 * row["worse_by"])
        lines.append(
            "%-14s %-26s %s(%d) %s(%d) %s %5.1f%% %6.1f%%  %s"
            % (
                row["workload"],
                row["metric"],
                number(row["base_median"]),
                row["base_runs"],
                number(row["change_median"]),
                row["change_runs"],
                worse,
                100 * row["bound"],
                100 * row["spread"],
                row["verdict"],
            )
        )
    lines.append("worse by: share of the base median (failed_share: absolute)")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", help="exactly two: base result, change result")
    parser.add_argument("--base", nargs="+", default=None, help="result files of the base side")
    parser.add_argument("--change", nargs="+", default=None, help="result files of the change side")
    parser.add_argument("--json", action="store_true", help="print the rows as JSON")
    args = parser.parse_args(argv)
    if args.base and args.change and not args.files:
        base_paths, change_paths = args.base, args.change
    elif len(args.files) == 2 and not args.base and not args.change:
        base_paths, change_paths = args.files[:1], args.files[1:]
    else:
        parser.error("give two files, or --base FILES --change FILES")

    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as stream:
        contract = json.load(stream)
    with open(BENCH_DIR / "bounds.json", "r", encoding="utf-8") as stream:
        bounds = json.load(stream)
    rows = compare(load_side(base_paths), load_side(change_paths), contract, bounds)
    print(json.dumps(rows, indent=1) if args.json else render(rows))
    return 1 if any(row["verdict"] in ("regressed", "unresolved") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
