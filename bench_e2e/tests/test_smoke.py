"""The whole benchmark at smoke scale: the names it prints are exactly the
names ``BENCHMARK.json`` declares, no more and no fewer."""

import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_smoke_run_emits_exactly_the_declared_names(tmp_path):
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "smoke.json"
    started = time.monotonic()
    finished = subprocess.run(
        [sys.executable, str(ROOT / "bench_e2e" / "run.py"), "--smoke", "--trace", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=str(tmp_path),  # the command must not depend on the caller's directory
    )
    elapsed = time.monotonic() - started
    assert finished.returncode == 0, finished.stderr[-2000:]
    document = json.loads(out.read_text())
    assert document["smoke"] is True and document["claim"] is None

    workloads = [entry["name"] for entry in contract["workloads"]]
    seen = {(run["workload"], run["trace"]) for run in document["runs"]}
    assert seen == {(name, traced) for name in workloads for traced in (False, True)}

    end_to_end = {entry["name"]: entry["unit"] for entry in contract["end_to_end"]}
    per_layer = {entry["name"]: entry["unit"] for entry in contract["per_layer"]}
    for run in document["runs"]:
        result = run["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        declared = per_layer if run["trace"] else end_to_end
        assert {name: metric["unit"] for name, metric in result["metrics"].items()} == declared
        if not run["trace"]:
            assert all(metric["value"] > 0 for metric in result["metrics"].values())
        assert len(run["detail"]["answers_sha256"]) == 64
        assert run["detail"]["env"]["usable_cores"] >= 1
    for name in end_to_end:
        assert ("  %s " % name) in finished.stdout  # every metric printed by name
    assert elapsed < 60, "smoke run took %.0f s" % elapsed


def test_every_per_layer_metric_has_a_workload_that_must_produce_it():
    from bench_e2e import layers

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [entry["name"] for entry in contract["per_layer"]]
    owned = {name: layers.owned(name, names) for name in layers.ENGINE_WORKLOADS}
    assert set().union(*owned.values()) == set(names)  # none is 0 everywhere
    assert {n for n in names if n.startswith("serve.")} <= owned["http_warm"]
    assert not any(n.startswith(("serve.", "sparql.")) for n in owned["shard_scatter"])
    assert "alpha.build_s" in owned["lib_cold"] and "alpha.build_s" not in owned["http_warm"]
    assert "reach.pruned_share" not in owned["sparql_topk"]  # no QueryStats in SPARQL replies
    assert "storage.bytes_alpha" in owned["sparql_topk"]
