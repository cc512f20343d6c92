import json

import pytest

from bench_e2e import compare

CONTRACT = {
    "workloads": [{"name": "lib_cold", "why": ""}],
    "end_to_end": [
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "throughput_qps", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
}
BOUNDS = {"lib_cold": {"latency_p50_ms": 0.1, "throughput_qps": 0.1}}


def run(latency, rate, failed=0, digest="d0", seed=11, workload="lib_cold"):
    return {
        "workload": workload,
        "seed": seed,
        "trace": False,
        "exit_code": 1 if failed else 0,
        "result": {
            "attempted": 100,
            "failed": failed,
            "metrics": {
                "latency_p50_ms": {"value": latency, "unit": "ms"},
                "throughput_qps": {"value": rate, "unit": "1/s"},
            },
        },
        "detail": {"answers_sha256": digest},
    }


def crashed(workload="lib_cold"):
    return {"workload": workload, "seed": 11, "trace": False, "exit_code": 1, "result": None, "detail": None}


def side(tmp_path, name, runs, smoke=False):
    traced = {"workload": "lib_cold", "seed": 11, "trace": True, "exit_code": 0, "result": {"metrics": {}}}
    path = tmp_path / name
    path.write_text(json.dumps({"smoke": smoke, "runs": list(runs) + [traced]}))
    return compare.load_side([str(path)])


def verdicts(tmp_path, base_runs, change_runs, bounds=BOUNDS):
    rows = compare.compare(
        side(tmp_path, "a.json", base_runs), side(tmp_path, "b.json", change_runs), CONTRACT, bounds
    )
    return {row["metric"]: row["verdict"] for row in rows}


STEADY = [run(10.0, 50.0), run(10.1, 50.5), run(9.9, 49.5)]


def test_same_numbers_are_unchanged(tmp_path):
    assert verdicts(tmp_path, STEADY, STEADY) == {
        "latency_p50_ms": "unchanged",
        "throughput_qps": "unchanged",
        "failed_share": "unchanged",
        "answers_sha256": "unchanged",
    }


def test_direction_decides_regressed_and_improved(tmp_path):
    slower = [run(12.0, 40.0), run(12.1, 40.4), run(11.9, 39.6)]
    faster = [run(8.0, 60.0), run(8.1, 60.5), run(7.9, 59.5)]
    for change, expected in ((slower, "regressed"), (faster, "improved")):
        outcome = verdicts(tmp_path, STEADY, change)
        assert outcome["latency_p50_ms"] == outcome["throughput_qps"] == expected


def test_wide_spread_is_unresolved_not_unchanged(tmp_path):
    noisy = [run(10.0, 50.0), run(13.0, 50.5), run(8.0, 49.5)]
    outcome = verdicts(tmp_path, noisy, STEADY)
    assert outcome["latency_p50_ms"] == "unresolved"
    assert outcome["throughput_qps"] == "unchanged"


def test_the_workloads_own_bound_applies_but_never_looser_than_the_contract(tmp_path):
    slower = [run(10.6, 50.0), run(10.7, 50.5), run(10.5, 49.5)]  # 6 % worse
    assert verdicts(tmp_path, STEADY, slower)["latency_p50_ms"] == "unchanged"
    tight = {"lib_cold": {"latency_p50_ms": 0.05}}
    assert verdicts(tmp_path, STEADY, slower, tight)["latency_p50_ms"] == "regressed"
    slower = [run(11.5, 50.0), run(11.6, 50.5), run(11.4, 49.5)]  # 15 % worse
    loose = {"lib_cold": {"latency_p50_ms": 0.5}}
    assert verdicts(tmp_path, STEADY, slower, loose)["latency_p50_ms"] == "regressed"


def test_a_workload_missing_from_one_side_is_not_silently_skipped(tmp_path):
    gone = set(verdicts(tmp_path, STEADY, []).values())
    assert gone == {"regressed", "unresolved"}  # answers: no common seed
    assert verdicts(tmp_path, STEADY, [])["latency_p50_ms"] == "regressed"
    assert verdicts(tmp_path, [], STEADY)["latency_p50_ms"] == "unresolved"


def test_a_crashed_run_counts_as_a_failed_attempt(tmp_path):
    outcome = verdicts(tmp_path, STEADY, [crashed()])
    assert outcome["failed_share"] == "regressed"
    assert outcome["latency_p50_ms"] == "regressed"


def test_failed_operations_regress_whatever_the_timings(tmp_path):
    broken = [run(5.0, 100.0, failed=1)] + STEADY
    outcome = verdicts(tmp_path, STEADY, broken)
    assert outcome["failed_share"] == "regressed"
    assert outcome["latency_p50_ms"] == "unchanged"  # the broken run's timings are left out


def test_answers_must_be_identical_per_seed(tmp_path):
    other = [run(10.0, 50.0, digest="d1"), run(10.1, 50.5), run(9.9, 49.5)]
    assert verdicts(tmp_path, STEADY, other)["answers_sha256"] == "regressed"
    another_seed = [run(10.0, 50.0, digest="d1", seed=12)]
    assert verdicts(tmp_path, STEADY, another_seed)["answers_sha256"] == "unresolved"


def test_spread_uses_quartiles_from_four_runs_on():
    assert compare.spread([10.0]) == 0.0
    assert compare.spread([9.0, 10.0, 11.0]) == pytest.approx(0.2)
    # one outlier among nine lies outside the quartiles and does not count
    assert compare.spread([9.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 11.0, 30.0]) == pytest.approx(0.05)


def test_smoke_results_are_refused(tmp_path):
    with pytest.raises(SystemExit):
        side(tmp_path, "smoke.json", STEADY, smoke=True)


def test_bounds_file_covers_the_contract_and_is_never_looser():
    contract = json.loads((compare.ROOT / "BENCHMARK.json").read_text())
    bounds = json.loads((compare.BENCH_DIR / "bounds.json").read_text())
    assert set(bounds) == {entry["name"] for entry in contract["workloads"]}
    for metric in contract["end_to_end"]:
        own = [bounds[workload][metric["name"]] for workload in bounds]
        assert max(own) <= metric["bound"]  # a workload's own bound only ever tightens
