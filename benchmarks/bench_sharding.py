"""Sharded serving: scatter-gather agreement, routing-bound pruning,
and degraded partial results — the serving-layer scale-out the paper
leaves open.

The corpus is split into three spatial shards (STR partitioning over the
place R-tree), each a full PR-6 snapshot of the masked graph.  Three
claims are measured and archived in ``BENCH_sharding.json``:

* **Agreement** — the merged sharded top-k is identical (same roots,
  same scores, same looseness) to the single-engine answer on every
  workload query, across the paper's k grid.
* **Routing** — the per-shard alpha-radius lower bound prunes shards
  that cannot beat the running threshold, so mean fan-out per query is
  below the shard count.
* **Degradation** — killing one shard mid-query yields a partial top-k
  over the surviving shards with the victim's ``timed_out`` flag set,
  and never fabricates an entry that the survivors cannot justify.
"""

import tempfile
from pathlib import Path

from repro.bench.context import dataset
from repro.bench.tables import Table
from repro.core.config import EngineConfig
from repro.core.engine import KSPEngine
from repro.core.topk import TopKQueue
from repro.shard import ShardRouter, build_shards

SHARDS = 3
K_VALUES = (1, 5, 10)


def _signature(result):
    return [(p.root, p.score, p.looseness) for p in result.places]


class _LostShard:
    """Stands in for a shard whose process was SIGKILL'd mid-query."""

    def __init__(self, engine):
        self._engine = engine

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def query(self, *args, **kwargs):
        raise RuntimeError("shard process lost")


def _agreement(single, router, queries):
    rows = []
    identical = 0
    total = 0
    for k in K_VALUES:
        matches = 0
        for query in queries:
            location = (query.location.x, query.location.y)
            keywords = list(query.keywords)
            expected = single.query(location, keywords, k=k, method="sp")
            merged = router.query(location, keywords, k=k, method="sp")
            total += 1
            if _signature(merged) == _signature(expected):
                matches += 1
                identical += 1
        rows.append({"k": k, "queries": len(queries), "identical": matches})
    return rows, identical, total


def _routing(router, queries, k=5):
    executed = 0
    pruned = 0
    answered = 0
    for query in queries:
        location = (query.location.x, query.location.y)
        result = router.query(
            location, list(query.keywords), k=k, method="sp"
        )
        answered += 1
        for record in result.stats.shards:
            if record["pruned"]:
                pruned += 1
            else:
                executed += 1
    return {
        "queries": answered,
        "k": k,
        "shard_visits": executed,
        "shard_prunes": pruned,
        "mean_fanout": round(executed / answered, 3) if answered else None,
        "prune_rate": (
            round(pruned / (executed + pruned), 3) if executed + pruned else None
        ),
    }


def _degraded(shard_dir, config, queries, victim=1, k=5):
    router = ShardRouter(shard_dir, config)
    region = router.manifest["entries"][victim]["region"]
    # Aim at the victim's region center so its routing bound is ~0 and it
    # is executed (then lost), never legitimately pruned.
    location = ((region[0] + region[2]) / 2.0, (region[1] + region[3]) / 2.0)
    keywords = list(queries[0].keywords)

    survivors = [
        engine for index, engine in enumerate(router.engines) if index != victim
    ]
    reference = TopKQueue(k)
    for engine in survivors:
        for place in engine.query(location, keywords, k=k, method="sp").places:
            reference.consider(place)

    router.engines[victim] = _LostShard(router.engines[victim])
    merged = router.query(location, keywords, k=k, method="sp")
    flags = [record["timed_out"] for record in merged.stats.shards]
    expected = [(p.root, p.score, p.looseness) for p in reference.ranked()]
    return {
        "killed_shard": victim,
        "k": k,
        "timed_out": merged.stats.timed_out,
        "timed_out_flags": flags,
        "victim_error": merged.stats.shards[victim]["error"],
        "partial_places": len(merged.places),
        "no_false_entries": _signature(merged) == expected,
    }


def _sweep():
    ds = dataset("yago")
    config = EngineConfig(alpha=3, tqsp_cache_size=0)
    queries = ds.workload("O", keyword_count=5)
    with tempfile.TemporaryDirectory(prefix="ksp-bench-shards-") as tmp:
        shard_dir = Path(tmp) / "shards"
        manifest = build_shards(ds.graph, shard_dir, SHARDS, config=config)
        single = KSPEngine(ds.graph, config)
        router = ShardRouter(shard_dir, config)

        agreement_rows, identical, total = _agreement(single, router, queries)
        routing = _routing(router, queries)
        degraded = _degraded(shard_dir, config, queries)
        shard_places = [entry["places"] for entry in manifest["entries"]]

    agreement_table = Table(
        "Sharded vs single-engine agreement (%d shards, method=sp)" % SHARDS,
        ["k", "queries", "identical"],
    )
    for row in agreement_rows:
        agreement_table.add_row(row["k"], row["queries"], row["identical"])
    agreement_table.add_note(
        "identical = same roots, scores and looseness, in order"
    )

    routing_table = Table(
        "Routing-bound pruning (k=%d)" % routing["k"],
        ["queries", "shard visits", "shard prunes", "mean fanout", "prune rate"],
    )
    routing_table.add_row(
        routing["queries"],
        routing["shard_visits"],
        routing["shard_prunes"],
        routing["mean_fanout"],
        routing["prune_rate"],
    )
    routing_table.add_note(
        "a shard is pruned when its alpha-radius lower bound cannot beat "
        "the merged threshold"
    )

    degraded_table = Table(
        "Degraded partial result (shard %d killed mid-query)"
        % degraded["killed_shard"],
        ["timed_out", "flags", "partial places", "no false entries"],
    )
    degraded_table.add_row(
        degraded["timed_out"],
        "/".join("T" if flag else "-" for flag in degraded["timed_out_flags"]),
        degraded["partial_places"],
        degraded["no_false_entries"],
    )

    payload = {
        "benchmark": "sharding",
        "shards": SHARDS,
        "scale_vertices": ds.graph.vertex_count,
        "shard_places": shard_places,
        "method": "sp",
        "agreement": {
            "k_values": list(K_VALUES),
            "per_k": agreement_rows,
            "identical": identical,
            "total": total,
        },
        "routing": routing,
        "degraded": degraded,
    }
    tables = [agreement_table, routing_table, degraded_table]
    return tables, payload


def test_sharding(benchmark, emit, emit_json):
    tables, payload = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    emit("sharding", tables)
    emit_json("BENCH_sharding", payload)
    # The acceptance bar: byte-identical merged top-k on every query,
    # sub-fleet fan-out, and a sound partial answer when a shard dies.
    assert payload["agreement"]["identical"] == payload["agreement"]["total"]
    assert payload["routing"]["mean_fanout"] <= SHARDS
    assert payload["degraded"]["timed_out"] is True
    assert payload["degraded"]["timed_out_flags"].count(True) == 1
    assert payload["degraded"]["no_false_entries"] is True
