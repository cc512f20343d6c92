"""Spatial sharding: partition/build invariants, scatter-gather merge
soundness (sharded top-k == unsharded top-k), routing-bound pruning,
degraded partial results, and the HTTP per-shard-fleet executor."""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import time
import urllib.error
import urllib.request

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import KSPEngine
from repro.core.query import KSPQuery
from repro.core.stats import QueryStats
from repro.core.topk import TopKQueue
from repro.datagen.profiles import TINY_YAGO
from repro.datagen.synthetic import generate_graph
from repro.shard import (
    PlaceMaskedGraph,
    ShardRouter,
    build_shards,
    load_manifest,
    str_partition,
    tile_region,
)
from repro.spatial.geometry import Point


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _place_terms(graph, limit=200):
    """Distinct document terms over the graph's places, sorted."""
    terms = set()
    for vertex, _ in graph.places():
        terms.update(graph.document(vertex))
        if len(terms) >= limit:
            break
    return sorted(terms)


def _bbox(graph):
    xs = [point.x for _, point in graph.places()]
    ys = [point.y for _, point in graph.places()]
    return min(xs), min(ys), max(xs), max(ys)


def _signature(result):
    return [(p.root, p.score, p.looseness) for p in result.places]


def _agreement_sweep(graph, trials=12):
    """The randomized ``(location, keywords, k, method)`` agreement sweep."""
    terms = _place_terms(graph)
    min_x, min_y, max_x, max_y = _bbox(graph)
    rng = random.Random(13)
    for _ in range(trials):
        location = (
            rng.uniform(min_x, max_x),
            rng.uniform(min_y, max_y),
        )
        keywords = rng.sample(terms, rng.choice((1, 2, 3)))
        k = rng.choice((1, 3, 5, 8))
        method = rng.choice(("sp", "ta"))
        yield location, keywords, k, method


def _plan_order(records):
    """Shard records in the router's dispatch order: ascending bound."""
    return sorted(
        records,
        key=lambda s: (math.inf if s["bound"] is None else s["bound"], s["shard"]),
    )


@pytest.fixture(scope="module")
def shard_setup(tmp_path_factory, tiny_yago_graph):
    config = EngineConfig(alpha=3)
    directory = tmp_path_factory.mktemp("shards-a3")
    manifest = build_shards(tiny_yago_graph, directory, 3, config=config)
    single = KSPEngine(tiny_yago_graph, config)
    router = ShardRouter(directory, config)
    return tiny_yago_graph, single, router, directory, manifest


# ---------------------------------------------------------------------------
# Partitioning


class TestPartition:
    def test_disjoint_and_covering(self):
        rng = random.Random(5)
        places = [
            (index, Point(rng.uniform(-50, 50), rng.uniform(-50, 50)))
            for index in range(137)
        ]
        tiles = str_partition(places, 6)
        assert len(tiles) == 6
        seen = [key for tile in tiles for key, _ in tile]
        assert sorted(seen) == list(range(137))  # every place exactly once
        sizes = [len(tile) for tile in tiles]
        assert max(sizes) - min(sizes) <= 2  # balanced

    def test_deterministic_under_input_order(self):
        rng = random.Random(6)
        places = [
            (index, Point(rng.uniform(0, 10), rng.uniform(0, 10)))
            for index in range(64)
        ]
        shuffled = list(places)
        rng.shuffle(shuffled)
        a = str_partition(places, 5)
        b = str_partition(shuffled, 5)
        assert [[key for key, _ in tile] for tile in a] == [
            [key for key, _ in tile] for tile in b
        ]

    def test_never_produces_empty_tiles(self):
        places = [(index, Point(float(index), 0.0)) for index in range(3)]
        tiles = str_partition(places, 8)  # more shards than places
        assert len(tiles) == 3
        assert all(tiles)


# ---------------------------------------------------------------------------
# Building


class TestBuild:
    def test_manifest_roundtrip(self, shard_setup):
        graph, _, _, directory, manifest = shard_setup
        loaded = load_manifest(directory)
        assert loaded == manifest
        assert loaded["shards"] == 3
        assert sum(e["places"] for e in loaded["entries"]) == graph.place_count()
        for entry in loaded["entries"]:
            min_x, min_y, max_x, max_y = entry["region"]
            assert min_x <= max_x and min_y <= max_y

    def test_masked_graph_hides_other_places_only(self, tiny_yago_graph):
        places = list(tiny_yago_graph.places())
        allowed = {vertex for vertex, _ in places[:10]}
        masked = PlaceMaskedGraph(tiny_yago_graph, allowed)
        assert masked.place_count() == len(allowed)
        assert masked.vertex_count == tiny_yago_graph.vertex_count
        assert masked.edge_count == tiny_yago_graph.edge_count
        hidden = places[10][0]
        assert tiny_yago_graph.location(hidden) is not None
        assert masked.location(hidden) is None
        assert not masked.is_place(hidden)
        # Documents and labels are the full graph's: shard-local BFS
        # scores must equal single-engine scores.
        assert masked.document(hidden) == tiny_yago_graph.document(hidden)

    def test_rejects_placeless_graph(self, tmp_path, tiny_yago_graph):
        masked = PlaceMaskedGraph(tiny_yago_graph, ())
        with pytest.raises(ValueError):
            build_shards(masked, tmp_path / "none", 2)

    def test_missing_manifest_is_a_clear_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_manifest(tmp_path)

    @pytest.mark.parametrize(
        "config",
        [
            EngineConfig(),
            EngineConfig(alpha=2, undirected=True),
            EngineConfig(rtree_max_entries=8),
            EngineConfig(build_reachability=False),
            EngineConfig(build_alpha=False),
        ],
        ids=["default", "alpha2-undirected", "fanout8", "no-reach", "no-alpha"],
    )
    def test_files_equal_per_tile_engine_snapshots(self, tmp_path, tiny_yago_graph, config):
        """One shared build writes the bytes a whole engine per tile would."""
        graph = tiny_yago_graph
        manifest = build_shards(graph, tmp_path / "shards", 3, config=config)

        reference = tmp_path / "reference"
        reference.mkdir()
        entries = []
        for index, tile in enumerate(str_partition(list(graph.places()), 3)):
            engine = KSPEngine(PlaceMaskedGraph(graph, (v for v, _ in tile)), config)
            name = "shard-%04d.snap" % index
            entries.append(
                {
                    "index": index,
                    "snapshot": name,
                    "places": len(tile),
                    "bytes": engine.save_snapshot(reference / name),
                    "region": tile_region(tile),
                    "manifest_hash": engine.manifest_hash,
                }
            )
        assert manifest == {
            "format": 1,
            "shards": 3,
            "alpha": config.alpha,
            "undirected": config.undirected,
            "rtree_max_entries": config.rtree_max_entries,
            "source": {
                "vertices": graph.vertex_count,
                "edges": graph.edge_count,
                "places": graph.place_count(),
            },
            "entries": entries,
        }
        assert load_manifest(tmp_path / "shards") == manifest
        for entry in entries:
            name = entry["snapshot"]
            assert _sha256(tmp_path / "shards" / name) == _sha256(reference / name), name
        assert sorted(path.name for path in (tmp_path / "shards").iterdir()) == sorted(
            [entry["snapshot"] for entry in entries] + ["manifest.json"]
        )


class TestRouterOpen:
    """A shard directory whose files disagree with its manifest is refused."""

    @pytest.fixture(scope="class")
    def builds(self, tmp_path_factory):
        def build(seed, alpha):
            graph = generate_graph(TINY_YAGO.scaled(600).with_seed(seed))
            directory = tmp_path_factory.mktemp("open-%d-a%d" % (seed, alpha))
            build_shards(graph, directory, 3, config=EngineConfig(alpha=alpha))
            return directory

        return {"base": build(23, 3), "foreign": build(29, 3), "alpha": build(23, 2)}

    @pytest.mark.parametrize(
        "source, name",
        [
            ("foreign", "shard-0001.snap"),  # the same tile of another corpus
            ("alpha", "shard-0001.snap"),  # the same tile built with alpha=2
            ("base", "shard-0002.snap"),  # a sibling copied over shard 1
        ],
        ids=["foreign-corpus", "alpha-swap", "sibling-swap"],
    )
    def test_refuses_a_shard_the_manifest_does_not_name(
        self, tmp_path, builds, source, name
    ):
        directory = tmp_path / "shards"
        shutil.copytree(builds["base"], directory)
        ShardRouter(directory)  # the untouched copy opens
        shutil.copyfile(builds[source] / name, directory / "shard-0001.snap")
        with pytest.raises(ValueError, match="shard-0001.snap"):
            ShardRouter(directory)


# ---------------------------------------------------------------------------
# Scatter-gather merge soundness (satellite: randomized agreement)


class TestAgreement:
    def test_randomized_sharded_equals_unsharded(self, shard_setup):
        graph, single, router, _, _ = shard_setup
        for trial, (location, keywords, k, method) in enumerate(
            _agreement_sweep(graph)
        ):
            expected = single.query(location, keywords, k=k, method=method)
            merged = router.query(location, keywords, k=k, method=method)
            assert _signature(merged) == _signature(expected), (
                trial,
                location,
                keywords,
                k,
                method,
            )
            # Byte-identical wire top-k, not just matching signatures.
            e_dict = expected.to_dict()
            m_dict = merged.to_dict()
            assert json.dumps(m_dict["places"], sort_keys=True) == json.dumps(
                e_dict["places"], sort_keys=True
            )
            assert m_dict["scores"] == e_dict["scores"]
            assert m_dict["looseness"] == e_dict["looseness"]
            assert m_dict["timed_out"] is False

    def test_agreement_across_alpha(self, tmp_path_factory):
        graph = generate_graph(TINY_YAGO.scaled(600).with_seed(23))
        for alpha in (2, 3):
            config = EngineConfig(alpha=alpha)
            directory = tmp_path_factory.mktemp("shards-a%d" % alpha)
            build_shards(graph, directory, 4, config=config)
            single = KSPEngine(graph, config)
            router = ShardRouter(directory, config)
            terms = _place_terms(graph)
            rng = random.Random(alpha)
            for _ in range(4):
                location = (rng.uniform(-10, 30), rng.uniform(35, 70))
                keywords = rng.sample(terms, 2)
                k = rng.choice((2, 4))
                expected = single.query(location, keywords, k=k, method="sp")
                merged = router.query(location, keywords, k=k, method="sp")
                assert _signature(merged) == _signature(expected)

    def test_prebuilt_query_and_options_path(self, shard_setup):
        graph, single, router, _, _ = shard_setup
        terms = _place_terms(graph)
        query = KSPQuery.create(Point(5.0, 50.0), terms[:2], k=4)
        expected = single.query(query, method="sp")
        merged = router.query(query, method="sp")
        assert _signature(merged) == _signature(expected)
        assert merged.stats.algorithm == "SHARDED-SP"
        assert len(merged.stats.shards) == 3


# ---------------------------------------------------------------------------
# Routing bound (distributed Rule 4)


class TestRouting:
    def test_router_prunes_far_shards(self, shard_setup):
        graph, single, router, _, _ = shard_setup
        # A query sitting exactly on a place that covers its own keyword:
        # the best score is ~0, so every other shard's root bound beats
        # theta and is pruned without executing.
        target = None
        for vertex, point in graph.places():
            document = graph.document(vertex)
            if document:
                target = (vertex, point, sorted(document)[0])
                break
        assert target is not None
        vertex, point, term = target
        result = router.query((point.x, point.y), [term], k=1, method="sp")
        expected = single.query((point.x, point.y), [term], k=1, method="sp")
        assert _signature(result) == _signature(expected)
        executed = [s for s in result.stats.shards if not s["pruned"]]
        pruned = [s for s in result.stats.shards if s["pruned"]]
        assert len(executed) == 1
        assert len(pruned) == 2
        for shard in pruned:
            assert shard["places"] == 0

    def test_executed_shards_are_a_prefix_of_the_bound_order(self, shard_setup):
        """Shards run best bound first, each re-tested against the theta
        of the ones before it: once one is pruned every later one is too,
        and no pruned shard could have beaten the final theta."""
        graph, _, router, _, _ = shard_setup
        for location, keywords, k, method in _agreement_sweep(graph):
            merged = router.query(location, keywords, k=k, method=method)
            executed = [not s["pruned"] for s in _plan_order(merged.stats.shards)]
            assert executed == sorted(executed, reverse=True), merged.stats.shards
            pruned = [s for s in merged.stats.shards if s["pruned"]]
            if pruned:
                assert len(merged.places) == k
                theta = merged.places[-1].score
                for shard in pruned:
                    assert shard["bound"] is None or shard["bound"] >= theta - 1e-9

    def test_routing_decisions_repeat_exactly(self, shard_setup):
        graph, _, router, _, _ = shard_setup
        for location, keywords, k, method in _agreement_sweep(graph):
            first, second = (
                router.query(location, keywords, k=k, method=method)
                for _ in range(2)
            )
            assert [(s["pruned"], s["places"]) for s in first.stats.shards] == [
                (s["pruned"], s["places"]) for s in second.stats.shards
            ]

    def test_sharded_work_stays_near_single_engine(self, shard_setup):
        """With the TQSP cache off, the merged work is exactly the work of
        the executed shards, and over the sweep it stays within 1.65x of
        the single engine's.  The excess left is each executed shard
        filling its own top-k before the merge sees it (1.63x here)."""
        graph, _, _, directory, _ = shard_setup
        config = EngineConfig(alpha=3, tqsp_cache_size=0)
        single = KSPEngine(graph, config)
        router = ShardRouter(directory, config)
        single_work = router_work = 0
        for location, keywords, k, method in _agreement_sweep(graph):
            single_work += single.query(
                location, keywords, k=k, method=method
            ).stats.tqsp_computations
            merged = router.query(location, keywords, k=k, method=method)
            router_work += merged.stats.tqsp_computations
            assert merged.stats.tqsp_computations == sum(
                router.engines[s["shard"]]
                .query(location, keywords, k=k, method=method)
                .stats.tqsp_computations
                for s in merged.stats.shards
                if not s["pruned"]
            )
        assert single_work > 0
        assert router_work <= 1.65 * single_work, (router_work, single_work)

    def test_parallelism_is_read_only(self, shard_setup):
        _, _, router, _, _ = shard_setup
        assert router.parallelism == 1
        with pytest.raises(AttributeError):
            router.parallelism = 4

    def test_fanout_and_prune_counters_exported(self, shard_setup):
        _, _, router, _, _ = shard_setup
        text = router.metrics_text()
        assert "ksp_shard_fanout_total" in text
        assert "ksp_shards 3" in text

    def test_flight_recorder_carries_shard_spans(self, shard_setup):
        graph, _, router, _, _ = shard_setup
        terms = _place_terms(graph)
        router.query((0.0, 50.0), terms[:1], k=2, request_id="span-probe")
        [record] = router.flight_recorder.snapshot(limit=1)
        assert record["request_id"] == "span-probe"
        assert record["phases"]  # shard-N spans even without ?trace=1
        assert all(name.startswith("shard-") for name in record["phases"])


# ---------------------------------------------------------------------------
# Degradation (satellite: injected per-shard timeout)


class _TimedOutShard:
    """Stub engine: contributes a partial answer and a timeout flag,
    after sleeping ``delay`` seconds."""

    def __init__(self, engine, keep=1, delay=0.0):
        self._engine = engine
        self._keep = keep
        self._delay = delay

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def query(self, *args, **kwargs):
        time.sleep(self._delay)
        result = self._engine.query(*args, **kwargs)
        result.places = result.places[: self._keep]
        result.stats.timed_out = True
        return result


class _CountingShard:
    """Stub engine: counts the queries it is asked to run."""

    def __init__(self, engine):
        self._engine = engine
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def query(self, *args, **kwargs):
        self.calls += 1
        return self._engine.query(*args, **kwargs)


class TestDegradation:
    def test_expired_deadline_skips_later_shards(self, shard_setup):
        """A shard whose turn comes after the deadline is not run: it is
        flagged like an unreachable HTTP shard, and the router overshoots
        the budget by one shard, not by every shard in turn."""
        graph, _, _, directory, _ = shard_setup
        router = ShardRouter(directory, EngineConfig(alpha=3))
        # The first shard in bound order is the one whose region holds
        # the query point; it sleeps past the whole budget.
        first = 0
        min_x, min_y, max_x, max_y = router.manifest["entries"][first]["region"]
        location = ((min_x + max_x) / 2.0, (min_y + max_y) / 2.0)
        timeout, overshoot = 0.2, 0.3
        router.engines = [
            _TimedOutShard(engine, keep=0, delay=timeout + overshoot)
            if index == first
            else _CountingShard(engine)
            for index, engine in enumerate(router.engines)
        ]
        terms = _place_terms(graph)
        started = time.monotonic()
        merged = router.query(location, terms[:2], k=4, method="sp", timeout=timeout)
        elapsed = time.monotonic() - started

        assert elapsed <= timeout + overshoot + 0.25, elapsed
        assert merged.stats.timed_out is True
        assert merged.incomplete
        assert _plan_order(merged.stats.shards)[0]["shard"] == first
        assert merged.stats.shards[first]["timed_out"] is True
        later = [s for s in merged.stats.shards if s["shard"] != first]
        for shard in later:
            assert router.engines[shard["shard"]].calls == 0
            assert shard["pruned"] is False
            assert shard["timed_out"] is True
            assert shard["error"] == "deadline exhausted before dispatch"
            assert shard["places"] == 0

        # Served, the same degradation is a 504 carrying the partial body.
        from repro.serve.server import KSPServer, ServeConfig

        server = KSPServer(engine=router, config=ServeConfig(port=0)).start()
        try:
            body = {
                "location": list(location),
                "keywords": terms[:2],
                "k": 4,
                "method": "sp",
                "timeout": timeout,
            }
            with pytest.raises(urllib.error.HTTPError) as caught:
                _post_query(server.url, body)
            assert caught.value.code == 504
            wire = json.loads(caught.value.read().decode("utf-8"))
        finally:
            server.stop()
        assert wire["timed_out"] is True
        assert "places" in wire
        assert [s["error"] for s in wire["stats"]["shards"] if s["shard"] != first] == [
            "deadline exhausted before dispatch"
        ] * len(later)

    def test_injected_shard_timeout_partial_dominates(
        self, shard_setup, tmp_path_factory
    ):
        graph, single, _, directory, _ = shard_setup
        config = EngineConfig(alpha=3)
        router = ShardRouter(directory, config)
        # Query the victim's own region so its routing bound is ~0 and
        # it always executes — the timeout flag cannot be raced away by
        # a prune.
        victim = 1
        min_x, min_y, max_x, max_y = router.manifest["entries"][victim]["region"]
        location = ((min_x + max_x) / 2.0, (min_y + max_y) / 2.0)
        router.engines[victim] = _TimedOutShard(router.engines[victim], keep=1)
        terms = _place_terms(graph)
        k = 6
        merged = router.query(location, terms[:2], k=k, method="sp")

        assert merged.stats.timed_out is True
        assert merged.incomplete
        flags = {s["shard"]: s["timed_out"] for s in merged.stats.shards}
        assert flags[victim] is True

        # No false entries above theta: every returned place is a real
        # place with its true single-engine score...
        full = single.query(location, terms[:2], k=50, method="sp")
        truth = {p.root: p.score for p in full.places}
        for place in merged.places:
            assert place.root in truth
            assert place.score == pytest.approx(truth[place.root])

        # ...and the surviving shards' contributions dominate: the merge
        # equals the exact top-k over (surviving shards + the partial).
        reference = TopKQueue(k)
        for index, engine in enumerate(router.engines):
            result = engine.query(location, terms[:2], k=k, method="sp")
            for place in result.places:
                reference.consider(place)
        assert _signature(merged) == [
            (p.root, p.score, p.looseness) for p in reference.ranked()
        ]

    def test_shard_exception_degrades_not_raises(self, shard_setup):
        graph, _, _, directory, _ = shard_setup

        class _Exploding:
            def __init__(self, engine):
                self._engine = engine

            def __getattr__(self, name):
                return getattr(self._engine, name)

            def query(self, *args, **kwargs):
                raise RuntimeError("shard process lost")

        router = ShardRouter(directory, EngineConfig(alpha=3))
        # Aim the query at the victim shard's own region: its routing
        # bound is ~0, so it always executes (never pruned) and the
        # injected crash must surface as degradation.
        victim = 2
        min_x, min_y, max_x, max_y = router.manifest["entries"][victim]["region"]
        location = ((min_x + max_x) / 2.0, (min_y + max_y) / 2.0)
        router.engines[victim] = _Exploding(router.engines[victim])
        terms = _place_terms(graph)
        merged = router.query(location, terms[:1], k=4, method="sp")
        assert merged.stats.timed_out is True
        record = merged.stats.shards[victim]
        assert record["timed_out"] is True
        assert "shard process lost" in record["error"]
        # The other shards still answered.
        assert merged.places


# ---------------------------------------------------------------------------
# HTTP executor: one fleet per shard


def _post_query(base_url, body):
    request = urllib.request.Request(
        base_url + "/v1/query",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read().decode("utf-8"))


class TestHTTPExecutor:
    def test_http_fleet_agreement_and_kill_degradation(self, shard_setup):
        from repro.serve.server import KSPServer, ServeConfig

        graph, single, _, directory, manifest = shard_setup
        config = EngineConfig(alpha=3)
        servers = []
        try:
            for entry in manifest["entries"]:
                engine = KSPEngine.from_snapshot(
                    directory / entry["snapshot"], config
                )
                server = KSPServer(
                    engine=engine, config=ServeConfig(port=0, workers=2)
                ).start()
                servers.append(server)
            urls = [server.url for server in servers]
            router = ShardRouter(directory, config, shard_urls=urls)
            terms = _place_terms(graph)

            expected = single.query((2.0, 48.0), terms[:2], k=5, method="sp")
            merged = router.query(
                (2.0, 48.0), terms[:2], k=5, method="sp", timeout=10.0
            )
            assert _signature(merged) == _signature(expected)
            assert merged.stats.timed_out is False

            # Kill one shard fleet: the router degrades to a flagged
            # partial answer, never an exception.
            victim = 0
            servers[victim].stop()
            degraded = router.query(
                (2.0, 48.0), terms[:2], k=5, method="sp", timeout=10.0
            )
            assert degraded.stats.timed_out is True
            assert degraded.stats.shards[victim]["timed_out"] is True
            assert degraded.stats.shards[victim]["error"]
            truth = {p.root: p.score for p in expected.places}
            for place in degraded.places:  # no fabricated entries
                if place.root in truth:
                    assert place.score == pytest.approx(truth[place.root])
        finally:
            for server in servers:
                server.stop()


# ---------------------------------------------------------------------------
# The router behind the serving stack


class TestServedRouter:
    def test_router_duck_types_the_engine_for_kspserver(self, shard_setup):
        from repro.serve.server import KSPServer, ServeConfig

        graph, single, router, _, _ = shard_setup
        terms = _place_terms(graph)
        server = KSPServer(engine=router, config=ServeConfig(port=0)).start()
        try:
            body = {
                "location": [1.0, 52.0],
                "keywords": terms[:2],
                "k": 3,
                "method": "sp",
            }
            wire = _post_query(server.url, body)
            expected = single.query((1.0, 52.0), terms[:2], k=3, method="sp")
            assert wire["scores"] == [p.score for p in expected.places]
            assert [s["shard"] for s in wire["stats"]["shards"]] == [0, 1, 2]
            with urllib.request.urlopen(
                server.url + "/v1/metrics", timeout=10
            ) as response:
                metrics = response.read().decode("utf-8")
            assert "ksp_shard_fanout_total" in metrics
            with urllib.request.urlopen(
                server.url + "/v1/debug/engine", timeout=10
            ) as response:
                debug = json.loads(response.read().decode("utf-8"))
            assert debug["manifest_hash"] == router.manifest_hash
            assert len(debug["shards"]) == 3
        finally:
            server.stop()

    def test_merged_stats_from_dict_roundtrip(self, shard_setup):
        graph, _, router, _, _ = shard_setup
        terms = _place_terms(graph)
        merged = router.query((0.0, 50.0), terms[:1], k=2)
        rebuilt = QueryStats.from_dict(merged.stats.as_dict())
        assert rebuilt.shards == merged.stats.shards
        assert rebuilt.algorithm == merged.stats.algorithm
        # Single-engine stats keep the pinned wire shape: no shards key.
        assert "shards" not in QueryStats().as_dict()


class TestSubRequestIds:
    def test_shard_stats_carry_sub_request_ids(self, shard_setup):
        graph, _, router, _, _ = shard_setup
        terms = _place_terms(graph)
        merged = router.query(
            (1.0, 52.0), terms[:2], k=3, method="sp", request_id="rid-7"
        )
        for summary in merged.stats.shards:
            assert summary["request_id"] == "rid-7#shard-%d" % summary["shard"]

    def test_no_request_id_means_no_sub_ids(self, shard_setup):
        graph, _, router, _, _ = shard_setup
        terms = _place_terms(graph)
        merged = router.query((1.0, 52.0), terms[:2], k=3, method="sp")
        for summary in merged.stats.shards:
            assert summary["request_id"] is None

    def test_traced_router_query_collects_subtraces(self, shard_setup):
        graph, _, router, _, _ = shard_setup
        terms = _place_terms(graph)
        merged = router.query(
            (1.0, 52.0), terms[:2], k=3, method="sp",
            trace=True, request_id="rid-8",
        )
        assert merged.subtraces, "traced scatter should collect shard docs"
        labels = [entry["label"] for entry in merged.subtraces]
        assert labels == sorted(labels)
        executed = {
            "shard-%d" % s["shard"]
            for s in merged.stats.shards
            if not s["pruned"] and not s["timed_out"]
        }
        assert set(labels) == executed
        for entry in merged.subtraces:
            assert entry["document"]["traceEvents"]
            assert entry["os_pid"] is not None
            assert entry["offset_seconds"] >= 0.0
        # subtraces are router-side only, never part of the wire schema
        assert "subtraces" not in merged.to_dict()
