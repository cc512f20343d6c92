"""Table 5 — preprocessing and indexing time.

Paper values (minutes): DBpedia R-tree 3.17, inverted 4.61, TFlabel 22.60,
alpha(=3)-radius 1192.01; Yago 31.90 / 1.00 / 6.09 / 101.61.  Expected
shape: alpha-radius preprocessing dominates everything else by one to two
orders of magnitude, and the reachability index costs more than the
inverted index.

A second table records the resident-set peak of one whole engine build of
the 8 000-vertex benchmark corpus, taken in a child process: the number
that says whether the next point of the scale sweep is buildable.
"""

import json
import subprocess
import sys


from repro.bench.context import dataset
from repro.bench.tables import Table
from repro.datagen.profiles import YAGO_LIKE
from repro.datagen.synthetic import generate_graph, graph_to_triples
from repro.rdf.ntriples import write_file


def _measure():
    table = Table(
        "Table 5: preprocessing and indexing time (seconds)",
        ["dataset", "rtree", "inverted_index", "reachability", "alpha3_radius"],
    )
    measurements = {}
    for name in ("dbpedia", "yago"):
        ds = dataset(name)
        ds.alpha_index(3)  # force the alpha build so its time is recorded
        times = (
            ds.build_seconds["rtree"],
            ds.build_seconds["inverted_index"],
            ds.build_seconds["reachability"],
            ds.build_seconds["alpha_index_3"],
        )
        table.add_row(name, *times)
        measurements[name] = times
    table.add_note(
        "paper (minutes): dbpedia 3.17/4.61/22.60/1192.01, "
        "yago 31.90/1.00/6.09/101.61 — alpha-radius dominates"
    )
    return table, measurements


def test_table5_preprocessing(benchmark, emit):
    table, measurements = benchmark.pedantic(_measure, rounds=1, iterations=1)
    emit("table5_preprocessing", table)
    for name, (rtree, inverted, reach, alpha) in measurements.items():
        # Alpha-radius preprocessing dominates all other index builds.
        assert alpha > rtree, name
        assert alpha > inverted, name
        assert alpha > reach, name


PEAK_VERTICES = 8000
PEAK_LIMIT_MB = 300.0

# parse -> every index build -> save, as bench_e2e's set-up does it; the
# peak is read after each step, so a step's own high-water mark shows as
# the step where the number rises.  VmHWM, not ru_maxrss: the latter
# starts from the resident set of the process that forked the child.
_PEAK_CHILD = """
import json, sys
from repro import KSPEngine
from repro.rdf.documents import graph_from_triples
from repro.rdf.ntriples import parse_file

def peak_mb():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")

graph = graph_from_triples(parse_file(sys.argv[1]))
parsed = peak_mb()
engine = KSPEngine(graph)
built = peak_mb()
engine.save_snapshot(sys.argv[2])
print(json.dumps({
    "parsed_mb": parsed,
    "built_mb": built,
    "saved_mb": peak_mb(),
    "alpha_s": engine.build_seconds["alpha_index"],
    "alpha_bytes": engine.alpha_index.size_bytes(),
}))
"""


def _measure_build_peak(directory):
    corpus = directory / "kb.nt"
    write_file(graph_to_triples(generate_graph(YAGO_LIKE.scaled(PEAK_VERTICES))), corpus)
    finished = subprocess.run(
        [sys.executable, "-c", _PEAK_CHILD, str(corpus), str(directory / "kb.snap")],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    measured = json.loads(finished.stdout.strip().splitlines()[-1])
    table = Table(
        "Build peak: parse, KSPEngine build and save_snapshot in a child process (VmHWM, MB)",
        ["vertices", "parsed_mb", "built_mb", "saved_mb", "alpha_s", "alpha_bytes"],
    )
    table.add_row(
        PEAK_VERTICES,
        measured["parsed_mb"],
        measured["built_mb"],
        measured["saved_mb"],
        measured["alpha_s"],
        measured["alpha_bytes"],
    )
    table.add_note(
        "per-place BFS into a dict-of-dicts (before the bit-parallel build), "
        "same corpus and container: 36.3 / 857.8 / 1035.4 MB, alpha 18.4 s"
    )
    return table, measured


def test_build_peak_rss(benchmark, emit_section, tmp_path):
    table, measured = benchmark.pedantic(
        _measure_build_peak, args=(tmp_path,), rounds=1, iterations=1
    )
    emit_section("table5_preprocessing", "build_peak", table)
    assert measured["saved_mb"] < PEAK_LIMIT_MB
