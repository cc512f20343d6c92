"""The fixed corpus and its on-disk artifacts.

One corpus serves every workload: ``YAGO_LIKE.scaled(8000)`` (1 500
vertices under ``--smoke``), seeded by the profile itself, written as
N-Triples and parsed back so that every surface sees the graph exactly
as a user's load would produce it.  ``lib_cold`` builds it on every run,
as its set-up; the other workloads share one copy per checkout under
``bench_e2e/out/cache/``, keyed by a digest of the program source.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

FULL_VERTICES = 8000
SMOKE_VERTICES = 1500
SHARDS = 4


def require_program() -> None:
    """Make ``repro`` importable from this checkout, or exit non-zero.

    The benchmark measures the program in the checkout it was started
    from; a directory that holds only the benchmark has nothing to run.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            "bench_e2e: no program to measure: %s is missing\n"
            % (SRC / "repro" / "__init__.py")
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def profile(smoke: bool):
    from repro.datagen.profiles import YAGO_LIKE

    return YAGO_LIKE.scaled(SMOKE_VERTICES if smoke else FULL_VERTICES)


def source_digest() -> str:
    """sha256 over every ``src/repro`` source file (path and bytes)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class Corpus:
    """Paths of the parsed-from corpus file and its engine snapshot."""

    nt: Path
    snapshot: Path
    vertices: int

    @property
    def snapshot_bytes(self) -> int:
        return self.snapshot.stat().st_size


@contextlib.contextmanager
def scratch_dir(label: str) -> Iterator[Path]:
    """A fresh per-process directory under ``out/``, removed on exit."""
    path = OUT / ("%s-%d" % (label, os.getpid()))
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def build_snapshot(directory: Path, smoke: bool) -> Dict[str, float]:
    """generate -> N-Triples -> parse + every index build -> save.

    The write side of the engine layers: with the ``from_snapshot`` that
    follows, the whole of ``lib_cold``'s set-up.  Leaves ``kb.nt`` and
    ``kb.snap`` in ``directory``; returns the seconds each phase took.
    """
    from repro import KSPEngine
    from repro.datagen.synthetic import generate_graph, graph_to_triples
    from repro.rdf.ntriples import write_file

    phases: Dict[str, float] = {}
    started = time.perf_counter()
    write_file(graph_to_triples(generate_graph(profile(smoke))), directory / "kb.nt")
    phases["generate"] = time.perf_counter() - started

    mark = time.perf_counter()
    built = KSPEngine.from_file(directory / "kb.nt")
    phases["parse_build"] = time.perf_counter() - mark

    mark = time.perf_counter()
    built.save_snapshot(directory / "kb.snap")
    phases["save"] = time.perf_counter() - mark
    phases["total"] = time.perf_counter() - started
    return phases


def build_shard_dir(nt: Path, directory: Path) -> Dict[str, float]:
    """``build_shards(graph, directory, 4)`` on the parsed corpus file."""
    from repro.shard.build import build_shards

    graph, _ = load_graph(nt)
    started = time.perf_counter()
    build_shards(graph, directory, SHARDS)
    return {"total": time.perf_counter() - started}


def in_child(*arguments: str) -> Dict[str, float]:
    """Run one of the builds above in a process of its own and return the
    seconds it reports.  The alpha build holds a gigabyte for a moment;
    the process that goes on to answer queries must not carry that in its
    peak RSS."""
    finished = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *arguments],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    return json.loads(finished.stdout.strip().splitlines()[-1])


def snapshot_in_child(directory: Path, smoke: bool) -> Tuple[Corpus, Dict[str, float]]:
    phases = in_child("snapshot", str(directory), *(["--smoke"] if smoke else []))
    files = Corpus(directory / "kb.nt", directory / "kb.snap", profile(smoke).vertex_count)
    return files, phases


def ensure_corpus(smoke: bool) -> Corpus:
    """The corpus and snapshot the three serving workloads share, kept
    under ``out/cache/<profile>-<digest of src/repro>``; built when this
    checkout has none, replacing what an older source left behind."""
    name = profile(smoke).name
    target = OUT / "cache" / ("%s-%s" % (name, source_digest()[:16]))
    if not (target / "kb.snap").is_file():
        target.parent.mkdir(parents=True, exist_ok=True)
        for stale in target.parent.glob("%s-*" % name):
            if ".tmp-" not in stale.name:  # a build under way is not stale
                shutil.rmtree(stale, ignore_errors=True)
        staging = target.parent / ("%s.tmp-%d" % (target.name, os.getpid()))
        staging.mkdir()
        snapshot_in_child(staging, smoke)
        try:
            staging.rename(target)
        except OSError:  # another run published first
            shutil.rmtree(staging)
    return Corpus(target / "kb.nt", target / "kb.snap", profile(smoke).vertex_count)


def load_graph(nt: Path):
    """The in-memory graph and inverted file the query generators read."""
    from repro.rdf.documents import graph_from_triples
    from repro.rdf.ntriples import parse_file
    from repro.text.inverted import InvertedIndex

    graph = graph_from_triples(parse_file(nt))
    return graph, InvertedIndex.build(graph)


def main(arguments: Sequence[str]) -> int:
    require_program()
    if arguments[:1] == ["snapshot"]:
        seconds = build_snapshot(Path(arguments[1]), "--smoke" in arguments)
    elif arguments[:1] == ["shards"]:
        seconds = build_shard_dir(Path(arguments[1]), Path(arguments[2]))
    else:
        sys.stderr.write("usage: corpus.py snapshot DIR [--smoke] | shards KB.NT DIR\n")
        return 2
    print(json.dumps(seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
