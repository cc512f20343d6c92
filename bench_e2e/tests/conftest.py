"""Harness self-tests: ``PYTHONPATH=src python -m pytest bench_e2e/tests -q``.

They live outside the repository's ``testpaths``, so the tier-1 suite
neither collects nor pays for them.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)


@pytest.fixture(scope="session")
def small_corpus():
    """The smoke corpus as the generators see it: graph + inverted file."""
    from bench_e2e import corpus

    files = corpus.ensure_corpus(smoke=True)
    graph, inverted = corpus.load_graph(files.nt)
    return files, graph, inverted
