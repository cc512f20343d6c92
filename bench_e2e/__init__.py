"""bench_e2e — the four-surface kSP benchmark (see README.md in this directory).

The harness drives the program under test only through its public API
(``KSPEngine``, ``python -m repro serve``, ``ShardRouter``,
``SparqlExecutor``); nothing here is imported by ``src/repro``.
"""
