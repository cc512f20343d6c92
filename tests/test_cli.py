"""The command-line interface."""

import pytest

from repro.cli import main
from repro.datagen.paper_example import EXAMPLE_NTRIPLES


@pytest.fixture(scope="module")
def example_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "example.nt"
    path.write_text(EXAMPLE_NTRIPLES, encoding="utf-8")
    return str(path)


class TestQueryCommand:
    def test_basic_query(self, example_file, capsys):
        code = main(
            [
                "query",
                "--data", example_file,
                "--location", "43.51,4.75",
                "--keywords", "ancient", "roman", "catholic", "history",
                "-k", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Montmajour_Abbey" in out.splitlines()[0]
        assert "f=1.3" in out
        assert "[SP]" in out

    @pytest.mark.parametrize("method", ["bsp", "spp", "sp", "ta"])
    def test_all_methods(self, example_file, capsys, method):
        code = main(
            [
                "query",
                "--data", example_file,
                "--location", "43.17,5.90",
                "--keywords", "ancient", "roman",
                "--method", method,
                "-k", "1",
            ]
        )
        assert code == 0
        assert "Roman_Catholic_Diocese" in capsys.readouterr().out

    def test_weighted_sum_ranking(self, example_file, capsys):
        code = main(
            [
                "query",
                "--data", example_file,
                "--location", "43.51,4.75",
                "--keywords", "ancient", "roman", "catholic", "history",
                "--ranking", "sum", "--beta", "0.9",
                "-k", "1",
            ]
        )
        assert code == 0
        # Looseness-dominated ranking prefers the diocese (L=4).
        assert "Roman_Catholic_Diocese" in capsys.readouterr().out

    def test_no_result(self, example_file, capsys):
        code = main(
            [
                "query",
                "--data", example_file,
                "--location", "0,0",
                "--keywords", "church", "architecture",
            ]
        )
        assert code == 0
        assert "no qualified semantic place" in capsys.readouterr().out

    def test_bad_location_rejected(self, example_file):
        with pytest.raises(SystemExit):
            main(
                [
                    "query",
                    "--data", example_file,
                    "--location", "nowhere",
                    "--keywords", "ancient",
                ]
            )


class TestStatsCommand:
    def test_reports(self, example_file, capsys):
        code = main(["stats", "--data", example_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "vertices" in out
        assert "alpha_index" in out
        assert "build times" in out


class TestGenerateCommand:
    def test_generate_and_reload(self, tmp_path, capsys):
        output = tmp_path / "tiny.nt"
        code = main(
            [
                "generate",
                "--profile", "tiny-yago",
                "--vertices", "300",
                "--seed", "4",
                "--output", str(output),
            ]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        assert output.exists()
        # The generated corpus is loadable and queryable end-to-end.
        code = main(["stats", "--data", str(output), "--alpha", "1"])
        assert code == 0


class TestStatsFlag:
    def test_stats_tables_printed(self, example_file, capsys):
        code = main(
            [
                "query",
                "--data", example_file,
                "--location", "43.51,4.75",
                "--keywords", "ancient", "roman",
                "-k", "1",
                "--stats",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "statistics:" in out
        assert "cache_hits" in out
        assert "tqsp_computations" in out
        assert "tqsp cache:" in out

    def test_no_stats_by_default(self, example_file, capsys):
        code = main(
            [
                "query",
                "--data", example_file,
                "--location", "43.51,4.75",
                "--keywords", "ancient", "roman",
                "-k", "1",
            ]
        )
        assert code == 0
        assert "statistics:" not in capsys.readouterr().out


class TestObservabilityFlags:
    def test_trace_prints_phase_breakdown(self, example_file, capsys):
        code = main(
            [
                "query",
                "--data", example_file,
                "--location", "43.51,4.75",
                "--keywords", "ancient", "roman",
                "-k", "1",
                "--trace",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace: per-phase breakdown" in out
        assert "tqsp-bfs" in out

    def test_no_trace_by_default(self, example_file, capsys):
        code = main(
            [
                "query",
                "--data", example_file,
                "--location", "43.51,4.75",
                "--keywords", "ancient", "roman",
                "-k", "1",
            ]
        )
        assert code == 0
        assert "trace:" not in capsys.readouterr().out

    def test_metrics_out_writes_exposition(self, example_file, capsys, tmp_path):
        target = tmp_path / "metrics.prom"
        code = main(
            [
                "query",
                "--data", example_file,
                "--location", "43.51,4.75",
                "--keywords", "ancient", "roman",
                "-k", "1",
                "--metrics-out", str(target),
            ]
        )
        assert code == 0
        assert "metrics written to" in capsys.readouterr().out
        text = target.read_text(encoding="utf-8")
        assert "# TYPE ksp_query_latency_seconds histogram" in text
        assert "ksp_query_latency_seconds_count 1" in text
        assert 'ksp_queries_total{method="sp"} 1' in text
