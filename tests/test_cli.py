"""Command-line interface."""

import pytest

from repro.cli import main


class TestTables:
    def test_single_table(self, capsys):
        assert main(["tables", "--only", "table4"]) == 0
        out = capsys.readouterr().out
        assert "Table 4" in out and "Accel." in out

    def test_multiple_tables(self, capsys):
        assert main(["tables", "--only", "table1", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Fig. 2" in out

    def test_unknown_table_errors(self, capsys):
        assert main(["tables", "--only", "table99"]) == 2
        assert "unknown table" in capsys.readouterr().err


class TestQuote:
    def test_quote_eba(self, capsys):
        assert main(["quote", "Cholesky"]) == 0
        out = capsys.readouterr().out
        assert "EBA" in out and "Zen3" in out

    def test_quote_cba(self, capsys):
        assert main(["quote", "Pagerank", "--method", "cba"]) == 0
        assert "CBA" in capsys.readouterr().out

    def test_unknown_function(self, capsys):
        assert main(["quote", "Mining"]) == 2
        assert "unknown function" in capsys.readouterr().err

    def test_unknown_method(self, capsys):
        assert main(["quote", "Cholesky", "--method", "Vibes"]) == 2


class TestStudyAndSim:
    def test_study_small(self, capsys):
        assert main(["study", "--users", "12", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 9" in out and "Fig. 10" in out

    def test_simulate_tiny(self, capsys):
        assert main(["simulate", "--scale", "300", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 5a" in out and "Table 6" in out and "Fig. 6" in out

    def test_low_carbon_tiny(self, capsys):
        assert main(["low-carbon", "--scale", "300", "--seed", "5"]) == 0
        assert "Fig. 7a" in capsys.readouterr().out


class TestSweepServe:
    def test_serve_stats_and_shutdown(self, tmp_path, monkeypatch, capsys):
        import io
        import json

        monkeypatch.setattr(
            "sys.stdin", io.StringIO('{"op": "stats"}\n{"op": "shutdown"}\n')
        )
        assert (
            main(["sweep", "serve", "--store", str(tmp_path), "--jobs", "1"])
            == 0
        )
        events = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
        ]
        assert [e["event"] for e in events] == ["ready", "stats", "bye"]
        assert events[0]["workers"] == 1
        assert events[1]["store"]["entries"] == 0

    @pytest.mark.parametrize(
        "flag, value",
        [("--max-store-bytes", "0"), ("--max-retries", "-1")],
    )
    def test_serve_rejects_bad_bounds(self, tmp_path, capsys, flag, value):
        store = tmp_path / "store"
        assert main(["sweep", "serve", "--store", str(store), flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(flag) and err.count("\n") == 1
        assert not store.exists()  # rejected before anything was built

    def test_sweep_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["sweep"])


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
