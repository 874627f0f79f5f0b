"""The ``bench`` perf-smoke subcommand."""

import json

import pytest

from repro.cli import main


class TestBenchCLI:
    def test_writes_bench_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH.json"
        rc = main(
            ["bench", "fig5", "table2", "--skip-full-cell", "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["suite_wall_s"] >= 0
        names = [cell["experiment"] for cell in payload["cells"]]
        assert names == ["fig5", "table2"]
        for cell in payload["cells"]:
            # The old single-shot timer reported 0.0 s for sub-ms cells;
            # the best-of-N timer floors at a strictly positive ms.
            assert cell["ms"] > 0
            assert cell["repeats"] >= 1
        assert "fullscale_fig10" not in payload

    def test_json_flag_prints_payload(self, tmp_path, capsys):
        out = tmp_path / "BENCH.json"
        main(["bench", "table2", "--skip-full-cell", "--json", "--out", str(out)])
        printed = json.loads(capsys.readouterr().out)
        # stdout wears the uniform envelope; the BENCH.json artifact on
        # disk stays the raw payload CI archives.
        assert printed["command"] == "bench"
        assert printed["schema_version"] == 1
        assert printed["result"] == json.loads(out.read_text())

    def test_baseline_embedded(self, tmp_path):
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps({"fullscale_fig10_cold_s": 1.4}))
        out = tmp_path / "BENCH.json"
        main(
            [
                "bench", "table2", "--skip-full-cell",
                "--out", str(out), "--baseline", str(baseline),
            ]
        )
        assert json.loads(out.read_text())["baseline"] == {
            "fullscale_fig10_cold_s": 1.4
        }

    def test_missing_baseline_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "bench", "table2", "--skip-full-cell",
                    "--out", str(tmp_path / "b.json"),
                    "--baseline", str(tmp_path / "missing.json"),
                ]
            )

    def test_unknown_experiment_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["bench", "nope", "--out", str(tmp_path / "b.json")])

    def test_compare_within_tolerance_passes(self, tmp_path):
        base = tmp_path / "base.json"
        out = tmp_path / "BENCH.json"
        assert main(
            [
                "bench", "table2", "--skip-full-cell", "--skip-optimize-cell",
                "--out", str(base),
            ]
        ) == 0
        rc = main(
            [
                "bench", "table2", "--skip-full-cell", "--skip-optimize-cell",
                "--out", str(out),
                "--compare", str(base), "--tolerance", "1000",
            ]
        )
        assert rc == 0
        compare = json.loads(out.read_text())["compare"]
        assert compare["ok"] is True
        assert compare["regressions"] == []
        assert [row["experiment"] for row in compare["rows"]] == ["table2"]

    def test_compare_regression_exits_nonzero(self, tmp_path):
        base = tmp_path / "base.json"
        # An impossibly fast baseline: every real timing is a regression.
        base.write_text(
            json.dumps(
                {"cells": [{"experiment": "table2", "ms": 1e-9}]}
            )
        )
        out = tmp_path / "BENCH.json"
        rc = main(
            [
                "bench", "table2", "--skip-full-cell", "--out", str(out),
                "--compare", str(base),
            ]
        )
        assert rc == 1
        compare = json.loads(out.read_text())["compare"]
        assert compare["ok"] is False
        assert compare["regressions"] == ["table2"]

    def test_missing_compare_baseline_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "bench", "table2", "--skip-full-cell",
                    "--out", str(tmp_path / "b.json"),
                    "--compare", str(tmp_path / "missing.json"),
                ]
            )
