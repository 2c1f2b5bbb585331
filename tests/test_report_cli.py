"""Tests for the rae-report CLI surface: the ``report`` command and the
``bundle``/``timeline`` subcommands, JSON output, exit codes on missing
or corrupt input, and the console-script dispatch."""

import json

import pytest

from repro.tools import main as tools_main, rae_report_main


def _run_report(tmp_path, capsys, *extra):
    args = ["report", "--ops", "80", "--seed", "7", "--fault-every", "20", *extra]
    code = tools_main(args)
    return code, capsys.readouterr()


class TestReportCommand:
    def test_report_prints_summary_metrics_and_timeline(self, tmp_path, capsys):
        code, captured = _run_report(tmp_path, capsys)
        assert code == 0
        assert "RAE supervisor:" in captured.out
        assert "metrics snapshot" in captured.out
        assert "recovery timeline" in captured.out
        assert "forensic bundles:" in captured.out

    def test_report_histogram_lines_carry_percentiles(self, tmp_path, capsys):
        code, captured = _run_report(tmp_path, capsys)
        assert code == 0
        assert "p50=" in captured.out
        assert "p95=" in captured.out
        assert "p99=" in captured.out

    def test_report_prints_the_layer_table(self, tmp_path, capsys):
        from repro.obs.prof import LAYERS

        code, captured = _run_report(tmp_path, capsys)
        assert code == 0
        lines = captured.out.splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("per-layer self-time"))
        assert lines[start + 1].split() == ["layer", "self_s", "share", "calls", "p50us", "p95us", "p99us"]
        rows = [line.split() for line in lines[start + 3 : start + 3 + len(LAYERS)]]
        assert [row[0] for row in rows] == list(LAYERS)
        assert sum(float(row[2].rstrip("%")) for row in rows) == pytest.approx(100.0, abs=0.5)
        metrics = dict(
            line.strip().split(" = ") for line in lines if line.startswith("  prof.")
        )
        assert metrics["prof.ops"] == metrics["prof.api.calls"]

    def test_report_json_export_includes_events(self, tmp_path, capsys):
        snap_path = tmp_path / "snap.json"
        code, _ = _run_report(tmp_path, capsys, "--json", str(snap_path))
        assert code == 0
        payload = json.loads(snap_path.read_text())
        assert payload["meta"]["ops"] == 80
        assert any(e["kind"] == "detect" for e in payload["snapshot"]["events"])

    def test_report_bundle_export(self, tmp_path, capsys):
        bundle_path = tmp_path / "bundle.json"
        code, captured = _run_report(tmp_path, capsys, "--bundle", str(bundle_path))
        assert code == 0
        assert "wrote forensic bundle" in captured.out
        bundle = json.loads(bundle_path.read_text())
        assert bundle["schema"] == 1
        assert bundle["outcome"] == "success"
        assert bundle["crosschecks"]["captured"] >= 1

    def test_report_bundle_without_recovery_fails(self, tmp_path, capsys):
        code = tools_main([
            "report", "--ops", "30", "--fault-every", "0",
            "--bundle", str(tmp_path / "none.json"),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "no forensic bundle" in captured.err
        assert not (tmp_path / "none.json").exists()


class TestBundleCommand:
    @pytest.fixture
    def bundle_path(self, tmp_path, capsys):
        path = tmp_path / "bundle.json"
        assert _run_report(tmp_path, capsys, "--bundle", str(path))[0] == 0
        return path

    def test_pretty_print(self, bundle_path, capsys):
        assert tools_main(["bundle", str(bundle_path)]) == 0
        out = capsys.readouterr().out
        assert "forensic bundle: success recovery" in out
        assert "flight ring (frozen at detection" in out
        assert "cross-checks" in out

    def test_json_re_emit(self, bundle_path, capsys):
        assert tools_main(["bundle", str(bundle_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert tools_main(["bundle", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{truncated")
        assert tools_main(["bundle", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_wrong_shape_exits_2(self, tmp_path, capsys):
        not_bundle = tmp_path / "other.json"
        not_bundle.write_text('{"schema": 1}')
        assert tools_main(["bundle", str(not_bundle)]) == 2
        assert "not a forensic bundle" in capsys.readouterr().err


class TestTimelineCommand:
    @pytest.fixture
    def snap_path(self, tmp_path, capsys):
        path = tmp_path / "snap.json"
        assert _run_report(tmp_path, capsys, "--json", str(path))[0] == 0
        return path

    def test_renders_causal_merge(self, snap_path, capsys):
        assert tools_main(["timeline", str(snap_path)]) == 0
        out = capsys.readouterr().out
        assert "event detect" in out
        assert "span  recovery" in out
        # Chronological offsets from the first entry.
        assert out.startswith("[+0.000000s]")

    def test_accepts_raw_snapshot_payload(self, snap_path, tmp_path, capsys):
        raw = json.loads(snap_path.read_text())["snapshot"]
        raw_path = tmp_path / "raw.json"
        raw_path.write_text(json.dumps(raw))
        assert tools_main(["timeline", str(raw_path)]) == 0
        assert "event detect" in capsys.readouterr().out

    def test_footer_summarizes_span_durations(self, snap_path, capsys):
        assert tools_main(["timeline", str(snap_path)]) == 0
        footer = capsys.readouterr().out.strip().splitlines()[-1]
        assert footer.startswith("spans:")
        assert "closed" in footer
        for p in ("p50=", "p95=", "p99="):
            assert p in footer

    def test_json_output_is_sorted_by_ts(self, snap_path, capsys):
        assert tools_main(["timeline", str(snap_path), "--json"]) == 0
        merged = json.loads(capsys.readouterr().out)
        timestamps = [entry["ts"] for entry in merged]
        assert timestamps == sorted(timestamps)

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert tools_main(["timeline", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2")
        assert tools_main(["timeline", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_wrong_shape_exits_2(self, tmp_path, capsys):
        other = tmp_path / "other.json"
        other.write_text('{"meta": {}}')
        assert tools_main(["timeline", str(other)]) == 2
        assert "not a registry snapshot" in capsys.readouterr().err


class TestConsoleScriptDispatch:
    def test_bare_args_default_to_report(self, monkeypatch, capsys):
        monkeypatch.setattr(
            "sys.argv", ["rae-report", "--ops", "40", "--fault-every", "0"]
        )
        assert rae_report_main() == 0
        assert "RAE supervisor:" in capsys.readouterr().out

    def test_subcommand_names_dispatch(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{truncated")
        monkeypatch.setattr("sys.argv", ["rae-report", "bundle", str(bad)])
        assert rae_report_main() == 2
        monkeypatch.setattr("sys.argv", ["rae-report", "timeline", str(bad)])
        assert rae_report_main() == 2


    def test_retired_hotpath_subcommand_is_rejected(self, tmp_path, monkeypatch, capsys):
        """No alias is left behind: the name is neither a tools subcommand
        nor a rae-report dispatch word (it falls through to ``report``,
        whose parser rejects the stray positionals)."""
        artifact = str(tmp_path / "x.json")
        with pytest.raises(SystemExit) as excinfo:
            tools_main(["hotpath", artifact])
        assert excinfo.value.code == 2
        monkeypatch.setattr("sys.argv", ["rae-report", "hotpath", artifact])
        with pytest.raises(SystemExit) as excinfo:
            rae_report_main()
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
