"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestApps:
    def test_lists_ten_apps(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        for name in ("connectbot", "mytracks", "music"):
            assert name in out


class TestRecordDetectWitness:
    @pytest.fixture()
    def trace_path(self, tmp_path, capsys):
        path = tmp_path / "mytracks.jsonl"
        assert main(["record", "mytracks", "-o", str(path), "--scale", "0.02"]) == 0
        capsys.readouterr()
        return path

    def test_record_writes_a_loadable_trace(self, trace_path):
        from repro.trace import load_trace_file

        trace = load_trace_file(trace_path)
        assert len(trace) > 0
        trace.validate()

    def test_detect_reports_the_mytracks_races(self, trace_path, capsys):
        assert main(["detect", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "use-free races reported: 8" in out
        assert "providerUtils" in out

    @pytest.mark.parametrize("flag", ["--dense-bits", "--legacy-store"])
    def test_removed_engine_flags_are_usage_errors(self, trace_path, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["detect", str(trace_path), flag])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_detect_low_level_flag(self, trace_path, capsys):
        assert main(["detect", str(trace_path), "--low-level"]) == 0
        out = capsys.readouterr().out
        assert "low-level baseline" in out

    def test_witness_prints_schedules(self, trace_path, capsys):
        assert main(["witness", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "the FREE" in out
        assert "alternate schedule" in out

    def test_stats_prints_rule_attribution(self, trace_path, capsys):
        assert main(["stats", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "edges by rule" in out
        assert "program-order" in out

    def test_witness_on_race_free_trace(self, tmp_path, capsys):
        from repro.runtime import AndroidSystem
        from repro.trace import save_trace_file

        system = AndroidSystem(seed=1)
        app = system.process("clean")
        app.thread("t", lambda ctx: ctx.write("x", 1))
        system.run()
        path = tmp_path / "clean.jsonl"
        save_trace_file(system.trace(), path)
        assert main(["witness", str(path)]) == 0
        assert "no use-free races" in capsys.readouterr().out


class TestEvaluate:
    def test_evaluate_prints_table1(self, capsys):
        assert main(["evaluate", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "Overall" in out
        assert "115" in out

    def test_record_unknown_app_fails(self, tmp_path):
        with pytest.raises(KeyError):
            main(["record", "ghost", "-o", str(tmp_path / "x.jsonl")])

    def test_evaluate_jobs_matches_serial(self, capsys):
        assert main(["evaluate", "--scale", "0.02"]) == 0
        serial = capsys.readouterr().out
        assert main(["evaluate", "--scale", "0.02", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    @pytest.mark.parametrize("bad", ["0", "-2", "1.5", "many"])
    def test_evaluate_rejects_bad_jobs(self, bad, capsys):
        with pytest.raises(SystemExit):
            main(["evaluate", "--scale", "0.02", "--jobs", bad])
        err = capsys.readouterr().err
        assert "--jobs" in err

    def test_slowdown_accepts_jobs(self, capsys):
        assert main(["slowdown", "--scale", "0.01", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "slowdown" in out.lower()


class TestDot:
    def test_dot_export(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        assert main(["record", "vlc", "-o", str(trace_path), "--scale", "0.02"]) == 0
        capsys.readouterr()
        assert main(["dot", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph happens_before")
        assert "send" in out


class TestExplore:
    def test_explore_reports_stability(self, capsys):
        assert main(["explore", "vlc", "--seeds", "2", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "stability 100%" in out
        assert "stable:" in out
