"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.trace import save_trace_file
from tests.test_hb_build_checks import cyclic_trace, shared_queue_trace
from tests.test_hb_vector_clock import late_fork_same_looper_trace, late_fork_trace


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


class TestModelViolations:
    """A trace the model cannot order ends the load/detect commands
    with a one-line error, not a traceback."""

    @pytest.mark.parametrize("command", ["detect", "stream", "stats"])
    @pytest.mark.parametrize(
        "make, error",
        [
            (cyclic_trace, "HBCycleError"),
            (shared_queue_trace, "ModelNotApplicableError"),
        ],
        ids=["cyclic", "shared-queue"],
    )
    def test_one_line_error_and_exit_1(self, tmp_path, capsys, command, make, error):
        path = tmp_path / "bad.trace"
        save_trace_file(make(), path, version=2)
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {error}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["detect", "stream", "stats"])
    def test_out_of_order_partner_is_a_one_line_error(self, tmp_path, capsys, command):
        """The traces validate, but the CAFA build cannot order a fork
        after the child began: not when the race crosses loopers, and
        not when it stays on one, where no report needs the
        vector-clock pass."""
        for make in (late_fork_trace, late_fork_same_looper_trace):
            path = tmp_path / f"{make.__name__}.trace"
            save_trace_file(make(), path, version=2)
            assert main([command, str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(
                f"error: {path}: ModelNotApplicableError: the fork rule orders op #"
            )
            assert err.count("\n") == 1
