"""The sharded multi-session daemon: router differential tests
(sharded ≡ single-process on all ten apps, GC on and off), transport
backoff, socket ingestion, fault isolation, and the serve/stats CLI."""

import json
import os
import socket
import threading

import pytest

from repro.apps import ALL_APPS, make_app
from repro.cli import main
from repro.stream import (
    Backoff,
    DaemonReport,
    DuplicateSessionError,
    SessionRouter,
    SocketSource,
    StreamAnalyzer,
    StreamProfile,
    concat_sessions,
    merge_profiles,
    tail_chunks,
)
from repro.testing import TraceBuilder
from repro.trace import (
    dumps_trace,
    dumps_trace_bytes,
    encode_data_frame,
    encode_finish_frame,
    encode_mux_header,
    encode_session,
)
from tests.test_hb_build_checks import cyclic_trace, shared_queue_trace
from tests.test_hb_vector_clock import late_fork_trace

SCALE = 0.02
SEED = 1

_PAYLOADS = {}


def app_payloads():
    """session id -> serialized trace bytes, one session per app
    (v2 for half the apps, v3 for the other half — the daemon must
    demultiplex mixed-format fleets)."""
    if not _PAYLOADS:
        for i, app in enumerate(ALL_APPS):
            trace = make_app(app.name, scale=SCALE, seed=SEED).run().trace
            payload = (
                dumps_trace_bytes(trace)
                if i % 2
                else dumps_trace(trace).encode("utf-8")
            )
            _PAYLOADS[app.name] = payload
    return _PAYLOADS


_REFS = {}


def reference_reports(gc: bool):
    """app name -> single-process StreamAnalyzer authoritative
    reports, the byte-identity baseline."""
    if gc not in _REFS:
        refs = {}
        for sid, payload in app_payloads().items():
            analyzer = StreamAnalyzer(gc=gc)
            analyzer.feed(payload)
            refs[sid] = {
                "reports": [str(r) for r in analyzer.finish()],
                "ops": analyzer.profile.ops_ingested,
            }
        _REFS[gc] = refs
    return _REFS[gc]


def mux_stream(payloads, chunk_size=4096):
    buf = bytearray(encode_mux_header())
    frame_lists = [
        encode_session(sid, payload, chunk_size=chunk_size)
        for sid, payload in payloads.items()
    ]
    # round-robin interleave so sessions genuinely share the stream
    for i in range(max(len(f) for f in frame_lists)):
        for frames in frame_lists:
            if i < len(frames):
                buf += frames[i]
    return bytes(buf)


class TestShardedEqualsSingleProcess:
    """The acceptance bar: daemon reports byte-identical to a
    single-process ``StreamAnalyzer`` per session, for ALL ten apps,
    with epoch GC on and off."""

    @pytest.mark.parametrize("gc", [True, False])
    def test_all_ten_apps_match_across_two_shards(self, gc):
        refs = reference_reports(gc)
        stream = mux_stream(app_payloads())
        router = SessionRouter(2, gc=gc)
        for i in range(0, len(stream), 1 << 16):
            router.feed(stream[i : i + (1 << 16)])
        report = router.drain()
        assert sorted(report.sessions) == sorted(refs)
        assert {r.shard for r in report.sessions.values()} == {0, 1}
        for sid, ref in refs.items():
            session = report.sessions[sid]
            assert session.error is None
            assert session.ended
            assert session.reports == ref["reports"], sid
            assert session.ops == ref["ops"], sid

    def test_inline_mode_matches_too(self):
        refs = reference_reports(True)
        stream = mux_stream(app_payloads())
        router = SessionRouter(0)  # zero workers: analyze in-process
        router.feed(stream)
        report = router.drain()
        for sid, ref in refs.items():
            assert report.sessions[sid].reports == ref["reports"], sid

    def test_shard_assignment_is_consistent_hashing(self):
        refs = reference_reports(True)
        router = SessionRouter(4)
        stream = mux_stream(app_payloads())
        router.feed(stream)
        report = router.drain()
        for sid, session in report.sessions.items():
            assert session.shard == router.ring.shard_of(sid)
        assert sum(r.ops for r in report.sessions.values()) == sum(
            ref["ops"] for ref in refs.values()
        )


class TestFaultIsolation:
    def test_damaged_session_does_not_poison_neighbours(self):
        sid, payload = next(iter(app_payloads().items()))
        ref = reference_reports(True)[sid]
        stream = (
            encode_mux_header()
            + encode_data_frame("bad", b"\x93garbage that is not a trace")
            + b"".join(encode_session(sid, payload))
        )
        router = SessionRouter(1)
        router.feed(stream)
        report = router.drain()
        assert report.sessions["bad"].error is not None
        assert report.sessions["bad"].degraded
        assert report.sessions[sid].error is None
        assert report.sessions[sid].reports == ref["reports"]

    @pytest.mark.parametrize("shards", [0, 1])
    def test_model_violating_sessions_do_not_poison_neighbours(self, shards):
        """A cyclic session and a shared-queue session close with the
        error named and no reports; the good session on the same shard
        keeps its reports."""
        sid, payload = next(iter(app_payloads().items()))
        ref = reference_reports(True)[sid]
        bad = {
            "cyclic": ("HBCycleError", cyclic_trace()),
            "shared-queue": ("ModelNotApplicableError", shared_queue_trace()),
        }
        payloads = {name: dumps_trace(t).encode("utf-8") for name, (_, t) in bad.items()}
        payloads[sid] = payload
        router = SessionRouter(shards)
        router.feed(mux_stream(payloads))
        report = router.drain()
        assert report.sessions[sid].error is None
        assert report.sessions[sid].reports == ref["reports"]
        for name, (error, _) in bad.items():
            assert report.sessions[name].error.startswith(error + ": ")
            assert report.sessions[name].reports == []

    @pytest.mark.parametrize("shards", [0, 1])
    def test_out_of_order_partner_closes_the_session_with_the_error_named(
        self, shards
    ):
        """A session whose fork comes after the child began cannot be
        built: it closes with ModelNotApplicableError, and its
        neighbour keeps its reports."""
        sid, payload = next(iter(app_payloads().items()))
        ref = reference_reports(True)[sid]
        router = SessionRouter(shards)
        router.feed(
            mux_stream(
                {"late-fork": dumps_trace_bytes(late_fork_trace()), sid: payload}
            )
        )
        report = router.drain()
        assert report.sessions[sid].reports == ref["reports"]
        error = report.sessions["late-fork"].error
        assert error.startswith("ModelNotApplicableError: the fork rule orders op #")
        assert report.sessions["late-fork"].reports == []

    def test_unended_session_is_marked_drained(self):
        sid, payload = next(iter(app_payloads().items()))
        router = SessionRouter(1)
        router.feed(encode_mux_header() + encode_data_frame(sid, payload))
        report = router.drain()  # no END frame: daemon drain closes it
        assert report.sessions[sid].ended is False
        assert report.sessions[sid].reports  # still analyzed


class TestProfiles:
    def test_merge_sums_every_counter(self):
        a = StreamProfile(records_ingested=3, ops_ingested=5, polls=1)
        b = StreamProfile(records_ingested=4, peak_closure_bytes=100)
        merged = merge_profiles([a, b])
        assert merged.records_ingested == 7
        assert merged.ops_ingested == 5
        assert merged.peak_closure_bytes == 100
        assert merge_profiles([]).records_ingested == 0

    def test_daemon_report_merges_shard_profiles(self):
        refs = reference_reports(True)
        router = SessionRouter(2)
        router.feed(mux_stream(app_payloads()))
        report = router.drain()
        assert len(report.shard_profiles) == 2
        assert report.merged.ops_ingested == sum(
            ref["ops"] for ref in refs.values()
        )
        assert len(report.worker_profiles) == 2
        assert all(p.pid != os.getpid() for p in report.worker_profiles)

    def test_report_json_round_trips(self):
        router = SessionRouter(0)
        sid, payload = next(iter(app_payloads().items()))
        router.feed(encode_mux_header() + b"".join(encode_session(sid, payload)))
        report = router.drain()
        back = DaemonReport.from_dict(json.loads(report.to_json()))
        assert back.sessions[sid].reports == report.sessions[sid].reports
        assert back.merged.ops_ingested == report.merged.ops_ingested
        assert back.format() == report.format()

    def test_report_with_retired_profile_counters_still_loads(
        self, tmp_path, capsys
    ):
        """A report saved while StreamProfile still had the sampled-mode
        counters loads, and ``repro stats --daemon`` reads it."""
        router = SessionRouter(0)
        sid, payload = next(iter(app_payloads().items()))
        router.feed(encode_mux_header() + b"".join(encode_session(sid, payload)))
        report = router.drain()
        old = report.as_dict()
        retired = {"sampled_pairs": 7, "sampled_suspects": 5, "escalations": 1}
        for session in old["sessions"].values():
            session["profile"].update(retired)
        for profile in old["shard_profiles"]:
            profile.update(retired)
        back = DaemonReport.from_dict(old)
        assert back.sessions[sid].reports == report.sessions[sid].reports
        assert back.merged.ops_ingested == report.merged.ops_ingested
        path = tmp_path / "old-daemon.json"
        path.write_text(json.dumps(old))
        assert main(["stats", str(path), "--daemon"]) == 0
        assert "stream profile:" in capsys.readouterr().out


class TestBackoff:
    """Satellite: --follow must not busy-poll; the backoff doubles up
    to its cap and any data resets it."""

    def test_delays_grow_exponentially_to_the_cap(self):
        slept = []
        backoff = Backoff(initial=0.05, cap=0.4)
        for _ in range(6):
            backoff.wait(sleep=slept.append)
        assert slept == [0.05, 0.1, 0.2, 0.4, 0.4, 0.4]
        assert backoff.sleep_count == 6
        assert backoff.slept_total == pytest.approx(sum(slept))

    def test_reset_drops_back_to_initial(self):
        slept = []
        backoff = Backoff(initial=0.1, cap=1.0)
        backoff.wait(sleep=slept.append)
        backoff.wait(sleep=slept.append)
        backoff.reset()
        backoff.wait(sleep=slept.append)
        assert slept == [0.1, 0.2, 0.1]

    def test_validates_schedule(self):
        with pytest.raises(ValueError):
            Backoff(initial=0.0)
        with pytest.raises(ValueError):
            Backoff(initial=0.5, cap=0.1)
        with pytest.raises(ValueError):
            Backoff(factor=0.5)

    def test_idle_tail_sleeps_exponentially_not_at_a_fixed_rate(self):
        """The busy-poll regression test: over an idle stretch the
        tail must take exponentially *fewer* wakeups than fixed-rate
        polling — counted, not timed."""
        reads = iter([b"x"] + [b""] * 8 + [b"y"] + [b""] * 8)
        slept = []
        backoff = Backoff(initial=0.05, cap=0.8)
        stop = {"n": 0}

        def should_stop():
            stop["n"] += 1
            return stop["n"] > 18

        chunks = list(
            tail_chunks(
                lambda size: next(reads, b""),
                follow=True,
                backoff=backoff,
                sleep=slept.append,
                should_stop=should_stop,
            )
        )
        assert chunks == [b"x", b"y"]
        # 18 idle reads but a doubling schedule: the first idle run
        # sleeps 0.05..0.8 and the data byte resets it
        assert backoff.sleep_count == len(slept) == 18
        assert slept[:5] == [0.05, 0.1, 0.2, 0.4, 0.8]
        assert slept[8:12] == [0.05, 0.1, 0.2, 0.4]  # reset by b"y"
        # fixed-rate polling at the initial interval would have slept
        # 18 * 0.05 = 0.9s total; backoff idles far longer per wakeup
        assert sum(slept) > 0.9 * 5

    def test_tail_without_follow_stops_at_eof(self):
        reads = iter([b"a", b"b"])
        chunks = list(tail_chunks(lambda size: next(reads, b"")))
        assert chunks == [b"a", b"b"]


class TestDuplicateSessions:
    def small_trace(self):
        b = TraceBuilder()
        b.thread("T")
        b.begin("T")
        b.write("T", "x")
        b.end("T")
        return b.build()

    def test_duplicate_ids_raise_a_named_error(self):
        with pytest.raises(DuplicateSessionError, match="'s1'") as ei:
            concat_sessions(self.small_trace(), 3, ids=["s0", "s1", "s1"])
        assert ei.value.session == "s1"

    def test_duplicate_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            concat_sessions(self.small_trace(), 2, ids=["a", "a"])

    def test_id_count_must_match_sessions(self):
        with pytest.raises(ValueError, match="expected 2 session ids"):
            concat_sessions(self.small_trace(), 2, ids=["only-one"])

    def test_custom_distinct_ids_are_fine(self):
        out = concat_sessions(self.small_trace(), 2, ids=["left", "right"])
        assert {info.task.split(":")[0] for info in out.tasks.values()} == {
            "left",
            "right",
        }


class TestSocketIngestion:
    def test_three_concurrent_sessions_over_a_socket(self, tmp_path):
        """The soak shape: concurrent uploaders, one router, clean
        drain with every session accounted for."""
        sid, payload = next(iter(app_payloads().items()))
        ref = reference_reports(True)[sid]
        path = str(tmp_path / "daemon.sock")
        source = SocketSource.unix(path)
        router = SessionRouter(2)

        def upload(k):
            client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            client.connect(path)
            client.sendall(encode_mux_header())
            for frame in encode_session(f"up-{k}", payload, chunk_size=2048):
                client.sendall(frame)
            client.close()

        threads = [
            threading.Thread(target=upload, args=(k,)) for k in range(3)
        ]
        for t in threads:
            t.start()
        channels = {}
        closed = 0
        try:
            for event in source.events(timeout=0.2):
                if event is None:
                    continue
                if event[0] == "open":
                    channels[event[1]] = router.channel(event[1])
                elif event[0] == "chunk":
                    channels[event[1]].feed(event[2])
                elif event[0] == "close":
                    channels.pop(event[1]).close()
                    closed += 1
                    if closed == 3:
                        break
        finally:
            source.stop()
        for t in threads:
            t.join()
        report = router.drain()
        assert sorted(report.sessions) == ["up-0", "up-1", "up-2"]
        for session in report.sessions.values():
            assert session.error is None
            assert session.reports == ref["reports"]


class TestServeCli:
    def test_file_mode_writes_a_daemon_report(self, tmp_path, capsys):
        payloads = dict(list(app_payloads().items())[:2])
        stream = mux_stream(payloads)
        mux_path = tmp_path / "fleet.mux"
        mux_path.write_bytes(stream)
        json_path = tmp_path / "daemon.json"
        rc = main(
            [
                "serve",
                str(mux_path),
                "--shards",
                "2",
                "--json",
                str(json_path),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 sessions over 2 shard(s)" in out
        report = DaemonReport.from_dict(json.loads(json_path.read_text()))
        refs = reference_reports(True)
        for sid in payloads:
            assert report.sessions[sid].reports == refs[sid]["reports"]

    def test_plain_unenveloped_input_is_one_session(self, tmp_path, capsys):
        sid, payload = next(iter(app_payloads().items()))
        path = tmp_path / "single.trace"
        path.write_bytes(payload)
        rc = main(["serve", str(path), "--shards", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 sessions" in out

    def test_damaged_session_fails_without_salvage(self, tmp_path, capsys):
        stream = (
            encode_mux_header()
            + encode_data_frame("bad", b"\x93not a real v3 stream")
            + encode_finish_frame()
        )
        path = tmp_path / "bad.mux"
        path.write_bytes(stream)
        assert main(["serve", str(path), "--shards", "0"]) == 1
        capsys.readouterr()
        assert main(["serve", str(path), "--shards", "0", "--salvage"]) == 0

    def test_stats_daemon_aggregates_the_report(self, tmp_path, capsys):
        payloads = dict(list(app_payloads().items())[:2])
        mux_path = tmp_path / "fleet.mux"
        mux_path.write_bytes(mux_stream(payloads))
        json_path = tmp_path / "daemon.json"
        assert (
            main(
                ["serve", str(mux_path), "--shards", "0", "--json",
                 str(json_path)]
            )
            == 0
        )
        capsys.readouterr()
        rc = main(["stats", str(json_path), "--daemon"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 sessions" in out
        assert "stream profile:" in out
