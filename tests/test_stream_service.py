"""The streaming service proper: in-process feed, epoch retirement on
multi-session streams, bounded closure memory, and the ``repro stream``
/ ``repro stats --stream`` CLI surface."""

import gzip
from dataclasses import asdict

import pytest

import repro.hb.graph
import repro.trace.serialization
from repro.apps import ALL_APPS, make_app
from repro.cli import main
from repro.detect import UseFreeDetector
from repro.hb import build_happens_before
from repro.stream import (
    SESSION_ID_STRIDE,
    StreamAnalyzer,
    concat_sessions,
)
from repro.testing import TraceBuilder
from repro.trace import OpKind, dumps_trace, dumps_trace_bytes, save_trace_file
from repro.trace.store import TraceStore

SCALE = 0.02
SEED = 1

_TRACES = {}


def app_trace(name="connectbot"):
    if name not in _TRACES:
        _TRACES[name] = make_app(name, scale=SCALE, seed=SEED).run().trace
    return _TRACES[name]


def cross_epoch_trace():
    """Ten ops whose one race crosses an epoch boundary: thread T sends
    E1 to looper L, E1 reads and dereferences ``.f``, then external
    event E2 on L nulls ``.f``.  Offline detection reports the race;
    a streaming analyzer with epoch GC retires E1's epoch first and
    only counts the later access (``cross_epoch_accesses`` 1)."""
    address = ("obj", 1, "f")
    b = TraceBuilder()
    b.looper("L")
    b.thread("T")
    b.event("E1", looper="L")
    b.event("E2", looper="L", external=True)
    b.begin("T")
    b.send("T", "E1")
    b.end("T")
    b.begin("E1")
    b.ptr_read("E1", address, object_id=9, method="onUse", pc=0)
    b.deref("E1", object_id=9, method="onUse", pc=1)
    b.end("E1")
    b.begin("E2")
    b.ptr_write("E2", address, value=None, container=1, method="onFree", pc=0)
    b.end("E2")
    return b.build()


def offline_reports(trace):
    return [str(r) for r in UseFreeDetector(trace).detect().reports]


def stream_reports(trace, **kwargs):
    """An analyzer fed ``trace``'s v2 stream one record (line) per feed
    and finished, with its reports."""
    analyzer = StreamAnalyzer(**kwargs)
    for line in dumps_trace(trace, version=2).splitlines(keepends=True):
        analyzer.feed(line)
    return analyzer, [str(r) for r in analyzer.finish()]


class TestInProcessFeed:
    """feed() record by record, provisional detection, the reports."""

    def test_record_per_feed_matches_offline(self):
        trace = app_trace()
        analyzer, online = stream_reports(trace)
        assert online == offline_reports(trace)
        assert analyzer.profile.ops_ingested == len(trace)

    def test_detect_now_is_provisional_and_harmless(self):
        trace = app_trace()
        lines = dumps_trace(trace, version=2).splitlines(keepends=True)
        analyzer = StreamAnalyzer(gc=False)
        half = len(lines) // 2
        for line in lines[:half]:
            analyzer.feed(line)
        provisional = {str(r.key) for r in analyzer.detect_now()}
        full_keys = {
            str(r.key) for r in UseFreeDetector(trace).detect().reports
        }
        # A mid-stream snapshot can only see races among ops so far.
        assert provisional <= full_keys
        for line in lines[half:]:
            analyzer.feed(line)
        assert [str(r) for r in analyzer.finish()] == offline_reports(trace)

    def test_finish_is_idempotent_reports_accessor(self):
        trace = app_trace()
        analyzer, online = stream_reports(trace)
        assert [str(r) for r in analyzer.reports()] == online


class TestEpochGC:
    """Multi-session streams retire epochs and bound closure memory."""

    def _concat(self, k):
        return concat_sessions(app_trace(), sessions=k)

    def test_three_sessions_retire_three_epochs(self):
        combined = self._concat(3)
        analyzer, online = stream_reports(combined, gc=True)
        assert analyzer.profile.epochs_retired == 3
        assert online == offline_reports(combined)
        assert analyzer.profile.cross_epoch_accesses == 0
        assert analyzer.profile.retired_addresses > 0
        assert len(analyzer.epochs) == 3
        assert [e.index for e in analyzer.epochs] == [0, 1, 2]
        assert sum(e.ops for e in analyzer.epochs) == len(combined)

    def test_gc_bounds_peak_closure(self):
        combined = self._concat(3)
        single, _ = stream_reports(app_trace(), gc=True)
        bounded, _ = stream_reports(combined, gc=True)
        unbounded, _ = stream_reports(combined, gc=False)
        # With GC the peak stays within 2x one session's footprint;
        # without it the closure grows with every session.
        assert (
            bounded.profile.peak_closure_bytes
            <= 2 * single.profile.peak_closure_bytes
        )
        assert (
            unbounded.profile.peak_closure_bytes
            > bounded.profile.peak_closure_bytes
        )
        assert unbounded.profile.epochs_retired == 0

    def test_no_gc_matches_offline_on_concat(self):
        combined = self._concat(3)
        _, online = stream_reports(combined, gc=False)
        assert online == offline_reports(combined)

    def test_session_renaming_keeps_sessions_disjoint(self):
        combined = self._concat(2)
        base = app_trace()
        assert len(combined) == 2 * len(base)
        assert len(combined.tasks) == 2 * len(base.tasks)
        names = set(combined.tasks)
        assert all(n.startswith(("s0:", "s1:")) for n in names)
        assert SESSION_ID_STRIDE >= 1_000_000
        with pytest.raises(ValueError):
            concat_sessions(base, sessions=0)


class TestClosureAccounting:
    def test_each_size_report_walks_each_closure_once(self, monkeypatch):
        """Sizing a closure walks its reach vector (``vector_stats``):
        never during a batch build, once at the first read of the
        relation's profile and not at later reads, and once at each
        streaming poll (the analyzer keeps one relation); closing an
        epoch reuses the size its poll measured."""
        walks = []
        walk = repro.hb.graph.vector_stats

        def counted(sets):
            walks.append(len(sets))
            return walk(sets)

        monkeypatch.setattr(repro.hb.graph, "vector_stats", counted)
        hb = build_happens_before(app_trace())
        assert walks == []
        assert hb.profile.closure_bytes > 0
        assert len(walks) == 1
        assert hb.profile.chunks_allocated > 0
        assert len(walks) == 1
        walks.clear()
        analyzer, _ = stream_reports(concat_sessions(app_trace(), sessions=3))
        assert analyzer.profile.epochs_retired == 3
        assert len(walks) == analyzer.profile.polls
        assert all(e.closure_bytes > 0 for e in analyzer.epochs)


def fed_bytes(trace, chunk=None, version=3):
    """An analyzer fed ``trace`` serialized at ``version``, whole or in
    ``chunk``-byte pieces, and finished."""
    data = dumps_trace_bytes(trace, version=version)
    analyzer = StreamAnalyzer()
    step = chunk or len(data)
    for k in range(0, len(data), step):
        analyzer.feed(data[k:k + step])
    analyzer.finish()
    return analyzer


def epoch_outcome(analyzer):
    """Everything a session's epochs and profile report, except the
    record count (a v3 stream's records are frames, a v2 stream's
    lines)."""
    epochs = [
        (e.index, e.ops, [str(r) for r in e.reports], e.closure_bytes, e.retired)
        for e in analyzer.epochs
    ]
    profile = asdict(analyzer.profile)
    del profile["records_ingested"]
    return epochs, profile


class TestRangeDrive:
    """The analyzer drives its structures over op ranges; how the
    ops arrive (one v3 batch holding every epoch, small chunks of v3 or
    of v2 text, one record per feed) changes no epoch, report or
    counter."""

    @pytest.mark.parametrize("name", [app.name for app in ALL_APPS])
    def test_every_feed_gives_the_same_epochs(self, name):
        combined = concat_sessions(app_trace(name), sessions=3)
        whole = epoch_outcome(fed_bytes(combined))
        assert whole[1]["epochs_retired"] == 3
        assert epoch_outcome(fed_bytes(combined, chunk=4096)) == whole
        assert epoch_outcome(fed_bytes(combined, chunk=4096, version=2)) == whole
        assert epoch_outcome(stream_reports(combined)[0]) == whole

    def test_batches_after_a_retirement_give_the_same_epochs(self, monkeypatch):
        # five 4,096-op v3 batches fed in 64 KiB pieces: the batches that
        # arrive after the first retirement land in a fresh epoch's
        # trace, their ids translated into its store
        trace = make_app("music", scale=0.1, seed=SEED).run().trace
        combined = concat_sessions(trace, sessions=3)
        translated = []
        remap_batch = repro.trace.serialization.remap_batch

        def counting(*args):
            translated.append(len(args[0]))
            return remap_batch(*args)

        monkeypatch.setattr(repro.trace.serialization, "remap_batch", counting)
        pieces = epoch_outcome(fed_bytes(combined, chunk=1 << 16))
        assert pieces[1]["epochs_retired"] == 3
        assert 0 < sum(translated) < len(combined)
        assert pieces == epoch_outcome(fed_bytes(combined))
        assert pieces == epoch_outcome(stream_reports(combined)[0])

    def test_v3_session_materializes_only_extracted_payloads(self, monkeypatch):
        """A v3 session materializes each lock and pointer op at most
        once (for the access extractor) and appends no op row by row:
        the undrained tail moves to the next epoch as column slices."""
        combined = concat_sessions(app_trace(), sessions=3)
        data = dumps_trace_bytes(combined, version=3)
        payload_kinds = {
            OpKind.PTR_READ, OpKind.PTR_WRITE, OpKind.DEREF,
            OpKind.BRANCH, OpKind.ACQUIRE, OpKind.RELEASE,
        }
        payload_ops = sum(1 for op in combined if op.kind in payload_kinds)
        calls = {"op": 0, "append_row": 0}

        def counting(attr):
            original = getattr(TraceStore, attr)

            def wrapper(self, *args):
                calls[attr] += 1
                return original(self, *args)

            return wrapper

        for attr in calls:
            monkeypatch.setattr(TraceStore, attr, counting(attr))
        analyzer = StreamAnalyzer()
        analyzer.feed(data)
        analyzer.finish()
        assert analyzer.profile.epochs_retired == 3
        assert 0 < calls["op"] <= payload_ops
        assert calls["append_row"] == 0


class TestStreamCLI:
    """`repro stream` and `repro stats --stream` end to end."""

    def _trace_file(self, tmp_path, name="session.trace.gz"):
        path = tmp_path / name
        save_trace_file(app_trace(), path, version=2)
        return path

    def test_stream_file(self, tmp_path, capsys):
        path = self._trace_file(tmp_path)
        assert main(["stream", str(path)]) == 0
        out = capsys.readouterr().out
        assert "epoch 0" in out
        assert "records ingested" in out

    def test_stats_stream(self, tmp_path, capsys):
        path = self._trace_file(tmp_path)
        assert main(["stats", str(path), "--stream"]) == 0
        out = capsys.readouterr().out
        assert "records ingested" in out

    def test_stream_strict_rejects_truncation(self, tmp_path, capsys):
        text = dumps_trace(app_trace(), version=2)
        path = tmp_path / "crash.trace"
        path.write_text(text[: int(len(text) * 0.6)], encoding="utf-8")
        assert main(["stream", str(path)]) == 1
        err = capsys.readouterr().err
        assert "--salvage" in err

    def test_stream_salvage_analyzes_prefix(self, tmp_path, capsys):
        text = dumps_trace(app_trace(), version=2)
        path = tmp_path / "crash.trace.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fp:
            fp.write(text[: int(len(text) * 0.6)])
        assert main(["stream", str(path), "--salvage"]) == 0
        out = capsys.readouterr().out
        assert "records ingested" in out

    def test_stream_selftest(self, capsys):
        assert main(["stream", "--selftest", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "identical" in out
