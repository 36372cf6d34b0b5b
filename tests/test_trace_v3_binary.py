"""The v3 binary columnar trace format: property-based round-trips
against v2 across every operation kind (and every payload type tag),
cross-format transcoding byte-identity, the mmap column-sparse
:class:`SegmentReader`, decode-counter surfacing, and the sniffing
:class:`AnyTraceDecoder` facade."""

import gzip
import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import ALL_APPS, make_app
from repro.detect import UseFreeDetector
from repro.trace import (
    AnyTraceDecoder,
    OpKind,
    SegmentReader,
    Trace,
    TraceError,
    TraceWriterV3,
    convert_trace_file,
    dump_trace_binary,
    dumps_trace,
    dumps_trace_bytes,
    load_trace_file,
    loads_trace,
    save_trace_file,
)
from repro.trace.operations import BranchKind, operation_from_dict
from repro.trace.serialization import _dump_via_writer
from repro.trace.store import KIND_LIST, SCHEMAS

# ---------------------------------------------------------------------------
# an all-kinds operation strategy, derived from the column schemas
# ---------------------------------------------------------------------------

_task_st = st.sampled_from(["t", "u", "ev1:handler"])


def _value_st(tag):
    """A strategy for one payload value of the given column type tag."""
    if tag == "s":  # STR
        return st.text(max_size=5)
    if tag == "a":  # ADDR
        return st.tuples(
            st.sampled_from(["obj", "static"]),
            st.integers(1, 9),
            st.text(max_size=3),
        )
    if tag == "i":  # INT — span every adaptive width incl. i64
        return st.integers(-(1 << 40), 1 << 40)
    if tag == "?":  # OPT_INT
        return st.one_of(st.none(), st.integers(-(1 << 33), 1 << 33))
    if tag == "b":  # BOOL
        return st.booleans()
    return st.sampled_from([b.value for b in BranchKind])  # ENUM


def _op_st(kind):
    fields = {
        "kind": st.just(kind.value),
        "task": _task_st,
        "time": st.integers(0, 1 << 45),
    }
    for name, tag in SCHEMAS[kind]:
        fields[name] = _value_st(tag)
    return st.fixed_dictionaries(fields).map(operation_from_dict)


#: every one of the 24 operation kinds, every payload type tag
any_kind_op_st = st.one_of([_op_st(kind) for kind in KIND_LIST])
ops_st = st.lists(any_kind_op_st, max_size=40)


def bare_trace(ops):
    trace = Trace()
    trace.extend(ops)
    return trace


def v3_bytes(trace):
    buf = io.BytesIO()
    dump_trace_binary(trace, buf)
    return buf.getvalue()


class TestPropertyRoundTrips:
    @settings(max_examples=200, deadline=None)
    @given(ops_st)
    def test_v3_round_trips_any_ops(self, ops):
        back = loads_trace(v3_bytes(bare_trace(ops)))
        assert list(back.ops) == ops

    @settings(max_examples=100, deadline=None)
    @given(ops_st)
    def test_v2_and_v3_decode_identically(self, ops):
        trace = bare_trace(ops)
        via_v2 = loads_trace(dumps_trace(trace, version=2))
        via_v3 = loads_trace(v3_bytes(trace))
        assert list(via_v2.ops) == list(via_v3.ops) == ops

    @settings(max_examples=100, deadline=None)
    @given(ops_st)
    def test_v3_reserialization_is_stable(self, ops):
        # dump -> load -> dump must be byte-identical: the wire interning
        # order depends only on the op sequence.
        first = v3_bytes(bare_trace(ops))
        second = v3_bytes(loads_trace(first))
        assert first == second

    @settings(max_examples=100, deadline=None)
    @given(ops_st)
    def test_v3_through_v2_preserves_v2_bytes(self, ops):
        # v2 -> v3 -> v2 transcoding loses nothing the text format holds.
        trace = bare_trace(ops)
        v2_text = dumps_trace(trace, version=2)
        rehydrated = loads_trace(v3_bytes(loads_trace(v2_text)))
        assert dumps_trace(rehydrated, version=2) == v2_text

    @pytest.mark.parametrize("kind", KIND_LIST, ids=lambda k: k.value)
    def test_every_kind_hits_the_wire(self, kind):
        # deterministic floor under the property tests: each kind's
        # schema round-trips on its own
        ops = [
            operation_from_dict(
                {
                    "kind": kind.value,
                    "task": "t",
                    "time": i,
                    **{
                        name: _DEFAULTS[tag]
                        for name, tag in SCHEMAS[kind]
                    },
                }
            )
            for i in range(3)
        ]
        back = loads_trace(v3_bytes(bare_trace(ops)))
        assert list(back.ops) == ops


_DEFAULTS = {
    "s": "sym",
    "a": ("obj", 7, "f"),
    "i": -(1 << 39),
    "?": None,
    "b": True,
    "e": BranchKind.IF_NEZ.value,
}


class TestBatching:
    @settings(max_examples=40, deadline=None)
    @given(ops_st)
    def test_tiny_batches_round_trip(self, ops):
        # force many batches (and lazy interning frames between them)
        buf = io.BytesIO()
        writer = TraceWriterV3(buf, tasks=0, ops=len(ops), batch_ops=3)
        trace = bare_trace(ops)
        _dump_via_writer(trace, writer)
        back = loads_trace(buf.getvalue())
        assert list(back.ops) == ops

    def test_batch_size_does_not_change_decoded_trace(self):
        trace = make_app("connectbot", scale=0.05, seed=1).run().trace
        small = io.BytesIO()
        _dump_via_writer(
            trace,
            TraceWriterV3(
                small, tasks=len(trace.tasks), ops=len(trace), batch_ops=17
            ),
        )
        assert loads_trace(small.getvalue()).ops == trace.ops


class TestConvert:
    @pytest.fixture(scope="class")
    def app_trace(self):
        return make_app("connectbot", scale=0.05, seed=1).run().trace

    @pytest.mark.parametrize("src", [1, 2, 3])
    @pytest.mark.parametrize("dst", [1, 2, 3])
    def test_convert_matches_direct_dump(self, tmp_path, app_trace, src, dst):
        src_path = tmp_path / f"in.v{src}"
        dst_path = tmp_path / f"out.v{dst}"
        direct = tmp_path / f"direct.v{dst}"
        save_trace_file(app_trace, src_path, version=src)
        save_trace_file(app_trace, direct, version=dst)
        stats = convert_trace_file(src_path, dst_path, version=dst)
        assert (stats.source_version, stats.target_version) == (src, dst)
        assert stats.ops == len(app_trace)
        assert not stats.salvaged
        assert dst_path.read_bytes() == direct.read_bytes()

    def test_convert_through_gzip(self, tmp_path, app_trace):
        src = tmp_path / "in.v3.gz"
        dst = tmp_path / "out.v2.gz"
        save_trace_file(app_trace, src, version=3)
        convert_trace_file(src, dst, version=2)
        assert dst.read_bytes()[:2] == b"\x1f\x8b"
        assert load_trace_file(dst).ops == app_trace.ops

    def test_salvage_convert_keeps_valid_prefix(self, tmp_path, app_trace):
        src = tmp_path / "cut.v2"
        dst = tmp_path / "out.v3"
        text = dumps_trace(app_trace, version=2)
        src.write_text(text[: len(text) * 3 // 4])
        with pytest.raises(TraceError):
            convert_trace_file(src, dst, version=3)
        stats = convert_trace_file(src, dst, version=3, strict=False)
        assert stats.salvaged
        assert 0 < stats.ops < len(app_trace)
        # the salvage output is a *well-formed* v3 file: header counts
        # match the prefix, so a strict reload succeeds
        back = load_trace_file(dst)
        assert len(back) == stats.ops
        assert list(back.ops) == list(app_trace.ops[: stats.ops])


class TestSegmentReader:
    @pytest.fixture(scope="class")
    def segment(self, tmp_path_factory):
        trace = make_app("mytracks", scale=0.05, seed=1).run().trace
        path = tmp_path_factory.mktemp("seg") / "t.v3"
        save_trace_file(trace, path, version=3)
        return trace, path

    def test_global_columns_match_store(self, segment):
        trace, path = segment
        store = trace.store
        with SegmentReader(path) as reader:
            assert reader.n_ops == len(trace)
            assert bytes(reader.global_column("kinds")) == bytes(store.kinds)
            assert list(reader.global_column("times")) == list(store.times)
            assert list(reader.global_column("task_ids")) == list(
                store.task_ids
            )

    def test_per_kind_columns_match_store(self, segment):
        trace, path = segment
        store = trace.store
        with SegmentReader(path) as reader:
            for kind in KIND_LIST:
                for field, _tag in SCHEMAS[kind]:
                    _, expect = store.column(kind, field)
                    got = reader.column(kind, field)
                    assert list(got) == list(expect), (kind, field)

    def test_side_tables_match_store(self, segment):
        trace, path = segment
        store = trace.store
        with SegmentReader(path) as reader:
            assert reader.symbols() == [
                store.symbols.value(i) for i in range(len(store.symbols))
            ]
            assert reader.addresses() == [
                store.addresses.value(i) for i in range(len(store.addresses))
            ]
            assert {t.task for t in reader.tasks()} == set(trace.tasks)

    def test_sparse_scan_skips_most_bytes(self, segment):
        trace, path = segment
        with SegmentReader(path) as reader:
            reader.global_column("kinds")
            _, send_idx = trace.store.column(OpKind.SEND, "event")
            assert list(reader.column(OpKind.SEND, "event")) == list(send_idx)
            stats = reader.stats()
        total = path.stat().st_size
        assert stats.bytes_read + stats.bytes_skipped == total
        # touching two columns must leave the bulk of the file unread
        assert stats.bytes_skipped > total // 2
        assert stats.columns_adopted == 2

    def test_rejects_text_and_gzip_files(self, tmp_path, segment):
        trace, _path = segment
        text_path = tmp_path / "t.v2"
        save_trace_file(trace, text_path, version=2)
        with pytest.raises(TraceError, match="not a cafa-trace v3"):
            SegmentReader(text_path)
        gz_path = tmp_path / "t.v3.gz"
        save_trace_file(trace, gz_path, version=3)
        with pytest.raises(TraceError, match="repro convert"):
            SegmentReader(gz_path)


class TestDecodeStats:
    def test_v3_load_adopts_columns(self, tmp_path):
        trace = make_app("connectbot", scale=0.05, seed=1).run().trace
        path = tmp_path / "t.v3"
        save_trace_file(trace, path, version=3)
        back = load_trace_file(path)
        stats = back.decode_stats
        assert stats is not None and stats.version == 3
        assert stats.ops_adopted == len(trace)
        assert stats.ops_decoded == 0
        assert stats.batches >= 1 and stats.columns_adopted > 0
        assert stats.format() in back.profile().format()

    def test_v2_load_counts_rows(self):
        trace = make_app("connectbot", scale=0.05, seed=1).run().trace
        back = loads_trace(dumps_trace(trace, version=2))
        stats = back.decode_stats
        assert stats is not None and stats.version == 2
        assert stats.ops_decoded == len(trace)
        assert stats.ops_adopted == 0


class TestAnyTraceDecoder:
    def test_sniffs_binary_and_text(self):
        trace = make_app("connectbot", scale=0.05, seed=1).run().trace
        for blob, binary in [
            (dumps_trace_bytes(trace, version=3), True),
            (dumps_trace(trace, version=2).encode("utf-8"), False),
        ]:
            decoder = AnyTraceDecoder()
            assert decoder.binary is None
            for start in range(0, len(blob), 997):
                decoder.feed(blob[start : start + 997])
            assert decoder.binary is binary
            assert decoder.finish().ops == trace.ops

    def test_text_feed_into_binary_stream_rejected(self):
        trace = make_app("connectbot", scale=0.05, seed=1).run().trace
        decoder = AnyTraceDecoder()
        decoder.feed(dumps_trace_bytes(trace, version=3)[:64])
        with pytest.raises(TraceError, match="binary"):
            decoder.feed_line('{"op": {}}')

    def test_empty_stream_rejected(self):
        with pytest.raises(TraceError, match="empty trace stream"):
            AnyTraceDecoder().finish()

    def test_expect_version_rejects_v3_when_v2_required(self):
        trace = make_app("connectbot", scale=0.05, seed=1).run().trace
        blob = dumps_trace_bytes(trace, version=3)
        with pytest.raises(TraceError, match="expected trace version 2"):
            loads_trace(blob, expect_version=2)


class TestFormatsAgreeOnReports:
    """The acceptance bar: byte-identical race reports whichever
    on-disk format the trace passed through."""

    @pytest.mark.parametrize("name", [app.name for app in ALL_APPS])
    def test_reports_identical_across_formats(self, tmp_path, name):
        trace = make_app(name, scale=0.02, seed=1).run().trace
        expect = [str(r) for r in UseFreeDetector(trace).detect().reports]
        for version in (1, 2, 3):
            path = tmp_path / f"{name}.v{version}"
            save_trace_file(trace, path, version=version)
            back = load_trace_file(path)
            got = [str(r) for r in UseFreeDetector(back).detect().reports]
            assert got == expect, f"{name} v{version}"
