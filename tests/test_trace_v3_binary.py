"""The v3 binary columnar trace format: property-based round-trips
against v2 across every operation kind (and every payload type tag),
cross-format transcoding byte-identity, decode-counter surfacing, and
the sniffing :class:`AnyTraceDecoder` facade."""

import gzip
import io
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import ALL_APPS, make_app
from repro.detect import UseFreeDetector
from repro.trace import (
    AnyTraceDecoder,
    OpKind,
    Trace,
    TraceError,
    TraceFormatError,
    TraceWriterV3,
    convert_trace_file,
    dump_trace_binary,
    dumps_trace,
    dumps_trace_bytes,
    encode_data_frame,
    encode_end_frame,
    encode_mux_header,
    load_trace_file,
    loads_trace,
    save_trace_file,
)
from repro.trace.operations import BranchKind, operation_from_dict
from repro.trace.serialization import _dump_via_writer
from repro.trace.store import KIND_LIST, SCHEMAS, TraceStore
from tests.test_trace_store import store_columns

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


def v3_stream(*steps, damaged=None):
    """A v3 stream written with one op per batch from ``steps``: a
    ``(code, time, task, values)`` row or a task-info dict.  Rows from
    the one marked ``damaged=k`` on write ``-1`` for the symbol ids of
    ``"T"``, as a corrupt file would."""
    buf = io.BytesIO()
    rows = sum(1 for step in steps if not isinstance(step, dict))
    tasks = len(steps) - rows
    writer = TraceWriterV3(buf, tasks=tasks, ops=rows, batch_ops=1)
    intern = writer._sym
    for k, step in enumerate(steps):
        if isinstance(step, dict):
            writer.write_task(step)
            continue
        if k == damaged:
            writer._sym = lambda value: -1 if value == "T" else intern(value)
        writer.write_row(*step)
    writer.finish()
    return buf.getvalue()


class TestMalformedFrames:
    """Damaged frames raise a :class:`TraceFormatError` that gives the
    byte offset, and salvage keeps the batches before them."""

    BEGIN, READ = KIND_LIST.index(OpKind.BEGIN), KIND_LIST.index(OpKind.READ)
    PTR_READ = KIND_LIST.index(OpKind.PTR_READ)

    def _salvaged(self, blob, ops, match):
        with pytest.raises(TraceFormatError, match=match):
            loads_trace(blob)
        trace = loads_trace(blob, strict=False)
        assert len(trace) == ops
        assert len(list(trace.ops)) == ops
        return trace

    def test_negative_task_id_is_a_format_error(self):
        # the last symbol is "U": a -1 that indexed from the end would
        # silently give the op to it
        blob = v3_stream(
            (self.BEGIN, 1, "T", []),
            (self.BEGIN, 2, "U", []),
            (self.READ, 3, "T", ["x", "s"]),
            damaged=2,
        )
        self._salvaged(blob, 2, r"corrupt batch frame at byte \d+ .*task symbol")

    def test_negative_payload_symbol_id_is_a_format_error(self):
        blob = v3_stream(
            (self.BEGIN, 1, "U", []),
            (self.READ, 2, "U", ["T", "s"]),
            damaged=1,
        )
        self._salvaged(blob, 1, r"corrupt batch frame at byte \d+ .*symbol id")

    def test_repeated_task_frame_is_a_format_error(self):
        info = {"task": "U", "task_kind": "thread"}
        blob = v3_stream(info, (self.BEGIN, 1, "U", []), info)
        trace = self._salvaged(
            blob, 1, r"duplicate task id 'U' in task frame at byte \d+"
        )
        assert list(trace.tasks) == ["U"]

    def test_unhashable_address_is_a_format_error(self):
        blob = v3_stream(
            (self.BEGIN, 1, "U", []),
            (self.PTR_READ, 2, "U", [("obj", 1, "fgh"), None, "m", 0]),
        )
        # the same length, so no later frame offset moves
        blob = blob.replace(b'["obj",1,"fgh"]', b'["obj",[1],"f"]')
        offset = blob.index(b'["obj",[1],"f"]') - 2  # tag, length
        self._salvaged(
            blob, 1, rf"corrupt address frame at byte {offset} .*unhashable"
        )


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
        data = dst.read_bytes()
        assert data[:2] == b"\x1f\x8b"
        # the gzip header names the destination, as a direct save does
        assert data[3] & 0x08 and data[10:].split(b"\0", 1)[0] == b"out.v2"
        assert load_trace_file(dst).ops == app_trace.ops
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.v3.gz", "out.v2.gz"]

    def test_failed_convert_keeps_the_destination(self, tmp_path, app_trace):
        """A strict convert that fails on damaged input leaves an
        existing destination byte for byte and no stray file; a
        salvage then replaces it with a prefix that loads strictly."""
        lines = dumps_trace(app_trace, version=2).splitlines(keepends=True)
        # the first task record again, after five op lines
        cut = [i for i, line in enumerate(lines) if line.startswith('["o"')][4] + 1
        src = tmp_path / "repeat.v2"
        src.write_text("".join(lines[:cut] + [lines[1]] + lines[cut:]))
        dst = tmp_path / "old.v3"
        save_trace_file(app_trace, dst, version=3)
        before = dst.read_bytes()
        with pytest.raises(TraceFormatError, match="duplicate task id"):
            convert_trace_file(src, dst, version=3)
        assert dst.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.v3", "repeat.v2"]
        stats = convert_trace_file(src, dst, version=3, strict=False)
        assert stats.salvaged and stats.ops == 5
        assert load_trace_file(dst).ops == app_trace.ops[:5]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.v3", "repeat.v2"]

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

    def _repeat_fails_and_salvages(self, tmp_path, app_trace, src, dst, match):
        out = tmp_path / "out"
        with pytest.raises(TraceFormatError, match=match):
            convert_trace_file(src, out, version=dst)
        stats = convert_trace_file(src, out, version=dst, strict=False)
        assert stats.salvaged and "duplicate task id" in stats.error
        assert 0 < stats.ops < len(app_trace)
        back = load_trace_file(out)
        assert back.ops == app_trace.ops[: stats.ops]
        assert back.tasks == app_trace.tasks

    def test_repeated_task_line_fails_the_convert(self, tmp_path, app_trace):
        lines = dumps_trace(app_trace, version=2).splitlines(keepends=True)
        cut = len(lines) // 2  # after some op lines
        src = tmp_path / "repeat.v2"
        src.write_text("".join(lines[:cut] + [lines[1]] + lines[cut:]))
        self._repeat_fails_and_salvages(
            tmp_path, app_trace, src, 3, rf"line {cut + 1}: duplicate task id"
        )

    def test_repeated_task_frame_fails_the_convert(self, tmp_path, app_trace):
        infos = [info.to_dict() for info in app_trace.tasks.values()]
        rows = list(app_trace.store.rows_encoded())
        buf = io.BytesIO()
        writer = TraceWriterV3(
            buf, tasks=len(infos), ops=len(rows), batch_ops=64
        )
        for info in infos:
            writer.write_task(info)
        for row in rows[:200]:
            writer.write_row(*row)
        writer.write_task(infos[0])  # after three batches
        offset = writer._task_offsets[-1]
        for row in rows[200:]:
            writer.write_row(*row)
        writer.finish()
        src = tmp_path / "repeat.v3"
        src.write_bytes(buf.getvalue())
        self._repeat_fails_and_salvages(
            tmp_path, app_trace, src, 2, rf"in task frame at byte {offset}"
        )

    @pytest.fixture(scope="class")
    def music_files(self, tmp_path_factory):
        trace = make_app("music", scale=0.5, seed=0).run().trace
        root = tmp_path_factory.mktemp("convert_memory")
        paths = {}
        for version in (2, 3):
            paths[version] = root / f"music.v{version}"
            save_trace_file(trace, paths[version], version=version)
        return paths

    @pytest.mark.parametrize("src, dst", [(2, 3), (3, 2)])
    def test_convert_peaks_under_half_a_load(self, tmp_path, music_files, src, dst):
        # convert holds one feed's ops at a time; a load holds them all
        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        path = music_files[src]
        load_peak = peak(lambda: load_trace_file(path))
        convert_peak = peak(
            lambda: convert_trace_file(path, tmp_path / "out", version=dst)
        )
        assert convert_peak < load_peak / 2, (convert_peak, load_peak)


def batch_pieces(trace, batch_ops):
    """``trace`` as a v3 stream cut where each batch frame starts, so
    that every piece holds one batch."""
    buf = io.BytesIO()
    writer = TraceWriterV3(
        buf, tasks=len(trace.tasks), ops=len(trace), batch_ops=batch_ops
    )
    _dump_via_writer(trace, writer)
    blob = buf.getvalue()
    cuts = [0] + [offset for offset, _n in writer._batches[1:]] + [len(blob)]
    return [blob[a:b] for a, b in zip(cuts, cuts[1:])]


def line_pieces(trace, ops_per_piece):
    """``trace`` as a v2 stream cut after every ``ops_per_piece``-th op
    line, so that every piece holds that many ops."""
    pieces, lines, ops = [], [], 0
    for line in dumps_trace(trace, version=2).splitlines(keepends=True):
        lines.append(line)
        ops += line.startswith('["o",')
        if ops == ops_per_piece:
            pieces.append("".join(lines).encode("utf-8"))
            lines, ops = [], 0
    return pieces + ["".join(lines).encode("utf-8")]


def op_pieces(trace, case, ops_per_piece=97):
    """``trace`` in pieces of ``ops_per_piece`` ops: v2 lines or v3
    batches, bare or (``mux-``) each piece one DATA frame of a
    single-session envelope."""
    wrapped, _, version = case.rpartition("-")
    if version == "v3":
        pieces = batch_pieces(trace, ops_per_piece)
    else:
        pieces = line_pieces(trace, ops_per_piece)
    if wrapped:
        pieces = [encode_data_frame("s", piece) for piece in pieces]
        pieces[0] = encode_mux_header() + pieces[0]
        pieces[-1] += encode_end_frame("s")
    return pieces


class TestOneDecodePath:
    """Every v2 and v3 op reaches the store through ``adopt_batch``:
    until the trace is swapped the v3 ids are the store's ids, and
    after a swap a v2 or v3 batch's ids are translated into the new
    store as ``adopt_tail`` translates an epoch's tail."""

    @pytest.mark.parametrize("scale", [0.02, 0.2])
    @pytest.mark.parametrize("name", [app.name for app in ALL_APPS])
    def test_v3_store_equals_the_appended_store(self, name, scale):
        trace = make_app(name, scale=scale, seed=0).run().trace
        back = loads_trace(dumps_trace_bytes(trace, version=3))
        reference = Trace(list(trace.ops), trace.tasks)
        assert store_columns(back.store) == store_columns(reference.store)

    @pytest.mark.parametrize("case", ["v2", "v3", "mux-v2", "mux-v3"])
    def test_swapped_stream_gives_the_adopt_tail_stores(self, case):
        trace = make_app("connectbot", scale=0.05, seed=1).run().trace
        pieces = op_pieces(trace, case)
        assert len(pieces) >= 3
        swapped, whole = AnyTraceDecoder(), AnyTraceDecoder()
        start = 0
        for piece in pieces:
            swapped.feed(piece)
            whole.feed(piece)
            expect = TraceStore()
            expect.adopt_tail(whole.trace.store, start)
            assert store_columns(swapped.trace.store) == store_columns(expect)
            start = len(whole.trace)
            swapped.trace = Trace()
        swapped.finish()
        assert whole.finish().ops == trace.ops

    @pytest.mark.parametrize(
        "case",
        ["load-2", "load-3", "convert-2-3", "convert-3-2", "convert-2-2",
         "convert-3-3", "swapped-3"],
    )
    def test_no_op_is_appended_row_by_row(self, tmp_path, monkeypatch, case):
        trace = make_app("connectbot", scale=0.05, seed=1).run().trace
        paths = {}
        for version in (2, 3):
            paths[version] = tmp_path / f"in.v{version}"
            save_trace_file(trace, paths[version], version=version)
        pieces = batch_pieces(trace, 97)
        calls = []
        append_row = TraceStore.append_row

        def counting(self, *args):
            calls.append(args)
            return append_row(self, *args)

        monkeypatch.setattr(TraceStore, "append_row", counting)
        way, *versions = case.split("-")
        if way == "load":
            assert len(load_trace_file(paths[int(versions[0])])) == len(trace)
        elif way == "convert":
            src, dst = map(int, versions)
            stats = convert_trace_file(paths[src], tmp_path / "out", version=dst)
            assert stats.ops == len(trace)
        else:
            decoder = AnyTraceDecoder()
            for piece in pieces:
                decoder.feed(piece)
                decoder.trace = Trace()
            decoder.finish()
        assert calls == []


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
            assert decoder.decode_stats() is None
            for start in range(0, len(blob), 997):
                decoder.feed(blob[start : start + 997])
            stats = decoder.decode_stats()
            assert (stats.version, stats.batches > 0) == (
                (3, True) if binary else (2, False)
            )
            assert decoder.finish().ops == trace.ops

    def test_text_feed_into_binary_stream_rejected(self):
        trace = make_app("connectbot", scale=0.05, seed=1).run().trace
        decoder = AnyTraceDecoder()
        decoder.feed(dumps_trace_bytes(trace, version=3)[:64])
        with pytest.raises(TraceError, match="binary"):
            decoder.feed('{"op": {}}\n')

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
