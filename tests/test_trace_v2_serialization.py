"""The v2 positional trace format: property-based round-trips across
both versions, version negotiation, the streaming kind table, gzip
transparency, malformed-record diagnostics, and the column batches a
v2 feed lands in the store."""

import gzip
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import ALL_APPS, make_app
from repro.detect import UseFreeDetector
from repro.trace import (
    FORMAT_VERSION,
    SUPPORTED_VERSIONS,
    AnyTraceDecoder,
    Trace,
    TraceError,
    TraceFormatError,
    dumps_trace,
    dumps_trace_bytes,
    load_trace,
    load_trace_file,
    loads_trace,
    save_trace_file,
)
from repro.trace.store import TraceStore
from tests.test_property_structures import operation_st, task_st
from tests.test_trace_serialization import sample_trace
from tests.test_trace_store import store_columns

#: traces whose op list is arbitrary (task-table invariants are not
#: exercised here, so the ops need not validate)
ops_st = st.lists(operation_st, max_size=30)


def bare_trace(ops):
    trace = Trace()
    trace.extend(ops)
    return trace


class TestPropertyRoundTrips:
    @settings(max_examples=150, deadline=None)
    @given(ops_st, st.sampled_from(SUPPORTED_VERSIONS))
    def test_any_ops_round_trip_both_versions(self, ops, version):
        trace = bare_trace(ops)
        blob = dumps_trace_bytes(trace, version=version)
        back = loads_trace(blob)
        assert list(back.ops) == ops

    @settings(max_examples=100, deadline=None)
    @given(ops_st)
    def test_v1_and_v2_decode_identically(self, ops):
        trace = bare_trace(ops)
        v1 = loads_trace(dumps_trace(trace, version=1))
        v2 = loads_trace(dumps_trace(trace, version=2))
        assert list(v1.ops) == list(v2.ops) == ops

    @settings(max_examples=100, deadline=None)
    @given(ops_st)
    def test_v2_reserialization_is_stable(self, ops):
        # dump -> load -> dump must be byte-identical: the wire interning
        # order depends only on the op sequence.
        first = dumps_trace(bare_trace(ops))
        second = dumps_trace(loads_trace(first))
        assert first == second

    @settings(max_examples=100, deadline=None)
    @given(ops_st, st.data())
    def test_chunked_feeds_rebuild_the_same_store(self, ops, data):
        # Each feed lands as one column batch whose ids are interned in
        # op order, so any chunking gives the store the ops build when
        # appended one at a time.
        trace = bare_trace(ops)
        text = dumps_trace(trace)
        cuts = data.draw(
            st.lists(st.integers(0, len(text)), max_size=8), label="cuts"
        )
        decoder = AnyTraceDecoder()
        start = 0
        for cut in sorted(cuts) + [len(text)]:
            decoder.feed(text[start:cut])
            start = cut
        assert store_columns(decoder.finish().store) == store_columns(trace.store)


class TestVersionNegotiation:
    def test_default_version_is_v2(self):
        header = json.loads(dumps_trace(sample_trace()).splitlines()[0])
        assert FORMAT_VERSION == 2
        assert header["version"] == 2
        assert "kinds" in header

    @pytest.mark.parametrize("version", SUPPORTED_VERSIONS)
    def test_expect_version_accepts_matching_stream(self, version):
        trace = sample_trace()
        blob = dumps_trace_bytes(trace, version=version)
        back = loads_trace(blob, expect_version=version)
        assert back.ops == trace.ops

    def test_expect_version_rejects_mismatch(self):
        text = dumps_trace(sample_trace(), version=1)
        with pytest.raises(TraceError, match="expected trace version 2"):
            loads_trace(text, expect_version=2)

    def test_unwritable_version_rejected(self):
        with pytest.raises(TraceError, match="cannot write"):
            dumps_trace(sample_trace(), version=99)

    def test_v3_rejected_on_text_stream(self):
        # v3 is binary: the text entry point refuses rather than
        # emitting mojibake into a str stream.
        with pytest.raises(TraceError, match="cannot write trace version 3"):
            dumps_trace(sample_trace(), version=3)

    def test_header_kind_table_drives_decoding(self):
        # Reorder the kind table: positional wire codes re-map through
        # the header, so the stream still decodes identically.
        trace = sample_trace()
        lines = dumps_trace(trace).splitlines()
        header = json.loads(lines[0])
        order = list(range(len(header["kinds"])))
        order.reverse()
        remap = {old: new for new, old in enumerate(order)}
        header["kinds"] = [header["kinds"][i] for i in order]
        out = [json.dumps(header)]
        for line in lines[1:]:
            record = json.loads(line)
            if isinstance(record, list) and record[0] == "o":
                record[1] = remap[record[1]]
            out.append(json.dumps(record))
        back = loads_trace("\n".join(out) + "\n")
        assert back.ops == trace.ops

    def test_unknown_kind_in_header_rejected(self):
        lines = dumps_trace(sample_trace()).splitlines()
        header = json.loads(lines[0])
        header["kinds"][0] = "warp-drive"
        text = "\n".join([json.dumps(header)] + lines[1:]) + "\n"
        with pytest.raises(TraceError, match="unknown operation kind 'warp-drive'"):
            loads_trace(text)

    def test_missing_kind_table_rejected(self):
        lines = dumps_trace(sample_trace()).splitlines()
        header = json.loads(lines[0])
        del header["kinds"]
        text = "\n".join([json.dumps(header)] + lines[1:]) + "\n"
        with pytest.raises(TraceError, match="kind table"):
            loads_trace(text)


class TestMalformedRecords:
    def _v2_stream(self, *records, kinds=("begin", "rd")):
        header = {
            "format": "cafa-trace",
            "version": 2,
            "kinds": list(kinds),
        }
        lines = [json.dumps(header)] + [json.dumps(r) for r in records]
        return "\n".join(lines) + "\n"

    def test_undeclared_kind_code_rejected(self):
        text = self._v2_stream(["s", "T"], ["o", 5, 1, 0])
        with pytest.raises(TraceError, match="undeclared kind code"):
            loads_trace(text)

    def test_wrong_payload_arity_rejected(self):
        text = self._v2_stream(["s", "T"], ["o", 0, 1, 0, 99])
        with pytest.raises(TraceError, match="malformed op record"):
            loads_trace(text)

    def test_unknown_tag_rejected(self):
        text = self._v2_stream(["z", 1])
        with pytest.raises(TraceError, match="unrecognized"):
            loads_trace(text)

    def _salvaged(self, text, line, ops):
        """Strict loading names ``line``; salvage keeps exactly the
        first ``ops`` ops, and each of them materializes."""
        with pytest.raises(TraceFormatError) as caught:
            loads_trace(text)
        assert caught.value.line == line
        trace = loads_trace(text, strict=False)
        assert len(trace) == trace.decode_stats.ops_decoded == ops
        assert len(list(trace.ops)) == ops
        return trace

    def test_value_that_does_not_fit_keeps_the_earlier_ops(self):
        text = self._v2_stream(
            ["s", "T"],
            ["o", 0, 1, 0],
            ["s", "onT"],
            ["o", 1, 2, 0, 7, 1, 3],
            ["o", 1, 3, 0, 7, 1, "x"],
            ["o", 1, 4, 0, 7, 1, 5],
            kinds=("begin", "deref"),
        )
        trace = self._salvaged(text, line=6, ops=2)
        assert [op.pc for op in trace.ops[1:]] == [3]

    @pytest.mark.parametrize("field", [2, 4])
    def test_int_beyond_64_bits_is_a_format_error(self, field):
        record = ["o", 1, 2, 0, 7, 1, 3]
        record[field] = 1 << 70
        text = self._v2_stream(
            ["s", "T"], ["o", 0, 1, 0], ["s", "onT"], record,
            kinds=("begin", "deref"),
        )
        self._salvaged(text, line=5, ops=1)

    @pytest.mark.parametrize(
        "record",
        [
            ["o", 1, 2, -1, 0, 0],  # task symbol id
            ["o", -1, 2, 0, 0, 0],  # kind code
            ["o", 1, 2, 0, -1, 0],  # payload symbol id
            ["o", 1, 2, 0, 0, 2],  # payload symbol id past the table
            ["o", 1, 2, 0, 0, True],  # not an integer
        ],
        ids=["task", "kind", "payload", "past-the-table", "not-an-int"],
    )
    def test_ids_outside_the_tables_are_format_errors(self, record):
        # a negative id would index the table from its end
        text = self._v2_stream(["s", "T"], ["s", "x"], ["o", 0, 1, 0], record)
        self._salvaged(text, line=5, ops=1)

    def test_negative_address_id_is_a_format_error(self):
        text = self._v2_stream(
            ["s", "T"],
            ["a", ["obj", 1, "f"]],
            ["o", 0, 1, 0],
            ["o", 1, 2, 0, -1, 8, 0, 4],
            kinds=("begin", "ptr_read"),
        )
        self._salvaged(text, line=5, ops=1)

    @pytest.mark.parametrize(
        "record",
        [["s", 5], ["a", ["obj", 1]], ["a", ["obj", [1], "f"]]],
        ids=["non-string-symbol", "short-address", "unhashable-address"],
    )
    def test_bad_definitions_are_format_errors(self, record):
        text = self._v2_stream(["s", "T"], ["o", 0, 1, 0], record)
        self._salvaged(text, line=4, ops=1)

    def test_repeated_task_line_is_a_format_error(self):
        info = {"task_info": {"task": "T", "task_kind": "thread"}}
        text = self._v2_stream(info, ["s", "T"], ["o", 0, 1, 0], info)
        trace = self._salvaged(text, line=5, ops=1)
        assert list(trace.tasks) == ["T"]

    def test_damaged_app_trace_salvages_its_prefix(self):
        # the first DEREF's pc replaced by a string
        trace = make_app("connectbot", scale=0.02, seed=0).run().trace
        lines = dumps_trace(trace).splitlines()
        deref = json.loads(lines[0])["kinds"].index("deref")
        line = next(
            k for k, text in enumerate(lines)
            if text.startswith(f'["o",{deref},')
        )
        record = json.loads(lines[line])
        record[-1] = "x"
        lines[line] = json.dumps(record)
        ops = sum(1 for text in lines[:line] if text.startswith('["o",'))
        salvaged = self._salvaged("\n".join(lines) + "\n", line + 1, ops)
        UseFreeDetector(salvaged).detect()


_TRACES = {}


def app_trace(name, scale):
    if (name, scale) not in _TRACES:
        _TRACES[name, scale] = make_app(name, scale=scale, seed=0).run().trace
    return _TRACES[name, scale]


def decoded(text, way):
    """``text`` decoded through one of the four ways a v2 stream is fed."""
    if way == "bytes":
        return loads_trace(text.encode("utf-8"))
    if way == "str":
        return loads_trace(text)
    decoder = AnyTraceDecoder()
    if way == "4k-chunks":
        for start in range(0, len(text), 4096):
            decoder.feed(text[start:start + 4096])
    else:
        for line in text.splitlines():
            decoder.feed_line(line)
    return decoder.finish()


class TestColumnBatches:
    """A v2 feed checks its op records and lands them in one
    ``adopt_batch`` call; the store equals the one the same ops build
    when appended one at a time."""

    @pytest.mark.parametrize("way", ["bytes", "str", "4k-chunks", "lines"])
    @pytest.mark.parametrize("scale", [0.02, 0.05])
    @pytest.mark.parametrize("name", [app.name for app in ALL_APPS])
    def test_decoded_store_equals_the_appended_store(self, name, scale, way):
        trace = app_trace(name, scale)
        back = decoded(dumps_trace(trace), way)
        reference = Trace(list(trace.ops), trace.tasks)
        assert store_columns(back.store) == store_columns(reference.store)
        assert back.tasks == trace.tasks

    def test_sinkless_decode_adopts_once_per_feed(self, monkeypatch):
        calls = {"append_row": 0, "adopt_batch": 0}

        def counting(attr):
            original = getattr(TraceStore, attr)

            def wrapper(self, *args):
                calls[attr] += 1
                return original(self, *args)

            return wrapper

        for attr in calls:
            monkeypatch.setattr(TraceStore, attr, counting(attr))
        trace = app_trace("connectbot", 0.05)
        text = dumps_trace(trace)
        decoder = AnyTraceDecoder()
        starts = range(0, len(text), 4096)
        for start in starts:
            decoder.feed(text[start:start + 4096])
        assert len(decoder.finish()) == len(trace)
        assert calls["append_row"] == 0
        assert 0 < calls["adopt_batch"] <= len(starts)


class TestGzip:
    @pytest.mark.parametrize("version", SUPPORTED_VERSIONS)
    def test_gz_suffix_round_trips(self, tmp_path, version):
        path = tmp_path / "trace.jsonl.gz"
        trace = sample_trace()
        save_trace_file(trace, path, version=version)
        assert path.read_bytes()[:2] == b"\x1f\x8b"  # really gzip
        back = load_trace_file(path)
        assert back.ops == trace.ops
        assert set(back.tasks) == set(trace.tasks)

    def test_gz_stream_is_the_plain_stream(self, tmp_path):
        plain, packed = tmp_path / "t.jsonl", tmp_path / "t.jsonl.gz"
        trace = sample_trace()
        save_trace_file(trace, plain)
        save_trace_file(trace, packed)
        assert gzip.decompress(packed.read_bytes()).decode() == plain.read_text()


class TestStreamingWriter:
    def test_v2_writer_streams_line_by_line(self):
        """The writer must emit through the stream incrementally, never
        buffering the serialized trace."""

        class CountingIO(io.StringIO):
            def __init__(self):
                super().__init__()
                self.writes = 0

            def write(self, s):
                self.writes += 1
                return super().write(s)

        trace = sample_trace()
        fp = CountingIO()
        from repro.trace import dump_trace

        dump_trace(trace, fp)
        # one write per emitted line: header + tasks + defs + ops
        assert fp.writes == len(fp.getvalue().splitlines())
        assert fp.writes > 1 + len(trace.tasks) + len(trace)
