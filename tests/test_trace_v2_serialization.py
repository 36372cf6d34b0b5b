"""The v2 positional trace format: property-based round-trips across
both versions, version negotiation, the streaming kind table, gzip
transparency, and malformed-record diagnostics."""

import gzip
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.trace import (
    FORMAT_VERSION,
    SUPPORTED_VERSIONS,
    Trace,
    TraceError,
    dumps_trace,
    dumps_trace_bytes,
    load_trace,
    load_trace_file,
    loads_trace,
    save_trace_file,
)
from tests.test_property_structures import operation_st, task_st
from tests.test_trace_serialization import sample_trace

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
    def _v2_stream(self, *records):
        header = {
            "format": "cafa-trace",
            "version": 2,
            "kinds": ["begin", "rd"],
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
