"""How ``repro stream`` and ``repro serve`` meet the end of a stream.

Both read through the one chunk reader and, when a stream ends (a
file's EOF, a session's END frame, a plain channel's EOF), run the
decoder's end-of-stream checks, so a cut input fails as ``repro
detect`` fails it.  A stream cut off before its end (Ctrl-C under
``--follow``, damage under ``--salvage``, a daemon drain) is closed
with what arrived and nothing checked.
"""

import gzip
import struct

import pytest

from repro.apps import make_app
from repro.cli import main
from repro.stream import Backoff
from repro.trace import dumps_trace, dumps_trace_bytes

#: connectbot at scale 0.05, seed 1, cut after line 1,057 of 2,114
MISMATCH = "op count mismatch: header says 1335, stream has 546"
V3_FOOTER = "stream ends before the v3 footer and trailer"

_TRACE = []


def connectbot():
    if not _TRACE:
        _TRACE.append(make_app("connectbot", scale=0.05, seed=1).run().trace)
    return _TRACE[0]


def detect(path) -> int:
    """``repro detect``'s exit status (a load failure exits via
    SystemExit)."""
    with pytest.raises(SystemExit) as exited:
        main(["detect", str(path)])
    return exited.value.code


@pytest.fixture
def cut_v2(tmp_path):
    """A v2 file cut at a line boundary, as a crash or a still-growing
    log leaves it."""
    lines = dumps_trace(connectbot(), version=2).splitlines(keepends=True)
    assert len(lines) == 2114
    path = tmp_path / "cut.jsonl"
    path.write_text("".join(lines[:1057]), encoding="utf-8")
    return path


@pytest.fixture
def truncated_gz(tmp_path):
    blob = gzip.compress(dumps_trace(connectbot(), version=2).encode("utf-8"))
    path = tmp_path / "crash.jsonl.gz"
    path.write_bytes(blob[: len(blob) // 2])
    return path


class TestCutAtARecordBoundary:
    def test_detect_names_the_op_count_mismatch(self, cut_v2, capsys):
        assert detect(cut_v2) == 1
        assert MISMATCH in capsys.readouterr().err

    def test_stream_fails_as_detect_does(self, cut_v2, capsys):
        assert main(["stream", str(cut_v2)]) == 1
        assert MISMATCH in capsys.readouterr().err

    def test_serve_fails_as_detect_does(self, cut_v2, capsys):
        assert main(["serve", "--shards", "0", str(cut_v2)]) == 1
        out = capsys.readouterr().out
        assert f"error: TraceFormatError: {MISMATCH}" in out

    def test_stream_salvage_analyzes_the_prefix(self, cut_v2, capsys):
        assert main(["stream", "--salvage", str(cut_v2)]) == 0
        assert "epoch 0 (final): 546 ops" in capsys.readouterr().out

    def test_v3_file_without_its_footer(self, tmp_path, capsys):
        blob = dumps_trace_bytes(connectbot(), version=3)
        (footer,) = struct.unpack("<Q", blob[-16:-8])
        path = tmp_path / "cut.v3"
        path.write_bytes(blob[:footer])
        assert detect(path) == 1
        assert V3_FOOTER in capsys.readouterr().err
        assert main(["stream", str(path)]) == 1
        assert V3_FOOTER in capsys.readouterr().err

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_bytes(b"")
        assert main(["stream", str(path)]) == 1
        assert "stream: empty trace stream" in capsys.readouterr().err


class TestTruncatedGzipUnderServe:
    def test_strict_names_the_damage_in_one_line(self, truncated_gz, capsys):
        assert main(["serve", "--shards", "0", str(truncated_gz)]) == 1
        err = capsys.readouterr().err
        named = [line for line in err.splitlines() if line.startswith("serve:")]
        assert named == [
            "serve: damaged trace stream: Compressed file ended before "
            "the end-of-stream marker was reached"
        ]
        assert "Traceback" not in err

    def test_salvage_drains_what_arrived(self, truncated_gz, capsys):
        assert main(["serve", "--shards", "0", "--salvage", str(truncated_gz)]) == 0
        out = capsys.readouterr().out
        session = next(line for line in out.splitlines() if line.startswith("session"))
        assert "drained mid-session" in session
        assert int(session.split(": ")[1].split()[0]) > 0  # ops analyzed


class TestCtrlC:
    def test_interrupt_under_follow_closes_the_open_epoch(
        self, cut_v2, capsys, monkeypatch
    ):
        """Ctrl-C while ``--follow`` waits for the file to grow: the
        open epoch is closed with what arrived (no count check; the
        stream was cut off, not ended) and reported, with the profile,
        and the command succeeds."""

        def interrupted(self, sleep=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(Backoff, "wait", interrupted)
        try:
            code = main(["stream", "--follow", str(cut_v2)])
        except KeyboardInterrupt:
            pytest.fail("Ctrl-C escaped 'repro stream --follow'")
        assert code == 0
        out = capsys.readouterr().out
        assert "epoch 0 (final): 546 ops" in out
        assert "stream profile:" in out
