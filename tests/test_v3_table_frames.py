"""Damaged v3 table frames: hypothesis mutates one table frame of a
valid stream, by bytes or by structure, and re-frames the stream so
that the table is its only damage.  Every input decodes, or raises a
:class:`TraceFormatError` (one that names the table frame's byte offset
when the table itself is malformed), and salvage keeps exactly the ops
and task records of the frames before a malformed table; no input
raises ``KeyError``, ``TypeError``, ``IndexError`` or
``UnicodeDecodeError``."""

import io
import json
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import make_app
from repro.trace import TraceFormatError, TraceWriterV3, loads_trace
from repro.trace.binary import (
    MAGIC_V3,
    TAG_BATCH,
    TAG_FOOTER,
    TAG_TABLE,
    TRAILER_MAGIC,
    _json_bytes,
    _read_uvarint,
    _write_uvarint,
)
from tests.test_trace_v3_binary import frames


def _stream():
    """vlc at scale 0.01 with each task record written just before the
    task's first op and 32-op batches, so that most table frames hold
    symbols, addresses and task records."""
    trace = make_app("vlc", scale=0.01, seed=0).run().trace
    buf = io.BytesIO()
    writer = TraceWriterV3(buf, tasks=len(trace.tasks), ops=len(trace), batch_ops=32)
    pending = dict(trace.tasks)
    for code, time, task, values in trace.store.rows_encoded():
        if task in pending:
            writer.write_task(pending.pop(task).to_dict())
        writer.write_row(code, time, task, values)
    for info in pending.values():
        writer.write_task(info.to_dict())
    writer.finish()
    return buf.getvalue()


BASE = _stream()
FRAMES = [(tag, payload) for _offset, tag, payload in frames(BASE)]
#: the index in FRAMES of every table frame
TABLES = [k for k, (tag, _payload) in enumerate(FRAMES) if tag == TAG_TABLE]
REFERENCE = loads_trace(BASE)


def reframe(frame_list):
    """A v3 stream of ``(tag, payload)`` frames whose footer and
    trailer match them; returns it and each frame's byte offset."""
    out = bytearray(MAGIC_V3)
    offsets, batches, tables = [], [], []
    for tag, payload in frame_list:
        offsets.append(len(out))
        if tag == TAG_FOOTER:
            footer = json.loads(payload)
            footer.update(batches=batches, table_frames=tables)
            payload = _json_bytes(footer)
        elif tag == TAG_BATCH:
            batches.append([len(out), _read_uvarint(payload, 0, len(payload))[0]])
        elif tag == TAG_TABLE:
            tables.append(len(out))
        out.append(tag)
        _write_uvarint(out, len(payload))
        out += payload
    out += struct.pack("<Q", offsets[-1]) + TRAILER_MAGIC
    return bytes(out), offsets


def before(k):
    """The ops and task ids the frames before frame ``k`` define."""
    ops, tasks = 0, []
    for tag, payload in FRAMES[:k]:
        if tag == TAG_BATCH:
            ops += _read_uvarint(payload, 0, len(payload))[0]
        elif tag == TAG_TABLE:
            tasks += json.loads(payload).get("tasks", {}).get("task", [])
    return REFERENCE.ops[:ops], tasks


def check(k, payload, malformed):
    """Decode the stream with frame ``k``'s payload replaced, strictly
    and in salvage mode; a ``malformed`` table must be the error."""
    blob, offsets = reframe(FRAMES[:k] + [(TAG_TABLE, payload)] + FRAMES[k + 1:])
    where = f"table frame at byte {offsets[k]}"
    try:
        loads_trace(blob)
    except TraceFormatError as exc:
        message = str(exc)
        if malformed or "table frame" in message:
            assert where in message, message
            ops, tasks = before(k)
            salvaged = loads_trace(blob, strict=False)
            assert salvaged.ops == ops
            assert list(salvaged.tasks) == tasks
            return
    else:
        assert not malformed
    # the table decoded: its damage, if any, shows later or nowhere
    salvaged = loads_trace(blob, strict=False)
    assert len(salvaged) <= len(REFERENCE)


def test_the_stream_exercises_every_section():
    tables = [json.loads(FRAMES[k][1]) for k in TABLES]
    assert len(tables) > 3
    assert all(len(table) == 3 for table in tables[:3])
    assert REFERENCE.decode_stats.records == (
        len(REFERENCE) + len(REFERENCE.tasks)
        + len(REFERENCE.store.symbols) + len(REFERENCE.store.addresses)
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_damaged_bytes(data):
    k = data.draw(st.sampled_from(TABLES), label="frame")
    payload = bytearray(FRAMES[k][1])
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        pos = data.draw(st.integers(0, len(payload) - 1), label="at")
        edit = data.draw(st.sampled_from(["flip", "insert", "delete"]))
        if edit == "flip":
            payload[pos] ^= 1 << data.draw(st.integers(0, 7), label="bit")
        elif edit == "insert":
            payload[pos:pos] = data.draw(st.binary(min_size=1, max_size=4))
        elif len(payload) > 1:
            del payload[pos:pos + data.draw(st.integers(1, 4), label="span")]
    check(k, bytes(payload), malformed=False)


def _tasks(table):
    """The table's task section, made with one fresh row if it has
    none."""
    if "tasks" not in table:
        row = REFERENCE.tasks[next(iter(REFERENCE.tasks))].to_dict()
        row["task"] = "fuzz/fresh"
        table["tasks"] = {name: [value] for name, value in row.items()}
    return table["tasks"]


#: the malformed tables :func:`malformed` makes
MALFORMED = [
    "not-an-object", "unknown-section", "symbols-not-a-list",
    "symbol-not-a-string", "addresses-not-a-list", "address-of-two",
    "unhashable-address", "task-columns-not-lists", "unequal-task-columns",
    "missing-task-field", "extra-task-field", "unknown-task-kind",
    "unhashable-task-kind", "unhashable-task-id", "task-repeated-in-frame",
    "task-repeated-across-frames",
]


def malformed(name, k):
    """Table frame ``k``'s table, made malformed as ``name`` says."""
    table = json.loads(FRAMES[k][1])
    if name == "not-an-object":
        return [table]
    if name == "unknown-section":
        table["ops"] = []
    elif name == "symbols-not-a-list":
        table["symbols"] = {"a": 1}
    elif name == "symbol-not-a-string":
        table.setdefault("symbols", []).append(7)
    elif name == "addresses-not-a-list":
        table["addresses"] = "obj"
    elif name == "address-of-two":
        table.setdefault("addresses", []).append(["obj", 1])
    elif name == "unhashable-address":
        table.setdefault("addresses", []).append(["obj", [1], "f"])
    else:
        tasks = _tasks(table)
        if name == "task-columns-not-lists":
            tasks["external"] = True
        elif name == "unequal-task-columns":
            tasks["label"].append("x")
        elif name == "missing-task-field":
            del tasks["queue"]
        elif name == "extra-task-field":
            tasks["color"] = list(tasks["task"])
        elif name == "unknown-task-kind":
            tasks["task_kind"][0] = "fiber"
        elif name == "unhashable-task-kind":
            tasks["task_kind"][0] = []
        elif name == "unhashable-task-id":
            tasks["task"][0] = ["T"]
        elif name == "task-repeated-in-frame":
            for column in tasks.values():
                column.append(column[0])
        else:  # task-repeated-across-frames
            tasks["task"][0] = before(k)[1][0]
    return table


def _frames_for(name):
    # a task repeated across frames needs a frame before it
    return TABLES[1:] if name == "task-repeated-across-frames" else TABLES


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(MALFORMED), st.data())
def test_malformed_tables(name, data):
    k = data.draw(st.sampled_from(_frames_for(name)), label="frame")
    check(k, _json_bytes(malformed(name, k)), malformed=True)


@pytest.mark.parametrize("name", MALFORMED)
def test_each_malformed_table_in_the_first_frame(name):
    k = _frames_for(name)[0]
    check(k, _json_bytes(malformed(name, k)), malformed=True)
