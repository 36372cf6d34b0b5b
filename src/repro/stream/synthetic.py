"""Synthetic long sessions for the epoch-GC soak and benchmarks.

:func:`concat_sessions` chains ``k`` renamed copies of an app trace
into one long session.  Each copy is made disjoint from the others by
prefixing every task-namespace string (``"s3:"`` etc. — keep ``k <= 10``
so the prefixes sort in session order), offsetting ticket/transaction
ids and ``external_seq``, and shifting times past the previous copy.
Sessions therefore share no tasks, events, queues, monitors, locks,
addresses, or pairing ids: the offline analysis of the concatenation
decomposes into the per-session analyses, and its report set is the
union of the per-session report sets.

Each copy ends fully quiesced (every begun task ended, nothing pending)
exactly like the original trace, so the streaming analyzer's epoch GC
retires one epoch per session boundary — the memory-boundedness
scenario ``bounds_pr6.json`` pins.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from ..trace import TaskInfo, Trace
from ..trace.store import ADDR, SCHEMAS, STR

#: external_seq / ticket / txn offset between consecutive sessions —
#: far above anything a single app trace allocates
SESSION_ID_STRIDE = 1_000_000


class DuplicateSessionError(ValueError):
    """Two sessions in one concatenation share a session id.

    Duplicate ids would silently merge the copies' task namespaces,
    making the concatenation's analysis *not* decompose into the
    per-session analyses — the property everything downstream (epoch
    GC soaks, the sharding benchmarks, the daemon differential tests)
    relies on.
    """

    def __init__(self, session: str) -> None:
        super().__init__(
            f"duplicate session id {session!r}: every session in a "
            "concatenation must have a distinct id, or the copies' "
            "task namespaces collide and the per-session analyses "
            "are no longer independent"
        )
        self.session = session

#: INT payload fields that are *identities* (pairing keys) rather than
#: quantities, and so must be offset per session; delay/pc/target stay
_ID_FIELDS = frozenset({"ticket", "txn"})


def _renamed_op(op, prefix: str, offset: int, time_shift: int):
    updates = {"task": prefix + op.task, "time": op.time + time_shift}
    for name, tag in SCHEMAS[op.kind]:
        value = getattr(op, name)
        if value is None:
            continue
        if tag == STR:
            updates[name] = prefix + value
        elif tag == ADDR:
            scope, owner, slot = value
            updates[name] = (scope, f"{prefix}{owner}", slot)
        elif name in _ID_FIELDS and value >= 0:
            updates[name] = value + offset
    return dataclasses.replace(op, **updates)


def _renamed_info(info: TaskInfo, prefix: str, offset: int) -> TaskInfo:
    return dataclasses.replace(
        info,
        task=prefix + info.task,
        process=prefix + info.process if info.process else info.process,
        looper=prefix + info.looper if info.looper else info.looper,
        queue=prefix + info.queue if info.queue else info.queue,
        external_seq=(
            info.external_seq + offset if info.external else info.external_seq
        ),
    )


def concat_sessions(
    trace: Trace,
    sessions: int,
    ids: Optional[Sequence[str]] = None,
) -> Trace:
    """``sessions`` disjoint renamed copies of ``trace``, back to back.

    ``ids`` overrides the default ``s0 .. s{k-1}`` session ids (one per
    session, each becoming the copy's ``"{id}:"`` task-namespace
    prefix).  Ids must be distinct — a repeat raises
    :class:`DuplicateSessionError`, because colliding prefixes would
    silently merge two copies into one malformed session.
    """
    if not 1 <= sessions <= 10:
        raise ValueError("sessions must be in 1..10 (single-digit prefixes)")
    if ids is None:
        ids = [f"s{k}" for k in range(sessions)]
    elif len(ids) != sessions:
        raise ValueError(
            f"expected {sessions} session ids, got {len(ids)}"
        )
    seen = set()
    for session in ids:
        if session in seen:
            raise DuplicateSessionError(session)
        seen.add(session)
    out = Trace()
    span = (max((op.time for op in trace.ops), default=0)) + 1
    for k, session in enumerate(ids):
        prefix = f"{session}:"
        offset = k * SESSION_ID_STRIDE
        for info in trace.tasks.values():
            out.add_task(_renamed_info(info, prefix, offset))
        shift = k * span
        for op in trace.ops:
            out.append(_renamed_op(op, prefix, offset, shift))
    return out
