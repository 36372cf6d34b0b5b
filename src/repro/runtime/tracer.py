"""The trace collector — the stand-in for CAFA's logger device.

On device, every instrumented component writes records to a kernel
logger device that the offline analyzer later drains (Section 5.1).
Here the :class:`Tracer` accumulates an in-memory
:class:`~repro.trace.Trace`; a disabled tracer models the
uninstrumented system used as the Figure 8 baseline.
"""

from __future__ import annotations

from typing import Optional

from ..trace import Operation, TaskInfo, Trace


class Tracer:
    """Collects operations and task metadata during a simulation; the
    runtime appends straight into the trace's typed columns."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.trace: Optional[Trace] = Trace() if enabled else None
        #: number of records emitted (counted even when disabled would
        #: have skipped them — callers check ``enabled`` first)
        self.records = 0

    def add_task(self, info: TaskInfo) -> None:
        """Register a task; a no-op when tracing is disabled."""
        if self.trace is not None:
            self.trace.add_task(info)

    def emit(self, op: Operation) -> bool:
        """Record one operation; returns True if it was stored."""
        if self.trace is None:
            return False
        self.trace.append(op)
        self.records += 1
        return True

    def emit_fields(self, op_cls: type, task: str, time: int, fields: dict) -> bool:
        """Record one operation from its class and keyword payload.

        The runtime's hot path: the payload goes straight into the
        typed columns and no
        :class:`~repro.trace.Operation` instance is ever built.
        """
        if self.trace is None:
            return False
        self.trace.append_fields(op_cls, task, time, **fields)
        self.records += 1
        return True

    def result(self) -> Trace:
        """The collected trace (raises if tracing was disabled)."""
        if self.trace is None:
            raise RuntimeError("tracing was disabled for this run")
        return self.trace
