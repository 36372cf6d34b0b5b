"""Long-running worker processes with bounded inboxes.

The batch executor (:mod:`repro.parallel.executor`) runs one function
per item and tears the pool down; a streaming daemon needs the
opposite shape — workers that live for the daemon's lifetime, hold
state between messages, and absorb a continuous message flow with
*backpressure* instead of an unbounded queue.  :class:`Worker` wraps
one such process:

* the inbox is a bounded ``multiprocessing.Queue`` — when a shard
  falls behind, :meth:`Worker.send` blocks, which propagates up the
  router to the transport (the socket stops being read, the file tail
  pauses) instead of buffering without limit;
* a worker that dies — killed, crashed native code, an exception the
  handler did not absorb — surfaces as :class:`WorkerCrash` **naming
  the worker** (and carrying the remote traceback when one was
  captured), the long-running analogue of the batch executor's
  item-named errors;
* :meth:`Worker.drain` is the graceful shutdown: a sentinel is
  queued *behind* every pending message, the worker finishes them
  all, runs its ``finish`` hook, and ships back its final result plus
  a :class:`WorkerProfile` (messages handled, busy seconds).

A worker constructed with a ``telemetry`` hook additionally ships
periodic snapshots while it runs: whenever at least
``telemetry_interval`` seconds have passed since the last shipment —
after a handled message, or on waking from an idle inbox wait — the
worker posts ``("metrics", name, telemetry(state))`` on its outbox, so
a quiescent shard still reports fresh gauges.
The parent pulls them with :meth:`Worker.poll_telemetry` (the router's
live ``/metrics`` endpoint); the drain/crash paths skip telemetry
items transparently, so observability never changes shutdown
semantics.  A telemetry hook that raises is disabled for the rest of
the worker's life rather than killing the analysis.

The ``init``/``handle``/``finish``/``telemetry`` callables run in the
child and must be picklable (module-level functions).
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

#: default inbox bound (messages, not bytes); deep enough to smooth
#: bursts, shallow enough that a stuck shard stalls its producer fast
DEFAULT_QUEUE_SIZE = 256

#: inbox sentinel asking the worker to finish up and report back
_DRAIN = ("__drain__",)

#: seconds between telemetry shipments from a worker with a hook
DEFAULT_TELEMETRY_INTERVAL = 0.5


class WorkerCrash(RuntimeError):
    """A long-running worker died; carries the worker's name."""

    def __init__(self, message: str, worker: str, detail: Optional[str] = None):
        super().__init__(message)
        self.worker = worker
        self.detail = detail


@dataclass
class WorkerProfile:
    """One worker's life: what it handled and how long it was busy."""

    name: str
    pid: int
    messages: int
    busy_seconds: float

    def format(self) -> str:
        return (
            f"{self.name} (pid {self.pid}): {self.messages} messages, "
            f"{self.busy_seconds:.3f}s busy"
        )


def _worker_main(name, init, init_args, handle, finish, inbox, outbox,
                 telemetry=None, telemetry_interval=DEFAULT_TELEMETRY_INTERVAL
                 ) -> None:
    messages = 0
    busy = 0.0
    last_shipment = time.monotonic()
    try:
        state = init(name, *init_args)
        while True:
            if telemetry is None:
                msg = inbox.get()
            else:
                # Wake at the shipment cadence even when idle, so a
                # quiescent shard still exports fresh telemetry.
                try:
                    msg = inbox.get(timeout=telemetry_interval)
                except queue.Empty:
                    msg = None
            if msg == _DRAIN:
                break
            if msg is not None:
                start = time.perf_counter()
                handle(state, msg)
                busy += time.perf_counter() - start
                messages += 1
            if telemetry is not None:
                now = time.monotonic()
                if now - last_shipment >= telemetry_interval:
                    last_shipment = now
                    try:
                        outbox.put(("metrics", name, telemetry(state)))
                    except Exception:
                        # A broken telemetry hook must not kill the
                        # shard's analysis; stop shipping instead.
                        telemetry = None
        start = time.perf_counter()
        result = finish(state)
        busy += time.perf_counter() - start
    except BaseException as exc:  # ship the diagnosis, then die
        outbox.put(
            (
                "error",
                name,
                f"{exc.__class__.__name__}: {exc}",
                traceback.format_exc(),
            )
        )
        return
    outbox.put(
        ("ok", name, result, WorkerProfile(name, os.getpid(), messages, busy))
    )


class Worker:
    """One long-running worker process (see the module docstring)."""

    def __init__(
        self,
        name: str,
        init: Callable,
        handle: Callable,
        finish: Callable,
        init_args: tuple = (),
        queue_size: int = DEFAULT_QUEUE_SIZE,
        telemetry: Optional[Callable] = None,
        telemetry_interval: float = DEFAULT_TELEMETRY_INTERVAL,
    ) -> None:
        if queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, got {queue_size}")
        if telemetry_interval <= 0:
            raise ValueError(
                f"telemetry_interval must be > 0, got {telemetry_interval}"
            )
        self.name = name
        self.queue_size = queue_size
        #: the most recent telemetry payload pulled off the outbox
        self.latest_telemetry: Any = None
        self._pending_result: Any = None
        ctx = multiprocessing.get_context()
        self._inbox = ctx.Queue(maxsize=queue_size)
        self._outbox = ctx.Queue()
        self._process = ctx.Process(
            target=_worker_main,
            args=(name, init, init_args, handle, finish, self._inbox,
                  self._outbox, telemetry, telemetry_interval),
            daemon=True,
            name=name,
        )
        self._drained = False
        self._process.start()

    # -- liveness ------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self._process.is_alive()

    def _crash(self) -> WorkerCrash:
        """Build the named-death error, recovering the remote traceback
        when the worker managed to ship one before dying."""
        # No one reads a dead worker's pipe: the inbox's feeder thread
        # would block on it forever and hang the join at interpreter exit.
        self._inbox.cancel_join_thread()
        detail = None
        summary = None
        try:
            while True:
                item = self._outbox.get(timeout=0.5)
                if item[0] == "metrics":
                    self.latest_telemetry = item[2]
                    continue
                if item[0] == "error":
                    _tag, _name, summary, detail = item
                break
        except queue.Empty:
            pass
        if summary:
            message = (
                f"worker {self.name!r} died: {summary} "
                "(its pending sessions were lost)"
            )
        else:
            message = (
                f"worker {self.name!r} died before returning a result "
                "(killed by the operating system — e.g. out of memory — "
                "or crashed without raising); its pending sessions were "
                "lost"
            )
        return WorkerCrash(message, worker=self.name, detail=detail)

    # -- messaging -----------------------------------------------------

    def send(self, msg: Any) -> None:
        """Queue one message; blocks (backpressure) while the inbox is
        full, raising :class:`WorkerCrash` if the worker dies."""
        if self._drained:
            raise RuntimeError(f"worker {self.name!r} already drained")
        while True:
            if not self._process.is_alive():
                raise self._crash()
            try:
                self._inbox.put(msg, timeout=0.2)
                return
            except queue.Full:
                continue

    def request_drain(self) -> None:
        """Queue the drain sentinel behind every pending message."""
        if self._drained:
            raise RuntimeError(f"worker {self.name!r} already drained")
        self.send(_DRAIN)
        self._drained = True

    # -- telemetry -----------------------------------------------------

    def poll_telemetry(self) -> Any:
        """Drain any shipped telemetry snapshots off the outbox and
        return the most recent one (``None`` until the worker's first
        shipment).  Non-blocking; a final result that surfaces here is
        stashed for :meth:`collect`."""
        while True:
            try:
                item = self._outbox.get_nowait()
            except queue.Empty:
                return self.latest_telemetry
            if item[0] == "metrics":
                self.latest_telemetry = item[2]
            else:
                self._pending_result = item
                return self.latest_telemetry

    def inbox_depth(self) -> int:
        """Messages currently queued for this worker (the backpressure
        gauge); ``-1`` where the platform cannot say (``qsize`` is
        unimplemented on some BSDs)."""
        try:
            return self._inbox.qsize()
        except NotImplementedError:  # pragma: no cover - platform gap
            return -1

    def _next_result_item(self, timeout: float) -> tuple:
        """The next non-telemetry outbox item (telemetry is stashed);
        raises ``queue.Empty`` on timeout like a bare ``get``."""
        while True:
            item = self._outbox.get(timeout=timeout)
            if item[0] == "metrics":
                self.latest_telemetry = item[2]
                continue
            return item

    def collect(self) -> Tuple[Any, WorkerProfile]:
        """Wait out a requested drain: the worker's final result and
        profile, with the process reaped."""
        item = self._pending_result
        self._pending_result = None
        while item is None:
            try:
                item = self._next_result_item(timeout=0.2)
                break
            except queue.Empty:
                if not self._process.is_alive():
                    # One last non-blocking look: the worker may have
                    # posted its result (or error) just before exiting.
                    try:
                        item = self._next_result_item(timeout=0.2)
                        break
                    except queue.Empty:
                        raise self._crash() from None
        if item[0] == "error":
            _tag, _name, summary, detail = item
            self._process.join()
            raise WorkerCrash(
                f"worker {self.name!r} failed during drain: {summary}",
                worker=self.name,
                detail=detail,
            )
        _tag, _name, result, profile = item
        self._process.join()
        return result, profile

    def drain(self) -> Tuple[Any, WorkerProfile]:
        """Graceful shutdown: finish pending messages, return the
        worker's final result and profile, and reap the process."""
        self.request_drain()
        return self.collect()

    def terminate(self) -> None:
        """Hard stop (no drain); used on abandon/error paths."""
        self._drained = True
        if self._process.is_alive():
            self._process.terminate()
        self._process.join()
        self._inbox.cancel_join_thread()  # as in _crash


class WorkerPool:
    """A fixed-size fleet of :class:`Worker` processes."""

    def __init__(
        self,
        count: int,
        init: Callable,
        handle: Callable,
        finish: Callable,
        init_args: tuple = (),
        queue_size: int = DEFAULT_QUEUE_SIZE,
        name: str = "worker",
        telemetry: Optional[Callable] = None,
        telemetry_interval: float = DEFAULT_TELEMETRY_INTERVAL,
    ) -> None:
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self.workers: List[Worker] = [
            Worker(
                f"{name}-{i}",
                init,
                handle,
                finish,
                init_args=init_args,
                queue_size=queue_size,
                telemetry=telemetry,
                telemetry_interval=telemetry_interval,
            )
            for i in range(count)
        ]

    def __len__(self) -> int:
        return len(self.workers)

    def send(self, index: int, msg: Any) -> None:
        self.workers[index].send(msg)

    def telemetry_snapshots(self) -> List[Any]:
        """Latest telemetry per worker, in worker order (``None`` for
        workers that have not shipped yet)."""
        return [worker.poll_telemetry() for worker in self.workers]

    def inbox_depths(self) -> List[int]:
        """Per-worker inbox depths, in worker order."""
        return [worker.inbox_depth() for worker in self.workers]

    def drain(self) -> List[Tuple[Any, WorkerProfile]]:
        """Drain every worker; results come back in worker order.

        Workers are all asked to finish *before* any result is
        collected, so the drains overlap instead of serializing.
        """
        outcomes: List[Tuple[Any, WorkerProfile]] = []
        try:
            for worker in self.workers:
                worker.request_drain()
            for worker in self.workers:
                outcomes.append(worker.collect())
        except WorkerCrash:
            for worker in self.workers:
                worker.terminate()
            raise
        return outcomes

    def terminate(self) -> None:
        for worker in self.workers:
            worker.terminate()
