"""The simulated Android system: processes, loopers, threads, services.

:class:`AndroidSystem` is the top-level facade.  A typical workload::

    system = AndroidSystem(seed=1)
    app = system.process("mytracks")
    main = app.looper("main")                  # the UI looper
    app.thread("init", init_body)              # a regular thread
    system.add_service("TrackRecordingService", app2, {"bind": on_bind})
    system.run(max_ms=2000)
    trace = system.trace()

Each process owns a heap, a mini-DVM program/interpreter, a shared
variable store, and a listener registry.  The system owns the clock,
the tracer, the scheduler, monitors/locks, Binder services, and the
violation log (simulated NullPointerExceptions observed at runtime).
"""

from __future__ import annotations

import inspect
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..dvm.heap import Heap
from ..dvm.interpreter import DvmNullPointerError, Interpreter, NullSink
from ..dvm.method import Program
from ..trace import Begin, End, IpcHandle, IpcReply, TaskInfo, TaskKind, Trace
from .binder import Service, Transaction
from .clock import TimeModel, VirtualClock, ms
from .context import TaskContext
from .errors import SimulationError
from .queue import EventQueue
from .requests import BinderCallReq, BinderRecvReq, NextEventReq
from .scheduler import Frame, Scheduler
from .sync import Lock, Monitor
from .tracer import Tracer


@dataclass
class Violation:
    """A use-after-free that actually manifested during simulation
    (a simulated NullPointerException reached a handler boundary)."""

    task: str
    label: str
    method: str
    pc: int
    time: int


class Process:
    """One simulated OS process."""

    def __init__(self, system: "AndroidSystem", name: str) -> None:
        self.system = system
        self.name = name
        self.heap = Heap()
        self.program = Program()
        self.interpreter = Interpreter(self.program, self.heap, NullSink())
        self.store: Dict[str, Any] = {}
        self.listeners: Dict[str, Callable] = {}
        self.loopers: Dict[str, str] = {}  # short name -> frame id

    def looper(self, name: str = "main") -> str:
        """Create (or fetch) a looper thread; returns its id."""
        if name in self.loopers:
            return self.loopers[name]
        looper_id = self.system.spawn_looper(self, name)
        self.loopers[name] = looper_id
        return looper_id

    def thread(self, name: str, body: Callable, daemon: bool = False) -> str:
        """Create a root regular thread (no fork record — it exists
        before tracing starts, like an app's main thread)."""
        return self.system.spawn_thread(self, name, body, daemon=daemon)


def _thread_main(ctx: TaskContext, body: Callable):
    ctx._emit(Begin)
    try:
        try:
            if inspect.isgeneratorfunction(body):
                result = yield from body(ctx)
            else:
                result = body(ctx)
        except DvmNullPointerError as exc:
            ctx.system.record_violation(
                task=ctx.current_task,
                label=ctx.frame.thread_id,
                method=exc.method,
                pc=exc.pc,
            )
            result = None
        return result
    finally:
        ctx._emit(End)


def _looper_main(ctx: TaskContext, frame: Frame):
    ctx._emit(Begin)
    try:
        while True:
            event = yield NextEventReq(frame.event_queue.name)
            if event is None:  # quit requested
                break
            yield from ctx.run_event(event)
    finally:
        ctx._emit(End)


def _service_main(ctx: TaskContext, service: Service):
    ctx._emit(Begin)
    try:
        while True:
            transaction = yield BinderRecvReq(service.name)
            ctx._emit(IpcHandle, txn=transaction.txn, service=service.name)
            handler = service.method(transaction.method)
            try:
                if inspect.isgeneratorfunction(handler):
                    result = yield from handler(ctx, *transaction.args)
                else:
                    result = handler(ctx, *transaction.args)
            except DvmNullPointerError as exc:
                ctx.system.record_violation(
                    task=ctx.current_task,
                    label=f"{service.name}.{transaction.method}",
                    method=exc.method,
                    pc=exc.pc,
                )
                result = None
            service.handled += 1
            if not transaction.oneway:
                ctx._emit(IpcReply, txn=transaction.txn, service=service.name)
            ctx.system.complete_transaction(transaction, result)
    finally:
        ctx._emit(End)


class AndroidSystem:
    """Top-level simulator facade.  See the module docstring."""

    def __init__(
        self,
        seed: int = 0,
        tracing: bool = True,
        time_model: Optional[TimeModel] = None,
    ) -> None:
        self.clock = VirtualClock()
        self.tracer = Tracer(enabled=tracing)
        self.time_model = time_model or TimeModel()
        self.scheduler = Scheduler(self, seed=seed)
        self.processes: Dict[str, Process] = {}
        self.monitors: Dict[str, Monitor] = {}
        self.locks: Dict[str, Lock] = {}
        self.services: Dict[str, Service] = {}
        self.queues: Dict[str, EventQueue] = {}
        self.violations: List[Violation] = []
        #: per-thread virtual CPU time (ticks) — the Figure 8 metric
        self.cpu_time: Dict[str, int] = {}
        self._event_counter = itertools.count(1)
        self._txn_counter = itertools.count(1)
        self._ticket_counter = itertools.count(1)
        self._external_counter = itertools.count(0)

    # -- construction -----------------------------------------------------

    def process(self, name: str) -> Process:
        """Create or fetch a process by name."""
        if name not in self.processes:
            self.processes[name] = Process(self, name)
        return self.processes[name]

    def spawn_thread(
        self, process: Process, name: str, body: Callable, daemon: bool = False
    ) -> str:
        thread_id = f"{process.name}/{name}"
        frame = Frame(frame_id=thread_id, thread_id=thread_id, daemon=daemon)
        ctx = TaskContext(self, process, frame)
        frame.ctx = ctx
        frame.generator = _thread_main(ctx, body)
        self.scheduler.add_frame(frame)
        self.tracer.add_task(
            TaskInfo(
                task=thread_id,
                task_kind=TaskKind.THREAD,
                process=process.name,
                label=name,
            )
        )
        return thread_id

    def spawn_looper(self, process: Process, name: str) -> str:
        looper_id = f"{process.name}/{name}"
        queue = EventQueue(f"{looper_id}.queue")
        self.queues[queue.name] = queue
        frame = Frame(frame_id=looper_id, thread_id=looper_id, daemon=True)
        frame.event_queue = queue
        ctx = TaskContext(self, process, frame)
        frame.ctx = ctx
        frame.generator = _looper_main(ctx, frame)
        self.scheduler.add_frame(frame)
        self.tracer.add_task(
            TaskInfo(
                task=looper_id,
                task_kind=TaskKind.LOOPER,
                process=process.name,
                label=name,
            )
        )
        return looper_id

    def add_service(
        self, name: str, process: Process, methods: Dict[str, Callable]
    ) -> Service:
        """Register a Binder service with a dedicated binder thread."""
        if name in self.services:
            raise SimulationError(f"duplicate service {name!r}")
        service = Service(name, process.name, methods)
        self.services[name] = service
        thread_id = f"{process.name}/binder:{name}"
        frame = Frame(frame_id=thread_id, thread_id=thread_id, daemon=True)
        ctx = TaskContext(self, process, frame)
        frame.ctx = ctx
        frame.generator = _service_main(ctx, service)
        self.scheduler.add_frame(frame)
        self.tracer.add_task(
            TaskInfo(
                task=thread_id,
                task_kind=TaskKind.THREAD,
                process=process.name,
                label=f"binder:{name}",
            )
        )
        return service

    # -- registries ------------------------------------------------------

    def monitor(self, name: str) -> Monitor:
        if name not in self.monitors:
            self.monitors[name] = Monitor(name)
        return self.monitors[name]

    def lock(self, name: str) -> Lock:
        if name not in self.locks:
            self.locks[name] = Lock(name)
        return self.locks[name]

    def service(self, name: str) -> Service:
        try:
            return self.services[name]
        except KeyError:
            raise SimulationError(f"unknown service {name!r}") from None

    def queue(self, name: str) -> EventQueue:
        try:
            return self.queues[name]
        except KeyError:
            raise SimulationError(f"unknown queue {name!r}") from None

    def resolve_looper(self, looper_id: str) -> Frame:
        frame = self.scheduler.frames.get(looper_id)
        if frame is None or not frame.is_looper:
            raise SimulationError(f"{looper_id!r} is not a looper")
        return frame

    # -- event / txn / ticket identity ------------------------------------

    def new_event_task(
        self, looper_frame: Frame, label: str, external: bool, process: str
    ) -> str:
        task_id = f"ev{next(self._event_counter)}:{label}"
        self.tracer.add_task(
            TaskInfo(
                task=task_id,
                task_kind=TaskKind.EVENT,
                process=process,
                looper=looper_frame.thread_id,
                queue=looper_frame.event_queue.name,
                external=external,
                external_seq=next(self._external_counter) if external else -1,
                label=label,
            )
        )
        return task_id

    def next_txn(self) -> int:
        return next(self._txn_counter)

    # -- scheduler services ----------------------------------------------

    def charge(self, ticks: int) -> None:
        """Charge ``ticks`` to the clock and the running thread."""
        self.clock.advance(ticks)
        frame = self.scheduler.current_frame
        if frame is not None:
            key = frame.thread_id
            self.cpu_time[key] = self.cpu_time.get(key, 0) + ticks

    def notify_monitor(self, name: str, all_waiters: bool) -> int:
        ticket = next(self._ticket_counter)
        monitor = self.monitor(name)
        if all_waiters:
            woken = monitor.pop_all_waiters()
        else:
            one = monitor.pop_waiter()
            woken = [one] if one is not None else []
        for frame_id in woken:
            self.scheduler.frames[frame_id].wait_ticket = ticket
        return ticket

    def release_lock(self, name: str, frame_id: str, task_id: str) -> None:
        self.lock(name).drop(frame_id, task_id)

    def dispatch_transaction(self, request: BinderCallReq, caller: Frame) -> Transaction:
        service = self.service(request.service)
        transaction = Transaction(
            txn=request.txn,
            service=request.service,
            method=request.method,
            args=request.args,
            oneway=request.oneway,
            caller_frame=caller.frame_id,
        )
        service.push(transaction)
        return transaction

    def complete_transaction(self, transaction: Transaction, result: Any) -> None:
        transaction.reply = result
        transaction.completed = True

    def record_violation(self, task: str, label: str, method: str, pc: int) -> None:
        self.violations.append(
            Violation(task=task, label=label, method=method, pc=pc, time=self.clock.now)
        )

    # -- running -----------------------------------------------------------

    def run(self, max_ms: Optional[float] = None, max_steps: int = 2_000_000) -> None:
        """Run the simulation to quiescence (or the time budget)."""
        max_ticks = ms(max_ms) if max_ms is not None else None
        try:
            self.scheduler.run(max_ticks=max_ticks, max_steps=max_steps)
        finally:
            self.scheduler.shutdown()

    def trace(self) -> Trace:
        """The collected trace (raises if tracing was disabled)."""
        return self.tracer.result()

    @property
    def total_cpu_time(self) -> int:
        """Total virtual CPU ticks consumed across all threads."""
        return sum(self.cpu_time.values())

    def event_count(self) -> int:
        """Number of event tasks in the collected trace."""
        trace = self.tracer.trace
        if trace is None:
            return 0
        return len(trace.events())
