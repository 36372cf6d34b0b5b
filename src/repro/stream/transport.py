"""The daemon's socket transport.

Files, growing files and stdin reach the streaming layer through the
one chunk reader, :func:`repro.trace.reader.tail_chunks`; sockets come
in here.  :class:`SocketSource` is a Unix-domain or TCP listener
accepting many concurrent connections (one per uploading device, say),
each read by its own thread; chunks surface on a single bounded event
queue in arrival order, tagged with their connection id.  The bounded
queue is the transport end of the daemon's backpressure chain: when
the router stalls, reader threads stall, and the kernel socket buffers
throttle the senders.
"""

from __future__ import annotations

import os
import queue
import socket
import threading
from typing import Iterator, Optional, Tuple

#: events surfaced by SocketSource: ("open", conn_id) / ("chunk",
#: conn_id, bytes) / ("close", conn_id)
SocketEvent = Tuple


class SocketSource:
    """Accepts connections on one listening socket; merges their bytes
    into a single bounded event queue (see the module docstring).

    Construct via :meth:`unix` or :meth:`tcp`, iterate
    :meth:`events`, and :meth:`stop` to tear down.  ``conn_id`` values
    are ``"conn-1"``, ``"conn-2"``, ... in accept order.
    """

    def __init__(self, listener: socket.socket, unlink: Optional[str] = None,
                 queue_events: int = 1024) -> None:
        self._listener = listener
        self._unlink = unlink
        self._events: "queue.Queue[SocketEvent]" = queue.Queue(
            maxsize=queue_events
        )
        self._threads: list = []
        self._stopping = threading.Event()
        self._next_id = 0
        #: transport counters for the live metrics endpoint; guarded by
        #: one lock because accept and reader threads all write them
        self._stats_lock = threading.Lock()
        self.connections_accepted = 0
        self.connections_open = 0
        self.chunks_received = 0
        self.bytes_received = 0
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True, name="socket-accept"
        )
        self._accept_thread.start()

    # -- constructors --------------------------------------------------

    @classmethod
    def unix(cls, path: str, backlog: int = 16) -> "SocketSource":
        """Listen on a Unix-domain socket at ``path`` (replaced if a
        stale socket file is present)."""
        if os.path.exists(path):
            os.unlink(path)
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(path)
        listener.listen(backlog)
        listener.settimeout(0.2)
        return cls(listener, unlink=path)

    @classmethod
    def tcp(cls, host: str, port: int, backlog: int = 16) -> "SocketSource":
        """Listen on ``host:port`` (port 0 picks a free port; see
        :attr:`address`)."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(backlog)
        listener.settimeout(0.2)
        return cls(listener)

    @property
    def address(self):
        """The bound address (``(host, port)`` for TCP, path for Unix)."""
        return self._listener.getsockname()

    # -- the accept / reader threads -----------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed under us during stop()
            self._next_id += 1
            conn_id = f"conn-{self._next_id}"
            with self._stats_lock:
                self.connections_accepted += 1
                self.connections_open += 1
            self._events.put(("open", conn_id))
            thread = threading.Thread(
                target=self._reader_loop,
                args=(conn, conn_id),
                daemon=True,
                name=f"socket-read-{conn_id}",
            )
            self._threads.append(thread)
            thread.start()

    def _reader_loop(self, conn: socket.socket, conn_id: str) -> None:
        try:
            conn.settimeout(0.2)
            while not self._stopping.is_set():
                try:
                    chunk = conn.recv(1 << 16)
                except socket.timeout:
                    continue
                except OSError:
                    break
                if not chunk:
                    break
                with self._stats_lock:
                    self.chunks_received += 1
                    self.bytes_received += len(chunk)
                self._events.put(("chunk", conn_id, chunk))
        finally:
            try:
                conn.close()
            except OSError:
                pass
            with self._stats_lock:
                self.connections_open -= 1
            self._events.put(("close", conn_id))

    # -- consumer surface ----------------------------------------------

    def events(self, timeout: float = 0.2) -> Iterator[SocketEvent]:
        """Blocking event iterator; yields ``None`` every ``timeout``
        seconds of silence so the caller can check stop conditions."""
        while True:
            try:
                yield self._events.get(timeout=timeout)
            except queue.Empty:
                yield None

    def stop(self) -> None:
        self._stopping.set()
        try:
            self._listener.close()
        except OSError:
            pass
        if self._unlink and os.path.exists(self._unlink):
            try:
                os.unlink(self._unlink)
            except OSError:
                pass
        self._accept_thread.join(timeout=2.0)
        for thread in self._threads:
            thread.join(timeout=2.0)
