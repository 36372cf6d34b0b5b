"""The chunk reader: the one loop that reads trace bytes.

On the device, trace records stream through a kernel logger and are
pulled over ADB (Section 5.1), so a cut or still-growing log is
ordinary input.  :func:`tail_chunks` reads it for every consumer: the
loaders (:func:`~repro.trace.serialization.load_trace`,
:func:`~repro.trace.serialization.convert_trace_file`), ``repro
stream``, ``repro stats --stream`` and ``repro serve``'s file and
stdin input.

It opens a path (gzip on a ``.gz`` suffix) or ``-`` (stdin's bytes),
or takes an open stream, and yields its pieces of about 64 KiB.  A
binary stream is read with ``read1`` (one underlying read per call),
not ``read``: ``BufferedReader.read`` over a truncated gzip member
raises *inside* its fill loop and loses the prefix it had gathered,
while ``read1`` hands each piece over before the damage surfaces, so
salvage sees the prefix.  A text stream has no ``read1``, so it is
read a line at a time and handed over in pieces of whole lines, which
loses none of the lines before the damage either.  Damage below the
records (a compressed member cut short or corrupt, text that is not
UTF-8) is named here, as :class:`~repro.trace.trace.StreamDamageError`,
after every piece read before it.

Under ``follow=True`` an empty read is not the end: the reader keeps
polling for growth, the ``tail -f`` shape, and backs off
**exponentially** (:class:`Backoff`) between empty reads instead of
busy-spinning at a fixed interval: an idle tail costs a handful of
wakeups per doubling period, and the first byte of new data resets
the delay so a busy tail stays responsive.
"""

from __future__ import annotations

import gzip
import io
import sys
import time
import zlib
from contextlib import nullcontext
from pathlib import Path
from typing import IO, Callable, Iterator, Optional, Union

from .trace import StreamDamageError

#: first sleep of an idle tail; short enough that a just-written byte
#: is picked up promptly
DEFAULT_BACKOFF_INITIAL = 0.05
#: ceiling of the exponential backoff
DEFAULT_BACKOFF_CAP = 0.5

#: decompression/decoding failures that signal a physically truncated
#: or corrupted stream rather than a logically malformed record
_STREAM_DAMAGE = (EOFError, UnicodeDecodeError, gzip.BadGzipFile, zlib.error)


class Backoff:
    """Exponential sleep schedule with a cap, counted for tests.

    ``wait`` sleeps the current delay and doubles it (up to ``cap``);
    ``reset`` drops back to ``initial``.  :attr:`sleep_count` and
    :attr:`slept_total` expose exactly how much polling happened —
    the busy-poll regression test counts them.
    """

    def __init__(
        self,
        initial: float = DEFAULT_BACKOFF_INITIAL,
        cap: float = DEFAULT_BACKOFF_CAP,
        factor: float = 2.0,
    ) -> None:
        if initial <= 0:
            raise ValueError(f"initial must be > 0, got {initial}")
        if cap < initial:
            raise ValueError(f"cap {cap} must be >= initial {initial}")
        if factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {factor}")
        self.initial = initial
        self.cap = cap
        self.factor = factor
        self.current = initial
        self.sleep_count = 0
        self.slept_total = 0.0

    def wait(self, sleep: Callable[[float], None] = time.sleep) -> float:
        """Sleep the current delay; returns it and advances the schedule."""
        delay = self.current
        sleep(delay)
        self.sleep_count += 1
        self.slept_total += delay
        self.current = min(self.current * self.factor, self.cap)
        return delay

    def reset(self) -> None:
        self.current = self.initial


def _open_binary_for(path: Union[str, Path], mode: str) -> IO[bytes]:
    """Binary stream for ``path``; transparently gzip on a ``.gz`` suffix."""
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "b")
    return open(path, mode + "b")


def tail_chunks(
    source: Union[str, Path, IO],
    follow: bool = False,
    backoff: Optional[Backoff] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> Iterator[Union[bytes, str]]:
    """Yield the non-empty pieces of ``source``: a path, ``-`` for
    stdin's bytes, or an open binary (or text, yielding ``str``)
    stream.

    Without ``follow`` the reader ends at the first empty read (EOF).
    With it, an empty read sleeps the ``backoff`` schedule and reads
    again, until the consumer stops iterating or an interrupt (Ctrl-C)
    ends the sleep; any data resets the backoff.  Stdin and text
    streams are read to their EOF, never followed: a pipe's EOF is its
    end.  Damage below the records raises
    :class:`~repro.trace.trace.StreamDamageError`.
    """
    if not isinstance(source, (str, Path)):
        stream = nullcontext(source)
    elif str(source) == "-":
        stream, follow = nullcontext(sys.stdin.buffer), False
    else:
        stream = _open_binary_for(source, "r")
    if backoff is None:
        backoff = Backoff()
    with stream as fp:
        if isinstance(fp, io.TextIOBase):
            yield from _whole_lines(fp)
            return
        read = getattr(fp, "read1", fp.read)
        while True:
            try:
                chunk = read(1 << 16)
            except _STREAM_DAMAGE as exc:
                raise StreamDamageError(exc) from exc
            if chunk:
                backoff.reset()
                yield chunk
            elif not follow:
                return
            else:
                backoff.wait(sleep)


def _whole_lines(fp: IO[str]) -> Iterator[str]:
    """A text stream's lines, read one at a time and handed over in
    pieces of about 64 KiB; the lines read before damage come first."""
    piece, size, damage = [], 0, None
    try:
        for line in fp:
            piece.append(line)
            size += len(line)
            if size >= 1 << 16:
                yield "".join(piece)
                piece, size = [], 0
    except _STREAM_DAMAGE as exc:
        damage = exc
    if piece:
        yield "".join(piece)
    if damage is not None:
        raise StreamDamageError(damage) from damage
