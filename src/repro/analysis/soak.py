"""Streaming soak harness: replay traces record-by-record and check
that the online service reproduces the offline analysis exactly.

This is the executable form of the streaming mode's core claim (see
``docs/streaming.md``): for any complete trace, feeding its v2 stream
one record at a time (one line per
:meth:`~repro.stream.StreamAnalyzer.feed` call) and finishing it
yields byte-identical race reports to the batch pipeline.  The harness
backs the differential tests and the ``repro stream --selftest`` CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..apps import ALL_APPS, make_app
from ..detect import DetectorOptions, UseFreeDetector
from ..stream import StreamAnalyzer, StreamProfile
from ..trace import Trace, dumps_trace


@dataclass
class SoakResult:
    """One replayed trace: both report lists plus the stream counters."""

    name: str
    ops: int
    #: str() of every authoritative online report, in emission order
    online: List[str]
    #: str() of every offline report, in the detector's sorted order
    offline: List[str]
    profile: StreamProfile

    @property
    def identical(self) -> bool:
        return self.online == self.offline

    def format(self) -> str:
        verdict = "identical" if self.identical else "MISMATCH"
        return (
            f"{self.name}: {self.ops} ops, "
            f"{len(self.online)} online / {len(self.offline)} offline "
            f"reports — {verdict}"
        )


def soak_trace(
    trace: Trace,
    name: str = "trace",
    options: Optional[DetectorOptions] = None,
    gc: bool = True,
) -> SoakResult:
    """Replay ``trace`` online, one v2 line per feed; compare against
    offline."""
    offline = [str(r) for r in UseFreeDetector(trace, options).detect().reports]
    analyzer = StreamAnalyzer(options, gc=gc)
    for line in dumps_trace(trace, version=2).splitlines(keepends=True):
        analyzer.feed(line)
    online = [str(r) for r in analyzer.finish()]
    return SoakResult(
        name=name,
        ops=len(trace),
        online=online,
        offline=offline,
        profile=analyzer.profile,
    )


def soak_app(
    app_name: str,
    scale: float = 0.02,
    seed: int = 1,
    options: Optional[DetectorOptions] = None,
    gc: bool = True,
) -> SoakResult:
    """Soak one stock app's trace at the given scale/seed."""
    run = make_app(app_name, scale=scale, seed=seed).run()
    return soak_trace(run.trace, name=app_name, options=options, gc=gc)


def soak_all(
    scale: float = 0.02,
    seed: int = 1,
    apps: Optional[Sequence[str]] = None,
    gc: bool = True,
) -> List[SoakResult]:
    """Soak every stock app (or the named subset), in catalog order."""
    names = list(apps) if apps else [app.name for app in ALL_APPS]
    return [soak_app(name, scale=scale, seed=seed, gc=gc) for name in names]
