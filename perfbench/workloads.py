"""Seeded inputs for the three benchmark workloads, and the output check.

Everything the system under test analyses is generated here from the
workload seed: catalog apps are simulated (``AppModel.run``) and their
traces serialised.  The apps' own ground-truth labels
(``AppRun.expected``) are kept beside the bytes, and never reach the
analysing process, so the output check compares the detector's
reports with an independent source rather than with a second
detector run.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps import ALL_APPS
from repro.stream import concat_sessions
from repro.trace import dumps_trace_bytes, encode_mux_header, encode_session

from layers import NULL_TRACER

WORKLOADS = ("detect-large-v3", "detect-small-v2", "serve-fleet")

#: detect-large-v3: one v3 trace per catalog app (~70k ops in all)
LARGE_SCALE = 0.2
#: detect-small-v2: ten seeds per app, v2 text (~90k ops in 100 traces)
SMALL_SCALE = 0.02
SMALL_SEEDS_PER_APP = 10
#: serve-fleet: one session per app, each three concatenated copies so
#: that epoch GC retires epochs inside every session (~27k ops in all)
FLEET_SCALE = 0.02
FLEET_COPIES = 3
#: payload bytes per cafa-mux DATA frame, and bytes per router feed
FRAME_BYTES = 16 << 10
CHUNK_BYTES = 64 << 10

#: a race report's static identity as the labels name it:
#: (field, use method, free method)
RaceKey = Tuple[str, str, str]


@dataclass
class Unit:
    """One trace (offline workloads) or one session (serve-fleet)."""

    name: str
    #: the serialised trace; for serve-fleet the session's v3 payload
    #: (the analyser is sent the interleaved stream instead)
    payload: bytes
    #: ground truth: the labelled races a correct analysis reports
    expected: List[RaceKey]


@dataclass
class Inputs:
    workload: str
    seed: int
    units: List[Unit]
    #: serve-fleet only: the whole cafa-mux stream, and the offset of
    #: each session's first frame in it
    stream: bytes = b""
    first_byte: Dict[str, int] = field(default_factory=dict)

    def payloads(self) -> List[Tuple[str, bytes]]:
        return [(unit.name, unit.payload) for unit in self.units]

    def same_bytes(self, other: "Inputs") -> bool:
        return self.payloads() == other.payloads() and self.stream == other.stream


def app_seeds(workload: str, seed: int) -> List[int]:
    """The app seeds a workload seed expands to."""
    if workload == "detect-small-v2":
        return [seed * SMALL_SEEDS_PER_APP + j for j in range(SMALL_SEEDS_PER_APP)]
    return [seed]


def _simulate(app_cls, scale: float, seed: int, name: str, tracer):
    with tracer.span("apps.simulate", unit=name):
        run = app_cls(scale=scale, seed=seed).run()
    labels = [(e.field, e.use_method, e.free_method) for e in run.expected]
    return run.trace, labels


def _encode(trace, version: int, name: str, tracer) -> bytes:
    with tracer.span("trace.encode", unit=name):
        return dumps_trace_bytes(trace, version=version)


def generate(workload: str, seed: int, tracer=NULL_TRACER) -> Inputs:
    """Simulate and serialise every input of ``workload`` at ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    units: List[Unit] = []
    if workload == "detect-large-v3":
        for app_cls in ALL_APPS:
            name = app_cls.name
            trace, labels = _simulate(app_cls, LARGE_SCALE, seed, name, tracer)
            units.append(Unit(name, _encode(trace, 3, name, tracer), labels))
        return Inputs(workload, seed, units)
    if workload == "detect-small-v2":
        for app_seed in app_seeds(workload, seed):
            for app_cls in ALL_APPS:
                name = f"{app_cls.name}@{app_seed}"
                trace, labels = _simulate(app_cls, SMALL_SCALE, app_seed, name, tracer)
                units.append(Unit(name, _encode(trace, 2, name, tracer), labels))
        return Inputs(workload, seed, units)
    for app_cls in ALL_APPS:
        name = app_cls.name
        trace, labels = _simulate(app_cls, FLEET_SCALE, seed, name, tracer)
        long_session = concat_sessions(trace, FLEET_COPIES)
        units.append(
            Unit(name, _encode(long_session, 3, name, tracer), labels * FLEET_COPIES)
        )
    with tracer.span("trace.encode", unit="mux"):
        stream, first_byte = _interleave(units)
    return Inputs(workload, seed, units, stream, first_byte)


def _interleave(units: Sequence[Unit]) -> Tuple[bytes, Dict[str, int]]:
    """One cafa-mux stream: the sessions' frames round-robin, so every
    session is open from the first chunk to its END frame."""
    frame_lists = [
        encode_session(unit.name, unit.payload, chunk_size=FRAME_BYTES)
        for unit in units
    ]
    out = bytearray(encode_mux_header())
    first_byte: Dict[str, int] = {}
    for i in range(max(len(frames) for frames in frame_lists)):
        for unit, frames in zip(units, frame_lists):
            if i < len(frames):
                first_byte.setdefault(unit.name, len(out))
                out += frames[i]
    return bytes(out), first_byte


# ---------------------------------------------------------------------------
# Output check
# ---------------------------------------------------------------------------


def check_trace(reports: Optional[List[RaceKey]], expected: List[RaceKey],
                error: Optional[str]) -> Optional[str]:
    """Why one offline trace's reports are wrong, or None if they match
    its labels exactly: no unmatched report and no missed label."""
    if error is not None:
        return error
    unmatched = Counter(reports) - Counter(expected)
    missed = Counter(expected) - Counter(reports)
    if not unmatched and not missed:
        return None
    parts = []
    if unmatched:
        parts.append(f"{sum(unmatched.values())} unmatched report(s)")
    if missed:
        parts.append(f"{sum(missed.values())} missed label(s)")
    return ", ".join(parts)


def check_session(outcome: dict, expected: List[RaceKey]) -> Optional[str]:
    """Why one served session is wrong, or None: it must end by its END
    frame, undamaged, with exactly as many reports as it has labels."""
    if outcome.get("error"):
        return outcome["error"]
    if outcome["degraded"]:
        return "session degraded"
    if not outcome["ended"]:
        return "session closed by drain, not by its END frame"
    if outcome["reports"] != len(expected):
        return f"{outcome['reports']} reports, {len(expected)} labels"
    return None
