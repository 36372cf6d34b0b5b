"""Incremental happens-before construction for the streaming service.

:class:`IncrementalHB` grows one relation as records arrive, with the
batch builder's own passes (:mod:`repro.hb.builder`):
:meth:`~IncrementalHB.ingest` scans an op range and adds no node or
edge, and :meth:`~IncrementalHB.poll` builds the relation of every op
scanned so far with the function :func:`~repro.hb.build_happens_before`
builds with.  So after any poll the streamed graph is node for node,
and edge for edge in insertion order, the batch graph of the same ops,
and it answers queries through the same range probe.

A poll with nothing new ingested keeps the relation it has; a poll
after more ops builds it again from the kept scan state.  The
streaming analyzer polls once per epoch, plus once per provisional
:meth:`~repro.stream.StreamAnalyzer.detect_now`.
"""

from __future__ import annotations

from typing import Optional

from ..hb.builder import BuildProfile, _BuildState, _build_relation, _scan
from ..hb.config import CAFA_MODEL, ModelConfig
from ..hb.graph import HappensBefore, KeyGraph
from ..trace import Trace


class IncrementalHB:
    """One happens-before relation, grown range by range.

    Usage: :meth:`ingest` each new range of ``trace`` as it arrives,
    :meth:`poll` before reading the relation, and :meth:`relation` for
    the queryable :class:`~repro.hb.graph.HappensBefore` of the ops
    ingested up to the latest poll.  Everything read off the relation
    (the graph, the profile, the counters) needs a poll first.
    """

    def __init__(
        self,
        trace: Trace,
        config: ModelConfig = CAFA_MODEL,
    ) -> None:
        self.trace = trace
        self.config = config
        self.state = _BuildState(trace=trace, config=config)
        self._ingested = 0
        #: the latest build, and the ops it covers
        self._relation: Optional[HappensBefore] = None
        self._built = 0

    @property
    def graph(self) -> KeyGraph:
        """The latest build's graph."""
        return self.relation().graph

    @property
    def profile(self) -> BuildProfile:
        """Phase timings and closure counters of the latest build."""
        return self.relation().profile  # type: ignore[return-value]

    @property
    def rounds(self) -> int:
        return self.relation().iterations

    @property
    def derived_edges(self) -> int:
        return self.relation().derived_edges

    def ingest(self, start: int, stop: int) -> None:
        """Scan ops ``start`` to ``stop - 1`` of the trace.

        Ranges must follow each other: each starts where the last
        stopped.
        """
        if start != self._ingested or stop < start:
            raise ValueError(
                f"out-of-order ingest: expected ops from {self._ingested}, "
                f"got {start}..{stop}"
            )
        self._ingested = stop
        _scan(self.state, start, stop)

    def poll(self) -> None:
        """Build the relation of every op ingested so far, unless the
        latest build already covers them.

        Raises :class:`~repro.hb.graph.HBCycleError` or
        :class:`~repro.hb.builder.ModelNotApplicableError` when the ops
        so far violate the model, as a batch build of them would.
        """
        if self._relation is not None and self._built == self._ingested:
            return
        self._relation = _build_relation(self.state, BuildProfile())
        self._built = self._ingested

    # -- queries -------------------------------------------------------

    def closure_bytes(self) -> int:
        return self.graph.closure_bytes()

    def relation(self) -> HappensBefore:
        """The relation of the ops ingested up to the latest poll."""
        if self._relation is None:
            raise RuntimeError("IncrementalHB.relation() before any poll()")
        return self._relation
