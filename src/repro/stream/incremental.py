"""Incremental happens-before construction for the streaming service.

:class:`IncrementalHB` grows one relation as records arrive by driving
the batch builder's own passes (:mod:`repro.hb.builder`) over op
ranges: :meth:`~IncrementalHB.ingest` scans a range in one pass, then
adds each key op's node and the base edges it enables, in trace order,
and :meth:`~IncrementalHB.poll` adds the chain edges, closes the graph
and runs the derived-rule fixpoint.
There is one implementation of every rule; two things differ from the
batch order of operations, neither of which changes the final
relation:

* **Parked forward references.**  A batch build resolves ``fork →
  begin``, ``end → join`` and ``send → begin`` against the completed
  scan and graph.  Online the partner op may not have arrived yet, or
  may come later in the same range (scanned, but without a node yet),
  so the base rules park the edge until the partner's node is added.
  The final edge set is identical, and the edges land in the same
  order however the ops are split into ranges.

* **Trailing key nodes.**  Batch mode adds a node at each task's last
  op even when it is not a synchronization op, purely so the task has a
  node at its very end.  Online, "last op" is a moving target, so these
  nodes are never created.  This is verdict-neutral: a trailing
  non-sync node has no incident cross-task edges (base rules only touch
  sync/lock ops), so it is reachable exactly when its program-order
  predecessor is, and no query verdict depends on it.  The streaming
  relation must be queried with ``fast_queries=False`` (the scan path,
  since its per-task node ids are not contiguous), which
  :meth:`~IncrementalHB.relation` enforces.

The graph stays unclosed until the first poll, so ingest only appends
nodes and edges and the closure is built once, as in a batch build.
After that poll the closure is maintained live: later ingests extend
it edge by edge (:meth:`repro.hb.graph.KeyGraph.add_edge`), and every
later poll re-runs the chain edges and the fixpoint from a full first
round, whose projection pass reads only the conclusions the closure
does not already imply.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, List

from ..hb.builder import (
    RULE_PROGRAM_ORDER,
    BuildProfile,
    _add_chain_edges,
    _BaseRules,
    _BuildState,
    _check_one_looper_per_queue,
    _fixpoint,
    _scan,
    _task_bounds,
)
from ..hb.config import CAFA_MODEL, ModelConfig
from ..hb.graph import HappensBefore, KeyGraph
from ..trace import Trace


class IncrementalHB:
    """One happens-before relation, grown range by range.

    Usage: :meth:`ingest` each new range of ``trace`` as it arrives,
    :meth:`poll` before reading the relation, and :meth:`relation` for
    a queryable :class:`~repro.hb.graph.HappensBefore` view over the
    live state.
    """

    def __init__(
        self,
        trace: Trace,
        config: ModelConfig = CAFA_MODEL,
    ) -> None:
        self.trace = trace
        self.config = config
        self.graph = KeyGraph()
        self.state = _BuildState(trace=trace, config=config)
        #: fixpoint rounds, edge counts and time, summed over polls
        self.profile = BuildProfile()
        self.task_key_positions: Dict[str, List[int]] = {}
        self.task_key_nodes: Dict[str, List[int]] = {}
        self._base = _BaseRules(self.state, self.graph)
        self._ingested = 0

    @property
    def rounds(self) -> int:
        return self.profile.rounds

    @property
    def derived_edges(self) -> int:
        return sum(self.profile.edges_per_round)

    def ingest(self, start: int, stop: int) -> None:
        """Process ops ``start`` to ``stop - 1`` of the trace.

        Ranges must follow each other: each starts where the last
        stopped.  The range is scanned in one pass, then each key op
        in it gets its node, its program-order edge and its base edges,
        in trace order.
        """
        if start != self._ingested or stop < start:
            raise ValueError(
                f"out-of-order ingest: expected ops from {self._ingested}, "
                f"got {start}..{stop}"
            )
        self._ingested = stop
        state = self.state
        is_key = _scan(state, start, stop)
        graph = self.graph
        op_task, op_pos = state.op_task, state.op_pos
        key_nodes, key_positions = self.task_key_nodes, self.task_key_positions
        step = self._base.step
        for i in compress(range(start, stop), is_key):
            node = graph.add_node(i)
            task = op_task[i]
            nodes = key_nodes.get(task)
            if nodes is None:
                nodes = key_nodes[task] = []
                key_positions[task] = []
            else:
                graph.add_edge(nodes[-1], node, RULE_PROGRAM_ORDER)
            nodes.append(node)
            key_positions[task].append(op_pos[i])
            step(i)

    def poll(self) -> int:
        """Catch the relation up with everything ingested; returns the
        number of derived edges added.

        Raises :class:`~repro.hb.graph.HBCycleError` or
        :class:`~repro.hb.builder.ModelNotApplicableError` when the ops
        so far violate the model, as a batch build of them would.
        """
        _check_one_looper_per_queue(self.state)
        _add_chain_edges(self.state, self.graph)
        self.graph.close()
        return _fixpoint(self.state, self.graph, self.profile)

    # -- queries -------------------------------------------------------

    def closure_bytes(self) -> int:
        return self.graph.closure_bytes()

    def relation(self) -> HappensBefore:
        """A queryable view over the live graph and scan state.

        The view is constructed with ``fast_queries=False``: the scan
        query path reads only the live references handed here (none of
        the lazily built per-task masks or memo tables), so it stays
        correct as more records are ingested after the call.
        """
        state = self.state
        return HappensBefore(
            graph=self.graph,
            op_task=state.op_task,
            op_pos=state.op_pos,
            task_key_positions=self.task_key_positions,
            task_key_nodes=self.task_key_nodes,
            event_bounds=_task_bounds(state),
            iterations=self.rounds,
            derived_edges=self.derived_edges,
            fast_queries=False,
        )
