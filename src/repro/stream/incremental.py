"""Incremental happens-before construction for the streaming service.

:class:`IncrementalHB` grows one relation as records arrive by driving
the batch builder's own passes (:mod:`repro.hb.builder`) op by op:
:meth:`~IncrementalHB.ingest` scans an op, adds its key node and the
base edges it enables, and :meth:`~IncrementalHB.poll` adds the
chain edges, closes the graph and runs the derived-rule fixpoint.
There is one implementation of every rule; two things differ from the
batch order of operations, neither of which changes the final
relation:

* **Parked forward references.**  A batch build resolves ``fork →
  begin``, ``end → join`` and ``send → begin`` against the completed
  scan.  Online the partner op may not have arrived yet, so the base
  rules park the edge until it does.  The final edge set is
  identical.

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
    """One happens-before relation, grown record by record.

    Usage: :meth:`ingest` every op of ``trace`` in order as it arrives,
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

    def ingest(self, i: int) -> None:
        """Process ``trace[i]``; ops must be ingested in trace order."""
        if i != self._ingested:
            raise ValueError(
                f"out-of-order ingest: expected op {self._ingested}, got {i}"
            )
        self._ingested += 1
        state = self.state
        if not _scan(state, i, i + 1)[0]:
            return
        node = self.graph.add_node(i)
        task = state.op_task[i]
        nodes = self.task_key_nodes.setdefault(task, [])
        if nodes:
            self.graph.add_edge(nodes[-1], node, RULE_PROGRAM_ORDER)
        nodes.append(node)
        self.task_key_positions.setdefault(task, []).append(state.op_pos[i])
        self._base.step(i)

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
