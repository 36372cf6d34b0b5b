"""Statistics about a happens-before relation.

``rule_counts`` attributes every edge of the key-node graph to the
model rule that created it — useful for understanding which parts of
the causality model do the work on a given trace (e.g. how many
orderings only exist because of the event-queue rules), and exposed by
the diagnostics in the CLI and EXPERIMENTS.md.

The stats also carry the relation's
:class:`~repro.hb.builder.BuildProfile` — per-phase wall times (scan,
base edges, closure, fixpoint), derived edges per round, the
closure-work counters (full recomputations, bits propagated
incrementally) that make the incremental closure observable from
``python -m repro stats``, and the rule groups the fixpoint evaluated
— and its :class:`~repro.hb.graph.QueryProfile`.  Both are read, not
copied: each count is held once, in its profile.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from typing import Dict

from ..trace import TaskKind, Trace
from .builder import BuildProfile
from .graph import DEFAULT_MEMO_CAPACITY, HappensBefore, QueryProfile


@dataclass
class HBStats:
    """Summary of one happens-before construction."""

    key_nodes: int
    edges: int
    rule_counts: Dict[str, int]
    events: int
    loopers: int
    threads: int
    #: the build's phase timings and closure-work counters
    profile: BuildProfile
    #: query-side work counters (task ranges, memoization)
    query_profile: QueryProfile

    @property
    def fixpoint_iterations(self) -> int:
        return self.profile.rounds

    @property
    def derived_edges(self) -> int:
        return sum(self.profile.edges_per_round)

    def build_section(self) -> Dict[str, object]:
        """The ``build`` section of the ``repro-stats/1`` document
        (:mod:`repro.obs.statsdoc`) — stable keys, JSON-safe values."""
        p = self.profile
        return {
            "key_nodes": self.key_nodes,
            "edges": self.edges,
            "rule_counts": dict(sorted(self.rule_counts.items())),
            "fixpoint_iterations": self.fixpoint_iterations,
            "derived_edges": self.derived_edges,
            "events": self.events,
            "loopers": self.loopers,
            "threads": self.threads,
            "closure_recomputations": p.closure_recomputations,
            "bits_propagated": p.bits_propagated,
            "edges_per_round": list(p.edges_per_round),
            "profile": asdict(p),
        }

    def format(self) -> str:
        p = self.profile
        lines = [
            f"happens-before graph: {self.key_nodes} key nodes, "
            f"{self.edges} edges "
            f"({self.fixpoint_iterations} fixpoint rounds, "
            f"{self.derived_edges} derived edges)",
            f"tasks: {self.events} events, {self.loopers} loopers, "
            f"{self.threads} threads",
        ]
        lines.append(
            f"closure work: {p.closure_recomputations} full "
            f"recomputation(s), {p.bits_propagated} bits propagated "
            "incrementally"
        )
        lines.append(
            f"closure storage [chunked sparse]: {p.closure_bytes} bytes, "
            f"{p.chunks_allocated} chunks allocated, "
            f"{p.chunks_shared} shared (copy-on-write), "
            f"{p.dense_chunk_ratio:.0%} dense"
        )
        if p.edges_per_round:
            lines.append(
                "derived edges per round: "
                + ", ".join(str(n) for n in p.edges_per_round)
            )
        lines.append(
            "phase timings: "
            f"scan {p.scan_seconds * 1e3:.1f} ms, "
            f"base edges {p.base_seconds * 1e3:.1f} ms, "
            f"closure {p.closure_seconds * 1e3:.1f} ms, "
            f"fixpoint {p.fixpoint_seconds * 1e3:.1f} ms "
            f"(total {p.total_seconds * 1e3:.1f} ms)"
        )
        if p.groups_examined:
            lines.append(f"fixpoint groups: {p.groups_examined} examined")
        q = self.query_profile
        lines.append(
            f"query path: {q.queries} queries "
            f"({q.same_task} same-task, {q.batched_pairs} batched), "
            f"memo {q.memo_hits} hits / {q.memo_misses} misses "
            f"({q.memo_hit_rate:.0%} hit rate)"
        )
        lines.append(
            f"memo bound: {DEFAULT_MEMO_CAPACITY} entries, "
            f"{q.memo_evictions} evictions"
        )
        lines.append(
            f"task ranges: {q.mask_tasks} tasks resolved, "
            f"{q.mask_bytes} bytes"
        )
        lines.append("edges by rule:")
        for rule, count in sorted(
            self.rule_counts.items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"  {rule:<16} {count}")
        return "\n".join(lines)


def hb_stats(trace: Trace, hb: HappensBefore) -> HBStats:
    """Compute rule-attribution statistics for a built relation."""
    counts: Counter = Counter()
    for _u, _v, rule in hb.graph.edges():
        counts[rule] += 1
    kinds = Counter(info.task_kind for info in trace.tasks.values())
    return HBStats(
        key_nodes=hb.graph.node_count,
        edges=hb.graph.edge_count,
        rule_counts=dict(counts),
        events=kinds.get(TaskKind.EVENT, 0),
        loopers=kinds.get(TaskKind.LOOPER, 0),
        threads=kinds.get(TaskKind.THREAD, 0),
        profile=hb.profile,
        query_profile=hb.query_profile,
    )
