"""Statistics about a happens-before relation.

``rule_counts`` attributes every edge of the key-node graph to the
model rule that created it — useful for understanding which parts of
the causality model do the work on a given trace (e.g. how many
orderings only exist because of the event-queue rules), and exposed by
the diagnostics in the CLI and EXPERIMENTS.md.

When the relation was produced by
:func:`repro.hb.builder.build_happens_before`, the stats also carry
the build's :class:`~repro.hb.builder.BuildProfile` — per-phase wall
times (scan, base edges, closure, fixpoint), derived edges per round,
the closure-work counters (full recomputations, bits propagated
incrementally) that make the incremental closure observable from
``python -m repro stats``, and the rule groups the fixpoint
evaluated.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..trace import TaskKind, Trace
from .builder import BuildProfile
from .graph import HappensBefore, QueryProfile


@dataclass
class HBStats:
    """Summary of one happens-before construction."""

    key_nodes: int
    edges: int
    rule_counts: Dict[str, int]
    fixpoint_iterations: int
    derived_edges: int
    events: int
    loopers: int
    threads: int
    #: full transitive-closure rebuilds (1 for an incremental build)
    closure_recomputations: int = 0
    #: reachability bits set by incremental closure propagation
    bits_propagated: int = 0
    #: derived edges applied per fixpoint round
    edges_per_round: List[int] = field(default_factory=list)
    #: per-phase timings of the build, when available
    profile: Optional[BuildProfile] = None
    #: query-side work counters (prefix masks, memoization)
    query_profile: Optional[QueryProfile] = None

    def build_section(self) -> Dict[str, object]:
        """The ``build`` section of the ``repro-stats/1`` document
        (:mod:`repro.obs.statsdoc`) — stable keys, JSON-safe values."""
        from dataclasses import asdict

        return {
            "key_nodes": self.key_nodes,
            "edges": self.edges,
            "rule_counts": dict(sorted(self.rule_counts.items())),
            "fixpoint_iterations": self.fixpoint_iterations,
            "derived_edges": self.derived_edges,
            "events": self.events,
            "loopers": self.loopers,
            "threads": self.threads,
            "closure_recomputations": self.closure_recomputations,
            "bits_propagated": self.bits_propagated,
            "edges_per_round": list(self.edges_per_round),
            "profile": asdict(self.profile) if self.profile else None,
        }

    def format(self) -> str:
        lines = [
            f"happens-before graph: {self.key_nodes} key nodes, "
            f"{self.edges} edges "
            f"({self.fixpoint_iterations} fixpoint rounds, "
            f"{self.derived_edges} derived edges)",
            f"tasks: {self.events} events, {self.loopers} loopers, "
            f"{self.threads} threads",
        ]
        lines.append(
            f"closure work: {self.closure_recomputations} full "
            f"recomputation(s), {self.bits_propagated} bits propagated "
            "incrementally"
        )
        if self.profile is not None:
            p = self.profile
            lines.append(
                f"closure storage [chunked sparse]: {p.closure_bytes} bytes, "
                f"{p.chunks_allocated} chunks allocated, "
                f"{p.chunks_shared} shared (copy-on-write), "
                f"{p.dense_chunk_ratio:.0%} dense"
            )
        if self.edges_per_round:
            lines.append(
                "derived edges per round: "
                + ", ".join(str(n) for n in self.edges_per_round)
            )
        if self.profile is not None:
            p = self.profile
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
        if self.query_profile is not None:
            q = self.query_profile
            path = "prefix-mask+memo" if q.fast else "bit-scan (streaming view)"
            lines.append(
                f"query path [{path}]: {q.queries} queries "
                f"({q.same_task} same-task, {q.batched_pairs} batched), "
                f"memo {q.memo_hits} hits / {q.memo_misses} misses "
                f"({q.memo_hit_rate:.0%} hit rate)"
            )
            cap = "unbounded" if q.memo_capacity is None else str(q.memo_capacity)
            lines.append(
                f"memo bound: {cap} entries/table, "
                f"{q.memo_evictions} evictions"
            )
            lines.append(
                f"prefix masks: {q.mask_tasks} tasks materialized, "
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
    profile = hb.profile if isinstance(hb.profile, BuildProfile) else None
    return HBStats(
        key_nodes=hb.graph.node_count,
        edges=hb.graph.edge_count,
        rule_counts=dict(counts),
        fixpoint_iterations=hb.iterations,
        derived_edges=hb.derived_edges,
        events=kinds.get(TaskKind.EVENT, 0),
        loopers=kinds.get(TaskKind.LOOPER, 0),
        threads=kinds.get(TaskKind.THREAD, 0),
        closure_recomputations=hb.graph.closure_recomputations,
        bits_propagated=hb.graph.bits_propagated,
        edges_per_round=list(profile.edges_per_round) if profile else [],
        profile=profile,
        query_profile=getattr(hb, "query_profile", None),
    )
