"""Experiment P5 — the chunked sparse-bitset closure engine.

Two before/after claims, each pinned by a recorded bound in
``bounds_pr5.json``:

* **Memory.**  On the largest scaling workload (music at scale 0.5,
  seed 1), the chunked sparse representation must hold the transitive
  closure in at most ``max_closure_bytes`` — half of what the dense
  big-int representation it replaced needed on the same workload.  The
  copy-on-write chunk sharing between a node and its widest successor
  is where the win comes from, so the bound also guards the sharing
  discipline.

* **Repropagation.**  On a single-looper trace dense with events (the
  shape that made per-group dirty tracking coarse: every derived-rule
  group lives on the one looper, so one changed node used to re-read
  every group member), the per-event dirty sets must re-examine
  strictly fewer premises than group granularity would have, and no
  more than the recorded count.  The trace is hand-built, so the
  counters are deterministic by construction and the bound is exact.
"""

import json
from pathlib import Path

from repro.apps import MusicApp
from repro.hb import build_happens_before
from repro.testing import TraceBuilder

BOUNDS = json.loads(
    (Path(__file__).parent / "bounds_pr5.json").read_text(encoding="utf-8")
)



def huge_looper_trace(n_events: int):
    """One looper, ``n_events`` externally-sent events: every queue
    group of the derived-rule fixpoint lands on the same looper."""
    b = TraceBuilder()
    b.looper("L")
    b.thread("T")
    for i in range(n_events):
        b.event(f"E{i}", looper="L")
    b.begin("T")
    for i in range(n_events):
        b.send("T", f"E{i}", delay=i % 5)
    b.end("T")
    for i in range(n_events):
        b.begin(f"E{i}")
        b.write(f"E{i}", "x", site=f"w{i}")
        b.end(f"E{i}")
    return b.build()


def test_closure_memory_stays_under_recorded_bound(benchmark):
    """The chunked closure of the recorded workload must fit in
    ``max_closure_bytes`` (half the dense big-int baseline)."""
    bounds = BOUNDS["memory"]

    def build():
        run = MusicApp(scale=bounds["scale"], seed=bounds["seed"]).run()
        return build_happens_before(run.trace)

    hb = benchmark.pedantic(build, rounds=1, iterations=1)
    closure_bytes = hb.profile.closure_bytes
    assert hb.graph.node_count > 0 and closure_bytes > 0
    assert closure_bytes <= bounds["max_closure_bytes"]
    # The sharing discipline, not just sparsity, carries the bound.
    assert hb.profile.chunks_shared > 0
    benchmark.extra_info["key_nodes"] = hb.graph.node_count
    benchmark.extra_info["closure_bytes"] = closure_bytes


def test_per_event_dirty_tracking_beats_per_group(benchmark):
    """On the single-huge-looper trace the per-event dirty sets must
    re-examine strictly fewer fixpoint premises than per-group
    granularity would have — and exactly as few as when the bound was
    recorded (the hand-built trace is deterministic)."""
    bounds = BOUNDS["repropagation"]
    trace = huge_looper_trace(bounds["looper_events"])

    hb = benchmark.pedantic(
        lambda: build_happens_before(trace), rounds=1, iterations=1
    )
    profile = hb.profile
    assert profile.rounds >= 2  # the dirty rounds did real work
    assert profile.group_dirty_events > 0
    assert profile.events_repropagated < profile.group_dirty_events
    assert profile.events_repropagated <= bounds["max_events_repropagated"]
    benchmark.extra_info["events_repropagated"] = profile.events_repropagated
    benchmark.extra_info["group_dirty_events"] = profile.group_dirty_events
