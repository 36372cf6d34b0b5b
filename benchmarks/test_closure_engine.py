"""Experiment P5 — the chunked sparse-bitset closure engine.

Two claims, each pinned by a recorded bound in ``bounds_pr5.json``:

* **Memory.**  On the largest scaling workload (music at scale 0.5,
  seed 1), the chunked sparse representation must hold the transitive
  closure in at most ``max_closure_bytes`` — half of what the dense
  big-int representation it replaced needed on the same workload.  The
  copy-on-write chunk sharing between a node and its widest successor
  is where the win comes from, so the bound also guards the sharing
  discipline.

* **Fixpoint share.**  On the same workload, the derived-rule fixpoint
  must cost at most ``max_fixpoint_over_rest`` times the rest of the
  build.  Nearly every rule premise there is already implied, so a
  fixpoint that probes the closure pair by pair costs many times the
  closure itself, and one whose work follows its output costs less
  than it.  A ratio of phase times from one build cancels most of a
  shared host's speed drift, which an absolute time would not.
"""

import json
from pathlib import Path

from repro.apps import MusicApp
from repro.hb import build_happens_before

BOUNDS = json.loads(
    (Path(__file__).parent / "bounds_pr5.json").read_text(encoding="utf-8")
)


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


def test_fixpoint_stays_a_bounded_share_of_the_build(benchmark):
    """On the same workload, the derived-rule fixpoint may take at
    most ``max_fixpoint_over_rest`` times the rest of the build (scan,
    base edges and closure).  A fixpoint that enumerates the pairs the
    closure already orders took 16-46x there; one projection pass per
    round takes about 0.3x."""
    memory = BOUNDS["memory"]
    bound = BOUNDS["fixpoint"]["max_fixpoint_over_rest"]
    trace = MusicApp(scale=memory["scale"], seed=memory["seed"]).run().trace

    hb = benchmark.pedantic(
        lambda: build_happens_before(trace), rounds=1, iterations=1
    )
    profile = hb.profile
    rest = profile.scan_seconds + profile.base_seconds + profile.closure_seconds
    ratio = profile.fixpoint_seconds / rest
    benchmark.extra_info["fixpoint_seconds"] = profile.fixpoint_seconds
    benchmark.extra_info["rest_seconds"] = rest
    benchmark.extra_info["fixpoint_over_rest"] = ratio
    assert ratio <= bound, (
        f"fixpoint took {ratio:.2f}x the rest of the build "
        f"({profile.fixpoint_seconds:.3f}s vs {rest:.3f}s), bound {bound}x"
    )
