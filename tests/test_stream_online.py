"""Online ≡ offline differential: replaying every stock app's trace
record-by-record through :class:`~repro.stream.StreamAnalyzer` must
reproduce the batch pipeline's race reports byte-for-byte — with epoch
GC enabled and disabled, and with provisional detections at arbitrary
points — and :class:`~repro.stream.IncrementalHB`, which drives the
batch builder's passes over op ranges, must build the batch graph's
edges, in the same order whatever the ranges."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import soak_trace
from repro.apps import ALL_APPS, make_app
from repro.detect import UseFreeDetector
from repro.hb import (
    CAFA_MODEL,
    CONVENTIONAL_MODEL,
    RULE_PROGRAM_ORDER,
    build_happens_before,
)
from repro.stream import IncrementalHB, StreamAnalyzer

from tests.test_property_runtime_hb import program_specs, run_program

SCALE = 0.02
SEED = 1
APP_NAMES = [app.name for app in ALL_APPS]

_TRACES = {}
_OFFLINE = {}


def app_trace(name):
    if name not in _TRACES:
        _TRACES[name] = make_app(name, scale=SCALE, seed=SEED).run().trace
    return _TRACES[name]


def offline_reports(name):
    if name not in _OFFLINE:
        detector = UseFreeDetector(app_trace(name))
        _OFFLINE[name] = [str(r) for r in detector.detect().reports]
    return _OFFLINE[name]


@pytest.mark.parametrize("name", APP_NAMES)
def test_online_matches_offline_with_gc(name):
    result = soak_trace(app_trace(name), name=name, gc=True)
    assert result.online == result.offline, result.format()
    assert result.profile.ops_ingested == len(app_trace(name))
    # A complete session quiesces at its final END, retiring the
    # (single) epoch; GC must not change the verdict.
    assert result.profile.epochs_retired >= 1


@pytest.mark.parametrize("name", APP_NAMES)
def test_online_matches_offline_without_gc(name):
    result = soak_trace(app_trace(name), name=name, gc=False)
    assert result.online == result.offline, result.format()
    assert result.profile.epochs_retired == 0


def test_soak_profile_counters_are_sane():
    result = soak_trace(app_trace("connectbot"), name="connectbot")
    profile = result.profile
    assert profile.records_ingested >= profile.ops_ingested > 0
    assert profile.polls > 0
    assert profile.peak_closure_bytes >= profile.closure_bytes >= 0
    assert profile.reports_emitted == len(result.online)
    # format() renders every counter for the CLI.
    rendered = profile.format()
    assert "records ingested" in rendered
    assert "peak closure bytes" in rendered


def edge_triples(graph):
    return {(graph.op_of(u), graph.op_of(v), rule) for u, v, rule in graph.edges()}


@pytest.mark.parametrize(
    "model", [CAFA_MODEL, CONVENTIONAL_MODEL], ids=["cafa", "conventional"]
)
@pytest.mark.parametrize("name", APP_NAMES)
def test_ingested_edges_match_the_batch_build(name, model):
    """Every op ingested, one poll: the base edges — forward references
    parked until their partner arrived — equal the batch build's direct
    lookups, and the shared fixpoint derives the same edges on top."""
    trace = app_trace(name)
    batch = build_happens_before(trace, model)
    online = IncrementalHB(trace, model)
    online.ingest(0, len(trace))
    online.poll()
    offline = edge_triples(batch.graph)
    # the batch build's node at a task's last op when that op is not a
    # key op, which the stream never creates
    trailing = {e for e in offline if not online.graph.has_node(e[1])}
    assert {rule for _, _, rule in trailing} <= {RULE_PROGRAM_ORDER}
    assert edge_triples(online.graph) == offline - trailing


@pytest.mark.parametrize(
    "model", [CAFA_MODEL, CONVENTIONAL_MODEL], ids=["cafa", "conventional"]
)
@pytest.mark.parametrize("name", APP_NAMES)
def test_one_range_adds_edges_in_the_per_op_order(name, model):
    """A whole-trace range scans partners before they have nodes; the
    base rules park those edges, so the graph gets the edges, in the
    same insertion order, and the same closure as op-by-op ranges."""
    trace = app_trace(name)
    whole, per_op = IncrementalHB(trace, model), IncrementalHB(trace, model)
    whole.ingest(0, len(trace))
    for i in range(len(trace)):
        per_op.ingest(i, i + 1)
    whole.poll()
    per_op.poll()
    assert list(whole.graph.edges()) == list(per_op.graph.edges())
    assert whole.closure_bytes() == per_op.closure_bytes()


def test_ranges_must_follow_each_other():
    online = IncrementalHB(app_trace("connectbot"))
    online.ingest(0, 5)
    with pytest.raises(ValueError):
        online.ingest(6, 8)
    with pytest.raises(ValueError):
        online.ingest(5, 4)
    online.ingest(5, 5)
    online.ingest(5, 8)


@settings(max_examples=12, deadline=None)
@given(
    name=st.sampled_from(APP_NAMES),
    cuts=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=3),
    gc=st.booleans(),
)
def test_detect_now_anywhere_keeps_the_offline_reports(name, cuts, gc):
    """Provisional detections close the live graph mid-stream; the ops
    after them extend it edge by edge, and the session still ends with
    the offline reports."""
    trace = app_trace(name)
    analyzer = StreamAnalyzer(gc=gc)
    for info in trace.tasks.values():
        analyzer.add_task(info)
    stops = {cut % len(trace) for cut in cuts}
    for i, op in enumerate(trace):
        analyzer.append(op)
        if i in stops:
            analyzer.detect_now()
    assert [str(r) for r in analyzer.finish()] == offline_reports(name)


@settings(max_examples=30, deadline=None)
@given(
    spec=program_specs(),
    cuts=st.lists(st.integers(min_value=0, max_value=10_000), max_size=3),
)
def test_polls_anywhere_end_with_the_batch_relation(spec, cuts):
    """Polls between ingests (closing the graph early, re-running the
    chain edges and the fixpoint over a live closure) end with the
    batch relation on every pair of a generated program's ops."""
    trace = run_program(spec)
    if len(trace) > 120:  # keep the all-pairs sweep tractable
        return
    online = IncrementalHB(trace, CAFA_MODEL)
    stops = {cut % len(trace) for cut in cuts}
    for i in range(len(trace)):
        online.ingest(i, i + 1)
        if i in stops:
            online.poll()
    online.poll()
    streamed, batch = online.relation(), build_happens_before(trace)
    n = len(trace)
    for i in range(n):
        for j in range(n):
            assert streamed.ordered(i, j) == batch.ordered(i, j), (i, j)
