"""Online ≡ offline differential: replaying every stock app's trace
record-by-record through :class:`~repro.stream.StreamAnalyzer` must
reproduce the batch pipeline's race reports byte-for-byte — with epoch
GC enabled and disabled, and with provisional detections at arbitrary
points — and :class:`~repro.stream.IncrementalHB`, which scans op
ranges and builds with the batch builder's function when polled, must
hold the batch graph of the ops so far after every poll."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import soak_trace
from repro.apps import ALL_APPS, make_app
from repro.detect import UseFreeDetector
from repro.hb import CAFA_MODEL, CONVENTIONAL_MODEL, build_happens_before
from repro.stream import IncrementalHB, StreamAnalyzer
from repro.trace import Trace, dumps_trace

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


def closure_fields(profile):
    """The four closure-storage fields of a build profile."""
    return (
        profile.closure_bytes,
        profile.chunks_allocated,
        profile.chunks_shared,
        profile.dense_chunk_ratio,
    )


def edge_triples(graph):
    return {(graph.op_of(u), graph.op_of(v), rule) for u, v, rule in graph.edges()}


@pytest.mark.parametrize(
    "model", [CAFA_MODEL, CONVENTIONAL_MODEL], ids=["cafa", "conventional"]
)
@pytest.mark.parametrize("name", APP_NAMES)
def test_ingested_edges_match_the_batch_build(name, model):
    """Every op ingested, one poll: the streamed graph has the batch
    build's edges, trailing nodes included."""
    trace = app_trace(name)
    batch = build_happens_before(trace, model)
    online = IncrementalHB(trace, model)
    online.ingest(0, len(trace))
    online.poll()
    assert edge_triples(online.graph) == edge_triples(batch.graph)


@pytest.mark.parametrize(
    "model", [CAFA_MODEL, CONVENTIONAL_MODEL], ids=["cafa", "conventional"]
)
@pytest.mark.parametrize("name", APP_NAMES)
def test_a_streamed_profile_sizes_the_closure_as_the_batch_build(name, model):
    """A polled relation's profile reports the batch build's closure
    storage, measured when it is first read."""
    trace = app_trace(name)
    batch = build_happens_before(trace, model)
    online = IncrementalHB(trace, model)
    online.ingest(0, len(trace))
    online.poll()
    assert online.profile.closure_bytes > 0
    assert closure_fields(online.profile) == closure_fields(batch.profile)


@pytest.mark.parametrize(
    "model", [CAFA_MODEL, CONVENTIONAL_MODEL], ids=["cafa", "conventional"]
)
@pytest.mark.parametrize("name", APP_NAMES)
def test_one_range_adds_edges_in_the_per_op_order(name, model):
    """A whole-trace range and op-by-op ranges leave the same scan, so
    the poll builds the edges, in the same insertion order, and the
    same closure."""
    trace = app_trace(name)
    whole, per_op = IncrementalHB(trace, model), IncrementalHB(trace, model)
    whole.ingest(0, len(trace))
    for i in range(len(trace)):
        per_op.ingest(i, i + 1)
    whole.poll()
    per_op.poll()
    assert list(whole.graph.edges()) == list(per_op.graph.edges())
    assert closure_fields(whole.profile) == closure_fields(per_op.profile)


def test_ingest_only_scans():
    """Ingest adds no node or edge; the poll builds the graph."""
    trace = app_trace("connectbot")
    online = IncrementalHB(trace)
    online.poll()
    empty = online.graph
    online.ingest(0, len(trace))
    assert online.graph is empty
    assert empty.node_count == 0 and empty.edge_count == 0
    online.poll()
    assert online.graph.node_count > 0
    built = online.relation()
    online.poll()  # nothing new ingested: the relation is kept
    assert online.relation() is built


def prefix_build(trace, stop, model):
    """The batch relation of ``trace``'s first ``stop`` ops."""
    prefix = Trace([trace[i] for i in range(stop)], tasks=trace.tasks)
    return build_happens_before(prefix, model)


def assert_same_build(streamed, batch):
    a, b = streamed.graph, batch.graph
    assert [a.op_of(n) for n in range(a.node_count)] == [
        b.op_of(n) for n in range(b.node_count)
    ]
    assert list(a.edges()) == list(b.edges())
    assert streamed.iterations == batch.iterations
    assert streamed.derived_edges == batch.derived_edges
    assert closure_fields(streamed.profile) == closure_fields(batch.profile)


def assert_polls_build_the_prefix_relation(trace, cuts, model):
    online = IncrementalHB(trace, model)
    start = 0
    for stop in sorted({cut % (len(trace) + 1) for cut in cuts} | {len(trace)}):
        online.ingest(start, stop)
        online.poll()
        assert_same_build(online.relation(), prefix_build(trace, stop, model))
        start = stop


@settings(max_examples=25, deadline=None)
@given(
    spec=program_specs(),
    cuts=st.lists(st.integers(min_value=0, max_value=10_000), max_size=4),
    model=st.sampled_from([CAFA_MODEL, CONVENTIONAL_MODEL]),
)
def test_every_poll_builds_the_batch_graph_of_a_program(spec, cuts, model):
    """After every poll, at any cut points, the streamed graph is the
    batch build of the same ops: node-to-op map, edges in insertion
    order, rounds, derived edges and closure bytes."""
    assert_polls_build_the_prefix_relation(run_program(spec), cuts, model)


@settings(max_examples=10, deadline=None)
@given(
    name=st.sampled_from(APP_NAMES),
    cuts=st.lists(st.integers(min_value=0, max_value=10_000), max_size=3),
)
def test_every_poll_builds_the_batch_graph_of_an_app(name, cuts):
    assert_polls_build_the_prefix_relation(app_trace(name), cuts, CAFA_MODEL)


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
    """Provisional detections build the graph mid-stream; the next
    poll builds it again over the later ops too, and the session still
    ends with the offline reports."""
    lines = dumps_trace(app_trace(name), version=2).splitlines(keepends=True)
    analyzer = StreamAnalyzer(gc=gc)
    stops = {cut % len(lines) for cut in cuts}
    for i, line in enumerate(lines):
        analyzer.feed(line)
        if i in stops:
            analyzer.detect_now()
    assert [str(r) for r in analyzer.finish()] == offline_reports(name)


@settings(max_examples=30, deadline=None)
@given(
    spec=program_specs(),
    cuts=st.lists(st.integers(min_value=0, max_value=10_000), max_size=3),
)
def test_polls_anywhere_end_with_the_batch_relation(spec, cuts):
    """Polls between ingests end with the batch relation on every
    pair of a generated program's ops."""
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
