"""The daemon's live telemetry: router metrics snapshots, the
/metrics and /status.json endpoints of a running `repro serve`,
disabled mode, and report fidelity with telemetry on vs. off."""

import json
import os
import socket
import threading
import time
import urllib.error

import pytest

from repro.apps import ALL_APPS, make_app
from repro.cli import main
from repro.obs.export import (
    MetricsServer,
    MetricsSnapshot,
    read_status_socket,
    scrape_http,
)
from repro.stream import SessionRouter, concat_sessions
from repro.trace import (
    dumps_trace,
    dumps_trace_bytes,
    encode_finish_frame,
    encode_mux_header,
    encode_session,
)
from tests.test_stream_service import cross_epoch_trace

SCALE = 0.02
SEED = 1

#: metric families a metrics-enabled daemon must export (the catalog
#: in docs/observability.md; CI asserts the same set mid-soak)
REQUIRED_FAMILIES = {
    "repro_router_frames_total",
    "repro_router_bytes_total",
    "repro_router_sessions_total",
    "repro_router_shards",
    "repro_shard_sessions_active",
    "repro_shard_sessions_finished_total",
    "repro_shard_sessions_failed_total",
    "repro_shard_frames_handled_total",
    "repro_shard_ops_ingested_total",
    "repro_shard_records_ingested_total",
    "repro_shard_epochs_retired_total",
    "repro_shard_reports_emitted_total",
    "repro_shard_closure_bytes",
    "repro_feed_latency_seconds",
}

_PAYLOAD = {}


def one_payload() -> bytes:
    if not _PAYLOAD:
        trace = make_app("connectbot", scale=SCALE, seed=SEED).run().trace
        _PAYLOAD["bytes"] = dumps_trace_bytes(trace)
    return _PAYLOAD["bytes"]


def mux_stream(sessions, payload) -> bytes:
    buf = bytearray(encode_mux_header())
    for sid in sessions:
        for frame in encode_session(sid, payload, chunk_size=4096):
            buf += frame
    return bytes(buf)


def families_of(snapshot) -> set:
    keys = (
        list(snapshot.counters)
        + list(snapshot.gauges)
        + list(snapshot.histograms)
    )
    return {key.split("{", 1)[0] for key in keys}


class TestRouterMetricsSnapshot:
    def test_inline_router_exports_the_required_families(self):
        router = SessionRouter(0, metrics=True)
        router.feed(mux_stream(["a", "b"], one_payload()))
        snap = router.metrics_snapshot()
        missing = (REQUIRED_FAMILIES - {"repro_shard_queue_depth"}) - (
            families_of(snap)
        )
        assert not missing, f"families missing from the snapshot: {missing}"
        router.drain()

    def test_counters_are_monotonic_across_scrapes(self):
        router = SessionRouter(0, metrics=True)
        payload = one_payload()
        router.feed(mux_stream(["a"], payload))
        first = router.metrics_snapshot()
        router.feed(mux_stream(["b"], payload)[len(encode_mux_header()):])
        second = router.metrics_snapshot()
        for key, value in first.counters.items():
            assert second.counters[key] >= value, key
        assert (
            second.counters["repro_router_frames_total"]
            > first.counters["repro_router_frames_total"]
        )
        router.drain()

    def test_feed_latency_histogram_counts_data_frames(self):
        router = SessionRouter(0, metrics=True)
        router.feed(mux_stream(["a"], one_payload()))
        snap = router.metrics_snapshot()
        hist = snap.histograms["repro_feed_latency_seconds"]
        assert hist.count > 0
        assert hist.sum >= 0
        router.drain()

    def test_metrics_off_reports_router_counters_only(self):
        router = SessionRouter(0, metrics=False)
        router.feed(mux_stream(["a"], one_payload()))
        snap = router.metrics_snapshot()
        assert "repro_router_frames_total" in snap.counters
        assert not snap.histograms
        assert not any(
            name.startswith("repro_shard_") for name in families_of(snap)
        )
        router.drain()

    def test_drained_counters_agree_with_the_report(self):
        """Every counter the shards export equals the drained report's:
        the five stream counters its merged profile holds, and the
        finished plus failed sessions its session table lists."""
        trace = make_app("connectbot", scale=SCALE, seed=SEED).run().trace
        payloads = {
            "plain": one_payload(),
            "copies": dumps_trace_bytes(concat_sessions(trace, 3)),
            "crossing": dumps_trace(cross_epoch_trace()).encode("utf-8"),
        }
        buf = bytearray(encode_mux_header())
        for sid, payload in payloads.items():
            for frame in encode_session(sid, payload, chunk_size=4096):
                buf += frame
        router = SessionRouter(0, metrics=True)
        router.feed(bytes(buf))
        report = router.drain()
        snap = router.metrics_snapshot()
        merged = report.merged
        assert merged.epochs_retired > 3  # the copies retire epochs
        assert merged.cross_epoch_accesses > 0
        shard = '{shard="0"}'
        for name in ("ops_ingested", "records_ingested", "epochs_retired",
                     "reports_emitted", "cross_epoch_accesses"):
            exported = snap.counters[f"repro_shard_{name}_total{shard}"]
            assert exported == getattr(merged, name), name
        closed = (
            snap.counters[f"repro_shard_sessions_finished_total{shard}"]
            + snap.counters[f"repro_shard_sessions_failed_total{shard}"]
        )
        assert closed == len(report.sessions) == len(payloads)

    def test_sharded_router_ships_telemetry(self):
        router = SessionRouter(2, metrics=True, telemetry_interval=0.01)
        payload = one_payload()
        stream = mux_stream([f"s-{k}" for k in range(4)], payload)
        for i in range(0, len(stream), 4096):
            router.feed(stream[i:i + 4096])
            time.sleep(0.002)
        deadline = time.monotonic() + 10.0
        families = set()
        while time.monotonic() < deadline:
            families = families_of(router.metrics_snapshot())
            if "repro_shard_ops_ingested_total" in families:
                break
            time.sleep(0.05)
        assert "repro_shard_ops_ingested_total" in families
        assert "repro_shard_queue_bound" in families
        report = router.drain()
        assert len(report.sessions) == 4


class TestMetricsServer:
    def test_scrapes_prometheus_and_json(self):
        snap = MetricsSnapshot()
        snap.counter("repro_test_total", 7.0, help="a counter")
        server = MetricsServer(lambda: snap)
        try:
            text = scrape_http(server.url, "/metrics")
            assert "# TYPE repro_test_total counter" in text
            assert "repro_test_total 7" in text
            doc = scrape_http(server.url, "/status.json")
            assert doc["schema"] == "repro-metrics/1"
            assert doc["counters"]["repro_test_total"] == 7.0
        finally:
            server.stop()

    def test_unknown_path_is_404(self):
        server = MetricsServer(lambda: MetricsSnapshot())
        try:
            with pytest.raises(urllib.error.HTTPError) as ei:
                scrape_http(server.url, "/nope")
            assert ei.value.code == 404
        finally:
            server.stop()

    def test_provider_errors_surface_as_500(self):
        def broken():
            raise RuntimeError("snapshot failed")

        server = MetricsServer(broken)
        try:
            with pytest.raises(urllib.error.HTTPError) as ei:
                scrape_http(server.url, "/metrics")
            assert ei.value.code == 500
        finally:
            server.stop()


def _free_port() -> int:
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _upload(path, sid, payload, finish=False, frame_sleep=0.0):
    client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    client.connect(path)
    try:
        client.sendall(encode_mux_header())
        if payload:
            for frame in encode_session(sid, payload, chunk_size=2048):
                client.sendall(frame)
                if frame_sleep:
                    time.sleep(frame_sleep)
        if finish:
            client.sendall(encode_finish_frame())
    finally:
        client.close()


class TestLiveServeScrape:
    """Scrape a live `repro serve --metrics-port` mid-run: the
    required families are present, counters are monotonic between
    scrapes, and the status socket serves the same document."""

    def test_mid_run_scrape(self, tmp_path, capsys):
        sock_path = str(tmp_path / "serve.sock")
        status_path = str(tmp_path / "status.sock")
        port = _free_port()
        outcome = {}

        def run():
            outcome["rc"] = main([
                "serve", "--socket", sock_path, "--shards", "0",
                "--metrics-port", str(port),
                "--status-socket", status_path,
            ])

        server = threading.Thread(target=run)
        server.start()
        try:
            deadline = time.monotonic() + 10.0
            while not os.path.exists(sock_path) and (
                time.monotonic() < deadline
            ):
                time.sleep(0.05)
            payload = one_payload()
            uploader = threading.Thread(
                target=_upload,
                args=(sock_path, "live-1", payload),
                kwargs={"frame_sleep": 0.005},
            )
            uploader.start()
            url = f"http://127.0.0.1:{port}"
            time.sleep(0.2)
            first = scrape_http(url, "/status.json")
            text = scrape_http(url, "/metrics")
            for family in ("repro_router_frames_total",
                           "repro_connections_total",
                           "repro_shard_sessions_active"):
                assert f"# TYPE {family} " in text, family
            uploader.join()
            second = scrape_http(url, "/status.json")
            for key, value in first["counters"].items():
                assert second["counters"].get(key, 0.0) >= value, key
            status = read_status_socket(status_path)
            assert status["schema"] == "repro-metrics/1"
            assert status["counters"]["repro_connections_total"] >= 1
        finally:
            _upload(sock_path, "fin", b"", finish=True)
            server.join(timeout=60)
        assert outcome.get("rc") == 0
        capsys.readouterr()

    def test_no_metrics_registers_nothing(self, tmp_path, capsys):
        sock_path = str(tmp_path / "serve.sock")
        port = _free_port()
        outcome = {}

        def run():
            outcome["rc"] = main([
                "serve", "--socket", sock_path, "--shards", "0",
                "--metrics-port", str(port), "--no-metrics",
            ])

        server = threading.Thread(target=run)
        server.start()
        try:
            deadline = time.monotonic() + 10.0
            while not os.path.exists(sock_path) and (
                time.monotonic() < deadline
            ):
                time.sleep(0.05)
            _upload(sock_path, "quiet-1", one_payload())
            text = scrape_http(f"http://127.0.0.1:{port}", "/metrics")
            # Router- and transport-level counters cost nothing and
            # stay; per-shard instrumentation must be absent.
            assert "repro_router_frames_total" in text
            assert "repro_feed_latency_seconds" not in text
            assert "repro_shard_sessions_active" not in text
        finally:
            _upload(sock_path, "fin", b"", finish=True)
            server.join(timeout=60)
        assert outcome.get("rc") == 0
        capsys.readouterr()


class TestTelemetryFidelity:
    """The acceptance bar: session reports are byte-identical with
    telemetry on and off, across all ten apps."""

    def test_ten_app_reports_identical_on_and_off(self):
        payloads = {}
        for i, app in enumerate(ALL_APPS):
            trace = make_app(app.name, scale=SCALE, seed=SEED).run().trace
            payloads[app.name] = (
                dumps_trace_bytes(trace)
                if i % 2
                else dumps_trace(trace).encode("utf-8")
            )
        buf = bytearray(encode_mux_header())
        for sid in sorted(payloads):
            for frame in encode_session(sid, payloads[sid], chunk_size=4096):
                buf += frame
        stream = bytes(buf)

        def run(metrics):
            router = SessionRouter(0, metrics=metrics)
            router.feed(stream)
            report = router.drain()
            return {
                sid: json.dumps(rep.as_dict(), sort_keys=True)
                for sid, rep in report.sessions.items()
            }

        enabled = run(True)
        disabled = run(False)
        assert enabled == disabled
