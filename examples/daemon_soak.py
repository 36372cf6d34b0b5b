#!/usr/bin/env python
"""Daemon soak: drive `repro serve` over a Unix socket end to end.

Spawns the sharded daemon as a subprocess listening on a socket with
its ``--metrics-port`` endpoint up, uploads three synthetic sessions
concurrently (each its own connection, each wrapped in the cafa-mux
session envelope), scrapes ``/status.json`` mid-soak until the
session counters settle, sends a FINISH frame, and checks the drained
report: three sessions, no errors, every per-session report set
identical to a single-process ``StreamAnalyzer`` run of the same
bytes, and every scraped shard counter (finished sessions plus the
five stream counters) equal to what the final ``DaemonReport``
records.

This is the CI smoke for the serve path; it exits non-zero on any
divergence.

Run with:  PYTHONPATH=src python examples/daemon_soak.py
"""

import json
import os
import socket
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request

from repro.apps import make_app
from repro.stream import StreamAnalyzer
from repro.trace import (
    dumps_trace_bytes,
    encode_finish_frame,
    encode_mux_header,
    encode_session,
)

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.02"))
SESSIONS = 3
SHARDS = 2


def free_port() -> int:
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def scrape_status(port: int) -> dict:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/status.json", timeout=10
    ) as response:
        return json.loads(response.read().decode("utf-8"))


def counter_total(doc: dict, name: str) -> float:
    """Sum a counter family across its shard-labeled samples."""
    return sum(
        value
        for key, value in doc.get("counters", {}).items()
        if key.split("{", 1)[0] == name
    )


def upload(path: str, sid: str, payload: bytes, finish: bool) -> None:
    client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    client.connect(path)
    try:
        client.sendall(encode_mux_header())
        if payload:
            for frame in encode_session(sid, payload, chunk_size=4096):
                client.sendall(frame)
        if finish:
            client.sendall(encode_finish_frame())
    finally:
        client.close()


def main() -> int:
    trace = make_app("connectbot", scale=SCALE, seed=1).run().trace
    payload = dumps_trace_bytes(trace)

    analyzer = StreamAnalyzer()
    analyzer.feed(payload)
    expected = [str(r) for r in analyzer.finish()]

    with tempfile.TemporaryDirectory() as tmp:
        sock_path = os.path.join(tmp, "cafa.sock")
        json_path = os.path.join(tmp, "daemon.json")
        metrics_port = free_port()
        daemon = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--socket", sock_path,
                "--shards", str(SHARDS),
                "--json", json_path,
                "--metrics-port", str(metrics_port),
            ],
        )
        try:
            for _ in range(100):
                if os.path.exists(sock_path):
                    break
                time.sleep(0.1)
            else:
                raise RuntimeError("daemon never opened its socket")

            # Concurrent uploaders, then one more connection whose
            # FINISH frame asks the daemon to drain.
            threads = [
                threading.Thread(
                    target=upload,
                    args=(sock_path, f"soak-{k}", payload, False),
                )
                for k in range(SESSIONS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            # Mid-soak scrape: every upload is in the daemon; poll the
            # live endpoint until the per-shard finished counter settles
            # at the session count, then keep that last scrape to check
            # against the final DaemonReport after the drain.
            deadline = time.monotonic() + 120
            while True:
                status = scrape_status(metrics_port)
                if counter_total(
                    status, "repro_shard_sessions_finished_total"
                ) >= SESSIONS:
                    break
                if time.monotonic() > deadline:
                    print("soak: session counters never settled; last "
                          f"scrape: {status.get('counters')}",
                          file=sys.stderr)
                    return 1
                time.sleep(0.2)

            upload(sock_path, "soak-finisher", b"", True)

            rc = daemon.wait(timeout=300)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()

        if rc != 0:
            print(f"soak: daemon exited {rc}", file=sys.stderr)
            return 1
        with open(json_path, "r", encoding="utf-8") as fp:
            report = json.load(fp)

    sessions = report["sessions"]
    uploads = {f"soak-{k}" for k in range(SESSIONS)}
    missing = uploads - set(sessions)
    if missing:
        print(f"soak: sessions lost in the drain: {sorted(missing)}",
              file=sys.stderr)
        return 1
    failures = 0
    for sid in sorted(uploads):
        session = sessions[sid]
        if session["error"] or not session["ended"]:
            print(f"soak: {sid} did not close cleanly: {session['error']}",
                  file=sys.stderr)
            failures += 1
        elif session["reports"] != expected:
            print(f"soak: {sid} reports diverge from single-process run",
                  file=sys.stderr)
            failures += 1
    if failures:
        return 1

    # The mid-soak scrape must agree with the drained report: same
    # session count, every exported stream counter equal to the sum of
    # the shards' drained profiles, and the queue gauges of every shard
    # were being exported with their configured bound.
    scraped_finished = counter_total(
        status, "repro_shard_sessions_finished_total"
    )
    ended_sessions = sum(1 for s in sessions.values() if s["ended"])
    if scraped_finished != ended_sessions:
        print(f"soak: scraped finished counter {scraped_finished:.0f} != "
              f"{ended_sessions} ended sessions in the drained report",
              file=sys.stderr)
        return 1
    for name in ("ops_ingested", "records_ingested", "epochs_retired",
                 "reports_emitted", "cross_epoch_accesses"):
        scraped = counter_total(status, f"repro_shard_{name}_total")
        drained = sum(p[name] for p in report["shard_profiles"])
        if scraped != drained:
            print(f"soak: scraped {name} counter {scraped:.0f} != "
                  f"{drained} in the drained shard profiles",
                  file=sys.stderr)
            return 1
    scraped_ops = counter_total(status, "repro_shard_ops_ingested_total")
    report_ops = sum(s["ops"] for s in sessions.values())
    if scraped_ops != report_ops:
        print(f"soak: scraped ops counter {scraped_ops:.0f} != "
              f"{report_ops} ops in the drained report", file=sys.stderr)
        return 1
    bounds = [
        value
        for key, value in status.get("gauges", {}).items()
        if key.split("{", 1)[0] == "repro_shard_queue_bound"
    ]
    if len(bounds) != SHARDS or any(bound <= 0 for bound in bounds):
        print(f"soak: expected {SHARDS} positive queue-bound gauges, "
              f"got {bounds}", file=sys.stderr)
        return 1

    print(
        f"soak OK: {SESSIONS} concurrent sessions over {SHARDS} shards, "
        f"{len(expected)} reports each, clean drain; mid-soak scrape "
        f"matched the drained report ({scraped_ops:.0f} ops)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
