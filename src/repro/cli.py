"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``record <app> -o trace.jsonl`` — run a §6.1 workload on the
  simulator and save its trace (the on-device collection step);
* ``detect <trace.jsonl>`` — offline analysis of a saved trace: build
  the happens-before relation, report use-free races;
* ``evaluate`` — reproduce Table 1 across all ten apps;
* ``slowdown`` — reproduce Figure 8;
* ``witness <trace.jsonl>`` — print an alternate schedule manifesting
  each reported race;
* ``stats <trace.jsonl>`` — happens-before graph statistics (edges per
  rule, fixpoint rounds) plus the trace store / decode profile;
  ``--stream`` adds the online analyzer's profile for the same file;
* ``stream <trace.jsonl|->`` — online analysis: ingest a trace stream
  (v1/v2 text or v3 binary) incrementally (file, growing file with
  ``--follow``, or stdin) and emit race reports as epochs retire;
  ``--selftest`` replays a stock app record-by-record and checks
  online ≡ offline;
* ``serve`` — the sharded multi-session daemon: demultiplex
  session-enveloped streams (file, stdin, Unix/TCP socket) across
  worker processes, one online analyzer per session; ``--json`` saves
  the daemon report for ``stats --daemon`` aggregation;
* ``convert <src> <dst>`` — transcode a trace file between any two
  supported versions (v1/v2/v3, ``.gz`` transparent), streaming one
  decoded feed at a time; ``--salvage`` converts the valid prefix of a
  damaged file;
* ``dot <trace.jsonl>`` — Graphviz export of the happens-before graph;
* ``scaling-matrix`` — run the §6.4 analysis-time sweep over apps x
  scales and emit one JSON table;
* ``explore <app>`` — run a workload under many scheduler seeds and
  report detection stability;
* ``report`` — a full Markdown evaluation report with witnesses;
* ``apps`` — list the available application workloads.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis import (
    build_witness,
    format_slowdowns,
    format_table1,
    paper_table1_rows,
    reproduce_figure8,
    reproduce_table1,
)
from .apps import ALL_APPS, make_app
from .detect import LowLevelDetector, UseFreeDetector
from .trace import load_trace_file, save_trace_file

#: CLI spelling -> on-disk trace format version
_FORMAT_VERSIONS = {"v1": 1, "v2": 2, "v3": 3}


def _add_format(parser: argparse.ArgumentParser, writing: bool) -> None:
    if writing:
        parser.add_argument(
            "--format",
            choices=sorted(_FORMAT_VERSIONS),
            default="v2",
            help="trace format version to write (default: v2)",
        )
    else:
        parser.add_argument(
            "--format",
            choices=sorted(_FORMAT_VERSIONS),
            default=None,
            help="require the trace file to be this format version "
            "(default: accept any supported version)",
        )


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _load_input_trace(args):
    from .trace import TraceError

    expect = _FORMAT_VERSIONS[args.format] if args.format else None
    try:
        return load_trace_file(args.trace, expect_version=expect)
    except TraceError as exc:
        print(
            f"{args.trace}: {exc}\n"
            "(a damaged or crash-truncated trace can be analyzed with "
            "'repro stream --salvage')",
            file=sys.stderr,
        )
        raise SystemExit(1) from None


def _add_scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        type=float,
        default=0.1,
        help="background event load scale (1.0 approximates the paper)",
    )
    parser.add_argument("--seed", type=int, default=1, help="scheduler seed")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes for the per-app pipelines (1 = serial)",
    )


def _cmd_apps(_args) -> int:
    for app in ALL_APPS:
        print(f"{app.name:<12} {app.description}")
        print(f"{'':<12} session: {app.session}")
    return 0


def _cmd_record(args) -> int:
    app = make_app(args.app, scale=args.scale, seed=args.seed)
    run = app.run()
    save_trace_file(run.trace, args.output, version=_FORMAT_VERSIONS[args.format])
    print(
        f"recorded {args.app}: {len(run.trace)} operations, "
        f"{run.event_count} events -> {args.output} [{args.format}]"
    )
    return 0


def _cmd_detect(args) -> int:
    trace = _load_input_trace(args)
    detector = UseFreeDetector(trace)
    result = detector.detect()
    print(
        f"{len(trace)} operations, {len(trace.events())} events, "
        f"{result.dynamic_candidates} racy (use, free) pairs"
    )
    print(f"use-free races reported: {result.report_count()}")
    for report in result.reports:
        print(f"  {report}")
    if result.filtered_reports:
        print(f"filtered as commutative: {len(result.filtered_reports)}")
        for report in result.filtered_reports:
            print(f"  {report.key}  [{report.witnesses[0].filtered_by}]")
    if args.low_level:
        low = LowLevelDetector(trace, hb=detector.hb).detect()
        print(f"low-level baseline: {low.race_count()} conflicting-access races")
    return 0


def _cmd_witness(args) -> int:
    trace = load_trace_file(args.trace)
    detector = UseFreeDetector(trace)
    result = detector.detect()
    if not result.reports:
        print("no use-free races to witness")
        return 0
    for report in result.reports:
        witness = build_witness(trace, detector.hb, report)
        print(witness.format())
        print()
    return 0


def _cmd_stats(args) -> int:
    import os

    from .hb import build_happens_before, hb_stats
    from .obs.spans import enable_tracing, span

    if args.daemon:
        # Aggregate a daemon run's JSON report (repro serve --json):
        # per-session outcomes plus the shard-merged stream profile.
        import json

        from .stream import DaemonReport

        with open(args.trace, "r", encoding="utf-8") as fp:
            report = DaemonReport.from_dict(json.load(fp))
        print(report.format())
        for profile in report.worker_profiles:
            print(profile.format())
        return 0

    recorder = enable_tracing() if args.trace_out else None

    trace = _load_input_trace(args)
    trace_profile = trace.profile(disk_bytes=os.path.getsize(args.trace))
    if not args.json:
        print(trace_profile.format())
    hb = build_happens_before(trace)
    # Run the detector so the query-side counters describe a real
    # workload rather than an idle relation.
    with span("detect.usefree", ops=len(trace)):
        UseFreeDetector(trace, hb=hb).detect()
    stats = hb_stats(trace, hb)
    if not args.json:
        print(stats.format())
    stream_profile = None
    if args.stream:
        from .stream import StreamAnalyzer
        from .trace.reader import tail_chunks

        analyzer = StreamAnalyzer()
        for chunk in tail_chunks(args.trace):
            analyzer.feed(chunk)
        analyzer.finish()
        stream_profile = analyzer.profile
        if not args.json:
            print(stream_profile.format())
    if args.json:
        import json

        from .obs import stats_document

        print(
            json.dumps(
                stats_document(
                    trace_profile=trace_profile,
                    hb_stats=stats,
                    stream_profile=stream_profile,
                ),
                indent=2,
                sort_keys=True,
            )
        )
    if recorder is not None:
        recorder.dump(args.trace_out)
        print(f"wrote {args.trace_out} ({len(recorder)} spans)",
              file=sys.stderr)
    return 0


def _print_new_epochs(analyzer, printed: int) -> int:
    while printed < len(analyzer.epochs):
        epoch = analyzer.epochs[printed]
        label = "retired" if epoch.retired else "final"
        print(
            f"epoch {epoch.index} ({label}): {epoch.ops} ops, "
            f"{len(epoch.reports)} reports, "
            f"closure {epoch.closure_bytes} bytes"
        )
        for report in epoch.reports:
            print(f"  {report}")
        printed += 1
    return printed


def _cmd_stream(args) -> int:
    from .stream import StreamAnalyzer

    if args.selftest:
        from .analysis.soak import soak_app

        result = soak_app(
            args.app, scale=args.scale, seed=args.seed, gc=not args.no_gc
        )
        print(result.format())
        print(result.profile.format())
        if not result.identical:
            only_on = set(result.online) - set(result.offline)
            only_off = set(result.offline) - set(result.online)
            for line in sorted(only_on):
                print(f"  only online : {line}", file=sys.stderr)
            for line in sorted(only_off):
                print(f"  only offline: {line}", file=sys.stderr)
            return 1
        return 0

    if not args.trace:
        print(
            "stream: provide a trace path, '-' for stdin, or --selftest",
            file=sys.stderr,
        )
        return 2

    from .trace import StreamDamageError, TraceError, TraceFormatError
    from .trace.reader import DEFAULT_BACKOFF_INITIAL, Backoff, tail_chunks

    expect = _FORMAT_VERSIONS[args.format] if args.format else None
    analyzer = StreamAnalyzer(
        strict=not args.salvage,
        gc=not args.no_gc,
        expect_version=expect,
    )
    # --follow tails with capped exponential backoff: an idle file costs
    # ever-fewer wakeups (up to --poll-interval apart) instead of a
    # fixed-rate busy poll, and any new data snaps the delay back down.
    cap = max(args.poll_interval, 0.001)
    backoff = Backoff(initial=min(DEFAULT_BACKOFF_INITIAL, cap), cap=cap)
    printed = 0
    try:
        try:
            for chunk in tail_chunks(args.trace, args.follow, backoff):
                analyzer.feed(chunk)
                printed = _print_new_epochs(analyzer, printed)
                if analyzer.decoder.degraded:
                    break
        except StreamDamageError as exc:
            analyzer.decoder.mark_damaged(exc)
        analyzer.finish()
    except KeyboardInterrupt:
        # Ctrl-C: the stream was cut off, not ended; close it as a
        # daemon drain closes a session, with nothing checked
        analyzer.close()
    except TraceError as exc:
        hint = ""
        if isinstance(exc, TraceFormatError):
            hint = " (use --salvage to analyze the valid prefix)"
        print(f"stream: {exc}{hint}", file=sys.stderr)
        return 1
    printed = _print_new_epochs(analyzer, printed)
    if analyzer.decoder.degraded:
        print(
            f"warning: stream damaged, analyzed the valid prefix "
            f"({analyzer.decoder.error})",
            file=sys.stderr,
        )
    crossed = analyzer.profile.cross_epoch_accesses
    if crossed:
        print(
            f"warning: {crossed} cross-epoch access(es) to addresses of a "
            "retired epoch; races across an epoch boundary are not "
            'reported (see docs/streaming.md, "Epoch GC"; --no-gc keeps '
            "one epoch)",
            file=sys.stderr,
        )
    print(analyzer.profile.format())
    return 0


def _cmd_serve(args) -> int:
    from .obs import configure_json_logging, get_logger
    from .parallel import WorkerCrash
    from .stream import SessionRouter, SocketSource
    from .trace import StreamDamageError, TraceError
    from .trace.reader import tail_chunks

    metrics_on = not args.no_metrics
    configure_json_logging()
    log = get_logger("serve")

    expect = _FORMAT_VERSIONS[args.format] if args.format else None
    router = SessionRouter(
        args.shards,
        gc=not args.no_gc,
        strict=not args.salvage,
        expect_version=expect,
        metrics=metrics_on,
    )
    source = None
    metrics_server = None
    status_server = None

    def provider():
        """The daemon-wide snapshot every scrape observes: router +
        shard metrics plus the transport-level connection counters."""
        snap = router.metrics_snapshot()
        if source is not None:
            snap.counter("repro_connections_total",
                         float(source.connections_accepted),
                         help="transport connections accepted")
            snap.gauge("repro_connections_open",
                       float(source.connections_open),
                       help="transport connections currently open")
            snap.counter("repro_transport_chunks_total",
                         float(source.chunks_received),
                         help="byte chunks read off connections")
            snap.counter("repro_transport_bytes_total",
                         float(source.bytes_received),
                         help="bytes read off connections")
        return snap

    if args.metrics_port is not None:
        from .obs.export import MetricsServer

        metrics_server = MetricsServer(provider, port=args.metrics_port)
        print(f"metrics on {metrics_server.url}/metrics", flush=True)
    if args.status_socket:
        from .obs.export import StatusSocketServer

        status_server = StatusSocketServer(provider, args.status_socket)

    def _stop_servers():
        if metrics_server is not None:
            metrics_server.stop()
        if status_server is not None:
            status_server.stop()

    try:
        if args.socket or args.tcp:
            if args.socket:
                source = SocketSource.unix(args.socket)
                where = args.socket
            else:
                host, _, port = args.tcp.rpartition(":")
                source = SocketSource.tcp(host or "127.0.0.1", int(port))
                where = "%s:%d" % source.address
            print(f"serving on {where} ({args.shards} shard(s); "
                  "send a FINISH frame to drain)", flush=True)
            log.info("daemon started",
                     extra={"listen": str(where), "shards": args.shards,
                            "metrics": metrics_on})
            import time

            channels = {}
            accepted = 0
            # Once a FINISH frame arrives, connections still flushing
            # their kernel buffers get a grace period to close before
            # the drain proceeds without them.
            finish_deadline = None
            for event in source.events():
                if event is not None:
                    tag = event[0]
                    if tag == "open":
                        accepted += 1
                        channels[event[1]] = router.channel(event[1])
                        log.info("connection open",
                                 extra={"connection": event[1]})
                    elif tag == "chunk":
                        channel = channels.get(event[1])
                        if channel is None:
                            continue  # connection's envelope is damaged
                        try:
                            channel.feed(event[2])
                        except TraceError as exc:
                            log.warning(
                                "session stream damaged",
                                extra={"connection": event[1],
                                       "error": str(exc),
                                       "salvage": args.salvage},
                            )
                            channels[event[1]] = None
                    elif tag == "close":
                        channel = channels.pop(event[1], None)
                        log.info("connection closed",
                                 extra={"connection": event[1]})
                        if channel is not None:
                            try:
                                channel.close()
                            except TraceError as exc:
                                log.warning(
                                    "session stream damaged at close",
                                    extra={"connection": event[1],
                                           "error": str(exc),
                                           "salvage": args.salvage},
                                )
                if router.finish_requested:
                    if finish_deadline is None:
                        finish_deadline = time.monotonic() + 10.0
                    if not channels or time.monotonic() > finish_deadline:
                        break
                if args.once and accepted and not channels:
                    break
        else:
            channel = router.channel(args.input or "stdin")
            try:
                try:
                    for chunk in tail_chunks(args.input or "-"):
                        channel.feed(chunk)
                except StreamDamageError as exc:
                    if not args.salvage:
                        raise
                    # the input never reached its end: its sessions stay
                    # open, and the drain closes them with what arrived
                    log.warning("input stream damaged",
                                extra={"input": args.input or "stdin",
                                       "error": str(exc), "salvage": True})
                else:
                    channel.close()
            except TraceError as exc:
                log.error("input stream damaged",
                          extra={"input": args.input or "stdin",
                                 "error": str(exc)})
                print(f"serve: {exc}", file=sys.stderr)
                router.terminate()
                return 1
    except KeyboardInterrupt:
        log.info("interrupted, draining")
    except WorkerCrash as exc:
        log.error("worker crashed",
                  extra={"worker": exc.worker, "error": str(exc),
                         "remote_traceback": exc.detail})
        print(f"serve: {exc}", file=sys.stderr)
        router.terminate()
        return 1
    finally:
        if source is not None:
            source.stop()
        _stop_servers()
    try:
        report = router.drain()
    except WorkerCrash as exc:
        log.error("worker crashed during drain",
                  extra={"worker": exc.worker, "error": str(exc),
                         "remote_traceback": exc.detail})
        print(f"serve: {exc}", file=sys.stderr)
        return 1
    log.info("daemon drained",
             extra={"sessions": len(report.sessions),
                    "frames": report.frames_routed,
                    "bytes": report.bytes_routed})
    for sid in sorted(report.sessions):
        session = report.sessions[sid]
        log.info("session end",
                 extra={"session": sid, "shard": session.shard,
                        "ops": session.ops, "reports": len(session.reports),
                        "ended": session.ended, "degraded": session.degraded,
                        "error": session.error})
    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as fp:
            json.dump(report.as_dict(), fp, indent=2)
            fp.write("\n")
        print(f"wrote {args.json}")
    print(report.format())
    degraded = [s for s, r in report.sessions.items() if r.error]
    return 1 if degraded and not args.salvage else 0


def _sample_parts(key):
    """Split ``name{k="v",...}`` into (name, labels); our label values
    never contain commas or quotes."""
    name, _, rest = key.partition("{")
    labels = {}
    if rest:
        for part in rest[:-1].split(","):
            k, _, v = part.partition("=")
            labels[k] = v.strip('"')
    return name, labels


def _render_status(doc: dict, prev: Optional[dict], dt: float) -> str:
    """One refresh of the ``repro top`` terminal view from a
    ``repro-metrics/1`` status document (plus rates vs. the previous
    scrape when one is given)."""
    counters = doc.get("counters", {})
    gauges = doc.get("gauges", {})
    histograms = doc.get("histograms", {})

    def total(section: dict, name: str) -> float:
        return sum(
            value for key, value in section.items()
            if _sample_parts(key)[0] == name
        )

    def rate(name: str) -> str:
        if prev is None or dt <= 0:
            return "-"
        delta = total(counters, name) - total(prev.get("counters", {}), name)
        return f"{delta / dt:,.0f}/s"

    lines = [
        "repro daemon status",
        f"  shards {total(gauges, 'repro_router_shards'):.0f}"
        f"  sessions routed {total(counters, 'repro_router_sessions_total'):.0f}"
        f"  active {total(gauges, 'repro_shard_sessions_active'):.0f}"
        f"  finished {total(counters, 'repro_shard_sessions_finished_total'):.0f}"
        f"  failed {total(counters, 'repro_shard_sessions_failed_total'):.0f}",
        f"  frames {total(counters, 'repro_router_frames_total'):.0f}"
        f" ({rate('repro_router_frames_total')})"
        f"  bytes {total(counters, 'repro_router_bytes_total'):.0f}"
        f" ({rate('repro_router_bytes_total')})"
        f"  ops {total(counters, 'repro_shard_ops_ingested_total'):.0f}"
        f" ({rate('repro_shard_ops_ingested_total')})",
        f"  epochs retired {total(counters, 'repro_shard_epochs_retired_total'):.0f}"
        f"  reports {total(counters, 'repro_shard_reports_emitted_total'):.0f}"
        f"  connections open {total(gauges, 'repro_connections_open'):.0f}",
    ]
    for key, hist in sorted(histograms.items()):
        name, _labels = _sample_parts(key)
        if name != "repro_feed_latency_seconds" or not hist.get("count"):
            continue
        lines.append(
            f"  feed-to-detect latency: p50 {hist['p50'] * 1e3:.1f} ms"
            f"  p95 {hist['p95'] * 1e3:.1f} ms"
            f"  p99 {hist['p99'] * 1e3:.1f} ms"
            f"  ({hist['count']} frames)"
        )

    # Per-shard table keyed off whichever shard-labeled samples exist.
    shards = sorted(
        {
            labels["shard"]
            for section in (counters, gauges)
            for key in section
            for name, labels in (_sample_parts(key),)
            if "shard" in labels
        },
        key=lambda s: int(s) if s.isdigit() else 0,
    )
    if shards:
        lines.append("")
        lines.append(
            f"  {'shard':>5} {'active':>7} {'done':>6} {'failed':>6} "
            f"{'ops':>10} {'frames':>8} {'queue':>9}"
        )
        for shard in shards:
            def of(section, name, shard=shard):
                return section.get(f'{name}{{shard="{shard}"}}', 0.0)

            depth = of(gauges, "repro_shard_queue_depth")
            bound = of(gauges, "repro_shard_queue_bound")
            queue_cell = f"{depth:.0f}/{bound:.0f}" if bound else "-"
            lines.append(
                f"  {shard:>5} "
                f"{of(gauges, 'repro_shard_sessions_active'):>7.0f} "
                f"{of(counters, 'repro_shard_sessions_finished_total'):>6.0f} "
                f"{of(counters, 'repro_shard_sessions_failed_total'):>6.0f} "
                f"{of(counters, 'repro_shard_ops_ingested_total'):>10.0f} "
                f"{of(counters, 'repro_shard_frames_handled_total'):>8.0f} "
                f"{queue_cell:>9}"
            )
    return "\n".join(lines)


def _cmd_top(args) -> int:
    import time

    from .obs.export import read_status_socket, scrape_http

    if bool(args.url) == bool(args.status_socket):
        print("top: provide exactly one of URL or --status-socket",
              file=sys.stderr)
        return 2

    def scrape() -> dict:
        if args.url:
            url = args.url
            if "://" not in url:
                url = f"http://{url}"
            return scrape_http(url, "/status.json")
        return read_status_socket(args.status_socket)

    try:
        doc = scrape()
    except OSError as exc:
        print(f"top: cannot reach the daemon: {exc}", file=sys.stderr)
        return 1
    if args.once:
        print(_render_status(doc, None, 0.0))
        return 0
    prev, prev_at = None, 0.0
    try:
        while True:
            now = time.monotonic()
            print("\x1b[2J\x1b[H", end="")
            print(_render_status(doc, prev, now - prev_at))
            prev, prev_at = doc, now
            time.sleep(args.interval)
            try:
                doc = scrape()
            except OSError as exc:
                print(f"top: daemon gone: {exc}", file=sys.stderr)
                return 0
    except KeyboardInterrupt:
        return 0


def _cmd_convert(args) -> int:
    from .trace import TraceError, convert_trace_file

    version = _FORMAT_VERSIONS[args.format]
    try:
        stats = convert_trace_file(
            args.src, args.dst, version=version, strict=not args.salvage
        )
    except TraceError as exc:
        print(
            f"convert: {exc} (use --salvage to convert the valid prefix "
            "of a damaged file)",
            file=sys.stderr,
        )
        return 1
    note = ""
    if stats.salvaged:
        note = f" (salvaged prefix; damage: {stats.error})"
    print(
        f"converted {args.src} [v{stats.source_version}] -> "
        f"{args.dst} [v{stats.target_version}]: "
        f"{stats.ops} ops, {stats.tasks} tasks{note}"
    )
    return 0


def _cmd_dot(args) -> int:
    from .hb import build_happens_before, to_dot

    trace = load_trace_file(args.trace)
    hb = build_happens_before(trace)
    text = to_dot(trace, hb, collapse_tasks=not args.full)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fp:
            fp.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_evaluate(args) -> int:
    table = reproduce_table1(scale=args.scale, seed=args.seed, jobs=args.jobs)
    print(format_table1(table, paper_table1_rows()))
    return 0


def _cmd_slowdown(args) -> int:
    print(
        format_slowdowns(
            reproduce_figure8(scale=args.scale, seed=args.seed, jobs=args.jobs)
        )
    )
    return 0


def _cmd_scaling_matrix(args) -> int:
    from .analysis import scaling_matrix

    if args.apps:
        known = {app.name: app for app in ALL_APPS}
        unknown = [name for name in args.apps if name not in known]
        if unknown:
            print(
                f"unknown app(s): {', '.join(unknown)} "
                f"(see `python -m repro apps`)",
                file=sys.stderr,
            )
            return 2
        apps = [known[name] for name in args.apps]
    else:
        apps = None
    matrix = scaling_matrix(
        apps=apps,
        scales=args.scales,
        seed=args.seed,
        jobs=args.jobs,
    )
    text = matrix.to_json()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fp:
            fp.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_explore(args) -> int:
    from .analysis import explore_seeds
    from .apps import make_app

    app_cls = type(make_app(args.app))
    seeds = list(range(args.seeds))
    result = explore_seeds(
        app_cls, seeds=seeds, scale=args.scale, jobs=args.jobs
    )
    print(
        f"{args.app}: {result.reports_per_seed} reports across seeds "
        f"{seeds}; stability {result.stability:.0%}"
    )
    for key in result.stable_races:
        print(f"  stable: {key}")
    for key in result.flaky_races:
        print(f"  FLAKY : {key} ({result.occurrences[key]}/{len(seeds)} seeds)")
    return 0


def _cmd_report(args) -> int:
    from .analysis.report_doc import generate_report

    text = generate_report(
        scale=args.scale,
        seed=args.seed,
        include_slowdowns=not args.no_slowdowns,
        jobs=args.jobs,
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fp:
            fp.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CAFA: race detection for event-driven mobile applications",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("apps", help="list application workloads").set_defaults(
        fn=_cmd_apps
    )

    record = sub.add_parser("record", help="run a workload and save its trace")
    record.add_argument("app", help="application name (see `apps`)")
    record.add_argument("-o", "--output", required=True, help="output .jsonl path")
    _add_scale(record)
    _add_format(record, writing=True)
    record.set_defaults(fn=_cmd_record)

    detect = sub.add_parser("detect", help="offline analysis of a saved trace")
    detect.add_argument("trace", help="trace .jsonl path")
    detect.add_argument(
        "--low-level",
        action="store_true",
        help="also run the conflicting-access baseline",
    )
    _add_format(detect, writing=False)
    detect.set_defaults(fn=_cmd_detect)

    witness = sub.add_parser(
        "witness", help="print violating schedules for each reported race"
    )
    witness.add_argument("trace", help="trace .jsonl path")
    witness.set_defaults(fn=_cmd_witness)

    stats = sub.add_parser(
        "stats", help="happens-before graph statistics for a saved trace"
    )
    stats.add_argument("trace", help="trace .jsonl path")
    stats.add_argument(
        "--stream",
        action="store_true",
        help="also replay the file through the online streaming "
        "analyzer and print its profile",
    )
    stats.add_argument(
        "--daemon",
        action="store_true",
        help="treat the positional argument as a daemon report JSON "
        "(from `repro serve --json`) and print its per-session and "
        "shard-aggregated statistics",
    )
    stats.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON document (stable "
        "repro-stats/1 schema) covering every computed section "
        "instead of the human-readable text",
    )
    stats.add_argument(
        "--trace-out",
        metavar="PATH",
        help="record span tracing around the hot phases and write a "
        "Chrome trace_event JSON (open in chrome://tracing or "
        "Perfetto)",
    )
    _add_format(stats, writing=False)
    stats.set_defaults(fn=_cmd_stats)

    stream = sub.add_parser(
        "stream",
        help="online streaming analysis of a trace stream "
        "(v1/v2 text or v3 binary; see docs/streaming.md)",
    )
    stream.add_argument(
        "trace",
        nargs="?",
        help="trace stream path, or '-' for stdin "
        "(omit with --selftest)",
    )
    stream.add_argument(
        "--follow",
        action="store_true",
        help="keep tailing the file for new records after reaching "
        "its current end (Ctrl-C to stop: the open epoch is closed "
        "and reported)",
    )
    stream.add_argument(
        "--poll-interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="ceiling of the --follow poll backoff: an idle file is "
        "polled with exponentially growing sleeps capped here "
        "(default: 0.5)",
    )
    stream.add_argument(
        "--salvage",
        action="store_true",
        help="degrade gracefully on a damaged stream: analyze the "
        "valid prefix instead of failing (strict=False decoding)",
    )
    stream.add_argument(
        "--no-gc",
        action="store_true",
        help="disable epoch retirement (memory grows with the session "
        "as in offline mode)",
    )
    stream.add_argument(
        "--selftest",
        action="store_true",
        help="replay a stock app record-by-record and verify online "
        "reports are byte-identical to offline ones",
    )
    stream.add_argument(
        "--app",
        default="connectbot",
        help="application for --selftest (default: connectbot)",
    )
    stream.add_argument(
        "--scale", type=float, default=0.02, help="--selftest workload scale"
    )
    stream.add_argument(
        "--seed", type=int, default=1, help="--selftest scheduler seed"
    )
    _add_format(stream, writing=False)
    stream.set_defaults(fn=_cmd_stream)

    serve = sub.add_parser(
        "serve",
        help="sharded multi-session streaming daemon: demultiplex "
        "session-enveloped trace streams across worker processes "
        "(see docs/streaming.md)",
    )
    serve.add_argument(
        "input",
        nargs="?",
        help="enveloped (or plain single-session) stream file, or '-' "
        "for stdin (omit with --socket/--tcp)",
    )
    serve.add_argument(
        "--socket",
        metavar="PATH",
        help="listen on a Unix-domain socket at PATH (one session "
        "stream, enveloped or plain, per connection)",
    )
    serve.add_argument(
        "--tcp",
        metavar="HOST:PORT",
        help="listen on a TCP socket (port 0 picks a free port, "
        "printed at startup)",
    )
    serve.add_argument(
        "--shards",
        type=_nonnegative_int,
        default=1,
        help="worker processes to consistent-hash sessions across "
        "(0 = analyze inline in the serving process; default: 1)",
    )
    serve.add_argument(
        "--once",
        action="store_true",
        help="socket modes: drain and exit once every accepted "
        "connection has closed (instead of waiting for a FINISH "
        "frame or Ctrl-C)",
    )
    serve.add_argument(
        "--no-gc",
        action="store_true",
        help="disable per-session epoch retirement",
    )
    serve.add_argument(
        "--salvage",
        action="store_true",
        help="tolerate damaged session streams: analyze each valid "
        "prefix and exit 0 even when sessions degrade",
    )
    serve.add_argument(
        "--json",
        metavar="PATH",
        help="also write the daemon report as JSON (aggregate later "
        "with `repro stats --daemon PATH`)",
    )
    serve.add_argument(
        "--metrics-port",
        type=_nonnegative_int,
        default=None,
        metavar="PORT",
        help="serve live Prometheus /metrics and JSON /status.json on "
        "this HTTP port (0 picks a free port, printed at startup)",
    )
    serve.add_argument(
        "--status-socket",
        metavar="PATH",
        help="also serve the JSON status document over a Unix-domain "
        "socket at PATH (one document per connection)",
    )
    serve.add_argument(
        "--no-metrics",
        action="store_true",
        help="disable telemetry entirely: no latency recording, no "
        "shard snapshots (the instrumentation-overhead escape hatch)",
    )
    _add_format(serve, writing=False)
    serve.set_defaults(fn=_cmd_serve)

    top = sub.add_parser(
        "top",
        help="live terminal view of a running daemon's metrics "
        "(scrapes --metrics-port or --status-socket)",
    )
    top.add_argument(
        "url",
        nargs="?",
        help="the daemon's metrics endpoint, e.g. 127.0.0.1:9100 "
        "(omit with --status-socket)",
    )
    top.add_argument(
        "--status-socket",
        metavar="PATH",
        help="scrape the daemon's Unix-domain status socket instead "
        "of HTTP",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh period (default: 2.0)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="print one snapshot and exit (no screen clearing; "
        "rates need two scrapes and show as '-')",
    )
    top.set_defaults(fn=_cmd_top)

    convert = sub.add_parser(
        "convert",
        help="transcode a trace file between format versions "
        "(streaming, one decoded feed in memory at a time)",
    )
    convert.add_argument("src", help="input trace path (any version, .gz ok)")
    convert.add_argument("dst", help="output trace path (.gz compresses)")
    convert.add_argument(
        "--format",
        choices=sorted(_FORMAT_VERSIONS),
        default="v3",
        help="trace format version to write (default: v3)",
    )
    convert.add_argument(
        "--salvage",
        action="store_true",
        help="convert the valid prefix of a damaged/truncated input "
        "instead of failing",
    )
    convert.set_defaults(fn=_cmd_convert)

    dot = sub.add_parser(
        "dot", help="export the happens-before graph as Graphviz"
    )
    dot.add_argument("trace", help="trace .jsonl path")
    dot.add_argument("-o", "--output", help="write to a file instead of stdout")
    dot.add_argument(
        "--full", action="store_true", help="one node per key operation"
    )
    dot.set_defaults(fn=_cmd_dot)

    evaluate = sub.add_parser("evaluate", help="reproduce Table 1")
    _add_scale(evaluate)
    _add_jobs(evaluate)
    evaluate.set_defaults(fn=_cmd_evaluate)

    slowdown = sub.add_parser("slowdown", help="reproduce Figure 8")
    _add_scale(slowdown)
    _add_jobs(slowdown)
    slowdown.set_defaults(fn=_cmd_slowdown)

    matrix = sub.add_parser(
        "scaling-matrix",
        help="run the analysis-time scaling sweep over apps x scales "
        "and print one JSON table",
    )
    matrix.add_argument(
        "--apps",
        nargs="+",
        metavar="APP",
        help="application names to sweep (default: all ten)",
    )
    matrix.add_argument(
        "--scales",
        nargs="+",
        type=float,
        metavar="SCALE",
        help="event-load scales per app (default: 0.02 0.05 0.1)",
    )
    matrix.add_argument("--seed", type=int, default=0, help="scheduler seed")
    matrix.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes for the per-app sweeps (1 = serial)",
    )
    matrix.add_argument(
        "-o", "--output", help="write the JSON table to a file instead of stdout"
    )
    matrix.set_defaults(fn=_cmd_scaling_matrix)

    explore = sub.add_parser(
        "explore", help="run one workload under many scheduler seeds"
    )
    explore.add_argument("app", help="application name (see `apps`)")
    explore.add_argument("--seeds", type=int, default=5, help="number of seeds")
    explore.add_argument("--scale", type=float, default=0.05)
    explore.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes for the per-seed runs (1 = serial)",
    )
    explore.set_defaults(fn=_cmd_explore)

    report = sub.add_parser(
        "report", help="generate a full Markdown evaluation report"
    )
    report.add_argument("-o", "--output", help="write to a file instead of stdout")
    report.add_argument(
        "--no-slowdowns",
        action="store_true",
        help="skip the Figure 8 section (halves the runtime)",
    )
    _add_scale(report)
    _add_jobs(report)
    report.set_defaults(fn=_cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from .hb import HBCycleError, ModelNotApplicableError

    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (HBCycleError, ModelNotApplicableError) as exc:
        # A trace the model cannot order: one line, not a traceback.
        source = getattr(args, "trace", None)
        where = f"{source}: " if source else ""
        print(f"error: {where}{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
