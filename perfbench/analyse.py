"""The analysing process: runs one workload's passes over the bytes it
is sent and reports timings, outputs and its own peak memory.

``run.py`` starts this as a fresh interpreter, writes a pickled job to
its stdin and reads a pickled result from its stdout.  Running the
analysis apart from input generation keeps the simulator's memory out
of ``peak_rss_mb``; the shard worker a router forks is this process's
only child, so ``RUSAGE_CHILDREN`` is the shard's peak.

A pass analyses the whole workload once.  Passes repeat while the
next one still fits in the job's seconds, and only whole passes are
measured.  Untraced passes of a ``--trace 0`` run are calibrated: each
unit gets a ``scaled`` time as well (see ``calibrate.py``).
"""

from __future__ import annotations

import os
import pickle
import resource
import statistics
import sys
import time
import traceback
from typing import Dict, List, Optional

import calibrate
import layers
from layers import Tracer

#: serve-fleet: calibration samples taken before and after each pass
SERVE_SAMPLES = 3


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class Analyser:
    def __init__(self, job: dict) -> None:
        import repro.detect
        import repro.stream
        import repro.trace

        self.job = job
        # Entry points are looked up through their modules at each call,
        # so a traced pass sees the wrappers layers.install put there.
        self.detect = repro.detect
        self.stream = repro.stream
        self.trace = repro.trace
        self.serve = job["workload"] == "serve-fleet"
        if self.serve:
            # what `repro serve` does at start-up unless --no-metrics
            import repro.obs

            repro.obs.configure(enabled=True)

    # -- one pass ------------------------------------------------------

    def detect_pass(self, tracer: Optional[Tracer], calibrated: bool = False) -> dict:
        """Every trace once: ``UseFreeDetector(loads_trace(b)).detect()``.
        Calibrated, a sample is taken before the first trace and after
        every segment of traces, and each trace is scaled by the two
        samples around its segment."""
        units = []
        segment: List[dict] = []
        before = calibrate.sample() if calibrated else 0.0
        start = time.perf_counter()
        for name, payload in self.job["payloads"]:
            span = tracer.open("bench.unit", name) if tracer else -1
            t0 = time.perf_counter()
            try:
                trace = self.trace.loads_trace(payload)
                result = self.detect.UseFreeDetector(trace).detect()
            except Exception as exc:  # a failed trace is counted, not fatal
                units.append(dict(name=name, seconds=time.perf_counter() - t0,
                                  ops=0, reports=None, error=_error(exc)))
            else:
                seconds = time.perf_counter() - t0
                keys = [(r.key.field, r.key.use_method, r.key.free_method)
                        for r in result.reports]
                units.append(dict(name=name, seconds=seconds, ops=len(trace),
                                  reports=keys, error=None))
            finally:
                if tracer:
                    tracer.close(span)
            segment.append(units[-1])
            if calibrated and (sum(u["seconds"] for u in segment) >= calibrate.SEGMENT_S
                               or len(units) == len(self.job["payloads"])):
                after = calibrate.sample()
                for unit in segment:
                    unit["scaled"] = calibrate.scale(unit["seconds"], before, after)
                before, segment = after, []
        wall = time.perf_counter() - start
        if tracer:
            tracer.settle_hb()
        return dict(wall=wall, ops=sum(u["ops"] for u in units), units=units)

    def serve_pass(self, tracer: Optional[Tracer], shards: int = 1,
                   calibrated: bool = False) -> dict:
        """The mux stream through a fresh router, fed in 64 KiB chunks
        on one channel and drained, as ``repro serve`` does.  Calibrated,
        samples are taken on the shard's CPU before the router starts
        and after the drain; sampling in between would compete with the
        shard."""
        stream, chunk = self.job["stream"], self.job["chunk"]
        work_cpu, feed_cpu = self.job["cpus"]
        before = [calibrate.sample() for _ in range(SERVE_SAMPLES)] if calibrated else []
        t0 = time.perf_counter()
        # the shard inherits work_cpu; the router feeds from feed_cpu
        router = self.stream.SessionRouter(shards, metrics=True)
        start_s = time.perf_counter() - t0
        if shards:
            calibrate.pin(feed_cpu)
        fed_at: List[float] = []
        start = time.perf_counter()
        try:
            channel = router.channel("stdin")
            for offset in range(0, len(stream), chunk):
                fed_at.append(time.perf_counter())
                channel.feed(stream[offset:offset + chunk])
            channel.close()
            report = router.drain()
        except Exception as exc:  # the whole pass's sessions failed
            router.terminate()
            error = _error(exc)
            traceback.print_exc()
            return dict(wall=time.perf_counter() - start, start_s=start_s, ops=0,
                        units=[dict(name=n, seconds=0.0, ops=0, error=error)
                               for n in self.job["first_byte"]],
                        counts={}, busy_ratio=0.0)
        finally:
            calibrate.pin(work_cpu)
        wall = time.perf_counter() - start
        end = start + wall
        after = [calibrate.sample() for _ in range(SERVE_SAMPLES)] if calibrated else []
        units = []
        for name, offset in self.job["first_byte"].items():
            session = report.sessions.get(name)
            if session is None:
                units.append(dict(name=name, seconds=0.0, ops=0,
                                  error="no report for the session"))
                continue
            seconds = end - fed_at[offset // chunk]
            units.append(dict(
                name=name, seconds=seconds, ops=session.ops,
                reports=len(session.reports), ended=session.ended,
                degraded=session.degraded, error=session.error,
            ))
        merged = report.merged
        counts = {
            "stream.polls": merged.polls,
            "stream.fixpoint_rounds": merged.fixpoint_rounds,
            "stream.derived_edges": merged.derived_edges,
            "stream.epochs_retired": merged.epochs_retired,
            "stream.peak_closure_bytes": merged.peak_closure_bytes,
            "router.frames": report.frames_routed,
            "router.bytes": report.bytes_routed,
            "parallel.messages": sum(w.messages for w in report.worker_profiles),
        }
        busy = sum(w.busy_seconds for w in report.worker_profiles)
        if tracer:
            sids = {id(s.profile): sid for sid, s in report.sessions.items()}
            for span in tracer.spans:
                unit = span[layers.UNIT]
                if unit is not None and not isinstance(unit, str):
                    span[layers.UNIT] = sids.get(id(unit), "?")
        outcome = dict(wall=wall, start_s=start_s, ops=sum(u["ops"] for u in units),
                       units=units, counts=counts, busy_ratio=busy / wall)
        if calibrated:
            pair = statistics.mean(before), statistics.mean(after)
            outcome["scaled_wall"] = calibrate.scale(wall, *pair)
            outcome["scaled_start_s"] = calibrate.scale(start_s, *pair)
            for unit in units:
                unit["scaled"] = calibrate.scale(unit["seconds"], *pair)
        return outcome

    # -- the run -------------------------------------------------------

    def untraced(self) -> List[dict]:
        """Calibrated passes while the next one, if it lasts as long as
        the median pass so far, ends inside the seconds; at least three,
        so that each unit's median is over three repeats or more."""
        seconds = self.job["seconds"]
        run = self.serve_pass if self.serve else self.detect_pass
        passes: List[dict] = []
        durations: List[float] = []
        begin = time.perf_counter()
        while (len(passes) < 3
               or time.perf_counter() - begin + statistics.median(durations) <= seconds):
            t0 = time.perf_counter()
            passes.append(run(None, calibrated=True))
            durations.append(time.perf_counter() - t0)
        return passes

    def traced(self) -> Dict[str, list]:
        """Untraced and traced passes, alternating while the next round
        still fits in the seconds, so both see the same host conditions.
        serve-fleet traces two passes per round: a pooled one traced at
        the router (the shard is another process) and an inline
        ``shards=0`` one traced everywhere, so the shard's calls are
        visible.  Each traced pass is reduced to its layer self times and
        counts; only the first of each kind keeps its spans, for the
        Chrome trace.  No pass here is calibrated."""
        seconds = self.job["seconds"]
        begin = time.perf_counter()
        run = self.serve_pass if self.serve else self.detect_pass
        out: Dict[str, list] = {"untraced": [], "traced": [], "pooled": []}

        def traced_pass(kind: str, scope: str, **kwargs) -> None:
            tracer = Tracer(f"{kind}-{len(out[kind])}")
            restore = layers.install(tracer, scope)
            try:
                outcome = run(tracer, **kwargs)
            finally:
                restore()
            outcome["layers"] = layers.layer_seconds(tracer.spans)
            outcome["span_counts"] = layers.span_counts(tracer.spans)
            if not out[kind]:
                outcome["tracer"] = tracer
            out[kind].append(outcome)

        rounds: List[float] = []
        while (not rounds
               or time.perf_counter() - begin + statistics.median(rounds) <= seconds):
            t0 = time.perf_counter()
            out["untraced"].append(run(None))
            if self.serve:
                traced_pass("pooled", "router", shards=1)
                traced_pass("traced", "all", shards=0)
            else:
                traced_pass("traced", "all")
            rounds.append(time.perf_counter() - t0)
        return out


def main() -> int:
    job = pickle.load(sys.stdin.buffer)
    # Only the result may reach the parent's pipe: anything the program
    # prints (here or in a forked shard) goes to stderr instead.
    result_out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    sys.path.insert(0, job["src"])
    import repro

    if not os.path.abspath(repro.__file__).startswith(os.path.abspath(job["src"]) + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, not {job['src']}")
    analyser = Analyser(job)
    result = analyser.traced() if job["trace"] else {"untraced": analyser.untraced()}
    self_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    shard_peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = (self_peak + shard_peak) / 1024.0  # ru_maxrss is KiB
    result["pid"] = os.getpid()
    pickle.dump(result, result_out)
    result_out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
