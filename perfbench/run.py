"""The repository benchmark: one workload, one seed, one line of metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload detect-large-v3 --seed 0 --seconds 35 --trace 0

The run generates the workload's inputs from the seed (several times,
to time set-up), starts ``analyse.py`` as a separate process, sends it
the bytes, checks every trace's or session's output against the apps'
own race labels, and prints one JSON object as its last line:

* ``--trace 0``: the end-to-end metrics, measured with tracing off and
  calibrated to a nominal host speed (``calibrate.py``);
* ``--trace 1``: the per-layer metrics from spans around each layer's
  public entry points, plus the spans as Chrome ``trace_event`` JSON in
  ``perfbench/out/`` (or ``--trace-out``).

See ``perfbench/README.md`` for the workloads, metrics and layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import calibrate
import layers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: input generations per run; setup_s is their median
SETUPS = 3
#: the whole run must end well inside three minutes
RUN_DEADLINE_S = 170.0

END_TO_END = [
    ("ops_per_s", "ops/s"),
    ("trace_s.p50", "s"),
    ("trace_s.p90", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ok/attempted"),
]


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="Chrome trace path (--trace 1)")
    return parser.parse_args(argv)


def percentile(values: List[float], q: int) -> float:
    """The q-th percentile (inclusive method; the median at 50)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def analyse(job: dict, deadline: float) -> dict:
    """Run ``analyse.py`` on ``job`` and return its result."""
    # One fixed hash seed, so that a run's dict and set layouts do not
    # depend on the process it happens to run in.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "analyse.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=str(ROOT), env=env,
    )
    try:
        out, _ = proc.communicate(pickle.dumps(job), timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("the analysing process ran past the run's deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"the analysing process exited with {proc.returncode}")
    return pickle.loads(out)  # written by analyse.py, spawned above


def check_units(inputs, passes: List[dict]) -> List[str]:
    """Every unit of every pass against its labels; the failures, named."""
    from workloads import check_session, check_trace

    expected = {unit.name: unit.expected for unit in inputs.units}
    failures = []
    for number, outcome in enumerate(passes):
        for unit in outcome["units"]:
            if inputs.workload == "serve-fleet":
                why = check_session(unit, expected[unit["name"]])
            else:
                why = check_trace(unit["reports"], expected[unit["name"]], unit["error"])
            if why is not None:
                failures.append(f"pass {number}: {unit['name']}: {why}")
    return failures


def unit_times(passes: List[dict], key: str) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Each trace's or session's time: the median of its repeats in the
    run, read from ``key`` ("scaled" or "seconds"); and its ops."""
    times: Dict[str, List[float]] = {}
    ops: Dict[str, int] = {}
    for outcome in passes:
        for unit in outcome["units"]:
            times.setdefault(unit["name"], []).append(unit.get(key, unit["seconds"]))
            ops[unit["name"]] = unit["ops"]
    return {name: statistics.median(v) for name, v in times.items()}, ops


def end_to_end(passes: List[dict], serve: bool, setup_s: float, peak_rss_mb: float,
               attempted: int, failed: int, key: str = "scaled") -> Dict[str, float]:
    """The time metrics use calibrated times (``key`` "scaled", see
    ``calibrate.py``): what each trace or session takes on the nominal
    host.  Each one's time is the median of its repeats in the run, and
    the percentiles are over those per-trace times.  Detection analyses
    one trace after another, so its rate is all ops over the summed
    per-trace times; served sessions overlap, so the rate is the median
    pass's."""
    times, ops = unit_times(passes, key)
    if serve:
        wall = "scaled_wall" if key == "scaled" else "wall"
        ops_per_s = statistics.median(p["ops"] / p.get(wall, p["wall"]) for p in passes)
    else:
        ops_per_s = sum(ops.values()) / sum(times.values())
    values = list(times.values())
    return {
        "ops_per_s": ops_per_s,
        "trace_s.p50": percentile(values, 50),
        "trace_s.p90": percentile(values, 90),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": (attempted - failed) / attempted,
    }


def _median_layers(passes: List[dict]) -> Dict[str, float]:
    """Median over passes of each layer's self seconds in a pass."""
    names = set().union(*(p["layers"] for p in passes))
    return {name: statistics.median(p["layers"].get(name, 0.0) for p in passes)
            for name in names}


def per_layer(result: dict, setup_tracers: list) -> Dict[str, float]:
    traced, pooled = result["traced"], result["pooled"]
    metrics: Dict[str, float] = {name: 0 for name, _unit, _better in layers.PER_LAYER}
    metrics.update(_median_layers(
        [{"layers": layers.layer_seconds(t.spans)} for t in setup_tracers]
    ))
    metrics.update(_median_layers(traced))
    if pooled:
        # Inline, router.feed's self time excludes the analysis; pooled,
        # it is demux + dispatch + the backpressure wait on the shard.
        metrics.update(_median_layers(pooled))
        metrics.update(pooled[0]["counts"])
        metrics["parallel.busy_ratio"] = statistics.median(p["busy_ratio"] for p in pooled)
    counts = dict(traced[0]["span_counts"])
    hits, misses = counts.pop("hb.memo_hits"), counts.pop("hb.memo_misses")
    decoded = counts.pop("trace.decoded_ops")
    metrics.update(counts)
    metrics["hb.query.lookups"] = hits + misses
    metrics["hb.query.memo_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    if metrics["trace.decode_s"]:
        metrics["trace.decode_ops_per_s"] = decoded / metrics["trace.decode_s"]
    metrics["bench.untraced_pass_s"] = statistics.median(p["wall"] for p in result["untraced"])
    metrics["bench.traced_pass_s"] = statistics.median(p["wall"] for p in traced)
    metrics["bench.traced_over_untraced"] = (
        metrics["bench.traced_pass_s"] / metrics["bench.untraced_pass_s"]
    )
    return metrics


def layer_table(metrics: Dict[str, float], result: dict) -> List[str]:
    """Each timed layer's self time as a share of the pass it was
    traced in (router.* in the pooled pass, when there is one)."""
    traced = metrics["bench.traced_pass_s"]
    heading = f"layer self time per pass (traced pass {traced:.3f} s"
    pooled = traced
    if result["pooled"]:
        pooled = statistics.median(p["wall"] for p in result["pooled"])
        heading += f", pooled pass {pooled:.3f} s"
    lines = [heading + "):"]
    timed = [m for m in layers.SPAN_LAYER.values()
             if metrics[m] and not m.startswith(("apps.", "trace.encode"))]
    for name in sorted(timed, key=lambda m: -metrics[m]):
        total = pooled if name.startswith("router.") else traced
        lines.append(f"  {name:<26} {metrics[name]:9.4f} s  {100 * metrics[name] / total:5.1f}%")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}; run from a checkout's root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    # Set-up and analysis run on one CPU, the analysing process
    # inheriting it; serve-fleet's router feeds from the other.
    cpus = calibrate.cpu_pair()
    calibrate.pin(cpus[0])

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    # Set-up: the inputs from the seed, generated SETUPS times, each
    # between two calibration samples.
    setup_times: List[float] = []
    setup_tracers: list = []
    inputs = None
    for n in range(SETUPS):
        tracer = layers.Tracer(f"setup-{n}") if args.trace else layers.NULL_TRACER
        before = calibrate.sample()
        t0 = time.perf_counter()
        with tracer.span("bench.setup", f"setup-{n}"):
            generated = workloads.generate(args.workload, args.seed, tracer)
        seconds = time.perf_counter() - t0
        setup_times.append(calibrate.scale(seconds, before, calibrate.sample()))
        if args.trace:
            setup_tracers.append(tracer)
        if inputs is not None and not generated.same_bytes(inputs):
            raise RuntimeError("two generations from one seed gave different inputs")
        inputs = generated

    job = dict(workload=args.workload, seconds=args.seconds, trace=args.trace, src=str(SRC),
               cpus=cpus)
    if args.workload == "serve-fleet":
        job.update(stream=inputs.stream, chunk=workloads.CHUNK_BYTES,
                   first_byte=inputs.first_byte)
    else:
        job.update(payloads=inputs.payloads())
    result = analyse(job, deadline)

    passes = result["untraced"] + result.get("traced", []) + result.get("pooled", [])
    failures = check_units(inputs, passes)
    attempted = sum(len(p["units"]) for p in passes)
    failed = len(failures)
    print(f"perfbench: workload {args.workload}, seed {args.seed} "
          f"(app seeds {workloads.app_seeds(args.workload, args.seed)}), trace {args.trace}: "
          f"{len(passes)} pass(es), {attempted} traces/sessions checked, {failed} failed, "
          f"fail_frac {failed / attempted:.6f}")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")

    if args.trace:
        metrics = per_layer(result, setup_tracers)
        units = {name: unit for name, unit, _better in layers.PER_LAYER}
        for line in layer_table(metrics, result):
            print(line)
        out = args.trace_out or str(
            BENCH_DIR / "out" / f"{args.workload}-seed{args.seed}.trace.json"
        )
        tracers = [p["tracer"] for p in result["pooled"][:1] + result["traced"][:1]]
        layers.write_chrome_trace(
            out, [(os.getpid(), setup_tracers), (result["pid"], tracers)],
            dict(workload=args.workload, seed=args.seed, seconds=args.seconds),
        )
        print(f"spans: {out}")
    else:
        untraced = result["untraced"]
        serve = args.workload == "serve-fleet"
        setup_s = statistics.median(setup_times)
        if serve:
            setup_s += statistics.median(p.get("scaled_start_s", p["start_s"])
                                         for p in untraced)
        metrics = end_to_end(untraced, serve, setup_s, result["peak_rss_mb"],
                             attempted, failed)
        units = dict(END_TO_END)
        raw = end_to_end(untraced, serve, setup_s, result["peak_rss_mb"],
                         attempted, failed, key="seconds")
        print(f"calibrated to a host where the calibration sample takes "
              f"{1000 * calibrate.NOMINAL_S:.0f} ms; as measured on this host: "
              f"ops_per_s {raw['ops_per_s']:.1f}, trace_s.p50 {raw['trace_s.p50']:.4f} s, "
              f"trace_s.p90 {raw['trace_s.p90']:.4f} s "
              f"(this host ran at {raw['ops_per_s'] / metrics['ops_per_s']:.3f}x the nominal speed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
