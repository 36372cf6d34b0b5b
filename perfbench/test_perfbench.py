"""The benchmark's own checks.  Run from the repository root:

    python3 -m pytest perfbench -q

They run ``run.py`` as a subprocess, as it is run from the command line,
with short runs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, check_session, check_trace  # noqa: E402

#: per-layer metrics that are counts, not timings: they must repeat
COUNTS = [name for name, unit, _better in layers.PER_LAYER if unit in ("count", "B")]


def bench(root: Path, workload: str, seed: int, trace: int, *extra: str):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=root, capture_output=True, text=True, timeout=180,
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_metrics_run_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


def test_trace_check_fails_on_wrong_reports():
    labels = [("f", "use", "free"), ("g", "use", "free")]
    assert check_trace(list(reversed(labels)), labels, None) is None
    assert check_trace(labels[:1], labels, None) == "1 missed label(s)"
    assert check_trace(labels + [("h", "u", "v")], labels, None) == "1 unmatched report(s)"
    assert check_trace(None, labels, "TraceFormatError: cut") == "TraceFormatError: cut"


def test_session_check_fails_on_damage_or_wrong_count():
    labels = [("f", "use", "free")] * 3
    good = dict(reports=3, ended=True, degraded=False, error=None)
    assert check_session(good, labels) is None
    assert check_session(dict(good, reports=2), labels) == "2 reports, 3 labels"
    assert check_session(dict(good, degraded=True), labels) == "session degraded"
    assert check_session(dict(good, ended=False), labels) is not None
    assert check_session(dict(good, error="boom"), labels) == "boom"


def test_calibration_cancels_host_speed():
    nominal = calibrate.NOMINAL_S
    assert calibrate.scale(1.5, nominal, nominal) == pytest.approx(1.5)
    # twice as slow, beside samples twice as slow: the same scaled time
    assert calibrate.scale(3.0, 2 * nominal, 2 * nominal) == pytest.approx(1.5)
    assert calibrate.scale(3.0, nominal, 3 * nominal) == pytest.approx(1.5)
    assert calibrate.work() == calibrate.work()


def test_end_to_end_uses_each_units_median_scaled_time():
    def unit(name, seconds, scaled):
        return dict(name=name, seconds=seconds, scaled=scaled, ops=100)

    passes = [dict(units=[unit("a", 1.0, 2.0), unit("b", 1.0, 4.0)]),
              dict(units=[unit("a", 9.0, 1.0), unit("b", 9.0, 4.0)]),
              dict(units=[unit("a", 1.0, 3.0), unit("b", 1.0, 4.0)])]
    metrics = run.end_to_end(passes, False, 0.5, 40.0, 6, 0)
    assert metrics["ops_per_s"] == pytest.approx(200 / (2.0 + 4.0))
    assert metrics["trace_s.p50"] == pytest.approx(3.0)
    raw = run.end_to_end(passes, False, 0.5, 40.0, 6, 0, key="seconds")
    assert raw["ops_per_s"] == pytest.approx(200 / 2.0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_and_outputs_match_labels(workload, tmp_path):
    first, second = (
        result_of(bench(ROOT, workload, 0, 1, "--trace-out", str(tmp_path / f"{n}.json")))
        for n in range(2)
    )
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {name for name, _unit, _better in layers.PER_LAYER}
    assert {k: first["metrics"][k] for k in COUNTS} == {k: second["metrics"][k] for k in COUNTS}
    spans = json.loads((tmp_path / "0.json").read_text())["traceEvents"]
    assert spans and all({"id", "parent", "unit"} <= set(s["args"]) for s in spans)
    builds = first["metrics"]["hb.build_calls"]["value"]
    if workload == "serve-fleet":
        assert builds == 0  # all analysis is IncrementalHB ingest and poll
    else:
        assert builds > 0
    other_seed = result_of(bench(ROOT, workload, 7, 0))
    assert other_seed["correct"] and other_seed["failed"] == 0
    assert set(other_seed["metrics"]) == {name for name, _unit in run.END_TO_END}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(tmp_path, "detect-large-v3", 0, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
