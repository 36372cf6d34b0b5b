"""The cross-app scaling matrix: determinism across worker counts,
the JSON table shape, and the CLI subcommand."""

import json

import pytest

from repro.analysis import ScalingMatrix, scaling_matrix
from repro.apps import ALL_APPS
from repro.cli import main

APPS = ALL_APPS[:3]
SCALES = [0.02, 0.05]

#: ScalingPoint fields that measure wall-clock, not behavior — a
#: parallel run cannot reproduce them and the determinism assertions
#: must ignore them.
TIMING_FIELDS = {"hb_seconds", "detect_seconds"}


def fingerprint(matrix: ScalingMatrix):
    """Everything deterministic about a matrix, comparably."""
    table = matrix.as_dict()
    for points in table["apps"].values():
        for point in points:
            for field in TIMING_FIELDS:
                del point[field]
    return table


class TestScalingMatrix:
    def test_parallel_equals_serial(self):
        serial = scaling_matrix(apps=APPS, scales=SCALES, seed=0)
        parallel = scaling_matrix(apps=APPS, scales=SCALES, seed=0, jobs=3)
        assert fingerprint(parallel) == fingerprint(serial)

    def test_rows_stay_in_app_order(self):
        matrix = scaling_matrix(apps=APPS, scales=[0.02], jobs=2)
        assert list(matrix.rows) == [a.name for a in APPS]
        assert all(len(points) == 1 for points in matrix.rows.values())

    def test_points_carry_the_closure_counters(self):
        matrix = scaling_matrix(apps=APPS[:1], scales=SCALES)
        points = matrix.rows[APPS[0].name]
        assert [p.trace_ops for p in points] == sorted(
            p.trace_ops for p in points
        )
        for point in points:
            assert point.key_nodes > 0
            assert point.closure_bytes > 0
            assert point.chunks_allocated > 0

    def test_to_json_is_one_table(self):
        matrix = scaling_matrix(apps=APPS[:2], scales=[0.02])
        table = json.loads(matrix.to_json())
        assert set(table) == {"scales", "seed", "apps"}
        assert list(table["apps"]) == [a.name for a in APPS[:2]]
        point = table["apps"][APPS[0].name][0]
        assert {"events", "closure_bytes", "events_repropagated"} <= set(point)

    def test_rejects_bad_jobs_and_empty_scales(self):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            scaling_matrix(apps=APPS, jobs=0)
        with pytest.raises(ValueError, match="at least one scale"):
            scaling_matrix(apps=APPS, scales=[])


class TestScalingMatrixCLI:
    def test_prints_json_to_stdout(self, capsys):
        assert main(
            ["scaling-matrix", "--apps", "vlc", "--scales", "0.02"]
        ) == 0
        table = json.loads(capsys.readouterr().out)
        assert list(table["apps"]) == ["vlc"]

    def test_writes_json_file_with_jobs(self, tmp_path, capsys):
        out = tmp_path / "matrix.json"
        assert main(
            [
                "scaling-matrix",
                "--apps", "vlc", "mytracks",
                "--scales", "0.02",
                "--jobs", "2",
                "-o", str(out),
            ]
        ) == 0
        assert f"wrote {out}" in capsys.readouterr().out
        table = json.loads(out.read_text())
        assert list(table["apps"]) == ["vlc", "mytracks"]

    def test_unknown_app_is_a_usage_error(self, capsys):
        assert main(["scaling-matrix", "--apps", "ghost"]) == 2
        assert "unknown app" in capsys.readouterr().err
