"""Golden outputs of the whole engine on the ten stock apps.

One committed fixture pins what the analysis produces for every app at
scale 0.02, seed 0: the CAFA and conventional happens-before graphs
(key-node count, edge count by rule, fixpoint rounds, derived edges and
a sha256 of the sorted ``(u, v, rule)`` edge list), the use-free
reports with their race class and ground-truth verdict, the filtered
reports with the heuristic that dropped them, the dynamic candidate
count, the low-level races and the Table 1 row.  Any refactor of the
trace store, the closure engine or the detectors must leave this
fingerprint unchanged.

Regenerate the fixture (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/test_golden_apps.py
"""

import hashlib
import json
import os
import sys
from collections import Counter
from dataclasses import asdict

import pytest

from repro.analysis.precision import evaluate_run
from repro.apps import ALL_APPS
from repro.detect import LowLevelDetector
from repro.hb import CAFA_MODEL, CONVENTIONAL_MODEL, build_happens_before

SCALE, SEED = 0.02, 0
FIXTURE = os.path.join(os.path.dirname(__file__), "data", "golden_apps.json")


def _sha256(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def hb_fingerprint(hb) -> dict:
    edges = sorted(hb.graph.edges())
    return {
        "key_nodes": hb.graph.node_count,
        "edges_by_rule": dict(sorted(Counter(rule for _, _, rule in edges).items())),
        "rounds": hb.iterations,
        "derived_edges": hb.derived_edges,
        "edges_sha256": _sha256(f"{u} {v} {rule}" for u, v, rule in edges),
    }


def app_fingerprint(app_cls) -> dict:
    run = app_cls(scale=SCALE, seed=SEED).run()
    trace = run.trace
    evaluation = evaluate_run(run)
    result = evaluation.result
    low = sorted(
        f"{r.var_class} {r.site_a} {r.site_b} {int(r.write_write)}"
        for r in LowLevelDetector(trace).detect().races
    )
    return {
        "ops": len(trace),
        "hb": {
            "cafa": hb_fingerprint(build_happens_before(trace, CAFA_MODEL)),
            "conventional": hb_fingerprint(
                build_happens_before(trace, CONVENTIONAL_MODEL)
            ),
        },
        "reports": [
            [
                str(r.key),
                r.race_class.value if r.race_class else None,
                r.verdict.value if r.verdict else None,
                r.dynamic_count,
            ]
            for r in result.reports
        ],
        "filtered": [
            [str(r.key), r.witnesses[0].filtered_by]
            for r in result.filtered_reports
        ],
        "dynamic_candidates": result.dynamic_candidates,
        "lowlevel": {"races": len(low), "sha256": _sha256(low)},
        "table1_row": asdict(evaluation.row()),
    }


def fingerprint() -> dict:
    return {
        "scale": SCALE,
        "seed": SEED,
        "apps": {app_cls.name: app_fingerprint(app_cls) for app_cls in ALL_APPS},
    }


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE, encoding="utf-8") as fp:
        return json.load(fp)


@pytest.fixture(scope="module")
def measured():
    return fingerprint()


def test_fixture_covers_every_app(golden):
    assert sorted(golden["apps"]) == sorted(a.name for a in ALL_APPS)
    assert (golden["scale"], golden["seed"]) == (SCALE, SEED)


@pytest.mark.parametrize("app_cls", ALL_APPS, ids=lambda a: a.name)
def test_app_matches_golden(golden, measured, app_cls):
    assert measured["apps"][app_cls.name] == golden["apps"][app_cls.name]


def test_fixture_is_canonical(golden):
    """The committed file is exactly what the regenerator would write,
    so a regeneration diff shows only real behaviour changes."""
    with open(FIXTURE, encoding="utf-8") as fp:
        assert fp.read() == dumps(golden)


if __name__ == "__main__":
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as fp:
        fp.write(dumps(fingerprint()))
    sys.stdout.write(f"wrote {FIXTURE}\n")
