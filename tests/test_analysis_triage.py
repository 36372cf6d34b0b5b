"""The corpus triage pipeline: per-item damaged reporting, salvage
passthrough, serial/parallel parity, the JSON schema, the budget-curve
sweep, and the ``repro triage`` command."""

import json

import pytest

from repro.analysis import budget_curve, triage_corpus
from repro.apps import ALL_APPS
from repro.cli import main
from repro.detect import UseFreeDetector
from repro.runtime import AndroidSystem
from repro.trace import load_trace_file, save_trace_file

RACY_APP = ALL_APPS[0]
BUDGET = 1 << 20  # exhaustive for every fixture trace


def write_racy(path, scale=0.02, seed=0):
    trace = RACY_APP(scale=scale, seed=seed).run().trace
    save_trace_file(trace, path)
    return trace


def write_clean(path):
    system = AndroidSystem(seed=1)
    app = system.process("clean")
    app.thread("t", lambda ctx: ctx.write("x", 1))
    system.run()
    save_trace_file(system.trace(), path)
    return system.trace()


def write_truncated(path, tmp_path):
    whole = tmp_path / "whole.bin"
    write_racy(whole)
    data = whole.read_bytes()
    path.write_bytes(data[: len(data) * 2 // 3])


@pytest.fixture()
def corpus(tmp_path):
    racy = tmp_path / "racy.bin"
    clean = tmp_path / "clean.bin"
    broken = tmp_path / "broken.bin"
    write_racy(racy)
    write_clean(clean)
    write_truncated(broken, tmp_path)
    missing = tmp_path / "missing.bin"
    return [str(racy), str(clean), str(broken), str(missing)]


class TestTriageCorpus:
    def test_statuses_are_per_item(self, corpus):
        report = triage_corpus(corpus, budget=BUDGET)
        assert [i.status for i in report.items] == [
            "flagged",
            "clean",
            "damaged",
            "damaged",
        ]
        assert [i.name for i in report.items] == corpus
        for item in report.damaged:
            assert item.error

    def test_flagged_races_match_full_detection(self, corpus):
        report = triage_corpus(corpus, budget=BUDGET)
        flagged = report.items[0]
        trace = load_trace_file(corpus[0])
        full = UseFreeDetector(trace).detect()
        assert flagged.races == len(full.reports)
        assert flagged.reports == [str(r) for r in full.reports]
        assert flagged.sample is not None
        assert flagged.sample.exhaustive

    def test_clean_trace_skips_escalation(self, corpus):
        report = triage_corpus(corpus, budget=BUDGET)
        clean = report.items[1]
        assert clean.races == 0
        assert clean.reports == []
        assert clean.full_seconds == 0.0

    def test_salvage_triages_the_valid_prefix(self, corpus):
        report = triage_corpus(corpus, budget=BUDGET, salvage=True)
        salvaged = report.items[2]
        assert salvaged.status in ("flagged", "clean")
        assert salvaged.salvaged
        assert salvaged.error
        assert salvaged.ops > 0
        # The missing file still cannot be salvaged.
        assert report.items[3].status == "damaged"

    def test_parallel_matches_serial(self, corpus):
        def fidelity(report):
            return [
                (i.name, i.status, i.races, i.suspects, i.budget_spent,
                 i.salvaged, i.reports)
                for i in report.items
            ]

        serial = triage_corpus(corpus, budget=BUDGET, salvage=True)
        fanned = triage_corpus(corpus, budget=BUDGET, salvage=True, jobs=2)
        assert fidelity(serial) == fidelity(fanned)

    def test_json_document_shape(self, corpus):
        report = triage_corpus(corpus, budget=7, seed=3)
        doc = json.loads(report.to_json())
        assert doc["schema"] == "repro-triage/1"
        assert doc["budget"] == 7
        assert doc["seed"] == 3
        assert doc["counts"]["traces"] == 4
        assert doc["counts"]["damaged"] == 2
        assert len(doc["items"]) == 4
        for item in doc["items"]:
            assert {"name", "status", "budget_spent", "races"} <= set(item)


class TestBudgetCurve:
    def test_fidelity_columns_are_deterministic(self):
        apps = ALL_APPS[:2]
        kwargs = dict(apps=apps, budgets=[1, 64], scale=0.02)
        first = budget_curve(**kwargs)
        second = budget_curve(**kwargs, jobs=2)

        def fidelity(curve):
            return [
                (p.budget, p.racy_apps, p.flagged_apps, p.flagged_racy,
                 p.recall, p.trace_precision, p.pairs_sampled, p.suspects,
                 p.confirmed, p.pair_precision)
                for p in curve.points
            ]

        assert fidelity(first) == fidelity(second)

    def test_recall_is_one_at_ample_budget(self):
        curve = budget_curve(budgets=[1 << 20], scale=0.02)
        assert len(curve.apps) == len(ALL_APPS)
        point = curve.points[0]
        assert point.racy_apps == len(ALL_APPS)
        assert point.recall == 1.0
        assert point.trace_precision == 1.0

    def test_rejects_empty_budget_list(self):
        with pytest.raises(ValueError):
            budget_curve(budgets=[])


class TestTriageCli:
    def test_reports_and_exit_codes(self, corpus, capsys, tmp_path):
        out_json = tmp_path / "triage.json"
        rc = main(
            ["triage", *corpus, "--budget", "1048576",
             "--json", str(out_json)]
        )
        assert rc == 1  # damaged members without --salvage
        out = capsys.readouterr().out
        assert "2 damaged" in out
        assert "flagged" in out
        doc = json.loads(out_json.read_text(encoding="utf-8"))
        assert doc["schema"] == "repro-triage/1"

    def test_salvage_clears_the_failure_exit(self, corpus, capsys):
        assert main(["triage", *corpus[:3], "--salvage"]) == 0
        assert "[salvaged]" in capsys.readouterr().out

    def test_requires_traces_or_curve(self, capsys):
        assert main(["triage"]) == 2
        assert "provide trace files" in capsys.readouterr().err

    def test_curve_sweep(self, capsys):
        rc = main(
            ["triage", "--curve", "--budgets", "4", "--scale", "0.02",
             "--json", "-"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "budget sweep over 10 apps" in out
        payload = out[out.index("{"):]
        doc = json.loads(payload)
        assert doc["points"][0]["budget"] == 4
