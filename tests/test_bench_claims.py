"""The paper-shape claims (``repro.bench.claims``) over the committed record."""

from __future__ import annotations

import copy
from pathlib import Path

import pytest

from repro.bench.claims import CLAIMS
from repro.bench.harness import BENCH_SCHEMA, validate_bench_json
from repro.util.io import read_record
from repro.util.records import Series, SweepResult

RECORD = Path(__file__).resolve().parents[1] / "BENCH_sim.json"
QUICK_CLAIMS = [c for c in CLAIMS if "quick" in c.scales]


@pytest.fixture(scope="module")
def record() -> dict:
    doc = read_record(RECORD, BENCH_SCHEMA)
    validate_bench_json(doc)
    assert doc["scale"] == "quick"
    return doc


def _results(doc: dict) -> dict[str, SweepResult]:
    return {e["experiment"]: SweepResult.from_dict(e) for e in doc["experiments"]}


def _failures(doc: dict) -> dict[str, str]:
    results = _results(doc)
    out = {c.name: c.failure(results) for c in QUICK_CLAIMS}
    return {name: why for name, why in out.items() if why is not None}


def _series(doc: dict, experiment: str, label: str) -> dict:
    (exp,) = [e for e in doc["experiments"] if e["experiment"] == experiment]
    (s,) = [s for s in exp["series"] if s["label"] == label]
    return s


def test_the_table_holds_28_claims_27_at_quick_scale():
    assert len(CLAIMS) == 28
    assert len({c.name for c in CLAIMS}) == 28
    assert [c.name for c in CLAIMS if "quick" not in c.scales] == ["fig5_scf_ahead_at_64"]
    assert all(c.reason for c in CLAIMS)


def test_every_quick_claim_holds_on_the_committed_record(record):
    assert _failures(record) == {}


def test_a_perturbed_record_fails_exactly_the_claims_over_the_changed_series(record):
    doc = copy.deepcopy(record)
    split = _series(doc, "figure7", "Split-Queues")
    nosplit = _series(doc, "figure7", "No-Split")
    split["ys"], nosplit["ys"] = nosplit["ys"], split["ys"]
    measured = _series(doc, "table1", "cluster-measured")
    measured["ys"] = [2 * y for y in measured["ys"]]
    failures = _failures(doc)
    assert sorted(failures) == [
        "fig7_mpi_beats_nosplit",
        "fig7_split_beats_mpi",
        "fig7_split_vs_locked",
        "table1_within_40pct",
    ]
    assert "Split-Queues > MPI-WS" in failures["fig7_split_beats_mpi"]


def test_a_missing_experiment_or_label_fails_loudly(record):
    doc = copy.deepcopy(record)
    doc["experiments"] = [e for e in doc["experiments"] if e["experiment"] != "figure8"]
    _series(doc, "figure7", "MPI-WS")["label"] = "MPI"
    failures = _failures(doc)
    assert set(failures) == {
        "fig8_scioto_near_mpi",
        "fig8_scioto_scales",
        "fig7_split_beats_mpi",
        "fig7_mpi_beats_nosplit",
        "fig7_mpi_scales",
    }
    assert "no experiment 'figure8'" in failures["fig8_scioto_scales"]
    assert "no series labelled 'MPI-WS'" in failures["fig7_mpi_scales"]


def test_a_missing_sweep_point_fails_loudly(record):
    doc = copy.deepcopy(record)
    td = _series(doc, "figure4", "scioto-termination")
    keep = [i for i, x in enumerate(td["xs"]) if x != 2]
    td["xs"] = [td["xs"][i] for i in keep]
    td["ys"] = [td["ys"][i] for i in keep]
    failures = _failures(doc)
    assert {"fig4_grows", "fig4_sublinear"} <= set(failures)
    assert "cannot evaluate" in failures["fig4_grows"]


def _inverted_figure7(scale):
    result = SweepResult(experiment="figure7")
    for label, ys in (("Split-Queues", [1.0, 1.5]), ("MPI-WS", [2.0, 5.0]),
                      ("No-Split", [0.5, 1.2])):
        result.series.append(Series(label=label, xs=[2, 16], ys=ys, unit="Mnodes/s"))
    return result


def test_bench_cli_exits_1_naming_a_broken_claim(monkeypatch, capsys):
    from repro.bench.__main__ import EXPERIMENTS, main

    monkeypatch.setitem(EXPERIMENTS, "figure7", (_inverted_figure7, {}))
    assert main(["--only", "figure7", "--no-json"]) == 1
    out, err = capsys.readouterr()
    assert "claims: 2/5 hold at scale=quick" in out
    assert "claim failed: fig7_split_beats_mpi" in err
    assert "claim failed: fig7_split_vs_locked" in err
    assert "claim failed: fig7_split_scales" in err
    assert "fig7_mpi_scales" not in err
