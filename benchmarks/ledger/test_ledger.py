"""Tests of the ledger itself.  Outside tier-1 ``testpaths``; run with

    PYTHONPATH=src python -m pytest benchmarks/ledger
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from benchmarks.ledger import prices, runner, spec
from benchmarks.ledger.child import Worker
from benchmarks.ledger.tracer import ROOT, Tracer, _resolve, wrappers_installed
from benchmarks.ledger.workloads import BUILDERS

REPO = Path(__file__).resolve().parents[2]


class FakeClock:
    """Time passes only where the test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def work(self, seconds: float) -> None:
        self.now += seconds


def _self_by_site(tracer: Tracer) -> dict[str, float]:
    col = tracer.columns
    out: dict[str, float] = {}
    for site, self_s in zip(col["site"], col["self_s"]):
        name = tracer.sites[site][0]
        out[name] = out.get(name, 0.0) + float(self_s)
    return out


def test_self_time_of_interleaved_generators():
    """Two generators resumed in turn and one plain callee: time spent
    while a generator is suspended is not charged to it, and self times
    add up to the root."""
    clock = FakeClock()
    tracer = Tracer(layers={}, clock=clock)

    def plain():
        clock.work(2)

    plain = tracer.wrap(plain, "plain", "x")

    def gen_a():
        clock.work(1)
        yield
        plain()
        clock.work(1)
        yield
        clock.work(3)
        return "a done"

    def gen_b():
        clock.work(5)
        yield
        clock.work(7)

    def trampoline():
        a, b = tracer.wrap(gen_a, "a", "x")(), tracer.wrap(gen_b, "b", "x")()
        for ctx in (a, b, a, b, a):
            try:
                ctx.send(None)
            except StopIteration as stop:
                last = stop.value
        clock.work(0.5)
        return last

    with tracer.root():
        assert tracer.wrap(trampoline, "trampoline", "x")() == "a done"

    self_s = _self_by_site(tracer)
    assert self_s == {"sample": 0.0, "trampoline": 0.5, "a": 5.0, "plain": 2.0, "b": 12.0}
    col = tracer.columns
    assert sum(self_s.values()) == col["dur"][ROOT] == 19.5
    # a: one call, three segments; its rows never overlap b's
    a_id = next(i for i, s in enumerate(tracer.sites) if s[0] == "a")
    assert (col["site"] == a_id).sum() == 3
    assert (col["first"] & (col["site"] == a_id)).sum() == 1


def test_blocked_thread_is_not_charged():
    """A span open on a thread that blocks while another thread runs is
    split: the other thread's time is not in it, and the gap between the
    last event of one thread and the first of the next is the handoff."""
    clock = FakeClock()
    tracer = Tracer(layers={}, clock=clock)
    go, back = threading.Event(), threading.Event()
    mark = tracer.wrap(lambda: None, "mark", "x")

    def other_body():
        clock.work(10)

    other_body = tracer.wrap(other_body, "other", "x")

    def other_thread():
        go.wait(5)
        clock.work(0.25)  # resuming: no tracer event yet
        other_body()
        back.set()

    def blocking():
        clock.work(1)
        mark()  # the last event before this thread blocks
        go.set()
        back.wait(5)  # blocked: the other thread runs meanwhile
        mark()
        clock.work(2)

    with tracer.root():
        thread = threading.Thread(target=other_thread)
        thread.start()
        tracer.wrap(blocking, "blocking", "x")()
        thread.join(5)
    assert not thread.is_alive()
    self_s = _self_by_site(tracer)
    assert self_s == {
        "sample": 0.0, "blocking": 3.0, "mark": 0.0, "other": 10.0, "thread handoff": 0.25,
    }
    assert sum(self_s.values()) == tracer.columns["dur"][ROOT] == 13.25


def test_generator_wrapper_forwards_throw_and_close():
    tracer = Tracer(layers={})
    seen = []

    def gen():
        try:
            yield 1
        except KeyError:
            seen.append("thrown")
            yield 2
        finally:
            seen.append("closed")

    with tracer.root():
        g = tracer.wrap(gen, "g", "x")()
        assert next(g) == 1
        assert g.throw(KeyError()) == 2
        g.close()
    assert seen == ["thrown", "closed"]


def test_wrappers_fully_restored():
    from repro.core import queue
    from repro.obs import record
    from repro.sim.engine import Engine

    targets = [
        (owner, attr)
        for sites in spec.LAYERS.values()
        for site in sites
        for owner, attr, _ in _resolve(site)
    ]
    before = [vars(owner)[attr] for owner, attr in targets]
    spawn, span = vars(Engine)["spawn"], record.span
    assert wrappers_installed() == []
    with Tracer().installed():
        assert len(wrappers_installed()) >= len(targets)
        # a module that did `from repro.obs.record import span` is patched too
        assert queue.span is record.span is not span
    assert wrappers_installed() == []
    assert [vars(owner)[attr] for owner, attr in targets] == before
    assert vars(Engine)["spawn"] is spawn
    assert queue.span is record.span is span


def test_traced_run_is_the_same_run():
    """Wrappers must not change what the program does."""
    worker = Worker(BUILDERS["uts_recorded"](3, _workdir()))
    plain = worker.sample()
    traced = worker.trace(None)
    assert plain["failed"] == traced["failed"] == 0
    m = traced["metrics"]
    assert m["sim.events"] == plain["events"]
    assert set(m) == set(spec.per_layer()) - set(spec.PRICES) - {"ledger.reconstruct_ratio"}
    assert m["core.task.calls"] == 30_929  # one clone per UTS node
    assert m["obs.tracing.calls"] > 0 and m["obs.stream.calls"] > 0
    assert m["trace.coverage"] >= 0.9
    assert abs(sum(m[f"{layer}.share"] for layer in spec.LAYERS) - m["trace.coverage"]) < 1e-9
    assert wrappers_installed() == []


def _workdir() -> Path:
    runner.WORK.mkdir(parents=True, exist_ok=True)
    return runner.WORK


def test_names_and_sites():
    for name in [*spec.WORKLOADS, *spec.END_TO_END, *spec.per_layer()]:
        assert spec.NAME_RE.fullmatch(name), name
    spec.validate_definition(spec.definition())
    for sites in spec.LAYERS.values():
        for site in sites:
            resolved = _resolve(site)
            assert resolved, site
            for owner, attr, _ in resolved:
                assert attr in vars(owner), site
    assert list(BUILDERS) == list(spec.WORKLOADS)
    assert list(prices._MEASURES) == spec.PRICES


def test_committed_definition_matches_code():
    doc = json.loads((REPO / "BENCHMARK.json").read_text())
    spec.validate_definition(doc)
    assert doc == spec.definition()
    assert [w["name"] for w in doc["workloads"]] == list(spec.WORKLOADS)
    assert [m["name"] for m in doc["per_layer"]] == list(spec.per_layer())


@pytest.mark.parametrize("bad", [
    {"run_seconds": 61},
    {"workloads": [{"name": "only", "why": "one"}]},
    {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.3}]},
    {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]},
    {"per_layer": [{"name": "a b", "unit": "s", "better": "lower"}]},
    {"extra": 1},
])
def test_definition_validation_rejects(bad):
    with pytest.raises(ValueError):
        spec.validate_definition({**spec.definition(), **bad})


def test_wrong_oracle_is_counted():
    workload = BUILDERS["uts_locked_mpi"](0, _workdir())
    assert Worker(workload).sample()["failed"] == 0
    workload.expected["nodes"] += 1
    reply = Worker(workload).sample()
    assert reply["attempted"] == 2 and reply["failed"] == 2
    assert "tree counts differ" in reply["failures"][0]


def test_failed_oracle_exits_nonzero_and_spares_the_others(tmp_path):
    out = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.ledger", "--smoke", "--out", str(out),
         "--workloads", "uts_locked_mpi,ga_apps", "--break-oracle", "uts_locked_mpi"],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stderr
    record = json.loads(out.read_text())
    assert record["schema"] == runner.SCHEMA and record["claim"] is None
    broken, spared = record["workloads"]["uts_locked_mpi"], record["workloads"]["ga_apps"]
    assert broken["exact"]["failed_ops_share"] > 0
    assert spared["exact"]["failed"] == 0 and spared["end_to_end"]["wall_s"]["n"] == 2
    assert {"platform", "python", "numpy", "nproc", "seed", "repeats", "git_commit",
            "calib_ms"} <= set(record["host"])


def test_driver_run_prints_the_contract_line():
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.ledger", "--workload", "ga_apps",
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["attempted"] >= 8 and result["failed"] == 0
    assert list(result["metrics"]) == list(spec.END_TO_END)
    for name, (unit, _, _) in spec.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0


def _record(wall: list[float], events: int = 100) -> dict:
    def q(values):
        stats = runner.quartiles(values)
        return {"value": stats["median"], **stats, "unit": "x"}

    e2e = {m: q([1.0, 1.0, 1.0]) for m in spec.END_TO_END}
    e2e["wall_s"] = q(wall)
    return {
        "schema": runner.SCHEMA,
        "host": {"git_commit": None, "seed": 0, "repeats": len(wall)},
        "workloads": {"uts_split": {
            "end_to_end": e2e,
            "exact": {"events": events, "sim_elapsed_us": 5.0},
            "per_layer": {"core.task.calls": events, "core.task.busy_s": 0.1},
        }},
    }


@pytest.mark.parametrize("wall_b, events_b, verdict, code", [
    ([1.0, 1.01, 1.02], 100, "same", 0),
    ([1.5, 1.51, 1.52], 100, "worse", 1),
    ([0.5, 0.51, 0.52], 100, "better", 0),
    ([0.6, 1.0, 1.6], 100, "unresolved", 0),
    ([1.0, 1.01, 1.02], 101, "same", 0),
])
def test_compare_verdicts(tmp_path, capsys, wall_b, events_b, verdict, code):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_record([1.0, 1.01, 1.02])))
    b.write_text(json.dumps(_record(wall_b, events_b)))
    assert runner.compare(str(a), str(b)) == code
    out = capsys.readouterr().out
    wall_row = next(line for line in out.splitlines() if " wall_s " in f" {line} ")
    assert wall_row.endswith(verdict)
    if events_b != 100:
        assert "events 100 != 101" in out and "core.task.calls 100 != 101" in out
    else:
        assert "identical" in out
