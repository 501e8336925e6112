"""Each value's domain, checked once and shared by the flags and the API.

The usage-error matrix is generated from every ``build_parser()``: each
numeric flag of each parser and subparser gets nan, inf and -inf, and
also -1 and 0 where its argparse type refuses them.  Every case must
exit 2 naming the flag before anything runs; ``Engine.run`` and
``ProcessPool`` raise here, so a value that slipped through fails at
once instead of starting ranks or workers.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import math
from pathlib import Path

import pytest

from repro.fleet.jobs import explore_jobs
from repro.fleet.scheduler import FleetScheduler
from repro.obs.live import TelemetryBus
from repro.obs.scenarios import run_target
from repro.sim.engine import Engine

MODULES = [
    "repro.check", "repro.analyze", "repro.obs", "repro.bench", "repro.fleet",
    "repro.apps.uts", "repro.apps.scf", "repro.apps.tce",
]


def _parsers(parser, prefix):
    """(argv prefix, parser) for ``parser`` and every subparser under it."""
    yield prefix, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _parsers(sub, prefix + [name])


def _required(parser) -> list[str]:
    """argv that fills the parser's positionals and required options."""
    argv = []
    for a in parser._actions:
        if isinstance(a, argparse._SubParsersAction):
            continue
        if not a.option_strings and a.nargs not in ("*", "?"):
            argv.append(sorted(a.choices)[0] if a.choices else "x.json")
        elif a.option_strings and a.required:
            argv += [a.option_strings[0], "x.json"]
    return argv


def _refuses(action, text: str) -> bool:
    try:
        action.type(text)
    except (argparse.ArgumentTypeError, ValueError):
        return True
    return False


def _cases():
    for module in MODULES:
        root = importlib.import_module(f"{module}.__main__").build_parser()
        for prefix, parser in _parsers(root, []):
            base = prefix + _required(parser)
            for a in parser._actions:
                if not a.option_strings or a.type is None or _refuses(a, "1"):
                    continue  # not a numeric flag
                flag = a.option_strings[0]
                for value in ("nan", "inf", "-inf", "-1", "0"):
                    if value in ("nan", "inf", "-inf") or _refuses(a, value):
                        yield module, base + [f"{flag}={value}"], flag


CASES = list(_cases())


class _Started(BaseException):
    """Raised where work would start; no ``except Exception`` swallows it."""


@pytest.fixture
def nothing_starts(monkeypatch):
    def start(*args, **kwargs):
        raise _Started("a refused value reached the run")

    monkeypatch.setattr(Engine, "run", start)
    monkeypatch.setattr("repro.fleet.scheduler.ProcessPool", start)


def test_matrix_reaches_every_tool():
    flags = {(module, flag) for module, _, flag in CASES}
    for expected in [
        ("repro.check", "--schedules"), ("repro.check", "--engine-seed"),
        ("repro.analyze", "--jobs"), ("repro.obs", "--live-interval"),
        ("repro.obs", "--threshold"), ("repro.bench", "--jobs"),
        ("repro.fleet", "--jobs"), ("repro.apps.uts", "--b0"),
        ("repro.apps.uts", "--q"), ("repro.apps.tce", "--density"),
        ("repro.apps.scf", "--iters"),
    ]:
        assert expected in flags


@pytest.mark.parametrize(
    "module,argv,flag", CASES, ids=[f"{m} {' '.join(a)}" for m, a, _ in CASES]
)
def test_refused_value_exits_2_naming_the_flag(module, argv, flag, nothing_starts, capsys):
    main = importlib.import_module(f"{module}.__main__").main
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2, err
    assert f"argument {flag}" in err
    assert "Traceback" not in err


class TestApiRefusesWhatTheFlagRefuses:
    def test_engine_seed(self):
        with pytest.raises(ValueError, match=r"^seed\b"):
            Engine(2, seed=-1)

    def test_engine_nprocs(self):
        with pytest.raises(ValueError, match=r"^nprocs\b"):
            Engine(0)

    @pytest.mark.parametrize("interval", [math.nan, math.inf, 0.0, -1.0, 1e-20])
    def test_telemetry_interval(self, tmp_path, interval):
        with pytest.raises(ValueError, match=r"^interval\b"):
            TelemetryBus(tmp_path / "f.jsonl", interval=interval)

    def test_run_target_live_interval(self, tmp_path):
        with pytest.raises(ValueError, match=r"^interval\b"):
            run_target("queue", live_path=tmp_path / "f.jsonl", live_interval=math.nan)

    def test_explore_schedules(self):
        with pytest.raises(ValueError, match=r"^schedules\b"):
            explore_jobs(["queue"], 0)

    def test_fleet_workers(self):
        with pytest.raises(ValueError, match=r"^nworkers\b"):
            FleetScheduler(0)


def test_interval_below_clock_resolution_exits_2(tmp_path, capsys):
    from repro.obs.__main__ import main

    with pytest.raises(SystemExit) as exc:
        main(["run", "queue", "--live", str(tmp_path / "f.jsonl"),
              "--live-interval", "1e-20"])
    assert exc.value.code == 2
    assert "argument --live-interval" in capsys.readouterr().err


def test_runtime_does_not_import_the_cli_layer():
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    files = [p for pkg in ("sim", "core", "armci", "ga") for p in (src / pkg).rglob("*.py")]
    files += [src / "obs" / f"{m}.py" for m in ("record", "tracing", "stream", "live")]
    files.append(src / "check" / "runner.py")
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names] + [node.module]
            else:
                continue
            for name in names:
                assert name != "argparse" and not str(name).startswith("repro.cli"), path
