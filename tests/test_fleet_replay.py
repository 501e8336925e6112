"""Fleet forensics is replay: every lost job prints one command that reruns it.

A job is a module-level function plus literal keyword arguments, so
:meth:`~repro.fleet.jobs.Job.replay_command` reruns it alone in a fresh
interpreter: a SIGKILL probe dies the same death, a raising probe
raises the same error, and an exploration shard reruns its schedules.
"""

from __future__ import annotations

import os
import shlex
import signal
import subprocess
from pathlib import Path

import pytest

import repro
from repro.fleet.__main__ import main as fleet_main
from repro.fleet.jobs import Job, explore_jobs, probe
from repro.fleet.scheduler import run_campaign

#: The replay commands import ``repro``; point the child at this tree.
_ENV = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}


def run_command(cmd: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        shlex.split(cmd), env=_ENV, capture_output=True, text=True, timeout=120
    )


def replay_lines(text: str) -> list[str]:
    return [line.split("replay: ", 1)[1] for line in text.splitlines() if "replay: " in line]


def lost_job_commands(jobs: list[Job], nworkers: int) -> list[str]:
    with pytest.raises(RuntimeError, match="campaign incomplete") as exc:
        run_campaign(jobs, nworkers)
    return replay_lines(str(exc.value))


class TestReplayCommand:
    def test_crashed_job_replays_the_same_death(self):
        (cmd,) = lost_job_commands([Job("probe/crash", probe, {"action": "crash"})], 2)
        assert run_command(cmd).returncode == -signal.SIGKILL

    def test_raising_job_replays_the_same_error(self):
        job = Job("probe/raise", probe, {"action": "raise", "message": "synthetic"})
        (cmd,) = lost_job_commands([job], 1)
        proc = run_command(cmd)
        assert proc.returncode == 1
        assert "RuntimeError: synthetic" in proc.stderr

    def test_explore_shard_replays_clean(self):
        shard = explore_jobs(["queue"], 4)[0]
        assert run_command(shard.replay_command()).returncode == 0

    def test_non_literal_kwargs_refused(self):
        with pytest.raises(ValueError, match="'x'"):
            Job("k", probe, {"x": object()})

    def test_probe_summary_prints_the_replay_line(self, capsys):
        assert fleet_main(["probe", "--jobs", "2", "--count", "1", "--crash"]) == 0
        out = capsys.readouterr().out
        assert replay_lines(out) == [Job("c", probe, {"action": "crash"}).replay_command()]
        assert "self-test: ok" in out
