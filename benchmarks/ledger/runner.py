"""The parent process: starts children, paces samples, makes the records.

Two ways in, one measuring child underneath (``child.py``):

* :func:`driver_run` — one workload for ``--seconds``, one JSON line out:
  the contract of ``BENCHMARK.json``'s ``command``.
* :func:`ledger_run` — every workload, one kept-alive child each, one
  sample at a time round-robin so a noisy minute on a shared host lands
  on all of them; writes a record that :func:`compare` can hold against
  another.

Closed loop, one client: never more than one child is doing work.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles
from typing import Any

from benchmarks.ledger.spec import END_TO_END, WORKLOADS, per_layer

ROOT = Path(__file__).resolve().parents[2]
#: Everything the benchmark writes (records, spills, traces) goes here.
OUT = Path(__file__).resolve().parent / "out"
#: Scratch of the children (spill directories); emptied after every run.
WORK = OUT / "work"
SCHEMA = "repro-ledger/1"
#: Fresh processes whose start-to-ready time makes one ``setup_s``.
SETUPS = 3
#: What ``child.calibrate`` takes on the development host when it is quiet.
CALIB_REF_MS = 48.0
#: Environment of every measuring child: one BLAS/OpenMP thread, and no
#: hash randomisation, so two children lay out their dicts and sets alike.
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class ChildError(RuntimeError):
    """The measuring process died or answered nonsense."""


class Child:
    """A measuring process for one workload."""

    def __init__(self, name: str, seed: int, break_oracle: bool = False) -> None:
        self.name = name
        cmd = [sys.executable, "-m", "benchmarks.ledger", "--child", name,
               "--seed", str(seed)]
        if break_oracle:
            cmd += ["--break-oracle", name]
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env={**os.environ, **PINNED}, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        try:
            self.ready = self._read()
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - started

    def _read(self) -> dict[str, Any]:
        line = self.proc.stdout.readline()
        if not line:
            raise ChildError(f"{self.name}: child exited with {self.proc.wait()}")
        return json.loads(line)

    def ask(self, cmd: str, **args: Any) -> dict[str, Any]:
        self.proc.stdin.write(json.dumps({"cmd": cmd, **args}) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        """Stop the child and wait until it has ended."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()  # end of input: the child leaves its loop
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def _deadline(seconds: int) -> None:
    """Fail, rather than hang, if a child never answers."""

    def expired(signum: int, frame: Any) -> None:
        raise TimeoutError(f"no answer within {seconds} s")

    signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)


def quartiles(values: list[float]) -> dict[str, float]:
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": median(values), "q1": q1, "q3": q3, "n": len(values)}


def steady_wall(samples: list[dict]) -> float:
    """``wall_s`` of a set of samples: the lower quartile of their wall
    times, scaled to a host on which the calibration kernel takes
    ``CALIB_REF_MS`` by the lower quartile of their calibrations.

    On the shared development host a neighbour slows everything by up to
    half for seconds to minutes, and the quiet speed itself drifts by
    +-8 % over minutes.  Interference only ever adds time, hence lower
    quartiles; the calibration kernel runs before every sample and drifts
    with the host, hence the scaling.  Across runs this estimate spreads
    3-5 % where the plain median of the same samples spreads 8-17 %.
    """
    wall = quartiles([s["wall_s"] for s in samples])["q1"]
    calib = quartiles([s["calib_ms"] for s in samples])["q1"]
    return wall * CALIB_REF_MS / calib


# ---------------------------------------------------------------------- #
# Driver mode
# ---------------------------------------------------------------------- #
def driver_run(name: str, seed: int, seconds: float, trace: bool) -> int:
    """One run for the benchmark driver; the last line printed is the result."""
    _deadline(170)
    child = None
    try:
        if trace:
            child = Child(name, seed)
            child.ask("prices")
            reply = child.ask("trace")
            attempted, failed = reply["attempted"], reply["failed"]
            values, units = reply["metrics"], {n: u for n, (u, _) in per_layer().items()}
        else:
            setups = []
            for i in range(SETUPS):
                if child is not None:
                    child.close()
                child = Child(name, seed)
                setups.append(child.setup_s)
            samples = [child.ready["warmup"]]
            end = time.perf_counter() + seconds
            while len(samples) < 4 or time.perf_counter() < end:
                samples.append(child.ask("sample"))
            attempted = sum(s["attempted"] for s in samples)
            failed = sum(s["failed"] for s in samples)
            wall = steady_wall(samples[1:])
            values = {
                "wall_s": wall,
                "events_per_s": samples[-1]["events"] / wall,
                "peak_rss_mb": samples[-1]["rss_mb"],
                "setup_s": median(setups),
                "sim_elapsed_us": samples[-1]["sim_elapsed_us"],
            }
            units = {n: u for n, (u, _, _) in END_TO_END.items()}
            for s in samples:
                for failure in s["failures"]:
                    print(f"FAILED {name}: {failure}")
    finally:
        signal.alarm(0)
        if child is not None:
            child.close()
        shutil.rmtree(WORK, ignore_errors=True)
    for metric, value in values.items():
        print(f"{name} {metric} = {value:.6g} {units[metric]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }))
    return 0


# ---------------------------------------------------------------------- #
# Ledger mode
# ---------------------------------------------------------------------- #
def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def ledger_run(
    names: list[str],
    seed: int,
    repeats: int,
    out_path: Path,
    smoke: bool = False,
    trace_out: str | None = None,
    break_oracle: str | None = None,
) -> int:
    """Measure ``names`` and write the record; non-zero if an oracle failed."""
    if smoke:
        repeats = 2
    children: dict[str, Child] = {}
    samples: dict[str, list[dict]] = {n: [] for n in names}
    traces: dict[str, dict] = {}
    errors: dict[str, str] = {}
    try:
        for name in names:
            print(f"[{name}] set-up (imports, inputs, oracle, warm-up run)", flush=True)
            try:
                children[name] = Child(name, seed, break_oracle == name)
            except ChildError as exc:
                errors[name] = str(exc)
        for rep in range(repeats):
            for name, child in children.items():
                reply = child.ask("sample")
                samples[name].append(reply)
                print(f"[{name}] sample {rep + 1}/{repeats}: {reply['wall_s']:.3f} s"
                      f"{'  FAILED ' + '; '.join(reply['failures']) if reply['failed'] else ''}",
                      flush=True)
        prices = None
        for name in ["uts_split"] if smoke else names:
            if name not in children:
                continue
            if not smoke:
                if prices is None:
                    print(f"[{name}] unit prices", flush=True)
                prices = children[name].ask("prices", prices=prices)["prices"]
            print(f"[{name}] traced sample", flush=True)
            traces[name] = children[name].ask("trace", trace_out=trace_out)
    finally:
        for child in children.values():
            child.close()
        shutil.rmtree(WORK, ignore_errors=True)

    calib = [s["calib_ms"] for rows in samples.values() for s in rows]
    first = next(iter(children.values()), None)
    host = {
        "platform": platform.platform(),
        "python": first.ready["python"] if first else platform.python_version(),
        "numpy": first.ready["numpy"] if first else None,
        "nproc": os.cpu_count(),
        "seed": seed,
        "repeats": repeats,
        "git_commit": _git_commit(),
        "pinned_env": PINNED,
        "pinned_cpu": first.ready["cpu"] if first else None,
    }
    if calib:
        q = quartiles(calib)
        host["calib_ms"] = {**q, "noisy": (q["q3"] - q["q1"]) / q["median"] > 0.05}
    record: dict[str, Any] = {"schema": SCHEMA, "claim": None, "host": host, "workloads": {}}
    units = {n: u for n, (u, _, _) in END_TO_END.items()}
    failed_any = bool(errors)
    for name in names:
        if name in errors:
            record["workloads"][name] = {"error": errors[name]}
            continue
        rows, child = samples[name], children[name]
        attempted = sum(s["attempted"] for s in rows)
        failed = sum(s["failed"] for s in rows)
        trace = traces.get(name)
        if trace is not None:
            attempted, failed = attempted + trace["attempted"], failed + trace["failed"]
        failed_any |= failed > 0
        walls = [s["wall_s"] for s in rows]
        last = rows[-1]
        # value: the estimate verdicts use; quartiles: of the raw samples
        wall = steady_wall(rows)
        e2e = {
            "wall_s": {"value": wall, **quartiles(walls)},
            "events_per_s": {
                "value": last["events"] / wall,
                **quartiles([last["events"] / w for w in walls]),
            },
            "peak_rss_mb": {"value": last["rss_mb"], **quartiles([last["rss_mb"]])},
            "setup_s": {"value": child.setup_s, **quartiles([child.setup_s])},
            "sim_elapsed_us": {
                "value": last["sim_elapsed_us"],
                **quartiles([s["sim_elapsed_us"] for s in rows]),
            },
        }
        record["workloads"][name] = {
            "why": WORKLOADS[name],
            "end_to_end": {m: {**q, "unit": units[m]} for m, q in e2e.items()},
            "exact": {
                "events": last["events"],
                "sim_elapsed_us": last["sim_elapsed_us"],
                "attempted": attempted,
                "failed": failed,
                "failed_ops_share": failed / attempted,
                "fingerprint": last["fingerprint"],
            },
            "failures": sorted(
                {f for s in [*rows, trace or {"failures": []}] for f in s["failures"]}
            ),
            "per_layer": trace["metrics"] if trace else None,
            "sites": trace["sites"] if trace else None,
        }
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print_record(record)
    print(f"\nrecord written to {out_path}")
    return 1 if failed_any else 0


def print_record(record: dict) -> None:
    """Every metric by name and unit."""
    host = record["host"]
    print(f"\nhost: {host['platform']}, python {host['python']}, numpy {host['numpy']}, "
          f"nproc {host['nproc']}, seed {host['seed']}, repeats {host['repeats']}, "
          f"commit {host['git_commit']}")
    if "calib_ms" in host:
        c = host["calib_ms"]
        print(f"host.calib_ms median {c['median']:.2f} [{c['q1']:.2f}, {c['q3']:.2f}] "
              f"n={c['n']}{'  NOISY (IQR/median > 5 %)' if c['noisy'] else ''}")
    units = {n: u for n, (u, _) in per_layer().items()}
    for name, w in record["workloads"].items():
        print(f"\n== {name}")
        if "error" in w:
            print(f"  ERROR {w['error']}")
            continue
        for metric, q in w["end_to_end"].items():
            print(f"  {metric:<18} {q['value']:>14.6g} {q['unit']:<5} "
                  f"samples [{q['q1']:.6g}, {q['q3']:.6g}] n={q['n']}")
        x = w["exact"]
        print(f"  events {x['events']}  attempted {x['attempted']}  failed {x['failed']}  "
              f"failed_ops_share {x['failed_ops_share']:.4g}  fingerprint {x['fingerprint'][:16]}")
        for failure in w["failures"]:
            print(f"  FAILED: {failure}")
        for metric, value in (w["per_layer"] or {}).items():
            if value or not metric.endswith((".calls", ".busy_s", ".share")):
                print(f"    {metric:<36} {value:>14.6g} {units[metric]}")


# ---------------------------------------------------------------------- #
# Compare
# ---------------------------------------------------------------------- #
def compare(path_a: str, path_b: str) -> int:
    """B against its base A: one row per workload and end-to-end metric."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    for side, doc in (("A", a), ("B", b)):
        if doc.get("schema") != SCHEMA:
            raise SystemExit(f"{side}: not a {SCHEMA} record")
        print(f"{side}: commit {doc['host']['git_commit']} seed {doc['host']['seed']} "
              f"repeats {doc['host']['repeats']} "
              f"calib {doc['host'].get('calib_ms', {}).get('median', float('nan')):.2f} ms")
    worse = False
    differences: list[str] = []
    print(f"\n{'workload':<17}{'metric':<16}{'A value [q1, q3]':>38}"
          f"{'B value [q1, q3]':>38}{'B/A':>8}{'bound':>7}  verdict")
    for name in (n for n in WORKLOADS if n in a["workloads"]):
        wa, wb = a["workloads"][name], b["workloads"].get(name)
        if wb is None or "error" in wa or "error" in wb:
            differences.append(f"{name}: missing or failed on one side")
            continue
        for metric, (unit, better, bound) in END_TO_END.items():
            qa, qb = wa["end_to_end"][metric], wb["end_to_end"][metric]
            ratio = qb["value"] / qa["value"]
            # share of A's value by which B is worse (negative: better)
            worse_by = ratio - 1 if better == "lower" else 1 - ratio
            spread = max((q["q3"] - q["q1"]) / q["median"] for q in (qa, qb))
            if spread > bound:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict, worse = "worse", True
            else:
                verdict = "better" if worse_by < -bound else "same"
            fmt = "{value:.5g} [{q1:.5g}, {q3:.5g}]"
            print(f"{name:<17}{metric:<16}{fmt.format(**qa):>38}{fmt.format(**qb):>38}"
                  f"{ratio:>8.3f}{bound:>7.2f}  {verdict}")
        exact_a = {**wa["exact"], **_calls(wa)}
        exact_b = {**wb["exact"], **_calls(wb)}
        for key in exact_a:
            if key in exact_b and exact_a[key] != exact_b[key]:
                differences.append(f"{name}: {key} {exact_a[key]} != {exact_b[key]}")
    print("\nexact-repeat fields (events, sim_elapsed_us, failed ops, *.calls): "
          + ("identical" if not differences else f"{len(differences)} differ"))
    for line in differences:
        print(f"  {line}")
    return 1 if worse else 0


def _calls(workload: dict) -> dict[str, Any]:
    return {k: v for k, v in (workload["per_layer"] or {}).items() if k.endswith(".calls")}

