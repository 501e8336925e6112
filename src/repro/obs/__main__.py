"""Command-line entry point for the observability subsystem.

Subcommands:

* ``run`` — execute a target (check scenario or UTS/SCF/TCE preset)
  with recording on; write a Chrome trace JSON (``--trace``, open it
  in Perfetto), a metrics JSON (``--metrics``), and/or print the ASCII
  timeline and summary.  ``--stream DIR`` records through the
  constant-memory spill sink (binary shards; ``--trace`` then packs
  them).  ``--live PATH`` additionally publishes interval
  telemetry frames — windowed counts, means and sketch percentiles —
  to an append-only JSONL feed (``repro-obs-live/1``).
* ``pack`` — convert a sealed spill directory (``repro-obs-stream/2``)
  into a Perfetto-loadable Chrome trace without materializing the run.
* ``top`` — render a live (or finished) telemetry feed as a terminal
  status table; ``--follow`` keeps tailing while a run is in flight.
  A damaged feed (anything but a torn final line) is refused.
* ``summarize`` — post-hoc report over an exported trace JSON: per-rank
  time by category, the longest spans, and the longest per-rank idle
  gaps with the spans that bounded them; ``--metrics`` adds the
  percentile table of a metrics JSON (``repro-obs-metrics/3`` only).
* ``critpath`` — run a target, build the cross-rank happens-before DAG
  from its spans and causal edges, extract the critical path, and
  print the blame decomposition (the blamed durations sum to the
  makespan).  ``--trace`` writes a Perfetto trace with the path
  highlighted as its own process and flow arrows on the causal edges.
* ``whatif`` — Coz-style causal projection: re-schedule the DAG with
  one or more blame categories scaled (``--scale steal=0.5``) and
  report the projected makespan.
* ``diff`` — compare two benchmark/metrics JSON documents
  (``repro-bench/1`` or ``repro-obs-metrics/3``) and report relative
  changes beyond a threshold; CI runs it gating against the committed
  ``BENCH_sim.json``.
* ``verify`` — run targets with recording off and on, and require the
  virtual-time fingerprints (elapsed, event count, per-rank clocks and
  every ``Counters`` value) to match bit-for-bit (the recorded run
  keeps causal edges, so this also shows they are metadata-only);
  additionally run through the streaming spill sink and require *its*
  span/instant stream to match the in-memory recorder's bit-for-bit.
  A third pass enables the live telemetry bus and requires both the
  fingerprint to stay unchanged and the emitted feed to be
  byte-identical across two runs.  Any dropped record fails the check.
  Exits 1 on any divergence.

A file that a command cannot read as a whole record of its kind (a
missing file, torn JSON, a wrong schema or shape) exits 2 with the
file named on stderr.

Examples::

    python -m repro.obs run uts-small --trace out.json --metrics m.json
    python -m repro.obs run uts-medium --stream spill/ --trace out.json
    python -m repro.obs run uts-small --live feed.jsonl --live-interval 0.0001
    python -m repro.obs top feed.jsonl --follow
    python -m repro.obs pack spill/ --trace out.json
    python -m repro.obs run steals --timeline
    python -m repro.obs summarize out.json --top 10
    python -m repro.obs critpath uts-small --trace crit.json
    python -m repro.obs whatif uts-small --scale steal=0.5 --scale lock=0
    python -m repro.obs diff BENCH_sim.json fresh.json --threshold 0.15
    python -m repro.obs verify queue termination steals
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from repro import cli
from repro.obs.analyze import (
    load_chrome_trace,
    load_metrics_json,
    percentile_table,
    summarize,
)
from repro.obs.critpath import CausalGraph, critical_path, render_critical_path
from repro.obs.diff import diff_files, render_diff
from repro.obs.export import (
    ascii_timeline,
    summary_table,
    write_chrome_trace,
    write_metrics_json,
)
from repro.obs.live import check_interval
from repro.obs.scenarios import fingerprint, run_target
from repro.obs.whatif import parse_scales, project, render_projection
from repro.targets import TARGETS
from repro.util.io import RecordError


def _cmd_run(args: argparse.Namespace) -> int:
    # Streamed runs skip the tracer: its in-memory event list is
    # unbounded, which would defeat the constant-memory spill path.
    run = run_target(
        args.target,
        nprocs=args.nprocs,
        seed=args.seed,
        events=not args.stream,
        stream_dir=args.stream,
        live_path=args.live,
        live_interval=args.live_interval,
    )
    rec = run.recorder
    assert rec is not None
    print(
        f"{run.target}: {run.elapsed * 1e3:.3f} ms virtual, "
        f"{run.events} engine events, {rec.span_count} spans "
        f"({rec.dropped} dropped), {rec.instant_count} instants"
    )
    if rec.dropped:
        print(
            f"WARNING: {rec.dropped} records dropped at capacity "
            f"({rec.dropped_spans} spans, {rec.dropped_instants} instants, "
            f"{rec.dropped_edges} edges) — the recording is incomplete",
            file=sys.stderr,
        )
    for k, v in run.extra.items():
        print(f"  {k}: {v}")
    if args.stream:
        from repro.obs.stream import STREAM_SCHEMA

        print(f"span spill ({STREAM_SCHEMA}) -> {args.stream}")
    if args.live:
        assert rec.live is not None
        print(
            f"live telemetry (repro-obs-live/1) -> {args.live} "
            f"({rec.live.frames_emitted} frames at "
            f"{rec.live.interval * 1e6:.6g} us virtual intervals)"
        )
    if args.trace:
        if args.stream:
            from repro.obs.stream import pack

            path = pack(args.stream, args.trace)
            print(f"chrome trace (streamed pack) -> {path} "
                  f"(open in https://ui.perfetto.dev)")
        else:
            path = write_chrome_trace(rec, args.trace, tracer=run.tracer)
            print(f"chrome trace -> {path} (open in https://ui.perfetto.dev)")
    if args.metrics:
        pstats = (
            [s.to_dict() for s in run.process_stats]
            if run.process_stats is not None
            else None
        )
        path = write_metrics_json(rec, args.metrics, process_stats=pstats)
        print(f"metrics json -> {path}")
    if args.timeline:
        print()
        print(ascii_timeline(rec.spans, run.engine.nprocs, width=args.width))
        print()
        print(summary_table(rec.spans, run.engine.nprocs))
        print()
        print(percentile_table(
            {k: h.to_dict() for k, h in rec.metrics.histograms.items()}
        ))
        if run.process_stats is not None:
            from repro.bench.report import per_rank_table

            print()
            print(per_rank_table(run.process_stats, title=f"{run.target} per-rank"))
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    doc = load_metrics_json(args.metrics) if args.metrics else None
    spans, other = load_chrome_trace(args.trace)
    dropped = other.get("spans_dropped", 0)
    if dropped:
        print(
            f"WARNING: this trace is incomplete — {dropped} records were "
            f"dropped at recorder capacity (re-record with --stream for "
            f"bounded-memory, lossless capture)",
            file=sys.stderr,
        )
    print(summarize(spans, width=args.width, top=args.top))
    if dropped:
        print(f"\ndropped records: {dropped} (recording truncated at capacity)")
    if doc is not None:
        print()
        print(f"histogram percentiles ({doc.get('schema')}):")
        print(percentile_table(doc.get("histograms", {})))
    return 0


def _cmd_pack(args: argparse.Namespace) -> int:
    from repro.obs.stream import SpillReader, pack

    reader = SpillReader(args.spill)
    path = pack(args.spill, args.trace)
    idx = reader.index
    print(
        f"packed {idx.get('spans', 0)} spans, {idx.get('instants', 0)} "
        f"instants, {idx.get('edges', 0)} edges -> {path} "
        f"(open in https://ui.perfetto.dev)"
    )
    if idx.get("dropped"):
        print(
            f"WARNING: the spilled recording dropped {idx['dropped']} records",
            file=sys.stderr,
        )
    return 0


def _recorded_graph(args: argparse.Namespace):
    """Run ``--target`` recorded; return the run and its happens-before DAG."""
    run = run_target(args.target, nprocs=args.nprocs, seed=args.seed)
    return run, CausalGraph.from_recorder(run.recorder)


def _cmd_critpath(args: argparse.Namespace) -> int:
    run, graph = _recorded_graph(args)
    rec = run.recorder
    path = critical_path(graph)
    print(
        f"{run.target}: {run.elapsed * 1e3:.3f} ms virtual, "
        f"{len(rec.spans)} spans, {len(rec.edges)} causal edges"
    )
    print(render_critical_path(path, graph, top=args.top))
    if args.trace:
        out = write_chrome_trace(rec, args.trace, tracer=run.tracer, critpath=path)
        print(f"chrome trace (critical path highlighted) -> {out}")
    if args.check:
        blamed = sum(path.blame().values())
        frac = sum(path.blame_fractions().values())
        ok = bool(path.steps)
        ok = ok and abs(blamed - path.makespan) <= 1e-9 * max(path.makespan, 1.0)
        ok = ok and abs(frac - 1.0) <= 1e-9
        if not ok:
            print(
                f"CHECK FAILED: steps={len(path.steps)} "
                f"blamed={blamed!r} makespan={path.makespan!r} fractions={frac!r}"
            )
            return 1
        print(
            f"check ok: {len(path.steps)} steps, blame sums to makespan "
            f"(fractions total {frac:.12f})"
        )
    return 0


def _cmd_whatif(args: argparse.Namespace) -> int:
    try:
        scales = parse_scales(args.scale or [])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_projection(project(_recorded_graph(args)[1], scales)))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    from repro.obs.live import read_feed, render_top

    def render_once() -> tuple[str, int]:
        doc = read_feed(args.feed)
        return render_top(doc), len(doc["frames"])

    if not args.follow:
        print(render_once()[0])
        return 0
    seen = -1
    try:
        while True:
            try:
                text, nframes = render_once()
            except RecordError as exc:
                if Path(args.feed).exists():
                    text, nframes = f"error: {exc}", -1
                else:
                    text, nframes = f"waiting for {args.feed} ...", -1
            if nframes != seen:
                seen = nframes
                if sys.stdout.isatty():
                    print("\x1b[2J\x1b[H", end="")
                print(text, flush=True)
            time.sleep(args.poll)
    except KeyboardInterrupt:
        return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    report = diff_files(args.old, args.new, threshold=args.threshold)
    print(render_diff(report, verbose=args.verbose))
    if report.regressions and args.fail_on_regress:
        return 1
    return 0


def _diverged(name: str, args: argparse.Namespace) -> list[str]:
    """What changes in ``name``'s run when recording, streaming or live
    telemetry is on (the first finding and its detail lines); [] if nothing."""

    def run(**kw):
        return run_target(name, nprocs=args.nprocs, seed=args.seed, **kw)

    base = fingerprint(run(record=False))
    on = run(record=True)
    rec = fingerprint(on)
    if base != rec:
        return ["DIVERGED with recording on"] + [
            line
            for key in sorted(set(base) | set(rec)) if base.get(key) != rec.get(key)
            for line in (f"  {key}: off={base.get(key)!r}", f"  {key}:  on={rec.get(key)!r}")
        ]
    # The streaming spill sink must be an exact stand-in for the
    # in-memory recorder: same run fingerprint, same span/instant
    # stream bit-for-bit.
    with tempfile.TemporaryDirectory() as td:
        streamed = run(record=True, events=False, stream_dir=Path(td) / "spill")
        if fingerprint(streamed) != base:
            return ["DIVERGED with streaming recording on"]
        if streamed.recorder.stream_fingerprint() != on.recorder.stream_fingerprint():
            return ["streamed span stream DIVERGED from in-memory recorder"]
        # The live telemetry bus is an observer too: its engine tick
        # must leave the fingerprint unchanged, and the feed it emits
        # must be byte-identical run to run (frames derive from
        # virtual time).
        feeds = [Path(td) / f"live{i}.jsonl" for i in range(2)]
        lived = [run(record=True, live_path=feed) for feed in feeds][-1]
        if fingerprint(lived) != base:
            return ["DIVERGED with live telemetry on"]
        if feeds[0].read_bytes() != feeds[1].read_bytes():
            return ["live feed DIVERGED between two identical runs (not bit-deterministic)"]
    drops = on.recorder.dropped + streamed.recorder.dropped + lived.recorder.dropped
    if drops:
        return [f"{drops} records DROPPED at capacity — recording is incomplete"]
    return []


def _cmd_verify(args: argparse.Namespace) -> int:
    targets = cli.expand_targets(args.targets or ["all"])
    bad = 0
    for name in targets:
        lines = _diverged(name, args)
        bad += bool(lines)
        print(f"{name}: " + "\n".join(lines or [
            "ok (fingerprint and span stream unchanged by recording, causal "
            "edges, streaming, and live telemetry; feed bit-deterministic; 0 dropped)"
        ]))
    print(f"\n{len(targets) - bad}/{len(targets)} targets deterministic under recording")
    return 1 if bad else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro.obs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    target = argparse.ArgumentParser(add_help=False)
    target.add_argument("target", choices=sorted(TARGETS))
    cli.add_nprocs(target, 4, help="rank count for application presets")
    cli.add_seed(target)

    p_run = sub.add_parser("run", parents=[target],
                           help="run a target with recording on")
    p_run.add_argument("--trace", metavar="PATH",
                       help="write Chrome trace_event JSON here")
    p_run.add_argument("--metrics", metavar="PATH",
                       help="write flat metrics JSON here")
    p_run.add_argument("--timeline", action="store_true",
                       help="print the ASCII per-rank timeline + summary")
    p_run.add_argument("--width", type=cli.positive_int, default=80)
    p_run.add_argument("--stream", metavar="DIR",
                       help="record through the constant-memory spill sink "
                       "into this directory (binary shards, "
                       "repro-obs-stream/2); --trace then packs the shards")
    p_run.add_argument("--live", metavar="PATH",
                       help="publish live telemetry frames to this append-"
                       "only JSONL feed (repro-obs-live/1); tail it with "
                       "'repro.obs top PATH --follow'")
    p_run.add_argument("--live-interval", type=cli.domain(float, check_interval),
                       metavar="SEC", help="virtual-time interval between "
                       "telemetry frames (default 100us)")
    p_run.set_defaults(fn=_cmd_run)

    p_pack = sub.add_parser(
        "pack", help="convert a spill directory to a Chrome trace"
    )
    p_pack.add_argument("spill", help="spill directory written by run --stream")
    p_pack.add_argument("--trace", required=True, metavar="PATH",
                        help="write the packed Chrome trace_event JSON here")
    p_pack.set_defaults(fn=_cmd_pack)

    p_sum = sub.add_parser("summarize", help="report over an exported trace")
    p_sum.add_argument("trace", help="Chrome trace JSON written by 'run'")
    p_sum.add_argument("--top", type=cli.positive_int, default=5)
    p_sum.add_argument("--width", type=cli.positive_int, default=80)
    p_sum.add_argument("--metrics", metavar="PATH",
                       help="also print histogram percentiles from this "
                       "metrics JSON (repro-obs-metrics/3)")
    p_sum.set_defaults(fn=_cmd_summarize)

    p_crit = sub.add_parser(
        "critpath", parents=[target],
        help="critical path + blame decomposition of a run",
    )
    p_crit.add_argument("--top", type=cli.positive_int, default=12,
                        help="longest path steps to print")
    p_crit.add_argument("--trace", metavar="PATH",
                        help="write a Chrome trace with the path highlighted")
    p_crit.add_argument("--check", action="store_true",
                        help="exit 1 unless the path is non-empty and its "
                        "blame fractions sum to 1 (CI smoke)")
    p_crit.set_defaults(fn=_cmd_critpath)

    p_what = sub.add_parser(
        "whatif", parents=[target],
        help="causal what-if projection over the happens-before DAG",
    )
    p_what.add_argument("--scale", action="append", metavar="CAT=FACTOR",
                        help="scale a blame category, e.g. steal=0.5 "
                        "(repeatable)")
    p_what.set_defaults(fn=_cmd_whatif)

    p_top = sub.add_parser(
        "top", help="status table over a live telemetry feed"
    )
    p_top.add_argument("feed", help="repro-obs-live/1 JSONL feed (live or "
                       "finished)")
    p_top.add_argument("--follow", action="store_true",
                       help="keep tailing the feed, re-rendering as frames "
                       "arrive (ctrl-C to stop)")
    p_top.add_argument("--poll", type=cli.positive_float, default=0.5, metavar="SEC",
                       help="host-time poll interval with --follow "
                       "(default 0.5)")
    p_top.set_defaults(fn=_cmd_top)

    p_diff = sub.add_parser(
        "diff", help="compare two benchmark/metrics JSON documents"
    )
    p_diff.add_argument("old", help="baseline JSON document")
    p_diff.add_argument("new", help="candidate JSON document")
    p_diff.add_argument("--threshold", type=cli.non_negative_float, default=0.10,
                        help="relative change below this is noise "
                        "(default 0.10)")
    p_diff.add_argument("--fail-on-regress", action="store_true",
                        help="exit 1 when any regression exceeds the "
                        "threshold (default: warn only)")
    p_diff.add_argument("--verbose", action="store_true",
                        help="print every comparison, not just changes")
    p_diff.set_defaults(fn=_cmd_diff)

    p_ver = sub.add_parser(
        "verify", help="recording-on == recording-off determinism check"
    )
    p_ver.add_argument("targets", nargs="*",
                       help="targets to verify (default: all check scenarios)")
    cli.add_nprocs(p_ver, 4)
    cli.add_seed(p_ver)
    p_ver.set_defaults(fn=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except RecordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
