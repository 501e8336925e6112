"""One read path for every JSON document: damage fails as ``RecordError``.

* a (writer, reader) table: each document is written by its real
  writer, damaged one of five ways, and read back; the reader returns
  or raises :class:`~repro.util.io.RecordError` whose message starts
  with the path — never anything else;
* the ``repro.obs`` probes that used to die with a traceback, or exit
  2 without naming the file, now exit 2 with the file on stderr.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import write_bench_json
from repro.check.traces import DecisionTrace
from repro.obs.analyze import load_chrome_trace, load_metrics_json
from repro.obs.diff import diff_files
from repro.obs.export import write_chrome_trace, write_metrics_json
from repro.obs.record import EdgeRecord
from repro.obs.scenarios import run_target
from repro.obs.stream import SpillSink, pack
from repro.util.io import RecordError
from repro.util.records import Series, SweepResult


def _trace(path: Path) -> Path:
    return DecisionTrace(
        target="queue", strategy="random", strategy_seed=0, engine_seed=0,
        nprocs=3, schedule_index=0, failure="ok",
        decisions=[{"k": "pick", "rank": 2}, {"k": "delay", "i": 0, "s": 1e-6}],
    ).save(path)


def _spill(path: Path) -> Path:
    sink = SpillSink(path.parent, shard_size=3)
    for i in range(7):
        sink.on_edge(EdgeRecord(i, "steal", 0, i * 1e-6, 1, i * 1e-6 + 5e-7, i))
    sink.seal({"nprocs": 2, "spans": 0, "instants": 0, "edges": 7, "dropped": 0})
    return path


def _bench(path: Path) -> Path:
    series = Series(label="scioto", unit="Mnodes/s")
    series.add(2, 1.5)
    series.add(4, 2.9)
    result = SweepResult(experiment="figure7", series=[series])
    return write_bench_json([(result, 0.5)], path, "quick")


#: name -> (file name, writer, reader, tag key or None, required keys, or
#: None for a binary file).  Each writer writes the pristine file at the
#: path it is given; each reader reads the directory it was written into.
#: The spill's damaged file is its ``index.json`` or one edge shard;
#: ``pack`` reads the whole spill.
ROWS = {
    "trace": ("t.json", _trace, lambda d: DecisionTrace.load(d / "t.json"),
              "format", ["target", "strategy", "strategy_seed", "engine_seed", "nprocs",
                         "schedule_index", "failure", "decisions"]),
    "metrics": ("m.json", lambda p: write_metrics_json(_recorder(), p),
                lambda d: load_metrics_json(d / "m.json"), "schema", ["histograms"]),
    "chrome": ("c.json", lambda p: write_chrome_trace(_recorder(), p),
               lambda d: load_chrome_trace(d / "c.json"), None, ["traceEvents"]),
    "spill": ("index.json", _spill, lambda d: pack(d, d.parent / "packed.json"),
              "schema", ["shards"]),
    "spill-shard": ("edges-00001.bin", _spill,
                    lambda d: pack(d, d.parent / "packed.json"), None, None),
    "bench": ("b.json", _bench, lambda d: diff_files(d / "b.json", d / "b.json"),
              "schema", ["experiments"]),
}

_RECORDER = []


def _recorder():
    if not _RECORDER:
        _RECORDER.append(run_target("queue").recorder)
    return _RECORDER[0]


@pytest.fixture(scope="module")
def pristine(tmp_path_factory) -> dict[str, bytes]:
    out = {}
    for name, (fname, write, *_rest) in ROWS.items():
        path = tmp_path_factory.mktemp(name) / fname
        write(path)
        out[name] = path.read_bytes()
    return out


def _damage(
    draw, doc_bytes: bytes, tag: str | None, required: list[str] | None
) -> tuple[bytes, bool]:
    """One of the five damages (a binary file takes the first two);
    returns (bytes, must the reader refuse)."""
    kinds = ["truncate", "overwrite"]
    if required is not None:
        kinds += ["root", "drop"] + (["tag"] if tag else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "truncate":
        # every cut of a binary shard is refused
        return doc_bytes[: draw(st.integers(0, len(doc_bytes) - 1))], required is None
    if kind == "overwrite":
        i = draw(st.integers(0, len(doc_bytes) - 1))
        return doc_bytes[:i] + bytes([draw(st.integers(0, 255))]) + doc_bytes[i + 1:], False
    if kind == "root":
        return draw(st.sampled_from([b"[]", b"[1, 2]", b"7", b"-2.5"])), True
    doc = json.loads(doc_bytes)
    if kind == "tag":
        doc[tag] = draw(st.sampled_from(["bogus/9", 2, None]))
    else:
        del doc[draw(st.sampled_from(required))]
    return json.dumps(doc).encode(), True


@pytest.mark.parametrize("row", sorted(ROWS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_damaged_record_is_read_or_refused_naming_the_file(row, data, pristine, tmp_path_factory):
    fname, _write, read, tag, required = ROWS[row]
    directory = tmp_path_factory.mktemp(row, numbered=True)
    if row.startswith("spill"):
        _spill(directory / fname)  # the spill the damaged file belongs to
    damaged, must_refuse = _damage(data.draw, pristine[row], tag, required)
    (directory / fname).write_bytes(damaged)
    try:
        read(directory)
    except RecordError as exc:
        assert str(exc).startswith(str(directory)), exc
    else:
        assert not must_refuse, "damaged record was accepted"


# ---------------------------------------------------------------------- #
# CLI probes: exit 2, file named on stderr
# ---------------------------------------------------------------------- #
TORN = '{"traceEvents": [{"ph": "X", "ts": 1'
NO_TS = '{"traceEvents": [{"ph": "X", "name": "a", "dur": 1.0, "tid": 0}]}'

#: id -> (argv, contents of the damaged file or None for a missing one).
#: ``{f}`` in argv is that file and ``{d}`` its directory; for ``pack``
#: the file is the spill directory's ``index.json``.
PROBES = {
    "summarize-torn": (["summarize", "{f}"], TORN),
    "summarize-missing": (["summarize", "{f}"], None),
    "summarize-x-without-ts": (["summarize", "{f}"], NO_TS),
    "summarize-list-root": (["summarize", "{f}"], "[1]"),
    "diff-list-root": (["diff", "{f}", "{f}"], "[1]"),
    "diff-torn": (["diff", "{f}", "{f}"], '{"schema": "repro-bench/1", "exp'),
    "pack-torn-index": (["pack", "{d}", "--trace", "{d}/out.json"], '{"schema": "repro-'),
    "pack-list-index": (["pack", "{d}", "--trace", "{d}/out.json"], "[]"),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_obs_cli_refuses_bad_record_naming_it(probe, tmp_path, capsys):
    from repro.obs.__main__ import main

    argv, text = PROBES[probe]
    path = tmp_path / ("index.json" if probe.startswith("pack") else "doc.json")
    if text is not None:
        path.write_text(text)
    argv = [a.format(f=path, d=tmp_path) for a in argv]
    assert main(argv) == 2
    assert str(path) in capsys.readouterr().err
