"""Span tracer that times the runtime's public callables from outside.

:class:`Tracer` replaces the span sites of ``spec.LAYERS`` with timing
wrappers at class or module level, keeps one row per span segment in
memory, and puts the originals back afterwards.  Nothing inside
``src/repro`` is edited.

Every rank of a simulation is a generator (or, for a blocking main, a
compatibility OS thread) and only one runs at a time, so a span that
simply covered a call would be charged the host time of every other
rank that ran while it was suspended.  Two rules prevent that:

* a generator site gets one row per *resume segment* — from ``send()``
  until the next ``yield`` — so suspended time is in no row;
* rows carry the OS thread they were opened on; when the next event
  comes from another thread the open rows of the old thread are closed
  at its last event and reopened as continuation rows when it runs
  again.  The gap between the two events is the thread handoff and is
  recorded as its own ``sim.dispatch`` row.

Self time of a row is its duration minus the durations of its child
rows; a layer's busy time is the sum of the self times of its sites.

The wrappers cost more than most of the calls they time (the traced run
takes two to three times the untraced one), so raw self times mostly
count rows.  :func:`row_overhead` measures what one plain row and one
generator-segment row cost, and how that cost splits between the row
and its parent; :meth:`Tracer.summary` scales those costs to the measured
difference between the traced and the untraced run and subtracts them,
so busy times add up to the untraced wall.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from functools import cache, cached_property
from threading import get_ident
from time import perf_counter
from typing import Any

import numpy as np

from benchmarks.ledger.spec import LAYERS

_MARK = "__ledger_wrapped__"
ROOT, HANDOFF = 0, 1
SYNC = "Proc.co_sync"
SYNC_ELIDED = "Proc.co_sync[elided]"


class _Ctx:
    """Open rows of one OS thread, innermost last."""

    __slots__ = ("ident", "stack", "rank")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.stack: list[int] = []
        self.rank = -1


class Tracer:
    """One traced pass: install, run the sample inside :meth:`root`, read."""

    def __init__(
        self,
        layers: dict[str, list[str]] = LAYERS,
        clock: Callable[[], float] = perf_counter,
    ) -> None:
        self.layers = layers
        self.clock = clock
        #: site id -> (display name, layer, is a generator function).
        self.sites: list[tuple[str, str | None, bool]] = [
            ("sample", None, False),
            ("thread handoff", "sim.dispatch", False),
        ]
        self._site_ids: dict[tuple[str, bool], int] = {}
        # Row columns.  ``nid`` holds the site id, or its complement for a
        # continuation row (a later segment of a span already counted).
        self.nid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.rank = array("h")
        #: Rows `_switch` reopened: bookkeeping, not wrapper calls, so
        #: `summary` charges them no overhead.
        self.reopened = array("i")
        self._patched: list[tuple[Any, str, Any]] = []
        self._ctxs: dict[int, _Ctx] = {}
        self._cur = _Ctx(get_ident())
        self._last = 0.0
        self._enter, self._leave = self._hooks()

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _row(self, nid: int, start: float, end: float, parent: int, rank: int) -> int:
        self.nid.append(nid)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.rank.append(rank)
        return len(self.nid) - 1

    def _switch(self, now: float) -> _Ctx:
        """The running OS thread changed since the last event."""
        last = self._last
        for row in self._cur.stack:
            self.end[row] = last
        self._row(HANDOFF, last, now, ROOT, -1)
        ident = get_ident()
        ctx = self._ctxs.get(ident)
        if ctx is None:
            ctx = self._ctxs[ident] = _Ctx(ident)
        parent = ROOT
        for i, row in enumerate(ctx.stack):
            nid = self.nid[row]
            parent = self._row(nid if nid < 0 else ~nid, now, now, parent, ctx.rank)
            ctx.stack[i] = parent
            self.reopened.append(parent)
        self._cur = ctx
        return ctx

    def _hooks(self) -> tuple[Callable[..., None], Callable[[], None]]:
        tr, clock = self, self.clock
        nid_add, start_add, end_add = self.nid.append, self.start.append, self.end.append
        parent_add, rank_add = self.parent.append, self.rank.append
        nids, ends = self.nid, self.end

        def enter(nid: int, rank: int | None = None) -> None:
            now = clock()
            ctx = tr._cur
            if ctx.ident != get_ident():
                ctx = tr._switch(now)
            if rank is not None:
                ctx.rank = rank
            stack = ctx.stack
            nid_add(nid)
            start_add(now)
            end_add(now)
            parent_add(stack[-1] if stack else ROOT)
            rank_add(ctx.rank)
            stack.append(len(nids) - 1)
            tr._last = now

        def leave() -> None:
            now = clock()
            ctx = tr._cur
            if ctx.ident != get_ident():
                ctx = tr._switch(now)
            ends[ctx.stack.pop()] = now
            tr._last = now

        return enter, leave

    @contextmanager
    def root(self) -> Iterator[None]:
        """The traced root: everything timed happens inside this block."""
        self._ctxs = {get_ident(): (ctx := _Ctx(get_ident()))}
        self._cur = ctx
        self._last = now = self.clock()
        self._row(ROOT, now, now, -1, -1)
        try:
            yield
        finally:
            now = self.clock()
            if self._cur.ident != get_ident():
                self._switch(now)
            self.end[ROOT] = now

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #
    def _site(self, name: str, layer: str, is_gen: bool = False) -> int:
        key = (name, is_gen)
        if key not in self._site_ids:
            self.sites.append((name, layer, is_gen))
            self._site_ids[key] = len(self.sites) - 1
        return self._site_ids[key]

    def wrap(
        self, fn: Callable, name: str, layer: str, rank: int | None = None
    ) -> Callable:
        """Timing wrapper for ``fn`` as site ``name`` of ``layer``; a
        generator function is timed per resume segment.  ``rank`` marks a
        rank main: rows opened under it carry that rank."""
        enter, leave, tr = self._enter, self._leave, self
        is_gen = inspect.isgeneratorfunction(fn)
        nid = self._site(name, layer, is_gen)
        if is_gen:

            def traced(*args: Any, **kwargs: Any):
                gen = fn(*args, **kwargs)
                resume, arg, row_nid = gen.send, None, nid
                while True:
                    enter(row_nid, rank)
                    try:
                        out = resume(arg)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        leave()
                        if rank is not None:
                            tr._cur.rank = -1
                    row_nid = ~nid
                    try:
                        arg = yield out
                        resume = gen.send
                    except GeneratorExit:
                        gen.close()
                        raise
                    except BaseException as exc:  # forwarded, as yield from would
                        resume, arg = gen.throw, exc

        else:

            def traced(*args: Any, **kwargs: Any):
                enter(nid, rank)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave()

        setattr(traced, _MARK, fn)
        return traced

    def _wrap_sync(self, fn: Callable, layer: str) -> Callable:
        """``Proc.co_sync`` returns ``()`` when the sync elides; such rows
        are re-labelled so elided and handed-off syncs count apart."""
        enter, leave, tr, nids = self._enter, self._leave, self, self.nid
        nid, elided = self._site(SYNC, layer), self._site(SYNC_ELIDED, layer)

        def traced(proc: Any):
            enter(nid)
            try:
                out = fn(proc)
                if not out:
                    nids[tr._cur.stack[-1]] = elided
                return out
            finally:
                leave()

        setattr(traced, _MARK, fn)
        return traced

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Replace every span site with its wrapper."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for layer, sites in self.layers.items():
            for site in sites:
                for owner, attr, label in _resolve(site):
                    raw = vars(owner)[attr]
                    if label == SYNC:
                        new = self._wrap_sync(raw, layer)
                    elif isinstance(raw, classmethod):
                        new = classmethod(self.wrap(raw.__func__, label, layer))
                    else:
                        new = self.wrap(raw, label, layer)
                    if inspect.isclass(owner):
                        self._patch(owner, attr, new)
                    else:
                        for mod, alias in _aliases(raw):
                            self._patch(mod, alias, new)
        # Rank mains and task callbacks are closures of the applications;
        # they are wrapped where the program hands them to the runtime.
        from repro.core.collection import TaskCollection
        from repro.sim.engine import Engine

        spawn, register, tr = Engine.spawn, TaskCollection.register, self

        def traced_spawn(engine: Any, rank: int, fn: Callable, *args: Any) -> None:
            spawn(engine, rank, tr.wrap(fn, "rank main", "apps.body", rank), *args)

        def traced_register(tc: Any, fn: Callable) -> int:
            if callable(fn):
                fn = tr.wrap(fn, "task callback", "apps.body")
            return register(tc, fn)

        for owner, attr, new, old in (
            (Engine, "spawn", traced_spawn, spawn),
            (TaskCollection, "register", traced_register, register),
        ):
            setattr(new, _MARK, old)
            self._patch(owner, attr, new)

    def restore(self) -> None:
        """Put every original back (idempotent)."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    @cached_property
    def columns(self) -> dict[str, np.ndarray]:
        """The rows as arrays, plus ``site``, ``first`` and ``self_s``
        (read once the traced root has closed)."""
        nid = np.array(self.nid, dtype=np.int64)
        start = np.array(self.start)
        end = np.array(self.end)
        parent = np.array(self.parent, dtype=np.int64)
        first = nid >= 0
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(nid)
        )
        return {
            "site": np.where(first, nid, ~nid),
            "first": first,
            "start": start,
            "dur": dur,
            "parent": parent,
            "rank": np.array(self.rank, dtype=np.int64),
            "self_s": dur - child,
        }

    def summary(self, untraced_s: float | None = None) -> dict[str, Any]:
        """Calls and busy time per site and per layer.

        Busy time is self time less the tracer's own cost: each wrapped
        row is charged :func:`row_overhead`, part inside the row and part
        in its parent.  With ``untraced_s`` — the wall time of the same run
        without wrappers — the charges are first scaled to add up to
        ``traced - untraced_s``: rows cost more in a real run than in the
        calibration loop (keyword arguments, colder caches, more garbage
        collections), and that excess grows with the number of rows, not
        with the time unwrapped code such as a numpy kernel takes.  A site
        charged more than it measured is set to 0 and the rest rescaled,
        so busy times add up to ``untraced_s``.
        """
        col = self.columns
        nsites = len(self.sites)
        model = row_overhead()
        is_gen = np.array([gen for _, _, gen in self.sites])[col["site"]]
        wrapped = col["site"] > HANDOFF
        wrapped[np.array(self.reopened, dtype=np.int64)] = False
        inside = np.where(is_gen, model[True][0], model[False][0]) * wrapped
        outside = np.where(is_gen, model[True][1], model[False][1]) * wrapped
        to_parent = np.bincount(
            np.maximum(col["parent"], 0), weights=outside, minlength=len(inside)
        )
        traced_s = float(col["dur"][ROOT])
        modelled_s = float(inside.sum() + outside.sum())
        scale = 1.0
        if untraced_s is not None and modelled_s > 0:
            scale = max(traced_s - untraced_s, 0.0) / modelled_s
        busy = np.bincount(
            col["site"],
            weights=col["self_s"] - scale * (inside + to_parent),
            minlength=nsites,
        ).clip(min=0.0)
        calls = np.bincount(col["site"][col["first"]], minlength=nsites)
        root_s = untraced_s if untraced_s is not None else float(busy.sum())
        busy *= root_s / float(busy.sum())
        by_site: dict[str, dict[str, Any]] = {}
        for i, (name, layer, _) in enumerate(self.sites):
            if i == ROOT:
                continue
            entry = by_site.setdefault(name, {"layer": layer, "calls": 0, "busy_s": 0.0})
            entry["calls"] += int(calls[i])
            entry["busy_s"] += float(busy[i])
        layers = {
            layer: {"calls": 0, "busy_s": 0.0, "share": 0.0} for layer in self.layers
        }
        for entry in by_site.values():
            agg = layers[entry["layer"]]
            agg["calls"] += entry["calls"]
            agg["busy_s"] += entry["busy_s"]
        for agg in layers.values():
            agg["share"] = agg["busy_s"] / root_s
        return {
            "traced_s": traced_s,
            "overhead_scale": scale,
            "root_s": root_s,
            "unattributed_s": float(busy[ROOT]),
            "rows": len(inside),
            "layers": layers,
            "sites": by_site,
        }

    def outermost_calls(self, priced: set[str]) -> dict[str, int]:
        """Calls of each site in ``priced`` that are not nested inside
        another priced call — the counts a sum of inclusive unit prices
        may use without charging an inner operation twice."""
        col = self.columns
        is_priced = np.array([name in priced for name, _, _ in self.sites])
        row_priced = is_priced[col["site"]]
        parent = np.maximum(col["parent"], 0)
        covered = np.zeros(len(parent), dtype=bool)
        while True:
            grown = covered | (row_priced | covered)[parent]
            grown[ROOT] = False
            if (grown == covered).all():
                break
            covered = grown
        keep = col["first"] & row_priced & ~covered
        counts = np.bincount(col["site"][keep], minlength=len(self.sites))
        out = dict.fromkeys(priced, 0)
        for i, (name, _, _) in enumerate(self.sites):
            if is_priced[i]:
                out[name] += int(counts[i])
        return out

    def chrome_events(self, pid: int, label: str) -> Iterator[dict]:
        """The rows as Chrome trace events, one thread track per rank."""
        col = {k: self.columns[k].tolist() for k in ("site", "start", "dur", "rank", "parent")}
        t0 = col["start"][ROOT]
        yield {"ph": "M", "pid": pid, "name": "process_name", "args": {"name": label}}
        for i, site in enumerate(col["site"]):
            name, layer, _ = self.sites[site]
            yield {
                "name": name,
                "cat": layer or "ledger",
                "ph": "X",
                "ts": round((col["start"][i] - t0) * 1e6, 3),
                "dur": round(col["dur"][i] * 1e6, 3),
                "pid": pid,
                "tid": col["rank"][i] + 1,
                "args": {"row": i, "parent": col["parent"][i]},
            }


@cache
def row_overhead(n: int = 20_000) -> dict[bool, tuple[float, float]]:
    """Seconds one row costs, as ``{is generator: (inside the row, in its
    parent)}``: a wrapped no-op method with the argument shapes of the
    runtime's calls, called ``n`` times from a wrapped driver, against the
    same loop unwrapped.  Measured once per process; the best of three."""

    class Probe:
        def plain(self, proc: Any, nbytes: int, fn: Any = None) -> None:
            return None

        def gen(self, proc: Any, nbytes: int, fn: Any = None):
            yield

    def drive(probe: Probe) -> None:
        for _ in range(n):
            probe.plain(None, 64, fn=None)

    def gen_drive(probe: Probe):
        for _ in range(n):
            yield from probe.gen(None, 64, fn=None)

    def run(driver: Callable, probe: Any) -> float:
        t0 = perf_counter()
        for _ in driver(probe) or ():
            pass
        return perf_counter() - t0

    model = {}
    for is_gen, attr, driver in ((False, "plain", drive), (True, "gen", gen_drive)):
        bare_s = min(run(driver, Probe()) for _ in range(4))
        best = (float("inf"), 0.0)
        for _ in range(3):
            tr = Tracer(layers={})
            traced = type("TracedProbe", (Probe,), {})
            setattr(traced, attr, tr.wrap(getattr(Probe, attr), "probe", "x"))
            with tr.root():
                run(tr.wrap(driver, "driver", "x"), traced())
            col = tr.columns
            per_row = (col["dur"][ROOT] - bare_s) / (len(col["site"]) - 1)
            probes = col["site"] == tr._site("probe", "x", is_gen)
            best = min(best, (per_row, min(float(col["dur"][probes].mean()), per_row)))
        model[is_gen] = (best[1], best[0] - best[1])
    return model


def _resolve(site: str) -> list[tuple[Any, str, str]]:
    """``(owner, attribute, display name)`` for one entry of ``LAYERS``."""
    modname, _, qual = site.partition(":")
    mod = importlib.import_module(modname)
    if "." not in qual:
        return [(mod, qual, f"{modname.rsplit('.', 1)[-1]}.{qual}")]
    cls_name, attr = qual.split(".")
    if cls_name != "*":
        return [(getattr(mod, cls_name), attr, qual)]
    return [
        (cls, attr, f"{cls.__name__.lstrip('_')}.{attr}")
        for cls in vars(mod).values()
        if inspect.isclass(cls) and cls.__module__ == modname and attr in vars(cls)
    ]


def _aliases(fn: Callable) -> list[tuple[Any, str]]:
    """Every ``repro``/ledger module global bound to ``fn`` — modules
    that did ``from x import fn`` hold their own reference."""
    return [
        (mod, name)
        for modname, mod in list(sys.modules.items())
        if mod is not None and modname.split(".")[0] in ("repro", "benchmarks")
        for name, value in list(vars(mod).items())
        if value is fn
    ]


def wrappers_installed() -> list[str]:
    """Span sites currently replaced by a wrapper (must be empty while a
    timed sample runs).  Looks at the program, not at tracer bookkeeping."""
    from repro.core.collection import TaskCollection
    from repro.sim.engine import Engine

    targets = [
        (owner, attr)
        for sites in LAYERS.values()
        for site in sites
        for owner, attr, _ in _resolve(site)
    ] + [(Engine, "spawn"), (TaskCollection, "register")]
    return [
        f"{owner.__name__}.{attr}"
        for owner, attr in targets
        # a classmethod keeps the wrapper in __func__
        if hasattr(getattr(vars(owner)[attr], "__func__", vars(owner)[attr]), _MARK)
    ]
