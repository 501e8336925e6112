"""Happens-before passes against a brute-force reference.

Race detection is a function of the captured event list, so it can be
checked on synthetic traces.  The generator writes well-formed traces
for P ∈ {2, 3}: shared accesses (r/w/rw/a), mutex acquire/release pairs,
post/poll, rmw brackets, collectives and flag stores/loads.

The reference builds happens-before as the transitive closure of
program order plus explicit sync edges: release → next acquire of the
same mutex, FIFO post → poll per (target, tag), rmw-done → next rmw at
that target, all-to-all within a collective, and every flag store →
every later load of that region.  A region is racy when two accesses
from different ranks conflict (at least one writes, not both atomic)
and neither happens-before the other.

``race_pass`` must report a data race on exactly the racy regions;
``weakened_hb_pass`` must do the same for the must-only edge set
(mutex and flag edges dropped) on traces with no locks held.
"""

from __future__ import annotations

from collections import defaultdict, deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analyze.capture import TraceEvent
from repro.analyze.predict import weakened_hb_pass
from repro.analyze.race import race_pass

REGIONS = ("x", "y")
MUTEXES = ("A", "B")
OPS = ("r", "w", "rw", "a")


def _access(rank, region, op, n):
    return ("access", rank, {"region": region, "op": op, "site": f"s{n}"})


@st.composite
def programs(draw, locks):
    """A well-formed trace as ``(nprocs, [(kind, rank, data), ...])``."""
    nprocs = draw(st.sampled_from([2, 3]))
    holder: dict[str, int] = {}
    inbox = [0] * nprocs
    specs: list[tuple] = []
    for _ in range(draw(st.integers(1, 24))):
        r = draw(st.integers(0, nprocs - 1))
        kinds = ["access", "access", "post", "rmw", "collective", "flag-write", "flag-read"]
        if inbox[r]:
            kinds.append("poll")
        if locks and any(m not in holder for m in MUTEXES):
            kinds.append("acquire")
        if locks and r in holder.values():
            kinds.append("release")
        kind = draw(st.sampled_from(kinds))
        if kind == "access":
            specs.append(_access(r, draw(st.sampled_from(REGIONS)),
                                 draw(st.sampled_from(OPS)), len(specs)))
        elif kind == "post":
            target = draw(st.integers(0, nprocs - 1))
            inbox[target] += 1
            specs.append(("post", r, {"target": target, "tag": "t"}))
        elif kind == "poll":
            inbox[r] -= 1
            specs.append(("poll", r, {"tag": "t"}))
        elif kind == "rmw":
            target = draw(st.integers(0, nprocs - 1))
            specs.append(("rmw", r, {"target": target}))
            if draw(st.booleans()):
                specs.append(_access(r, draw(st.sampled_from(REGIONS)), "rw", len(specs)))
            specs.append(("rmw-done", r, {"target": target}))
        elif kind == "collective":
            ranks = tuple(range(nprocs))
            specs.extend(("collective", p, {"ranks": ranks}) for p in ranks)
        elif kind == "flag-write":
            specs.append(("flag-write", r, {"region": "f", "target": None, "release": False}))
        elif kind == "flag-read":
            specs.append(("flag-read", r, {"region": "f"}))
        elif kind == "acquire":
            mutex = draw(st.sampled_from([m for m in MUTEXES if m not in holder]))
            holder[mutex] = r
            specs.append(("acquire", r, {"mutex": mutex, "host": 0}))
        else:
            mutex = draw(st.sampled_from(sorted(m for m, h in holder.items() if h == r)))
            del holder[mutex]
            specs.append(("release", r, {"mutex": mutex, "host": 0}))
    return nprocs, specs


def _events(specs):
    """Number the specs and attach the held locksets the detector would."""
    held: dict[int, list[str]] = defaultdict(list)
    idx: dict[int, int] = defaultdict(int)
    events = []
    for kind, rank, data in specs:
        if kind == "acquire":
            held[rank].append(data["mutex"])
        elif kind == "release":
            held[rank].remove(data["mutex"])
        elif kind == "rmw-done":
            held[rank].remove(f"rmw[{data['target']}]")
        events.append(TraceEvent(
            kind=kind, rank=rank, idx=idx[rank], seq=len(events),
            time=float(len(events)), held=tuple(held[rank]), data=dict(data),
        ))
        idx[rank] += 1
        if kind == "rmw":
            held[rank].append(f"rmw[{data['target']}]")
    return events


def _racy_regions(events, must_only):
    """Regions with a conflicting, unordered access pair (brute force)."""
    before = [0] * len(events)  # bitmask: events ordered at-or-before i
    last: dict[int, int] = {}
    released: dict[str, int] = {}
    done: dict[int, int] = {}
    stores: dict[str, int] = defaultdict(int)
    posts: dict[tuple, deque] = defaultdict(deque)
    i = 0
    while i < len(events):
        ev = events[i]
        data = ev.data
        if ev.kind == "collective":
            group = range(i, i + len(data["ranks"]))
            joined = 0
            for j in group:
                joined |= 1 << j | (before[last[events[j].rank]] if events[j].rank in last else 0)
            for j in group:
                before[j] = joined
                last[events[j].rank] = j
            i += len(group)
            continue
        mask = 1 << i | (before[last[ev.rank]] if ev.rank in last else 0)
        if ev.kind == "acquire" and not must_only and data["mutex"] in released:
            mask |= before[released[data["mutex"]]]
        elif ev.kind == "poll":
            mask |= before[posts[(ev.rank, data["tag"])].popleft()]
        elif ev.kind == "rmw" and data["target"] in done:
            mask |= before[done[data["target"]]]
        elif ev.kind == "flag-read" and not must_only:
            mask |= stores[data["region"]]
        before[i] = mask
        last[ev.rank] = i
        if ev.kind == "release":
            released[data["mutex"]] = i
        elif ev.kind == "rmw-done":
            done[data["target"]] = i
        elif ev.kind == "flag-write":
            stores[data["region"]] |= mask
        elif ev.kind == "post":
            posts[(data["target"], data["tag"])].append(i)
        i += 1

    accesses = [e for e in events if e.kind == "access"]
    racy = set()
    for n, f in enumerate(accesses):
        for e in accesses[:n]:
            ops = {e.data["op"], f.data["op"]}  # both reads / both atomic: no conflict
            if (
                e.rank != f.rank
                and e.data["region"] == f.data["region"]
                and ops != {"r"}
                and ops != {"a"}
                and not before[f.seq] >> e.seq & 1
            ):
                racy.add(e.data["region"])
    return racy


def _w(rank, n):
    return _access(rank, "x", "w", n)


#: One pinned trace per sync kind: two conflicting writes the edge orders.
MUTEX = (2, [
    ("acquire", 0, {"mutex": "A", "host": 0}), _w(0, 1),
    ("release", 0, {"mutex": "A", "host": 0}),
    ("acquire", 1, {"mutex": "A", "host": 0}), _w(1, 4),
    ("release", 1, {"mutex": "A", "host": 0}),
])
MESSAGE = (2, [_w(0, 0), ("post", 0, {"target": 1, "tag": "t"}),
               ("poll", 1, {"tag": "t"}), _w(1, 3)])
RMW = (3, [_w(0, 0), ("rmw", 0, {"target": 2}), ("rmw-done", 0, {"target": 2}),
           ("rmw", 1, {"target": 2}), ("rmw-done", 1, {"target": 2}), _w(1, 5)])
COLLECTIVE = (2, [_w(0, 0), ("collective", 0, {"ranks": (0, 1)}),
                  ("collective", 1, {"ranks": (0, 1)}), _w(1, 3)])
FLAG = (2, [_w(0, 0), ("flag-write", 0, {"region": "f", "target": None, "release": False}),
            ("flag-read", 1, {"region": "f"}), _w(1, 3)])


@settings(max_examples=200, deadline=None)
@given(program=programs(locks=True))
@example(program=MUTEX)
@example(program=MESSAGE)
@example(program=RMW)
@example(program=COLLECTIVE)
@example(program=FLAG)
def test_race_pass_matches_reference(program):
    nprocs, specs = program
    events = _events(specs)
    found = {r.region for r in race_pass(events, nprocs) if r.kind == "data-race"}
    assert found == _racy_regions(events, must_only=False)


@settings(max_examples=200, deadline=None)
@given(program=programs(locks=False))
@example(program=MESSAGE)
@example(program=RMW)
@example(program=COLLECTIVE)
@example(program=FLAG)
def test_weakened_pass_matches_must_only_reference(program):
    nprocs, specs = program
    events = _events(specs)
    found = {f.region for f in weakened_hb_pass(events, nprocs)}
    assert found == _racy_regions(events, must_only=True)


def test_pinned_examples_exercise_their_edge():
    """Each pinned trace is ordered by its edge and racy without it."""
    for nprocs, specs in (MESSAGE, RMW, COLLECTIVE):
        events = _events(specs)
        assert _racy_regions(events, must_only=True) == set()
    for nprocs, specs in (MUTEX, FLAG):
        events = _events(specs)
        assert _racy_regions(events, must_only=False) == set()
        assert _racy_regions(events, must_only=True) == {"x"}
