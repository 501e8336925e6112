"""Unit prices: what one operation of each layer costs, in ns of host time.

Tight untraced loops over the same public calls the workloads make, so a
layer's price times its call count can be held against the wall time of
a workload (``ledger.reconstruct_ratio``).  Every price is *inclusive*:
``price.core.collection.add_ns`` contains the clone, the push and the
elided sync that ``co_add`` performs.  Loops that need a running rank
are timed inside that rank's generator main while every other rank has
already finished, so each sync elides and no other context's time is in
the interval; the two that need several live ranks (handoff, wave) time
the whole ``Engine.run()``.
"""

from __future__ import annotations

from collections.abc import Callable
from statistics import median
from time import perf_counter

from repro.apps.uts.presets import preset
from repro.apps.uts.tree import children_of, root_node
from repro.armci.runtime import Armci
from repro.check.strategies import make_strategy
from repro.core import SciotoConfig, SplitQueue, Task, TaskCollection
from repro.ga import GlobalArray
from repro.obs.record import Recorder, observe, span
from repro.sim.counters import Counters
from repro.sim.engine import Engine
from repro.sim.machines import uniform_cluster

REPS = 5
_UTS_BYTES = 32


def _rank0(nprocs: int, body: Callable) -> float:
    """Run generator ``body(proc)`` as rank 0's main — every other rank
    returns at once — and hand back the seconds ``body`` returned."""

    def main(proc):
        if proc.rank == 0:
            return (yield from body(proc))

    engine = Engine(nprocs)
    engine.spawn_all(main)
    return engine.run().returns[0]


def _uts_task() -> Task:
    return Task(callback=0, body=root_node(preset("small")), body_size=_UTS_BYTES)


def sync_elided(n: int = 200_000) -> float:
    def body(proc):
        t0 = perf_counter()
        for _ in range(n):
            yield from proc.co_sync()
        return perf_counter() - t0

    return _rank0(1, body) / n


def handoff(n: int = 6_000, nprocs: int = 16) -> float:
    """Every rank sleeps the same 1 us, so each sync finds an earlier or
    equal event and hands the context over."""

    def main(proc):
        for _ in range(n):
            yield from proc.co_sleep(1e-6)

    engine = Engine(nprocs)
    engine.spawn_all(main)
    t0 = perf_counter()
    events = engine.run().events
    return (perf_counter() - t0) / events


def machine_lookup(n: int = 100_000) -> float:
    m = uniform_cluster(2)
    t0 = perf_counter()
    for _ in range(n):
        m.put_time(64)
        m.get_time(64)
        m.local_copy_time(96)
    return (perf_counter() - t0) / (3 * n)


def task_clone(n: int = 200_000) -> float:
    task = _uts_task()
    t0 = perf_counter()
    for _ in range(n):
        task.clone()
    return (perf_counter() - t0) / n


def queue_push_pop(n: int = 50_000) -> float:
    """One ``co_push_local`` + one ``co_pop_local`` on a split queue that
    already holds a few tasks."""
    task = _uts_task()

    def body(proc):
        q = SplitQueue(proc.engine, 0, 1024, _UTS_BYTES, SciotoConfig(), Counters())
        for _ in range(8):
            yield from q.co_push_local(proc, task)
        t0 = perf_counter()
        for _ in range(n):
            yield from q.co_push_local(proc, task)
            yield from q.co_pop_local(proc)
        return perf_counter() - t0

    return _rank0(1, body) / n


def queue_steal(n: int = 1_000, chunk: int = 10) -> float:
    """A chunk-10 ``co_steal_from`` plus ``co_absorb_stolen``.  The victim
    queue is fully locked, so everything its owner pushed is stealable
    without a release; the thief's own queue is split.  The thief starts
    once the victim has finished, and drains what it stole between
    steals, outside the timed intervals."""
    task = _uts_task()
    engine, counters = Engine(2), Counters()
    victim = SplitQueue(
        engine, 1, n * chunk + 8, _UTS_BYTES, SciotoConfig(split_queues=False), counters
    )
    mine = SplitQueue(engine, 0, 1024, _UTS_BYTES, SciotoConfig(), counters)

    def main(proc):
        if proc.rank == 1:
            for _ in range(n * chunk):
                yield from victim.co_push_local(proc, task)
            return None
        yield from proc.co_sleep(1.0)  # virtual seconds: the victim is long done
        spent = 0.0
        for _ in range(n):
            t0 = perf_counter()
            got = yield from victim.co_steal_from(proc, chunk)
            yield from mine.co_absorb_stolen(proc, got)
            spent += perf_counter() - t0
            while (yield from mine.co_pop_local(proc)) is not None:
                pass
        return spent

    engine.spawn_all(main)
    return engine.run().returns[0] / n


def collection_add(n: int = 40_000, batch: int = 64) -> float:
    """``co_add`` of a UTS-shaped task; the collection is drained by an
    untimed ``co_process`` every ``batch`` adds so the queue stays short."""

    def body(proc):
        tc = yield from TaskCollection.co_create(proc, task_size=_UTS_BYTES)
        task = Task(
            callback=tc.register(lambda tc_, t: None),
            body=root_node(preset("small")),
            body_size=_UTS_BYTES,
        )
        spent = 0.0
        for _ in range(n // batch):
            t0 = perf_counter()
            for _ in range(batch):
                yield from tc.co_add(task)
            spent += perf_counter() - t0
            yield from tc.co_process()
        return spent

    return _rank0(1, body) / (n // batch * batch)


def termination_wave(nprocs: int = 16) -> float:
    """Figure 4: detect termination after one no-op task at P=16.  Host
    time of the whole run (create, add, barrier, process) per wave."""

    def main(proc):
        tc = yield from TaskCollection.co_create(proc, task_size=64)
        handle = tc.register(lambda tc_, t: None)
        if proc.rank == 0:
            yield from tc.co_add(Task(callback=handle))
        yield from Armci.attach(proc.engine).co_barrier(proc)
        return (yield from tc.co_process())

    spent, waves = 0.0, 0
    for _ in range(20):
        engine = Engine(nprocs)
        engine.spawn_all(main)
        t0 = perf_counter()
        result = engine.run()
        spent += perf_counter() - t0
        waves += result.returns[0].waves
    return spent / waves


def _armci_op(op: str, n: int = 30_000) -> float:
    def body(proc):
        armci = Armci.attach(proc.engine)
        call = {
            "get": lambda: armci.co_get(proc, 1, 64, None),
            "put": lambda: armci.co_put(proc, 1, 64, None),
            "rmw": lambda: armci.co_rmw(proc, 1, lambda: 0),
        }[op]
        t0 = perf_counter()
        for _ in range(n):
            yield from call()
        return perf_counter() - t0

    return _rank0(2, body) / n


def ga_get_acc(n: int = 3_000) -> float:
    """``co_get`` + ``co_acc`` of an 8x8 block owned by the other rank."""

    def main(proc):
        ga = yield from GlobalArray.co_create(proc, "P", (32, 32))
        if proc.rank != 0:
            return None
        lo, _ = ga.distribution(1)
        hi = tuple(x + 8 for x in lo)
        t0 = perf_counter()
        for _ in range(n):
            block = yield from ga.co_get(proc, lo, hi)
            yield from ga.co_acc(proc, lo, hi, block)
        return perf_counter() - t0

    engine = Engine(2)
    engine.spawn_all(main)
    return engine.run().returns[0] / n


def uts_children(n: int = 20_000) -> float:
    params = preset("small")
    nodes, frontier = [], [root_node(params)]
    while len(nodes) < 2_000:
        node = frontier.pop()
        nodes.append(node)
        frontier.extend(children_of(params, node))
    t0 = perf_counter()
    for i in range(n):
        children_of(params, nodes[i % len(nodes)])
    return (perf_counter() - t0) / n


def hook_off(n: int = 200_000) -> float:
    proc = Engine(1).procs[0]
    t0 = perf_counter()
    for _ in range(n):
        observe(proc, "x", 1.0)
    return (perf_counter() - t0) / n


def span_on(n: int = 30_000) -> float:
    engine = Engine(1)
    Recorder.attach(engine)
    proc = engine.procs[0]
    t0 = perf_counter()
    for _ in range(n):
        with span(proc, "s", "bench"):
            pass
    return (perf_counter() - t0) / n


def strategy_choose(n: int = 100_000) -> float:
    strategy = make_strategy("random", seed=0)
    candidates = [(1e-6 * r, r, r, 0) for r in range(4)]
    t0 = perf_counter()
    for _ in range(n):
        strategy.choose(candidates)
    return (perf_counter() - t0) / n


_MEASURES: dict[str, Callable[[], float]] = {
    "price.sim.engine.sync_elided_ns": sync_elided,
    "price.sim.engine.handoff_ns": handoff,
    "price.sim.machines.lookup_ns": machine_lookup,
    "price.core.task.clone_ns": task_clone,
    "price.core.queue.push_pop_ns": queue_push_pop,
    "price.core.queue.steal_ns": queue_steal,
    "price.core.collection.add_ns": collection_add,
    "price.core.termination.wave_ns": termination_wave,
    "price.armci.get_ns": lambda: _armci_op("get"),
    "price.armci.put_ns": lambda: _armci_op("put"),
    "price.armci.rmw_ns": lambda: _armci_op("rmw"),
    "price.ga.get_acc_ns": ga_get_acc,
    "price.apps.uts.children_ns": uts_children,
    "price.obs.hook_off_ns": hook_off,
    "price.obs.span_ns": span_on,
    "price.check.choose_ns": strategy_choose,
}


def measure() -> dict[str, float]:
    """Every unit price in ns: the median of ``REPS`` repetitions."""
    return {
        name: median(fn() for _ in range(REPS)) * 1e9 for name, fn in _MEASURES.items()
    }


def reconstruct(
    prices: dict[str, float],
    outermost: Callable[[set[str]], dict[str, int]],
    hit_ratio: float,
) -> float:
    """Seconds explained by ``calls x price`` over the traced sample.

    ``outermost(sites)`` gives, for each priced site, its calls that are
    not nested inside another priced call, so inclusive prices do not
    charge an inner operation twice.  Numpy kernels, task callbacks, the
    scheduler loop, the trampoline, ``Tracer.record``, the spill sink and
    the invariant checkers have no price, and the P=16 wave price does
    not fit the 3-rank check scenarios, so termination is left to the
    syncs and mailbox operations it nests: the ratio says how much of a
    workload the priced operations explain.
    """
    p = prices
    half_pair = p["price.core.queue.push_pop_ns"] / 2
    half_ga = p["price.ga.get_acc_ns"] / 2
    site_price = {
        "Proc.co_sync[elided]": p["price.sim.engine.sync_elided_ns"],
        "Proc.co_sync": p["price.sim.engine.handoff_ns"],
        "Proc.co_park": p["price.sim.engine.handoff_ns"],
        "Proc.co_park_until": p["price.sim.engine.handoff_ns"],
        "Task.clone": p["price.core.task.clone_ns"],
        "SplitQueue.co_push_local": half_pair,
        "SplitQueue.co_pop_local": half_pair,
        # A failed steal is taken as free; a successful one pays for its absorb.
        "SplitQueue.co_steal_from": p["price.core.queue.steal_ns"] * hit_ratio,
        "SplitQueue.co_absorb_stolen": 0.0,
        "TaskCollection.co_add": p["price.core.collection.add_ns"],
        "Armci.co_get": p["price.armci.get_ns"],
        "Armci.co_nbget": p["price.armci.get_ns"],
        "Armci.co_put": p["price.armci.put_ns"],
        "Armci.co_nbput": p["price.armci.put_ns"],
        "Armci.co_rmw": p["price.armci.rmw_ns"],
        "GlobalArray.co_get": half_ga,
        "GlobalArray.co_put": half_ga,
        "GlobalArray.co_acc": half_ga,
        "tree.children_of": p["price.apps.uts.children_ns"],
        "Recorder.span": p["price.obs.span_ns"],
        "Recorder.complete_span": p["price.obs.span_ns"],
        "Recorder.instant_event": p["price.obs.span_ns"],
        "Recorder.add_edge": p["price.obs.span_ns"],
        "RandomWalk.choose": p["price.check.choose_ns"],
    }
    for method in ("put_time", "get_time", "rmw_time", "lock_time", "unlock_time",
                   "local_copy_time", "work_time"):
        site_price[f"MachineSpec.{method}"] = p["price.sim.machines.lookup_ns"]
    calls = outermost(set(site_price))
    return sum(calls[site] * price for site, price in site_price.items()) * 1e-9
