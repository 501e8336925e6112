"""The ``tc_process`` scheduler loop: execute, steal, detect termination.

Each rank loops: drain termination tokens (cheap when none are
pending), pop the highest-affinity local task and execute it; when the
local queue drains, steal a chunk of low-affinity tasks from a random
victim; when steals fail, participate in the termination wave.  The
call returns on every rank once the root's all-white wave completes and
the ``done`` broadcast reaches it (§5.2).
"""

from __future__ import annotations

from types import GeneratorType

from repro.armci.runtime import Armci
from repro.core.stats import ProcessStats
from repro.core.stealing import make_victim_selector
from repro.obs.record import Recorder, edge_here, observe, span
from repro.obs.tracing import trace
from repro.util.errors import TaskCollectionError

__all__ = ["co_run_process"]

#: Counter keys copied into :class:`ProcessStats` after a phase.
_STAT_KEYS = {
    "steals_attempted": "steal_attempt",
    "steals_successful": "steal_success",
    "tasks_stolen": "tasks_stolen",
    "tasks_released": "tasks_released",
    "tasks_reacquired": "tasks_reacquired",
    "dirty_msgs": "dirty_msgs",
    "dirty_msgs_skipped": "dirty_msgs_skipped",
    "td_msgs": "td_msgs",
    "waves": "waves",
}


def co_run_process(tc):
    """Run the task-parallel phase for one rank (collective)."""
    proc = tc.proc
    engine = proc.engine
    shared = tc._shared
    cfg = shared.config
    armci = Armci.attach(engine)
    queue = shared.queues[proc.rank]
    callbacks = shared.callbacks[proc.rank]

    generation = shared.process_counts[proc.rank]
    shared.process_counts[proc.rank] += 1
    td = shared.detectors_for(generation)[proc.rank]
    shared.active[proc.rank] = td

    selector = make_victim_selector(cfg.steal_policy, proc)
    before = {k: shared.counters.get(proc.rank, c) for k, c in _STAT_KEYS.items()}
    yield from armci.co_barrier(proc)
    t_start = proc.now
    time_working = 0.0
    executed = 0
    fail_streak = 0

    try:
        while True:
            # Forward any pending tokens promptly, even while busy.  The
            # plain-call probe covers the common empty-mailbox case; the
            # coroutine form drains when tokens are actually pending.
            done = td.progress_busy(proc)
            if done is None:
                done = yield from td._co_progress(proc, idle=False)
            if done:
                break
            task = yield from queue.co_pop_local(proc)
            if task is not None:
                fail_streak = 0
                try:
                    fn = callbacks[task.callback]
                except IndexError:
                    raise TaskCollectionError(
                        f"rank {proc.rank}: task callback handle {task.callback} "
                        "not registered (collective registration mismatch?)"
                    ) from None
                t0 = proc._clock  # proc.now without the property call
                # A callback that communicates is a generator and runs
                # under yield from; one that never suspends may be a
                # plain function.
                # The dispatch is written twice so an unobserved run pays
                # nothing for the span/trace/edge wrappers.
                if engine.observed:
                    trace(proc, "task-exec", task.uid)
                    edge_here(proc, ("spawn", task.uid), "spawn",
                              detail=task.uid, clear=True)
                    with span(proc, "task", "task", detail=task.uid):
                        res = fn(tc, task)
                        if type(res) is GeneratorType:
                            yield from res
                    observe(proc, "task_time", proc._clock - t0)
                else:
                    res = fn(tc, task)
                    if type(res) is GeneratorType:
                        yield from res
                time_working += proc._clock - t0
                executed += 1
                continue
            # Local queue drained: this rank is passive.  Vote (or run the
            # root's wave step) immediately so termination tokens move at
            # network latency, then hunt for work.  A steal that succeeds
            # after voting is exactly the case §5.3's dirty marking covers.
            if (yield from td.co_progress(proc, idle=True)):
                break
            if cfg.load_balancing and proc.nprocs > 1:
                victim = selector.next_victim()
                t_steal = proc.now
                with span(proc, "steal", "steal", detail=victim):
                    got = yield from shared.queues[victim].co_steal_from(
                        proc,
                        cfg.chunk_size,
                        probe_first=fail_streak > 0,
                        on_transfer=td.steal_mark(proc, victim),
                    )
                    selector.report(victim, bool(got))
                    if got:
                        # note_steal is plain in production; checker
                        # mutations substitute generator variants that
                        # communicate (late mark / fence elision).
                        res = td.note_steal(proc, victim)
                        if type(res) is GeneratorType:
                            yield from res
                        yield from queue.co_absorb_stolen(proc, got)
                if got:
                    observe(proc, "steal_latency", proc.now - t_steal)
                    observe(proc, "steal_chunk", len(got))
                    fail_streak = 0
                    continue
                observe(proc, "steal_fail_latency", proc.now - t_steal)
                fail_streak += 1
            # Exponential backoff between failed steals; woken early the
            # moment a termination token lands in the mailbox.
            backoff = min(
                cfg.idle_backoff * (1 << min(fail_streak, 16)),
                cfg.max_idle_backoff,
            )
            t_idle = proc.now
            with span(proc, "idle-wait", "idle", detail=fail_streak):
                yield from armci.co_wait_mailbox(proc, td.tag, backoff)
            observe(proc, "idle_wait", proc.now - t_idle)
    finally:
        shared.active[proc.rank] = None

    if queue.size() != 0:
        raise TaskCollectionError(
            f"rank {proc.rank}: termination detected with {queue.size()} "
            "tasks still queued (protocol violation)"
        )

    rec = Recorder.of(proc.engine)
    if rec is not None:
        rec.complete_span(proc, "tc_process", "runtime", t_start, detail=generation)

    stats = ProcessStats(
        rank=proc.rank,
        tasks_executed=executed,
        time_total=proc.now - t_start,
        time_working=time_working,
    )
    for attr, key in _STAT_KEYS.items():
        setattr(stats, attr, int(shared.counters.get(proc.rank, key) - before[attr]))
    return stats
