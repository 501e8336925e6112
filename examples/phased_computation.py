#!/usr/bin/env python3
"""Phase-based task parallelism with multiple collections (§3.1).

The paper: "In situations where tasks are spawned in phases, multiple
task collections can be used and processed in sequence ... multiple task
collections may be added to while one is being processed."  This example
runs a two-phase pipeline — phase 1 tasks produce inputs for phase 2
tasks in a *different* collection while phase 1 is still being processed
— and then reuses the first collection via ``tc_reset`` for a third
phase.

Run:
    python examples/phased_computation.py [nprocs]
"""

import sys

from repro.core import SciotoConfig, Task, TaskCollection
from repro.sim.engine import run_spmd

WIDTH = 24  # tasks per phase

phase_log: list[tuple[str, int, int]] = []  # (phase, item, rank)


def main(proc):
    tc_a = yield from TaskCollection.co_create(proc, task_size=64)
    tc_b = yield from TaskCollection.co_create(proc, task_size=64)

    def produce(tc, task):
        tc.proc.compute(3e-6)
        phase_log.append(("produce", task.body, tc.rank))
        # spawn the consumer into the *other* collection mid-phase,
        # placed at a hashed rank to exercise remote adds
        dest = (task.body * 7) % tc.nprocs
        yield from tc_b.co_add(Task(callback=h_consume, body=task.body * 10), rank=dest)

    def consume(tc, task):
        tc.proc.compute(2e-6)
        phase_log.append(("consume", task.body, tc.rank))

    def finale(tc, task):
        phase_log.append(("finale", task.body, tc.rank))

    h_produce = tc_a.register(produce)
    h_finale = tc_a.register(finale)
    h_consume = tc_b.register(consume)

    if proc.rank == 0:
        for i in range(WIDTH):
            yield from tc_a.co_add(Task(callback=h_produce, body=i))
    stats1 = yield from tc_a.co_process()  # phase 1 (spawns phase 2 work as it runs)
    stats2 = yield from tc_b.co_process()  # phase 2
    yield from tc_a.co_reset()  # reuse collection A for phase 3
    if proc.rank == 0:
        for i in range(WIDTH):
            yield from tc_a.co_add(Task(callback=h_finale, body=i), rank=i % proc.nprocs)
    stats3 = yield from tc_a.co_process()
    return (stats1.tasks_executed, stats2.tasks_executed, stats3.tasks_executed)


if __name__ == "__main__":
    nprocs = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    sim = run_spmd(nprocs, main, seed=0)
    per_phase = [sum(r[i] for r in sim.returns) for i in range(3)]
    print(f"three phases over {nprocs} ranks: tasks per phase = {per_phase}")
    produced = sorted(b for ph, b, _ in phase_log if ph == "produce")
    consumed = sorted(b for ph, b, _ in phase_log if ph == "consume")
    assert per_phase == [WIDTH, WIDTH, WIDTH]
    assert consumed == [10 * b for b in produced]
    print("every produced item was consumed exactly once:",
          consumed == [10 * i for i in range(WIDTH)])
    print(f"virtual time: {sim.elapsed * 1e6:.1f} us")
