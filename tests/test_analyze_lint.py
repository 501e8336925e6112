"""Fixture tests for the RPR lint rules: each rule must fire on a
known-bad snippet and stay quiet on the sanctioned version."""

from __future__ import annotations

import textwrap

import pytest

from repro.analyze.lint import RULES, lint_file, lint_paths


def _lint(code: str, rule: str | None = None):
    rules = [rule] if rule else None
    return lint_file("fixture.py", source=textwrap.dedent(code), rules=rules)


def _ids(findings):
    return [f.rule for f in findings]


class TestFramework:
    def test_all_rules_registered(self):
        assert set(RULES) == {
            "RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006", "RPR007"
        }

    def test_syntax_error_reported_not_raised(self):
        findings = _lint("def broken(:\n")
        assert _ids(findings) == ["RPR000"]

    def test_line_suppression(self):
        code = """
        import time
        t = time.time()  # repro: lint-disable=RPR002
        """
        assert _lint(code, "RPR002") == []

    def test_file_suppression(self):
        code = """
        # repro: lint-disable-file=RPR002
        import time
        a = time.time()
        b = time.time()
        """
        assert _lint(code, "RPR002") == []

    def test_suppression_is_per_rule(self):
        code = """
        import time
        t = time.time()  # repro: lint-disable=RPR001
        """
        assert _ids(_lint(code, "RPR002")) == ["RPR002"]

    def test_lint_paths_walks_directories(self, tmp_path):
        (tmp_path / "bad.py").write_text("import time\nt = time.time()\n")
        (tmp_path / "good.py").write_text("x = 1\n")
        findings, nfiles = lint_paths([tmp_path])
        assert nfiles == 2
        assert _ids(findings) == ["RPR002"]


class TestRPR001SharedMutation:
    def test_flags_unlocked_mutation(self):
        code = """
        class Q:
            def bad_pop(self, proc):
                return self._shared.pop(0)
        """
        findings = _lint(code, "RPR001")
        assert _ids(findings) == ["RPR001"]
        assert "bad_pop" in findings[0].message

    def test_flags_unlocked_assignment_and_del(self):
        code = """
        class Q:
            def clobber(self):
                self._shared = []
                del self._shared[:2]
        """
        assert _ids(_lint(code, "RPR001")) == ["RPR001", "RPR001"]

    def test_quiet_under_lock(self):
        code = """
        class Q:
            def good_pop(self, proc):
                self.mutex.acquire(proc)
                task = self._shared.pop(0)
                self.mutex.release(proc)
                return task
        """
        assert _lint(code, "RPR001") == []

    def test_quiet_in_closure_passed_to_runner(self):
        code = """
        class Q:
            def steal(self, proc):
                def _take():
                    return self._shared.pop()
                return self.armci.rmw(proc, self.owner, _take)
        """
        assert _lint(code, "RPR001") == []

    def test_quiet_in_init_and_reads(self):
        code = """
        class Q:
            def __init__(self):
                self._shared = []
            def peek(self):
                return self._shared[0] if self._shared else None
        """
        assert _lint(code, "RPR001") == []


class TestRPR002WallClock:
    def test_flags_time_time(self):
        assert _ids(_lint("import time\nt = time.time()\n", "RPR002")) == ["RPR002"]

    def test_flags_perf_counter_and_monotonic(self):
        code = """
        import time
        a = time.perf_counter()
        b = time.monotonic()
        """
        assert _ids(_lint(code, "RPR002")) == ["RPR002", "RPR002"]

    def test_flags_global_random(self):
        code = """
        import random
        x = random.random()
        y = random.randint(0, 3)
        """
        assert _ids(_lint(code, "RPR002")) == ["RPR002", "RPR002"]

    def test_flags_argless_datetime_now(self):
        code = """
        from datetime import datetime
        t = datetime.now()
        """
        assert _ids(_lint(code, "RPR002")) == ["RPR002"]

    def test_quiet_on_seeded_rng_and_virtual_time(self):
        code = """
        import random
        rng = random.Random(42)
        x = rng.uniform(0.0, 1.0)
        def body(proc):
            return proc.now + proc.rng.random()
        """
        assert _lint(code, "RPR002") == []


class TestRPR003PollLoop:
    def test_flags_busy_wait_on_flag(self):
        code = """
        def wait_done(self):
            while not self.done:
                pass
        """
        assert _ids(_lint(code, "RPR003")) == ["RPR003"]

    def test_flags_spin_on_mailbox_probe(self):
        code = """
        def drain(self, proc):
            spins = 0
            while not self.armci.mailbox_empty(proc, self.tag):
                spins += 1
        """
        assert _ids(_lint(code, "RPR003")) == ["RPR003"]

    def test_quiet_when_loop_yields(self):
        code = """
        def wait_done(self, proc):
            while not self.done:
                yield from proc.co_sleep(1e-6)
        """
        assert _lint(code, "RPR003") == []

    def test_quiet_on_local_worklist(self):
        code = """
        def toposort(ready):
            while ready:
                ready.pop()
        """
        assert _lint(code, "RPR003") == []

    def test_quiet_when_helper_may_yield(self):
        code = """
        def run(self, proc):
            while not self.done:
                self.service(proc)
        """
        assert _lint(code, "RPR003") == []


class TestRPR004TaskCapture:
    def test_flags_lambda_capturing_proc(self):
        code = """
        def setup(tc, proc):
            h = tc.register(lambda tc_, t: proc.compute(1e-6))
            return h
        """
        findings = _lint(code, "RPR004")
        assert _ids(findings) == ["RPR004"]
        assert "proc" in findings[0].message

    def test_flags_nested_def_capturing_engine(self):
        code = """
        def setup(tc, engine):
            def body(tc_, t):
                engine.wake(t, 0.0)
            return tc.register(body)
        """
        assert _ids(_lint(code, "RPR004")) == ["RPR004"]

    def test_quiet_when_body_uses_executing_rank(self):
        code = """
        def setup(tc):
            def body(tc_, t):
                tc_.proc.compute(1e-6)
                data = tc_.clo(t.body)
                data.append(t.body)
            return tc.register(body)
        """
        assert _lint(code, "RPR004") == []

    def test_quiet_on_portable_captures(self):
        code = """
        def setup(tc, limit):
            def body(tc_, t):
                if t.body < limit:
                    tc_.add(t)
            return tc.register(body)
        """
        assert _lint(code, "RPR004") == []


class TestRPR005UnfencedFlagPut:
    def test_flags_flag_put_without_fence(self):
        code = """
        def note_steal(self, proc, victim):
            det = self.peers[victim]
            self.armci.put(proc, victim, 8, lambda: det._mark_dirty())
        """
        assert _ids(_lint(code, "RPR005")) == ["RPR005"]

    def test_flags_assignment_style_flag_store(self):
        code = """
        def signal(self, proc, victim):
            def _set():
                self.peers[victim].done = True
            self.armci.put(proc, victim, 8, _set)
        """
        assert _ids(_lint(code, "RPR005")) == ["RPR005"]

    def test_quiet_with_preceding_fence(self):
        code = """
        def note_steal(self, proc, victim):
            det = self.peers[victim]
            self.armci.fence(proc, victim)
            self.armci.put(proc, victim, 8, lambda: det._mark_dirty())
        """
        assert _lint(code, "RPR005") == []

    def test_quiet_on_plain_data_put(self):
        code = """
        def update_index(self, proc, victim):
            self.armci.put(proc, victim, 24, None)
        """
        assert _lint(code, "RPR005") == []

    def test_quiet_on_observability_edge_marks_in_callback(self):
        # repro.obs recording calls (edge_mark, instant, ...) are pure
        # observers; their names match the flag hint but store nothing.
        code = """
        def add_remote(self, proc, task):
            def _insert():
                self.peers[proc].append(task)
                edge_mark(proc, ("spawn", task.uid))
                instant(proc, "dirty-mark", "termination")
            self.armci.put(proc, self.owner, 64, _insert)
        """
        assert _lint(code, "RPR005") == []

    def test_observer_names_do_not_mask_real_flag_stores(self):
        code = """
        def add_remote(self, proc, task):
            def _insert():
                edge_mark(proc, ("spawn", task.uid))
                self.peers[proc].done = True
            self.armci.put(proc, self.owner, 64, _insert)
        """
        assert _ids(_lint(code, "RPR005")) == ["RPR005"]


class TestRPR006LockOrder:
    def test_flags_locks_nested_in_both_orders(self):
        code = """
        def forward(a, b):
            a.lock.acquire()
            b.lock.acquire()
            b.lock.release()
            a.lock.release()

        def backward(a, b):
            b.lock.acquire()
            a.lock.acquire()
            a.lock.release()
            b.lock.release()
        """
        findings = _lint(code, "RPR006")
        assert _ids(findings) == ["RPR006"]
        assert "both nestings" in findings[0].message

    def test_self_prefix_unifies_fields_across_methods(self):
        code = """
        class Q:
            def up(self):
                self._m.acquire()
                self._n.acquire()
                self._n.release()
                self._m.release()

            def down(self):
                self._n.acquire()
                self._m.acquire()
                self._m.release()
                self._n.release()
        """
        assert _ids(_lint(code, "RPR006")) == ["RPR006"]

    def test_quiet_on_consistent_global_order(self):
        code = """
        def ordered_twice(a, b):
            a.lock.acquire()
            b.lock.acquire()
            b.lock.release()
            a.lock.release()
            a.lock.acquire()
            b.lock.acquire()
            b.lock.release()
            a.lock.release()
        """
        assert _lint(code, "RPR006") == []

    def test_quiet_on_sequential_not_nested_reversal(self):
        code = """
        def one_at_a_time(a, b):
            b.lock.acquire()
            b.lock.release()
            a.lock.acquire()
            a.lock.release()

        def other_way(a, b):
            a.lock.acquire()
            a.lock.release()
            b.lock.acquire()
            b.lock.release()
        """
        assert _lint(code, "RPR006") == []

    def test_quiet_on_reacquisition_of_same_lock_name(self):
        code = """
        def nested_same(a):
            a.lock.acquire()
            a.lock.acquire()
            a.lock.release()
            a.lock.release()
        """
        assert _lint(code, "RPR006") == []


class TestRPR007DiscardedCoroutine:
    def test_flags_dropped_and_truth_tested_calls(self):
        code = """
        def main(proc, mpi, tc, ws):
            mpi.barrier(proc)
            tc.co_add(task)
            if mpi.iprobe(proc, tag=1):
                pass
            while ws.mpi.iprobe(proc) and not ws.done:
                pass
            assert not proc.co_sync()
            x = 1 if self.mpi.recv(proc) else 2
            tc_process(tc)
        """
        findings = _lint(code, "RPR007")
        assert [f.line for f in findings] == [3, 4, 5, 7, 9, 10, 11]
        assert "yield from" in findings[0].message

    def test_quiet_on_driven_returned_and_assigned_calls(self):
        code = """
        def main(proc, mpi, tc, gen, sock):
            yield from mpi.barrier(proc)
            if (yield from mpi.iprobe(proc, tag=1)):
                got = yield from mpi.recv(proc)
            pending = tc.co_add(task)
            yield from pending
            batches.append(tc.co_process())
            stats = yield from tc_process(tc)
            gen.send(None)
            sock.recv(4096)
            while not (yield from mpi.iprobe(proc)):
                pass
            return mpi.send(proc, 1, 0, None)
        """
        assert _lint(code, "RPR007") == []


class TestRepoIsClean:
    def test_src_repro_lints_clean(self):
        findings, nfiles = lint_paths(["src/repro", "examples"])
        assert nfiles > 50
        assert findings == []

    def test_cli_lint_exit_codes(self, tmp_path, capsys):
        from repro.analyze.__main__ import main

        assert main(["lint", "src/repro"]) == 0
        capsys.readouterr()
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        assert main(["lint", str(bad)]) == 1
        assert "RPR002" in capsys.readouterr().out


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
