"""Tests for task descriptors and configuration."""

from __future__ import annotations

import pytest

from repro.core.config import SciotoConfig
from repro.core.task import AFFINITY_HIGH, AFFINITY_LOW, TASK_HEADER_BYTES, Task


class TestTask:
    def test_wire_size_uses_body_size_when_set(self):
        t = Task(callback=0, body_size=100)
        assert t.wire_size(1024) == TASK_HEADER_BYTES + 100

    def test_wire_size_defaults_to_collection_task_size(self):
        t = Task(callback=0)
        assert t.wire_size(1024) == TASK_HEADER_BYTES + 1024

    def test_clone_deep_copies_body(self):
        body = {"block": [1, 2, 3]}
        t = Task(callback=1, body=body, affinity=AFFINITY_HIGH)
        c = t.clone()
        body["block"].append(4)
        assert c.body == {"block": [1, 2, 3]}
        assert c.callback == 1
        assert c.affinity == AFFINITY_HIGH

    def test_affinity_constants_ordered(self):
        assert AFFINITY_HIGH > AFFINITY_LOW

    def test_clone_allocates_fresh_uid(self):
        t = Task(callback=1, body=(1, 2))
        assert t.clone().uid != t.uid

    def test_clone_shares_immutable_bodies(self):
        # Copy-in/out is observationally identical for immutable
        # payloads, so clone may (and does) share them.
        for body in (None, 7, 1.5, "abc", b"xy", (1, "a", b"z"), frozenset({1})):
            t = Task(callback=0, body=body)
            assert t.clone().body is body

    def test_clone_shares_frozen_dataclass_of_atomics(self):
        from repro.apps.uts.tree import UTSNode

        node = UTSNode(digest=b"\x00" * 20, depth=3)
        assert Task(callback=0, body=node).clone().body is node

    def test_clone_still_copies_mutable_bodies(self):
        from dataclasses import dataclass, field

        for body in ([1, 2], {"k": 1}, (1, [2]), {1, 2}):
            t = Task(callback=0, body=body)
            c = t.clone()
            assert c.body == body and c.body is not body

        @dataclass(frozen=True)
        class FrozenWithList:
            items: list = field(default_factory=lambda: [1, 2])

        f = FrozenWithList()
        c = Task(callback=0, body=f).clone()
        assert c.body == f and c.body is not f  # mutable field: deep copy

    def test_clone_copies_whatever_is_not_provably_immutable(self):
        from dataclasses import dataclass

        @dataclass(frozen=True, slots=True)
        class Slotted:  # no instance dict to inspect
            items: list

        @dataclass(frozen=True)
        class Plain:
            n: int = 0

        @dataclass(frozen=True, slots=True)
        class SlottedChild(Plain):  # has a __dict__, but it misses ``items``
            items: list = None

        class Tagged(int):  # a subclass of an atomic type may carry state
            pass

        tagged = Tagged(7)
        tagged.note = ["mutable"]
        for body in (Slotted([1]), SlottedChild(1, [2]), tagged, (1, tagged)):
            c = Task(callback=0, body=body).clone()
            assert c.body == body and c.body is not body, body
        assert Task(callback=0, body=tagged).clone().body.note is not tagged.note

    def test_reset_uids_restarts_at_one(self):
        from repro.core.task import reset_uids

        reset_uids()
        first = Task(callback=0)
        assert (first.uid, first.clone().uid) == (1, 2)
        reset_uids()
        assert Task(callback=0).uid == 1


class TestSciotoConfig:
    def test_defaults_match_paper(self):
        cfg = SciotoConfig()
        assert cfg.split_queues is True
        assert cfg.load_balancing is True
        assert cfg.chunk_size == 10
        assert cfg.termination_opt is True

    @pytest.mark.parametrize("kwargs", [{"chunk_size": 0}])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SciotoConfig(**kwargs)

    def test_frozen(self):
        cfg = SciotoConfig()
        with pytest.raises(Exception):
            cfg.chunk_size = 5  # type: ignore[misc]
