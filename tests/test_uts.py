"""Tests for the UTS benchmark: tree determinism and parallel correctness."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.uts import (
    UTSParams,
    count_tree,
    root_node,
    run_uts_mpi,
    run_uts_scioto,
)
from repro.apps.uts.presets import preset
from repro.apps.uts.tree import UTSNode, children_of, num_children
from repro.core import SciotoConfig
from repro.sim.machines import heterogeneous_cluster

SMALL = UTSParams(b0=4.0, gen_mx=8, root_seed=6)  # a few hundred nodes


class TestTree:
    def test_tree_is_deterministic(self):
        a = count_tree(SMALL)
        b = count_tree(SMALL)
        assert (a.nodes, a.leaves, a.max_depth) == (b.nodes, b.leaves, b.max_depth)
        assert a.nodes > 50

    def test_children_deterministic_and_distinct(self):
        root = root_node(UTSParams(b0=8.0, root_seed=17))
        kids = children_of(UTSParams(b0=8.0, root_seed=17), root)
        assert len({k.digest for k in kids}) == len(kids)
        assert all(k.depth == 1 for k in kids)

    def test_geometric_depth_bounded(self):
        p = UTSParams(b0=4.0, gen_mx=5, root_seed=17)
        assert count_tree(p).max_depth <= 5

    def test_different_seeds_different_trees(self):
        a = count_tree(UTSParams(gen_mx=8, root_seed=1))
        b = count_tree(UTSParams(gen_mx=8, root_seed=2))
        assert a.nodes != b.nodes

    def test_binomial_tree(self):
        p = UTSParams(tree_type="binomial", b0=8, q=0.12, m=4, root_seed=3)
        stats = count_tree(p, max_nodes=100_000)
        assert stats.nodes >= 9  # root + b0 children at least
        assert stats.leaves > 0

    def test_binomial_supercritical_rejected(self):
        with pytest.raises(ValueError, match="supercritical"):
            UTSParams(tree_type="binomial", q=0.3, m=4)

    def test_vanishing_b0_is_a_lone_root(self):
        # 1 - p(0) rounds to 0: no child, not a math domain error
        assert count_tree(UTSParams(b0=1e-300, gen_mx=4)).nodes == 1

    def test_unknown_tree_type_rejected(self):
        with pytest.raises(ValueError):
            UTSParams(tree_type="fibonacci")

    def test_max_nodes_guard(self):
        with pytest.raises(ValueError, match="max_nodes"):
            count_tree(UTSParams(b0=4.0, gen_mx=14, root_seed=17), max_nodes=100)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_leaves_consistent_with_nodes(self, seed):
        p = UTSParams(b0=3.0, gen_mx=6, root_seed=seed)
        stats = count_tree(p, max_nodes=50_000)
        assert 1 <= stats.leaves <= stats.nodes

    def test_num_children_zero_beyond_gen_mx(self):
        p = UTSParams(b0=4.0, gen_mx=3)
        deep = root_node(p)
        deep = type(deep)(digest=deep.digest, depth=3)
        assert num_children(p, deep) == 0

    @pytest.mark.parametrize(
        "params",
        [
            preset("small"),
            preset("binomial"),  # 2,000 root children: indices past the suffix table
            UTSParams(b0=1e-9, gen_mx=4),  # b(d) ~ 0 everywhere: a lone root
        ],
        ids=["small", "binomial", "barren"],
    )
    def test_children_match_the_literal_definition(self, params):
        """``children_of`` (per-depth log table, forked SHA-1 prefix, suffix
        table) against the benchmark's definition written out: child ``i``
        is ``SHA1(digest || i as 4 big-endian bytes)`` and the child count
        is the un-tabled inverse-CDF formula."""
        import hashlib
        import math

        def literal(node: UTSNode) -> list[UTSNode]:
            u = int.from_bytes(node.digest[:7], "big") / float(1 << 56)
            if params.tree_type == "binomial":
                n = int(params.b0) if node.depth == 0 else params.m if u < params.q else 0
            else:
                b_d = params.b0 * (1.0 - node.depth / params.gen_mx)
                if node.depth >= params.gen_mx or b_d <= 0:
                    n = 0
                else:
                    p = 1.0 / (1.0 + b_d)
                    n = int(math.floor(math.log(1.0 - u) / math.log(1.0 - p)))
            return [
                UTSNode(hashlib.sha1(node.digest + i.to_bytes(4, "big")).digest(), node.depth + 1)
                for i in range(n)
            ]

        frontier, seen, widest = [root_node(params)], 0, 0
        while frontier and seen < 2500:
            node = frontier.pop()
            kids = children_of(params, node)
            assert kids == literal(node)
            assert len(kids) == num_children(params, node)
            frontier.extend(kids)
            seen += 1
            widest = max(widest, len(kids))
        if params.tree_type == "binomial":
            assert widest == params.b0 > 256
        assert seen >= 2000 or not frontier

    def test_children_are_ordinary_frozen_nodes(self):
        """``children_of`` fills each child's fields without the dataclass
        ``__init__``: the child must still hash, compare, refuse writes and
        be shared (not deep-copied) by ``Task.clone``, as a constructed
        ``UTSNode`` is."""
        import dataclasses

        from repro.core import Task

        child = children_of(preset("small"), root_node(preset("small")))[0]
        built = UTSNode(child.digest, child.depth)
        assert child == built and hash(child) == hash(built)
        assert repr(child) == repr(built)
        with pytest.raises(dataclasses.FrozenInstanceError):
            child.depth = 0
        assert Task(0, child).clone().body is child


class TestParallelUTS:
    @pytest.mark.parametrize("nprocs", [1, 2, 5])
    def test_scioto_counts_match_sequential(self, nprocs):
        ref = count_tree(SMALL)
        r = run_uts_scioto(nprocs, SMALL, seed=2, max_events=3_000_000)
        assert (r.stats.nodes, r.stats.leaves, r.stats.max_depth) == (
            ref.nodes,
            ref.leaves,
            ref.max_depth,
        )

    @pytest.mark.parametrize("nprocs", [1, 2, 5])
    def test_mpi_counts_match_sequential(self, nprocs):
        ref = count_tree(SMALL)
        r = run_uts_mpi(nprocs, SMALL, seed=2, max_events=3_000_000)
        assert (r.stats.nodes, r.stats.leaves, r.stats.max_depth) == (
            ref.nodes,
            ref.leaves,
            ref.max_depth,
        )

    def test_binomial_parallel(self):
        p = UTSParams(tree_type="binomial", b0=12, q=0.12, m=4, root_seed=5)
        ref = count_tree(p, max_nodes=100_000)
        r = run_uts_scioto(4, p, seed=0, max_events=5_000_000)
        assert r.stats.nodes == ref.nodes

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 1000), nprocs=st.integers(2, 6))
    def test_scioto_exact_under_random_seeds(self, seed, nprocs):
        ref = count_tree(SMALL)
        r = run_uts_scioto(nprocs, SMALL, seed=seed, max_events=3_000_000)
        assert r.stats.nodes == ref.nodes

    def test_no_split_config_still_correct(self):
        ref = count_tree(SMALL)
        r = run_uts_scioto(
            4, SMALL, seed=1, config=SciotoConfig(split_queues=False),
            max_events=5_000_000,
        )
        assert r.stats.nodes == ref.nodes

    def test_heterogeneous_machine_faster_ranks_do_more(self):
        big = UTSParams(b0=4.0, gen_mx=10, root_seed=17)
        r = run_uts_scioto(
            4, big, machine=heterogeneous_cluster(4), seed=1, max_events=10_000_000
        )
        # Opteron ranks (even) are ~1.5x faster; with good load balancing
        # they should execute measurably more tasks than Xeon ranks (odd).
        fast = r.per_rank[0].tasks_executed + r.per_rank[2].tasks_executed
        slow = r.per_rank[1].tasks_executed + r.per_rank[3].tasks_executed
        assert fast > slow * 1.15

    def test_throughput_and_steals_reported(self):
        r = run_uts_scioto(3, SMALL, seed=4, max_events=3_000_000)
        assert r.throughput > 0
        assert r.elapsed > 0
        assert r.total_steals >= 1
