"""Unit tests for cone construction and slot allocation."""

import pytest

from repro.arch import ArchConfig
from repro.compiler import (
    LeafInst,
    OpInst,
    PassInst,
    Slot,
    SlotAllocator,
    build_cone,
    cone_depth_of,
    cone_height,
    decompose,
    evaluate_cone,
    possible_depth_combinations,
)
from repro.errors import CompileError
from repro.graphs import DAGBuilder, OpType, binarize
from repro.testing import make_random_dag
from repro.workloads.synth import SYNTH_FAMILIES, generate_synth


def binary_dag(seed=1):
    return binarize(make_random_dag(seed)).dag


def leaves_computed(dag):
    return [dag.op(n) is OpType.INPUT for n in dag.nodes()]


def unroll(dag, computed, sink, cap):
    """``build_cone`` at the height ``cone_height`` gives."""
    return build_cone(
        dag, computed, sink, cap, cone_height(dag, computed, sink, cap)
    )


class TestConeHeight:
    def test_computed_node_has_height_zero(self):
        dag = binary_dag()
        computed = leaves_computed(dag)
        leaf = next(iter(dag.leaves()))
        assert cone_height(dag, computed, leaf, 3) == 0

    def test_node_above_leaves_has_height_one(self):
        b = DAGBuilder()
        x, y = b.add_input(), b.add_input()
        b.add_add([x, y])
        dag = b.build()
        assert cone_height(dag, leaves_computed(dag), 2, 3) == 1

    def test_cap_reports_overflow(self):
        b = DAGBuilder()
        x, y = b.add_input(), b.add_input()
        n = b.add_add([x, y])
        for _ in range(5):
            n = b.add_mul([n, b.add_input()])
        dag = b.build()
        assert cone_height(dag, leaves_computed(dag), n, 3) == 4  # cap+1

    def test_height_shrinks_as_nodes_compute(self):
        b = DAGBuilder()
        x, y, z = b.add_input(), b.add_input(), b.add_input()
        s = b.add_add([x, y])
        t = b.add_mul([s, z])
        dag = b.build()
        computed = leaves_computed(dag)
        assert cone_height(dag, computed, t, 3) == 2
        computed[s] = True
        assert cone_height(dag, computed, t, 3) == 1


class TestBuildCone:
    def test_simple_cone_shape(self):
        b = DAGBuilder()
        x, y, z, w = (b.add_input() for _ in range(4))
        s = b.add_add([x, y])
        t = b.add_mul([z, w])
        u = b.add_add([s, t])
        dag = b.build()
        cone = unroll(dag, leaves_computed(dag), u, 3)
        assert cone is not None
        assert cone.height == 2
        assert cone.nodes == {s, t, u}
        assert cone.leaf_vars == {x, y, z, w}
        assert cone.num_instances == 3

    def test_replication_of_shared_node(self):
        # fig. 9(c): a shared node is replicated when unrolled.
        b = DAGBuilder()
        x, y = b.add_input(), b.add_input()
        s = b.add_add([x, y])
        p = b.add_mul([s, s])
        dag = b.build()
        cone = unroll(dag, leaves_computed(dag), p, 3)
        assert cone.nodes == {s, p}
        assert cone.num_instances == 3  # s twice + p once

    def test_pass_padding_for_uneven_branches(self):
        b = DAGBuilder()
        x, y, z = b.add_input(), b.add_input(), b.add_input()
        s = b.add_add([x, y])
        t = b.add_mul([s, z])  # z needs one PASS stage
        dag = b.build()
        cone = unroll(dag, leaves_computed(dag), t, 3)
        assert cone.height == 2
        assert cone.num_instances == 3  # s, t, and one PASS for z
        assert isinstance(cone.root, OpInst)
        sides = [cone.root.left, cone.root.right]
        assert any(isinstance(s_, PassInst) for s_ in sides)

    def test_leaves_at_port_level(self):
        dag = binary_dag(5)
        computed = leaves_computed(dag)
        for sink in dag.sinks():
            cone = unroll(dag, computed, sink, 3)
            if cone is None:
                continue
            assert cone_depth_of(cone.root) == cone.height

    def test_too_deep_returns_none(self):
        b = DAGBuilder()
        x, y = b.add_input(), b.add_input()
        n = b.add_add([x, y])
        for _ in range(4):
            n = b.add_mul([n, b.add_input()])
        dag = b.build()
        assert unroll(dag, leaves_computed(dag), n, 2) is None

    def test_non_binary_dag_rejected(self):
        b = DAGBuilder()
        x, y, z = b.add_input(), b.add_input(), b.add_input()
        sink = b.add_add([x, y, z])  # fan-in 3: not binarized
        dag = b.build()
        computed = leaves_computed(dag)
        with pytest.raises(CompileError):
            unroll(dag, computed, sink, 3)

    def test_evaluate_cone_matches_dag(self):
        dag = binary_dag(7)
        computed = leaves_computed(dag)
        values = {n: float(n % 5 + 1) for n in dag.nodes()}
        for sink in dag.sinks():
            cone = unroll(dag, computed, sink, 3)
            if cone is None:
                continue
            direct = evaluate_cone(cone.root, values)
            assert isinstance(direct, float)

    @pytest.mark.parametrize("family", sorted(SYNTH_FAMILIES))
    def test_decomposer_heights_match_cone_height(self, family, monkeypatch):
        """The decomposer hands ``build_cone`` the heights it maintains
        incrementally; after every committed block they must equal a
        fresh :func:`cone_height` walk for each uncomputed node."""
        from repro.compiler import blocks

        commit = blocks._commit_block
        commits = []

        def checked_commit(dag, depth, computed, height, *rest):
            commit(dag, depth, computed, height, *rest)
            commits.append(1)
            for node in dag.nodes():
                if not computed[node]:
                    assert height[node] == cone_height(
                        dag, computed, node, depth
                    ), (family, len(commits), node)

        monkeypatch.setattr(blocks, "_commit_block", checked_commit)
        dag = binarize(generate_synth(family, 300, seed=3)).dag
        for config in (ArchConfig(1, 4, 16), ArchConfig(3, 16, 32)):
            decompose(dag, config)
        assert commits


class TestDepthCombinations:
    def test_depth3_contains_paper_combos(self):
        combos = set(possible_depth_combinations(3))
        # fig. 9(d): a depth-3 tree hosts these (and their subsets).
        assert (3,) in combos
        assert (2, 1, 1) in combos
        assert (1, 1, 1, 1) in combos
        assert (2, 2) in combos

    def test_depth1_trivial(self):
        assert possible_depth_combinations(1) == [(1,)]

    def test_multi_tree_adds_capacity(self):
        one = set(possible_depth_combinations(2, trees=1))
        two = set(possible_depth_combinations(2, trees=2))
        assert (2, 2) in two and (2, 2) not in one

    def test_invalid_args(self):
        with pytest.raises(CompileError):
            possible_depth_combinations(0)


class TestSlotAllocator:
    def test_place_full_tree(self):
        alloc = SlotAllocator(depth=3, trees=1)
        slot = alloc.place(3)
        assert slot == Slot(tree=0, depth=3, index=0)
        assert not alloc.can_place(1)

    def test_split_realizes_paper_combo(self):
        # [2, 1, 1] in one depth-3 tree (fig. 9(d) third combo).
        alloc = SlotAllocator(depth=3, trees=1)
        s2 = alloc.place(2)
        s1a = alloc.place(1)
        s1b = alloc.place(1)
        assert s2.depth == 2 and s1a.depth == 1 and s1b.depth == 1
        assert not alloc.can_place(1)
        # Port ranges must be disjoint.
        spans = []
        for s in (s2, s1a, s1b):
            width = 1 << s.depth
            spans.append((s.index * width, (s.index + 1) * width))
        spans.sort()
        for (a0, a1), (b0, _) in zip(spans, spans[1:]):
            assert b0 >= a1

    def test_no_slot_raises(self):
        alloc = SlotAllocator(depth=2, trees=1)
        alloc.place(2)
        with pytest.raises(CompileError):
            alloc.place(1)

    def test_multiple_trees(self):
        alloc = SlotAllocator(depth=2, trees=3)
        slots = [alloc.place(2) for _ in range(3)]
        assert {s.tree for s in slots} == {0, 1, 2}

    def test_free_pe_capacity(self):
        alloc = SlotAllocator(depth=2, trees=1)
        assert alloc.free_pe_capacity() == 3
        alloc.place(1)
        assert alloc.free_pe_capacity() == 1

    def test_phase_alternates_direction(self):
        a = SlotAllocator(depth=2, trees=1, phase=0).place(1)
        b = SlotAllocator(depth=2, trees=1, phase=1).place(1)
        assert a.index != b.index
