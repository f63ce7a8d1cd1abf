"""DagArrays invariants: the array view must agree with the
dict/tuple traversals it replaced, on arbitrary synthetic DAGs.

The compiler kernels trust these arrays blindly (no per-node
validation on the hot path), so this is where the contract is
enforced: CSR adjacency mirrors ``predecessors``/``successors`` in
order, the memoized topological order is the classic FIFO Kahn order,
levels are ASAP levels, and the capped-height kernel matches the
reference per-node sweep.  The bank mapper must replay the frozen
reference mapper's draws (``mapper_reference.py``) and keep
constraints F, G and H.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.arrays import OP_CODES, DagArrays
from repro.graphs import OpType, dfs_order
from repro.graphs.traversal import (
    node_levels,
    node_levels_array,
    topological_order,
    topological_order_array,
)
from repro.workloads.synth import SYNTH_FAMILIES, generate_synth

FAMILIES = sorted(SYNTH_FAMILIES)


@st.composite
def synth_dags(draw):
    family = draw(st.sampled_from(FAMILIES))
    n = draw(st.integers(min_value=3, max_value=160))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    return generate_synth(family, n, seed=seed)


def reference_kahn(dag):
    """The pre-arrays implementation, verbatim."""
    indegree = [dag.in_degree(n) for n in dag.nodes()]
    ready = deque(n for n in dag.nodes() if indegree[n] == 0)
    order = []
    while ready:
        node = ready.popleft()
        order.append(node)
        for succ in dag.successors(node):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    return order


def reference_levels(dag):
    levels = [0] * dag.num_nodes
    for node in reference_kahn(dag):
        preds = dag.predecessors(node)
        if preds:
            levels[node] = 1 + max(levels[p] for p in preds)
    return levels


def reference_capped_heights(dag, cap):
    overflow = cap + 1
    height = [0] * dag.num_nodes
    for node in reference_kahn(dag):
        if dag.op(node) is OpType.INPUT:
            continue
        worst = max(height[p] for p in dag.predecessors(node))
        height[node] = min(worst + 1, overflow)
    return height


class TestCsrAdjacency:
    @settings(max_examples=60, deadline=None)
    @given(synth_dags())
    def test_pred_csr_matches_predecessors(self, dag):
        indptr, indices = dag.pred_csr()
        assert indptr[0] == 0 and indptr[-1] == dag.num_edges
        for v in dag.nodes():
            row = tuple(indices[indptr[v] : indptr[v + 1]].tolist())
            assert row == dag.predecessors(v)

    @settings(max_examples=60, deadline=None)
    @given(synth_dags())
    def test_succ_csr_matches_successors(self, dag):
        indptr, indices = dag.succ_csr()
        for v in dag.nodes():
            row = tuple(indices[indptr[v] : indptr[v + 1]].tolist())
            assert row == dag.successors(v)

    def test_csr_cached_per_dag(self):
        dag = generate_synth("layered", 50, seed=1)
        a = dag.pred_csr()
        b = dag.pred_csr()
        assert a[0] is b[0] and a[1] is b[1]

    def test_csr_rebuilt_after_pickle(self):
        import pickle

        dag = generate_synth("diamond", 40, seed=2)
        dag.pred_csr()
        clone = pickle.loads(pickle.dumps(dag))
        indptr, indices = clone.pred_csr()
        np.testing.assert_array_equal(indptr, dag.pred_csr()[0])
        np.testing.assert_array_equal(indices, dag.pred_csr()[1])


class TestMemoizedTraversal:
    @settings(max_examples=60, deadline=None)
    @given(synth_dags())
    def test_topological_order_is_fifo_kahn(self, dag):
        assert topological_order(dag) == reference_kahn(dag)

    @settings(max_examples=60, deadline=None)
    @given(synth_dags())
    def test_levels_are_asap_levels(self, dag):
        assert node_levels(dag) == reference_levels(dag)

    def test_arrays_are_memoized_and_shared(self):
        dag = generate_synth("reuse", 80, seed=3)
        assert topological_order_array(dag) is topological_order_array(dag)
        assert node_levels_array(dag) is node_levels_array(dag)

    def test_lists_are_fresh_copies(self):
        dag = generate_synth("wide", 30, seed=4)
        first = topological_order(dag)
        first.reverse()  # caller may mutate its copy
        assert topological_order(dag) == reference_kahn(dag)


class TestDagArrays:
    @settings(max_examples=60, deadline=None)
    @given(synth_dags())
    def test_ops_and_degrees(self, dag):
        arrays = DagArrays.of(dag)
        assert arrays.n == dag.num_nodes
        for v in dag.nodes():
            assert arrays.ops[v] == OP_CODES[dag.op(v)]
            assert bool(arrays.is_input[v]) == (dag.op(v) is OpType.INPUT)
            assert arrays.in_degree[v] == dag.in_degree(v)
            assert arrays.out_degree[v] == dag.out_degree(v)

    @settings(max_examples=60, deadline=None)
    @given(synth_dags())
    def test_topo_and_levels_views(self, dag):
        arrays = DagArrays.of(dag)
        assert arrays.topo.tolist() == reference_kahn(dag)
        assert arrays.levels.tolist() == reference_levels(dag)

    @settings(max_examples=60, deadline=None)
    @given(synth_dags())
    def test_dfs_pos_matches_dfs_order(self, dag):
        arrays = DagArrays.of(dag)
        assert arrays.dfs_pos.tolist() == dfs_order(dag)

    @settings(max_examples=40, deadline=None)
    @given(synth_dags(), st.integers(min_value=1, max_value=5))
    def test_capped_heights_match_reference(self, dag, cap):
        arrays = DagArrays.of(dag)
        got = arrays.capped_heights(cap)
        assert got == reference_capped_heights(dag, cap)

    def test_memoized_instance(self):
        dag = generate_synth("near_chain", 60, seed=5)
        assert DagArrays.of(dag) is DagArrays.of(dag)

    def test_memo_does_not_pin_dags(self):
        """The memo must not leak: dropping the DAG frees its entry
        (a strong dag field inside the value would close a ref cycle
        through the weak key and pin every compiled DAG forever)."""
        import gc

        from repro.compiler.arrays import _MEMO

        before = len(_MEMO)
        for seed in range(5):
            DagArrays.of(generate_synth("layered", 80, seed=seed))
        gc.collect()
        assert len(_MEMO) <= before

    def test_level_slices_partition_topo_order(self):
        dag = generate_synth("layered", 120, seed=6)
        arrays = DagArrays.of(dag)
        slices = arrays.level_slices()
        flat = [v for group in slices for v in group.tolist()]
        assert flat == arrays.topo.tolist()
        for level, group in enumerate(slices):
            assert all(arrays.levels[v] == level for v in group.tolist())

    def test_empty_like_minimum_dag(self):
        dag = generate_synth("deep", 3, seed=0)
        arrays = DagArrays.of(dag)
        assert arrays.n == 3
        assert arrays.capped_heights(2)[-1] >= 1


def _decompose(dag, config):
    from repro.arch import Interconnect
    from repro.compiler import decompose
    from repro.graphs import binarize

    return decompose(binarize(dag).dag, config), Interconnect(config)


def _assert_same_mapping(a, b):
    assert list(a.bank_of.items()) == list(b.bank_of.items())
    assert a.write_pe == b.write_pe
    assert a.predicted_read_conflicts == b.predicted_read_conflicts
    assert a.repairs == b.repairs


class TestMapperPathEquivalence:
    """``map_banks`` must replay the random-choice sequence of the
    historical bucket-of-sets mapper (``tests/mapper_reference.py``)
    exactly — same variables popped in the same order, same banks,
    including the conflict (least-contended) and constraint-H repair
    fallbacks."""

    def _both(self, dag, config, seed):
        from mapper_reference import reference_map_banks

        from repro.compiler import map_banks

        decomp, ic = _decompose(dag, config)
        return (
            map_banks(decomp, ic, seed=seed),
            reference_map_banks(decomp, ic, seed=seed),
        )

    @pytest.mark.parametrize("family", ["layered", "reuse",
                                        "skewed_fanout", "diamond"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_identical_mappings(self, family, seed):
        from repro.arch import ArchConfig

        dag = generate_synth(family, 900, seed=11)
        # Small bank count forces contention (conflict fallback).
        config = ArchConfig(depth=2, banks=8, regs_per_bank=32)
        _assert_same_mapping(*self._both(dag, config, seed))

    def test_fallbacks_exercised(self):
        """The parity claim must cover the s == 0 interleavings."""
        from repro.arch import ArchConfig

        dag = generate_synth("layered", 600, seed=3)
        config = ArchConfig(depth=1, banks=8, regs_per_bank=32)
        a, b = self._both(dag, config, 5)
        assert a.predicted_read_conflicts > 0  # conflict path taken
        _assert_same_mapping(a, b)

    def test_repair_path_exercised(self):
        """Constraint-H repairs relocate assigned outputs mid-run."""
        from repro.arch import ArchConfig

        dag = generate_synth("layered", 6000, seed=3)
        config = ArchConfig(depth=3, banks=64, regs_per_bank=32)
        a, b = self._both(dag, config, 1)
        assert a.repairs > 0  # repair path taken
        _assert_same_mapping(a, b)


@st.composite
def small_bank_cases(draw):
    from repro.arch import dse_grid

    config = draw(
        st.sampled_from([c for c in dse_grid() if c.banks <= 16])
    )
    return draw(synth_dags()), config, draw(st.integers(0, 2**16))


@settings(max_examples=40, deadline=None)
@given(small_bank_cases())
def test_mapping_constraints_hold(case):
    """Constraints F, G and H on every mapping, and parity with the
    reference mapper.

    G (a block's outputs in distinct banks) and H (each output in a
    bank its PE can write) hold on the mapping itself.  F (a block's
    inputs in distinct banks) is what the mapper aims for but may
    give up when a variable has no compatible bank left; the scheduler
    then adds copies, so F holds on the program: every ``exec`` reads
    each bank at most once.
    """
    from mapper_reference import reference_map_banks

    from repro.arch import ExecInstr, Interconnect
    from repro.compiler import compile_dag

    dag, config, seed = case
    result = compile_dag(dag, config, seed=seed, validate_input=False)
    decomp, mapping = result.decomposition, result.mapping
    ic = Interconnect(config)
    bank_of = mapping.bank_of
    io_vars = set()
    for block in decomp.blocks:
        io_vars |= block.input_vars | block.output_vars
        out_banks = [bank_of[v] for v in block.output_vars]
        assert len(set(out_banks)) == len(out_banks)  # G
        for v in block.output_vars:  # H
            writable = ic.banks_writable_from(mapping.write_pe[v])
            assert bank_of[v] in writable
    assert set(bank_of) == io_vars
    assert all(0 <= b < config.banks for b in bank_of.values())
    for instr in result.program.instructions:  # F
        if isinstance(instr, ExecInstr):
            banks = [b for b, _ in instr.bank_reads]
            assert len(set(banks)) == len(banks)
            read = {v for _, v in instr.bank_reads}
            assert read == decomp.blocks[instr.block_id].input_vars
    _assert_same_mapping(
        mapping, reference_map_banks(decomp, ic, seed=seed)
    )


@pytest.mark.parametrize("family", FAMILIES)
def test_compile_still_bitwise_after_arrays(family):
    """End-to-end guard: array kernels change no compiled program.

    (The full equivalence net is the golden + differential suites;
    this is the quick per-family canary.)
    """
    from repro.arch import ArchConfig
    from repro.compiler import compile_dag
    from repro.graphs import binarize
    from repro.sim import evaluate_dag, run_program

    dag = generate_synth(family, 64, seed=9)
    config = ArchConfig(depth=2, banks=8, regs_per_bank=16)
    result = compile_dag(dag, config, validate_input=False)
    inputs = [1.0 + 0.01 * i for i in range(dag.num_inputs)]
    sim = run_program(result.program, inputs)
    golden = evaluate_dag(binarize(dag).dag, inputs)
    for sink in dag.sinks():
        if dag.op(sink) is OpType.INPUT:
            continue
        var = result.node_map[sink]
        assert sim.values[var] == golden[var]
