"""Fused execution engine: lowering, bitwise parity, codegen, binding.

The fused engine's whole contract is "same IEEE operations, only
independent lanes regrouped" — so nearly every test here is a bitwise
comparison against the step interpreter, across generated DAGs
(hypothesis), every synthetic family, the partitioned compile path and
the serving assembly path.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch import ArchConfig
from repro.compiler import compile_dag
from repro.compiler.arrays import DagArrays
from repro.errors import SimulationError, SpillError
from repro.runner.cache import configure_cache, get_cache
from repro.runner.fingerprint import codegen_key, fused_key, plan_key
from repro.sim import (
    AUTO_FUSED_CELL_CAP,
    ENGINES,
    BatchSimulator,
    bind_sweep,
    codegen_source,
    compiled_sweep,
    estimated_fused_cells,
    execute_fused,
    fuse_plan,
)
from repro.sim.batch import BOUND_SWEEP_CAP
from repro.sim.plan import (
    ComputeStep,
    MoveStep,
    coalesce_moves,
    contiguous_slice,
)
from repro.workloads.synth import SYNTH_FAMILIES, generate_synth

CFG = ArchConfig(depth=2, banks=8, regs_per_bank=16)


def _inputs(dag, batch, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.9, 1.1, size=(batch, max(dag.num_inputs, 1)))


def _assert_bitwise(got, want):
    """Outputs equal down to the bit pattern (NaN == NaN included)."""
    assert sorted(got) == sorted(want)
    for var in want:
        a = np.asarray(got[var], dtype=np.float64)
        b = np.asarray(want[var], dtype=np.float64)
        assert np.array_equal(
            a.view(np.uint64), b.view(np.uint64)
        ), f"var {var}: {a!r} != {b!r}"


# ---------------------------------------------------------------------------
# Step-tape helpers the fused lowering builds on
# ---------------------------------------------------------------------------
class TestContiguousSlice:
    def test_run_detected(self):
        assert contiguous_slice(np.array([4, 5, 6, 7])) == (4, 8)

    def test_singleton(self):
        assert contiguous_slice(np.array([9])) == (9, 10)

    def test_empty_gap_and_descending(self):
        assert contiguous_slice(np.array([], dtype=np.int64)) is None
        assert contiguous_slice(np.array([1, 3])) is None
        assert contiguous_slice(np.array([5, 4, 3])) is None


class TestCoalesceMoves:
    def _move(self, src, dst):
        return MoveStep(np.asarray(src), np.asarray(dst))

    def test_disjoint_run_collapses(self):
        steps = [
            self._move([0], [10]),
            self._move([1], [11]),
            self._move([2], [12]),
        ]
        out = coalesce_moves(steps)
        assert len(out) == 1
        assert out[0].src.tolist() == [0, 1, 2]
        assert out[0].dst.tolist() == [10, 11, 12]
        # The merged vectors form the slice fast path.
        assert out[0].dst_slice == (10, 13)

    def test_read_after_write_blocks_merge(self):
        # Second move reads cell 10, which the first wrote: merging
        # would gather pre-move data.
        steps = [self._move([0], [10]), self._move([10], [11])]
        assert len(coalesce_moves(steps)) == 2

    def test_duplicate_destination_blocks_merge(self):
        steps = [self._move([0], [10]), self._move([1], [10])]
        assert len(coalesce_moves(steps)) == 2

    def test_compute_step_breaks_runs(self):
        dag = generate_synth("layered", 30, seed=2)
        plan = compile_dag(dag, CFG).plan()
        kinds = [type(s) for s in plan.steps]
        assert ComputeStep in kinds  # sanity: tape is mixed
        # No two adjacent mergeable moves survive coalescing.
        assert coalesce_moves(list(plan.steps)) == list(plan.steps)

    def test_lower_coalesce_flag(self):
        from repro.sim.plan import lower_program

        dag = generate_synth("wide", 40, seed=5)
        result = compile_dag(dag, CFG)
        coalesced = lower_program(result.program)
        raw = lower_program(result.program, coalesce=False)
        n_coal = sum(1 for s in coalesced.steps if type(s) is MoveStep)
        n_raw = sum(1 for s in raw.steps if type(s) is MoveStep)
        assert n_coal < n_raw  # loads/stores actually merged
        sim_c = BatchSimulator(coalesced).run(_inputs(dag, 5))
        sim_r = BatchSimulator(raw).run(_inputs(dag, 5))
        _assert_bitwise(sim_c.outputs, sim_r.outputs)


# ---------------------------------------------------------------------------
# Fused lowering structure
# ---------------------------------------------------------------------------
class TestFusePlan:
    def test_kernel_count_bounded_by_dag_groups(self):
        """One super-op kernel per (level, opcode) at most — the DAG's
        level/opcode grouping is the lower bound the fusion targets."""
        from repro.graphs import binarize

        dag = generate_synth("layered", 80, seed=3)
        result = compile_dag(dag, CFG)
        fused = fuse_plan(result.plan())
        groups = DagArrays.of(binarize(dag).dag).level_opcode_groups()
        n_groups = sum(len(g) for g in groups)
        n_kernels = sum(len(lv.kernels) for lv in fused.levels)
        assert 0 < n_kernels <= n_groups
        for lv in fused.levels:
            opcodes = [k.opcode for k in lv.kernels]
            assert len(opcodes) <= 2  # at most one ADD + one MUL kernel
            assert opcodes == sorted(set(opcodes))

    def test_level_opcode_groups_partition_arith_nodes(self):
        dag = generate_synth("diamond", 50, seed=1)
        arrays = DagArrays.of(dag)
        groups = arrays.level_opcode_groups()
        assert groups[0] == []  # inputs only
        seen = np.concatenate(
            [ids for lvl in groups for _, ids in lvl]
            or [np.array([], dtype=np.int64)]
        )
        arith = np.flatnonzero(~arrays.is_input)
        assert sorted(seen.tolist()) == sorted(arith.tolist())
        for lvl in groups:
            codes = [code for code, _ in lvl]
            assert codes == sorted(codes)

    def test_estimate_matches_lowering(self):
        dag = generate_synth("reuse", 60, seed=9)
        plan = compile_dag(dag, CFG).plan()
        estimate = estimated_fused_cells(plan)
        real = fuse_plan(plan).state_size
        # The estimate skips zero/passthrough bookkeeping cells; it
        # must never be more than a hair away from the real layout.
        assert 0 <= real - estimate <= 4

    def test_auto_resolves_by_cell_cap(self):
        dag = generate_synth("deep", 30, seed=4)
        plan = compile_dag(dag, CFG).plan()
        assert estimated_fused_cells(plan) <= AUTO_FUSED_CELL_CAP
        assert BatchSimulator(plan, engine="auto").engine == "fused"

    def test_auto_falls_back_to_step_over_the_cap(self, monkeypatch):
        import repro.sim.batch as batch

        dag = generate_synth("deep", 30, seed=4)
        plan = compile_dag(dag, CFG).plan()
        monkeypatch.setattr(batch, "AUTO_FUSED_CELL_CAP", 0)
        assert batch.resolve_engine(plan, "auto") == "step"
        assert BatchSimulator(plan, engine="auto").engine == "step"
        for engine in ("step", "fused", "codegen"):
            assert batch.resolve_engine(plan, engine) == engine

    def test_unknown_engine_rejected(self):
        dag = generate_synth("deep", 10, seed=0)
        plan = compile_dag(dag, CFG).plan()
        with pytest.raises(SimulationError, match="unknown engine"):
            BatchSimulator(plan, engine="warp")
        assert "warp" not in ENGINES


# ---------------------------------------------------------------------------
# Bitwise parity: every engine, every family, every entry point
# ---------------------------------------------------------------------------
class TestEngineParity:
    @pytest.mark.parametrize("family", sorted(SYNTH_FAMILIES))
    @pytest.mark.parametrize("engine", ["fused", "codegen"])
    def test_families_bitwise_equal(self, family, engine):
        dag = generate_synth(family, 60, seed=13)
        plan = compile_dag(dag, CFG).plan()
        matrix = _inputs(dag, 17, seed=5)
        step = BatchSimulator(plan).run(matrix)
        other = BatchSimulator(plan, engine=engine).run(matrix)
        _assert_bitwise(other.outputs, step.outputs)
        assert other.counters == step.counters
        assert other.peak_occupancy == step.peak_occupancy

    def test_run_rows_parity(self):
        dag = generate_synth("skewed_fanout", 70, seed=2)
        plan = compile_dag(dag, CFG).plan()
        rng = np.random.default_rng(3)
        # Heterogeneous widths: rows only need num_inputs leading cols.
        rows = [
            rng.uniform(0.9, 1.1, size=dag.num_inputs + (i % 3) * 7)
            for i in range(11)
        ]
        step = BatchSimulator(plan).run_rows(rows)
        fused = BatchSimulator(plan, engine="fused").run_rows(rows)
        _assert_bitwise(fused.outputs, step.outputs)
        assert fused.counters == step.counters

    def test_partitioned_run_batch_parity(self):
        dag = generate_synth("layered", 120, seed=6)
        part = compile_dag(
            dag, CFG, validate_input=False, partition_threshold=40
        )
        assert part.num_pieces >= 2
        matrix = _inputs(dag, 9, seed=1)
        step = part.run_batch(matrix)
        for engine in ("fused", "codegen", "auto"):
            other = part.run_batch(matrix, engine=engine)
            _assert_bitwise(other, step)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        family=st.sampled_from(sorted(SYNTH_FAMILIES)),
        n=st.integers(min_value=3, max_value=90),
        seed=st.integers(min_value=0, max_value=2**16),
        batch=st.integers(min_value=1, max_value=9),
        value_seed=st.integers(min_value=0, max_value=99),
        engine=st.sampled_from(["fused", "codegen"]),
    )
    def test_property_fused_equals_step(
        self, family, n, seed, batch, value_seed, engine
    ):
        """The acceptance-criterion property: outputs AND counters of
        the fused engines equal the step interpreter bitwise on any
        generated scenario."""
        dag = generate_synth(family, n, seed=seed)
        try:
            plan = compile_dag(dag, CFG).plan()
        except SpillError:
            return  # config legitimately too small — not under test
        matrix = _inputs(dag, batch, seed=value_seed)
        step = BatchSimulator(plan).run(matrix)
        other = BatchSimulator(plan, engine=engine).run(matrix)
        _assert_bitwise(other.outputs, step.outputs)
        assert other.counters == step.counters


# ---------------------------------------------------------------------------
# Bound sweeps: state reuse across runs and batch widths
# ---------------------------------------------------------------------------
class TestBoundSweeps:
    def _plan(self):
        dag = generate_synth("reuse", 80, seed=7)
        return dag, compile_dag(dag, CFG).plan()

    @pytest.mark.parametrize("engine", ["fused", "codegen"])
    def test_repeated_runs_do_not_leak_state(self, engine):
        dag, plan = self._plan()
        sim = BatchSimulator(plan, engine=engine)
        fresh = BatchSimulator(plan)
        for seed in range(4):
            for batch in (5, 2, 5):
                matrix = _inputs(dag, batch, seed=seed)
                _assert_bitwise(
                    sim.run(matrix).outputs, fresh.run(matrix).outputs
                )

    def test_bound_pair_cache_evicts_oldest(self):
        dag, plan = self._plan()
        sim = BatchSimulator(plan, engine="fused")
        for batch in range(1, BOUND_SWEEP_CAP + 4):
            sim.run(_inputs(dag, batch))
        assert len(sim._bound) <= BOUND_SWEEP_CAP
        assert 1 not in sim._bound  # oldest width evicted

    def test_bind_sweep_matches_reference_executor(self):
        dag, plan = self._plan()
        fused = fuse_plan(plan)
        matrix = _inputs(dag, 6, seed=3)
        state, sweep = bind_sweep(fused, 6)
        state[fused.input_pos] = matrix.T[plan.input_slots]
        with np.errstate(over="ignore", invalid="ignore"):
            sweep()
        ref = fused.make_state(6)
        ref[fused.input_pos] = matrix.T[plan.input_slots]
        with np.errstate(over="ignore", invalid="ignore"):
            execute_fused(fused, ref)
        assert np.array_equal(
            state.view(np.uint64), ref.view(np.uint64)
        )


# ---------------------------------------------------------------------------
# Plan-specialized codegen and its artifact cache
# ---------------------------------------------------------------------------
class TestCodegen:
    def _fused(self):
        dag = generate_synth("layered", 70, seed=11)
        plan = compile_dag(dag, CFG).plan()
        return plan, fuse_plan(plan)

    def test_source_is_deterministic(self):
        _, fused = self._fused()
        assert codegen_source(fused) == codegen_source(fused)

    def test_compiled_factory_matches_interpreter(self):
        plan, fused = self._fused()
        bind = compiled_sweep(fused)
        state = fused.make_state(4)
        sweep = bind(state)
        matrix = _inputs_from(plan, 4)
        state[fused.input_pos] = matrix.T[plan.input_slots]
        with np.errstate(over="ignore", invalid="ignore"):
            sweep()
        ref = fused.make_state(4)
        ref[fused.input_pos] = matrix.T[plan.input_slots]
        with np.errstate(over="ignore", invalid="ignore"):
            execute_fused(fused, ref)
        assert np.array_equal(state.view(np.uint64), ref.view(np.uint64))

    def test_source_cached_round_trip(self, tmp_path):
        from repro.runner.cache import cached_codegen_source

        configure_cache(tmp_path / "cache")
        _, fused = self._fused()
        cold = cached_codegen_source(fused)
        assert cold == codegen_source(fused)
        key = codegen_key(fused.fingerprint)
        assert get_cache().get(key) is not None
        # Warm hit returns the stored source verbatim.
        assert cached_codegen_source(fused) == cold

    def test_cache_keys_are_distinct_kinds(self):
        from repro.arch import DEFAULT_TOPOLOGY

        keys = {
            plan_key("abc", DEFAULT_TOPOLOGY),
            fused_key("abc"),
            codegen_key("abc"),
        }
        assert len(keys) == 3


def _inputs_from(plan, batch, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.9, 1.1, size=(batch, max(plan.num_inputs, 1)))
