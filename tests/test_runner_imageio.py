"""Tests for binary artifact images (plans + programs)."""

import mmap
import pickle

import numpy as np
import pytest

from repro.arch import ArchConfig, encode_program
from repro.compiler import compile_dag
from repro.errors import ImageError
from repro.runner.imageio import (
    IMAGE_VERSION,
    Image,
    dump_plan,
    dump_program,
    load_plan,
    load_program,
    open_image,
    read_plan_image,
    read_program_image,
    write_plan_image,
    write_program_image,
)
from repro.sim import BatchSimulator, run_program
from repro.testing import make_random_dag

CONFIG = ArchConfig(depth=2, banks=8, regs_per_bank=16)


@pytest.fixture(scope="module")
def compiled():
    dag = make_random_dag(seed=21, num_ops=50)
    result = compile_dag(dag, CONFIG)
    return dag, result


@pytest.fixture(scope="module")
def plan(compiled):
    _, result = compiled
    return result.plan()


class TestPlanImages:
    def test_round_trip_executes_bitwise(self, plan):
        plan2 = load_plan(dump_plan(plan))
        rng = np.random.default_rng(3)
        matrix = rng.uniform(0.9, 1.1, size=(4, plan.input_cells.size))
        direct = BatchSimulator(plan).run(matrix)
        loaded = BatchSimulator(plan2).run(matrix)
        assert sorted(direct.outputs) == sorted(loaded.outputs)
        for var in direct.outputs:
            assert np.array_equal(direct.outputs[var], loaded.outputs[var])
        assert direct.counters == loaded.counters
        assert plan2.cycles_per_row == plan.cycles_per_row

    def test_image_smaller_than_pickle(self, plan):
        img = dump_plan(plan)
        pkl = pickle.dumps(plan, protocol=5)
        assert len(img) < len(pkl)

    def test_file_round_trip(self, plan, tmp_path):
        path = tmp_path / "plan.img"
        write_plan_image(path, plan)
        plan2 = read_plan_image(path)
        assert plan2.state_size == plan.state_size
        assert len(plan2.steps) == len(plan.steps)

    def test_mmap_arrays_are_zero_copy(self, plan, tmp_path):
        path = tmp_path / "plan.img"
        write_plan_image(path, plan)
        plan2 = read_plan_image(path, use_mmap=True)
        base = plan2.input_cells
        while base.base is not None and isinstance(base.base, np.ndarray):
            base = base.base
        assert isinstance(base.base, (mmap.mmap, memoryview))
        assert np.array_equal(plan2.input_cells, plan.input_cells)

    def test_dump_is_deterministic(self, plan):
        assert dump_plan(plan) == dump_plan(plan)


class TestProgramImages:
    def test_bitstream_stability(self, compiled):
        _, result = compiled
        addrs = result.allocation.read_addrs
        buf = dump_program(result.program, addrs)
        prog2, addrs2 = load_program(buf)
        assert addrs2 == addrs
        original = encode_program(result.program, addrs)
        reencoded = encode_program(prog2, addrs2)
        assert reencoded.data == original.data
        assert reencoded.total_bits == original.total_bits
        assert reencoded.lengths == original.lengths

    def test_round_trip_executes_bitwise(self, compiled):
        dag, result = compiled
        addrs = result.allocation.read_addrs
        prog2, addrs2 = load_program(dump_program(result.program, addrs))
        rng = np.random.default_rng(9)
        inputs = list(rng.uniform(0.9, 1.1, size=dag.num_inputs))
        direct = run_program(result.program, inputs, check_addresses=addrs)
        loaded = run_program(prog2, inputs, check_addresses=addrs2)
        assert sorted(direct.outputs) == sorted(loaded.outputs)
        for var in direct.outputs:
            bits = np.float64(direct.outputs[var]).tobytes()
            assert np.float64(loaded.outputs[var]).tobytes() == bits
        assert direct.counters == loaded.counters

    def test_file_round_trip(self, compiled, tmp_path):
        _, result = compiled
        addrs = result.allocation.read_addrs
        path = tmp_path / "prog.img"
        write_program_image(path, result.program, addrs)
        prog2, addrs2 = read_program_image(path)
        assert len(prog2.instructions) == len(result.program.instructions)
        assert addrs2 == addrs


class TestWidePortMasks:
    """The paper's min-EDP point has 64 crossbar ports, so an exec's
    port-use mask can need bit 63."""

    WIDE = ArchConfig(depth=3, banks=64, regs_per_bank=32)

    @pytest.fixture(scope="class")
    def wide(self):
        dag = make_random_dag(seed=21, num_ops=400)
        return dag, compile_dag(dag, self.WIDE)

    def test_port_63_round_trips(self, wide):
        dag, result = wide
        addrs = result.allocation.read_addrs
        assert any(
            instr.port_source[63] is not None
            for instr in result.program.instructions
            if instr.mnemonic == "exec"
        )
        prog2, addrs2 = load_program(dump_program(result.program, addrs))
        assert addrs2 == addrs
        original = encode_program(result.program, addrs)
        assert encode_program(prog2, addrs2).data == original.data
        inputs = list(
            np.random.default_rng(5).uniform(0.9, 1.1, size=dag.num_inputs)
        )
        direct = run_program(result.program, inputs, check_addresses=addrs)
        loaded = run_program(prog2, inputs, check_addresses=addrs2)
        assert sorted(direct.outputs) == sorted(loaded.outputs)
        for var in direct.outputs:
            bits = np.float64(direct.outputs[var]).tobytes()
            assert np.float64(loaded.outputs[var]).tobytes() == bits
        assert direct.counters == loaded.counters

    def test_more_than_64_ports_is_a_typed_error(self):
        config = ArchConfig(depth=1, banks=128, regs_per_bank=16)
        result = compile_dag(make_random_dag(seed=21, num_ops=50), config)
        with pytest.raises(ImageError, match="at most 64 crossbar ports"):
            dump_program(result.program, result.allocation.read_addrs)


class TestCorruptionDetection:
    def test_flipped_payload_byte_rejected(self, plan):
        buf = bytearray(dump_plan(plan))
        buf[-1] ^= 0xFF
        with pytest.raises(ImageError):
            Image(bytes(buf))

    def test_flipped_table_byte_rejected(self, plan):
        buf = bytearray(dump_plan(plan))
        buf[40] ^= 0xFF  # inside the section table
        with pytest.raises(ImageError):
            Image(bytes(buf))

    def test_truncation_rejected(self, plan):
        buf = dump_plan(plan)
        with pytest.raises(ImageError):
            Image(buf[: len(buf) // 2])
        with pytest.raises(ImageError):
            Image(buf[:10])
        with pytest.raises(ImageError):
            Image(b"")

    def test_bad_magic_rejected(self, plan):
        buf = bytearray(dump_plan(plan))
        buf[:4] = b"NOPE"
        with pytest.raises(ImageError):
            Image(bytes(buf))

    def test_future_version_rejected(self, plan):
        buf = bytearray(dump_plan(plan))
        import struct

        struct.pack_into("<H", buf, 4, IMAGE_VERSION + 1)
        with pytest.raises(ImageError):
            Image(bytes(buf))

    def test_kind_mismatch_rejected(self, compiled, plan):
        _, result = compiled
        prog_buf = dump_program(
            result.program, result.allocation.read_addrs
        )
        with pytest.raises(ImageError):
            load_plan(prog_buf)
        with pytest.raises(ImageError):
            load_program(dump_plan(plan))

    def test_missing_file_wrapped(self, tmp_path):
        with pytest.raises(ImageError):
            open_image(tmp_path / "nope.img")

    def test_empty_file_wrapped(self, tmp_path):
        path = tmp_path / "empty.img"
        path.write_bytes(b"")
        with pytest.raises(ImageError):
            open_image(path)  # mmap of an empty file raises ValueError
