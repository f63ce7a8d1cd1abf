"""Every verification check of plan lowering, triggered on purpose.

Each test takes one valid compiled program, breaks exactly one
architectural rule by mutating it, and asserts the exact typed error
:func:`repro.sim.plan.lower_program` raises and its message.
"""

from __future__ import annotations

import dataclasses
import re

import pytest

from repro.arch import (
    ArchConfig,
    CopyInstr,
    ExecInstr,
    Interconnect,
    LoadInstr,
    NopInstr,
    PEOp,
    WriteSpec,
)
from repro.compiler import compile_dag
from repro.errors import HazardError, RegisterFileError, SimulationError
from repro.sim.plan import lower_program
from repro.workloads import generate_synth

CFG = ArchConfig(depth=2, banks=8, regs_per_bank=16)
INTER = Interconnect(CFG)


@pytest.fixture(scope="module")
def compiled():
    return compile_dag(generate_synth("layered", 120, seed=3), CFG)


@pytest.fixture(scope="module")
def program(compiled):
    return compiled.program


def _replace(program, index, instr):
    instructions = list(program.instructions)
    instructions[index] = instr
    return dataclasses.replace(program, instructions=tuple(instructions))


def _find(program, kind, accept=lambda instr: True):
    """``(index, instr)`` of the first instruction of ``kind`` accepted."""
    return next(
        (i, instr)
        for i, instr in enumerate(program.instructions)
        if type(instr) is kind and accept(instr)
    )


def _lowering_fails(program, error, message, **kwargs):
    """Lowering raises exactly ``error`` with ``message`` (a regex)."""
    with pytest.raises(SimulationError, match=message) as info:
        lower_program(program, **kwargs)
    assert type(info.value) is error


def test_unmutated_program_lowers(compiled):
    plan = lower_program(
        compiled.program, check_addresses=compiled.allocation.read_addrs
    )
    assert plan.num_instructions == len(compiled.program.instructions)


def test_read_of_var_not_resident(program):
    i, instr = _find(program, ExecInstr)
    (bank, _), *rest = instr.bank_reads
    mutated = dataclasses.replace(
        instr, bank_reads=((bank, 10**6), *rest)
    )
    _lowering_fails(
        _replace(program, i, mutated),
        HazardError,
        re.escape(
            f"read of var {10**6} from bank {bank}: "
            f"bank {bank}: var {10**6} not resident"
        ),
    )


def test_read_of_in_flight_var(program):
    # The nops are the bubbles covering exec latency; without them a
    # consumer issues while its operand is reserved but not landed.
    no_bubbles = dataclasses.replace(
        program,
        instructions=tuple(
            instr for instr in program.instructions
            if type(instr) is not NopInstr
        ),
    )
    _lowering_fails(
        no_bubbles,
        RegisterFileError,
        r"bank \d+ addr \d+: read of RESERVED register "
        r"\(RAW hazard or compiler bug\)",
    )


def test_wrong_predicted_address(compiled):
    predicted = [dict(p) for p in compiled.allocation.read_addrs]
    cycle = next(c for c, p in enumerate(predicted) if p)
    bank, addr = next(iter(predicted[cycle].items()))
    var = dict(compiled.program.instructions[cycle].bank_reads)[bank]
    predicted[cycle][bank] = addr + 1
    _lowering_fails(
        compiled.program,
        SimulationError,
        re.escape(
            f"compiler predicted addr {addr + 1} for var {var} in bank "
            f"{bank}, hardware chose {addr}"
        ),
        check_addresses=predicted,
    )


def test_write_to_bank_the_interconnect_cannot_reach(program):
    i, instr = _find(program, ExecInstr, lambda e: e.writes)
    w, *rest = instr.writes
    bank = next(
        b for b in range(CFG.banks) if b not in INTER.banks_writable_from(w.pe)
    )
    mutated = dataclasses.replace(
        instr, writes=(WriteSpec(w.pe, bank, w.var), *rest)
    )
    _lowering_fails(
        _replace(program, i, mutated),
        SimulationError,
        re.escape(
            f"PE {w.pe} cannot write bank {bank} "
            "(output interconnect violation)"
        ),
    )


def test_port_sourcing_a_bank_that_was_not_read(program):
    def has_spare(e):
        read = {b for b, _ in e.bank_reads}
        return None in e.port_source and len(read) < CFG.banks

    i, instr = _find(program, ExecInstr, has_spare)
    port = instr.port_source.index(None)
    bank = next(
        b for b in range(CFG.banks) if b not in dict(instr.bank_reads)
    )
    ports = list(instr.port_source)
    ports[port] = bank
    mutated = dataclasses.replace(instr, port_source=tuple(ports))
    _lowering_fails(
        _replace(program, i, mutated),
        SimulationError,
        re.escape(f"port {port} sources bank {bank} which is not read"),
    )


def _starved_layer1_pe(instr):
    """A layer-1 PE with at least one operand port unsourced."""
    for pe in range(CFG.num_pes):
        (a_port, a), (b_port, b) = CFG.pe_operand_sources(pe)
        if a_port and b_port and None in (
            instr.port_source[a], instr.port_source[b]
        ):
            return pe, instr.port_source[a], instr.port_source[b]
    return None


@pytest.mark.parametrize("op", [PEOp.ADD, PEOp.MUL])
def test_arithmetic_pe_with_missing_operand(program, op):
    i, instr = _find(program, ExecInstr, _starved_layer1_pe)
    pe, a_src, b_src = _starved_layer1_pe(instr)
    ops = list(instr.pe_ops)
    ops[pe] = op
    mutated = dataclasses.replace(instr, pe_ops=tuple(ops))
    a = "ok" if a_src is not None else "missing"
    b = "ok" if b_src is not None else "missing"
    _lowering_fails(
        _replace(program, i, mutated),
        SimulationError,
        re.escape(
            f"PE {pe}: {op.name} with missing operand (a={a}, b={b})"
        ),
    )


def test_bypass_pe_with_missing_operand(program):
    i, instr = _find(program, ExecInstr, _starved_layer1_pe)
    pe, a_src, _ = _starved_layer1_pe(instr)
    op = PEOp.PASS_A if a_src is None else PEOp.PASS_B
    ops = list(instr.pe_ops)
    ops[pe] = op
    mutated = dataclasses.replace(instr, pe_ops=tuple(ops))
    _lowering_fails(
        _replace(program, i, mutated),
        SimulationError,
        re.escape(f"PE {pe}: {op.name} with missing operand"),
    )


def test_write_from_idle_pe(program):
    # A tree root feeds no other PE, so idling it starves only its write.
    def root_write(e):
        return next(
            (w for w in e.writes if CFG.pe_layer(w.pe) == CFG.depth), None
        )

    i, instr = _find(program, ExecInstr, root_write)
    w = root_write(instr)
    ops = list(instr.pe_ops)
    ops[w.pe] = PEOp.IDLE
    mutated = dataclasses.replace(instr, pe_ops=tuple(ops))
    _lowering_fails(
        _replace(program, i, mutated),
        SimulationError,
        re.escape(f"write from idle PE {w.pe} (var {w.var})"),
    )


def test_copy_breaking_the_bank_port_rule(program):
    i, instr = _find(program, CopyInstr)
    # Two lanes reading one source bank in one cycle.
    move = instr.moves[0]
    second = dataclasses.replace(
        move, dst_bank=(move.dst_bank + 1) % CFG.banks
    )
    mutated = CopyInstr(moves=(move, second))
    _lowering_fails(
        _replace(program, i, mutated),
        SimulationError,
        re.escape("copy violates 1R/1W bank ports"),
    )


def test_load_whose_memory_tag_does_not_match(program):
    i, instr = _find(program, LoadInstr)
    (bank, var), *rest = instr.dests
    mutated = LoadInstr(row=instr.row, dests=((bank, var + 10**6), *rest))
    _lowering_fails(
        _replace(program, i, mutated),
        SimulationError,
        re.escape(
            f"load row {instr.row} lane {bank}: memory holds var {var}, "
            f"program expects {var + 10**6}"
        ),
    )


def test_load_from_a_row_out_of_range(program):
    i, instr = _find(program, LoadInstr)
    rows = program.num_data_rows
    mutated = LoadInstr(row=rows, dests=instr.dests)
    _lowering_fails(
        _replace(program, i, mutated),
        SimulationError,
        re.escape(f"data-memory row {rows} out of range 0..{rows - 1}"),
    )


def test_output_var_not_in_its_expected_cell(program):
    var = next(iter(program.output_layout))
    input_var, (row, lane) = next(iter(program.input_layout.items()))
    layout = dict(program.output_layout)
    layout[var] = (row, lane)  # a cell holding an input, not the output
    _lowering_fails(
        dataclasses.replace(program, output_layout=layout),
        SimulationError,
        re.escape(
            f"output var {var} expected in data-memory row {row} lane "
            f"{lane}, which holds var {input_var}"
        ),
    )


def test_input_var_with_no_slot(program):
    var = next(iter(program.input_layout))
    slots = {v: s for v, s in program.input_slots.items() if v != var}
    _lowering_fails(
        dataclasses.replace(program, input_slots=slots),
        SimulationError,
        re.escape(f"input var {var} has no external slot mapping"),
    )


def test_register_bank_overflow(program):
    tight = dataclasses.replace(
        program, config=dataclasses.replace(CFG, regs_per_bank=2)
    )
    _lowering_fails(
        tight,
        RegisterFileError,
        r"bank \d+ overflow: all 2 registers busy",
    )
