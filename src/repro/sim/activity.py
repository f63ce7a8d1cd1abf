"""Static activity extraction: counters without value-level simulation.

Execution on DPU-v2 is fully static — the instruction stream determines
every register access, crossbar transfer and memory access regardless
of data values.  This module derives the same
:class:`~repro.sim.functional.ActivityCounters` the architectural
simulator produces, directly from a compiled program, in one cheap
pass.  The DSE sweep (48 configurations x suite) relies on this; the
equivalence with simulator-measured counters is asserted in tests.
"""

from __future__ import annotations

from ..arch import (
    CopyInstr,
    ExecInstr,
    Interconnect,
    LoadInstr,
    NopInstr,
    PEOp,
    Program,
    StoreInstr,
    instruction_widths,
)
from .functional import ActivityCounters


def count_activity(
    program: Program, interconnect: Interconnect | None = None
) -> ActivityCounters:
    """Derive activity counters from the instruction stream alone.

    One pass dispatching on the exact instruction type; PE and port
    activity is counted with ``tuple.count`` rather than per element.
    """
    config = program.config
    inter = interconnect or Interconnect(config)
    widths = instruction_widths(config, inter)
    counters = ActivityCounters()
    for instr in program.instructions:
        kind = type(instr)
        if kind is ExecInstr:
            ops = instr.pe_ops
            ports = instr.port_source
            counters.exec_count += 1
            counters.bank_reads += len(instr.bank_reads)
            counters.crossbar_transfers += len(ports) - ports.count(None)
            counters.pe_ops += ops.count(PEOp.ADD) + ops.count(PEOp.MUL)
            counters.pe_passes += (
                ops.count(PEOp.PASS_A) + ops.count(PEOp.PASS_B)
            )
            counters.bank_writes += len(instr.writes)
        elif kind is NopInstr:
            counters.nops += 1
        elif kind is CopyInstr:
            counters.bank_reads += len(instr.moves)
            counters.bank_writes += len(instr.moves)
            counters.crossbar_transfers += len(instr.moves)
        elif kind is LoadInstr:
            counters.dmem_reads += 1
            counters.bank_writes += len(instr.dests)
        elif kind is StoreInstr:
            counters.dmem_writes += 1
            counters.bank_reads += len(instr.slots)
    counters.instructions = len(program.instructions)
    counters.cycles = len(program.instructions) + config.pipeline_stages
    total_bits = sum(
        widths.of(mnemonic) * count
        for mnemonic, count in program.count_by_mnemonic().items()
    )
    fetches = -(-total_bits // widths.il)
    counters.instr_bits_fetched = fetches * widths.il
    return counters


def batch_counters(
    program: Program,
    batch: int,
    interconnect: Interconnect | None = None,
) -> ActivityCounters:
    """Activity totals for ``batch`` back-to-back runs of a program.

    Static execution means the batch totals are exactly the single-run
    counters scaled by B — the same numbers the batched engine reports
    on its :class:`~repro.sim.batch.BatchResult`.
    """
    return count_activity(program, interconnect).scaled(batch)
