"""Step 2 — register-bank mapping (Algorithm 2, §IV-B).

Assigns a register bank to every *io variable* — every value that
crosses a block boundary through the register file: external inputs
and block outputs.  The constraints mirror the paper's:

* F: distinct inputs of one block must land in distinct banks (banks
  have one read port);
* G: distinct outputs of one block must land in distinct banks (one
  write port);
* H: an output's bank must be writable from the PE computing it
  (restricted output interconnect).

The mapper is the paper's greedy: maintain the compatible-bank set
``Sb`` of every unassigned io variable, always map the variable with
the fewest compatible banks next, choose uniformly at random among
compatible banks (objective J: balance), and fall back to the
least-contended bank when none is compatible — which the scheduler
later resolves with ``copy`` instructions (bank conflicts,
objective I).

The state is plain Python in io-var index space (the io variables are
sorted, so index order is variable order).  ``Sb`` is one int bitmask
per variable and ``|Sb|`` its ``bit_count()``.  The unassigned
variables sit in sorted lists per ``|Sb|``, one for each index chunk
of 4096 variables: a pop takes the ``randrange``-th entry of the
minimum size's chunks read in order, i.e. the k-th variable in
ascending order, and a peer that loses a bank moves to the next size
down within its chunk by bisection.  Chunking bounds the list shift of
such a move, which in one list per size grows with the DAG.  Each
input or output group keeps a list of its unassigned members, so an
assignment visits only live peers.  The random draws
are one ``randrange`` per pop and one per bank choice (the k-th
compatible bank in ascending order), the same sequence as the
historical bucket-of-sets implementation, which
``tests/mapper_reference.py`` keeps as a frozen reference that the
tests hold this mapper equal to.

When an *output* runs out of compatible banks, constraint H cannot be
traded for a copy (the value exists only in the datapath that cycle),
so an augmenting-path repair relocates already-assigned outputs of the
same block.  With the aligned output interconnect a perfect
output->bank matching always exists (every depth-``d`` subtree writes
into its own ``2^d`` banks and hosts at most ``2^d - 1`` outputs), so
the repair provably succeeds.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass

from ..arch import ArchConfig, Interconnect
from ..errors import MappingError
from .blocks import Decomposition
from .placement import BlockPlacement, place_block, writer_pe

#: Size buckets are split by io-var index into chunks of
#: ``2**_CHUNK_BITS`` sorted lists: a size change then shifts one chunk
#: (a few KB) instead of a whole bucket, which on DAGs with 10^5 io
#: variables would cost more than the bookkeeping it replaces.
_CHUNK_BITS = 12


@dataclass
class Mapping:
    """Step-2 result.

    Attributes:
        bank_of: Bank of every io variable.
        write_pe: For block outputs, the PE that writes them.
        placements: Per-block hardware binding.
        predicted_read_conflicts: Variables assigned to a contended
            bank among co-read peers (lower bound on copies).
        repairs: Augmenting-path relocations needed for outputs.
    """

    bank_of: dict[int, int]
    write_pe: dict[int, int]
    placements: list[BlockPlacement]
    predicted_read_conflicts: int
    repairs: int

    def bank_histogram(self, banks: int) -> list[int]:
        """Variables per bank — objective J's balance check."""
        hist = [0] * banks
        for bank in self.bank_of.values():
            hist[bank] += 1
        return hist


def map_banks(
    decomposition: Decomposition,
    interconnect: Interconnect,
    seed: int = 0,
    strategy: str = "conflict_aware",
) -> Mapping:
    """Run step 2 on a decomposition.

    Args:
        strategy: ``"conflict_aware"`` (Algorithm 2) or ``"random"``
            (the fig. 10(b) baseline: uniform over hardware-legal
            banks, no conflict avoidance).
    """
    if strategy not in ("conflict_aware", "random"):
        raise MappingError(f"unknown mapping strategy {strategy!r}")
    rng = random.Random(seed)
    config = decomposition.config

    placements = [place_block(b, config) for b in decomposition.blocks]

    write_pe: dict[int, int] = {}
    writable: dict[int, tuple[int, ...]] = {}
    for block, placement in zip(decomposition.blocks, placements):
        for var in block.output_vars:
            pe = writer_pe(placement, var, config)
            write_pe[var] = pe
            writable[var] = interconnect.banks_writable_from(pe)

    # Mutual-exclusion groups: inputs of a block (constraint F), outputs
    # of a block (constraint G).
    groups: list[list[int]] = []
    var_groups: dict[int, list[int]] = {}
    out_group_of: dict[int, int] = {}
    for block in decomposition.blocks:
        if block.input_vars:
            gid = len(groups)
            groups.append(sorted(block.input_vars))
            for v in block.input_vars:
                var_groups.setdefault(v, []).append(gid)
        if block.output_vars:
            gid = len(groups)
            groups.append(sorted(block.output_vars))
            for v in block.output_vars:
                var_groups.setdefault(v, []).append(gid)
                out_group_of[v] = gid

    io_vars = sorted(var_groups)
    if strategy == "random":
        return _map_random(
            rng, config, io_vars, writable, write_pe, placements,
            out_group_of, groups,
        )

    bank_of, conflicts, repairs = _assign(
        rng, config.banks, io_vars, writable, var_groups, groups,
        out_group_of,
    )
    return Mapping(
        bank_of=bank_of,
        write_pe=write_pe,
        placements=placements,
        predicted_read_conflicts=conflicts,
        repairs=repairs,
    )


def _assign(
    rng: random.Random,
    banks: int,
    io_vars: list[int],
    writable: dict[int, tuple[int, ...]],
    var_groups: dict[int, list[int]],
    groups: list[list[int]],
    out_group_of: dict[int, int],
) -> tuple[dict[int, int], int, int]:
    """Greedy min-``|Sb|`` assignment; returns (bank of each io var,
    read conflicts, output repairs).

    ``sb[i]`` is variable ``i``'s bank bitmask and ``live[g]`` the
    unassigned members of group ``g``.  The unassigned variables with
    ``|Sb| = s`` are ``by_size[s]``: one sorted list per index chunk
    of ``2**_CHUNK_BITS``.
    """
    index = {v: i for i, v in enumerate(io_vars)}
    sb = [(1 << banks) - 1] * len(io_vars)
    for v, options in writable.items():
        mask = 0
        for b in options:
            mask |= 1 << b
        sb[index[v]] = mask
    num_chunks = (len(io_vars) >> _CHUNK_BITS) + 1
    by_size = [[[] for _ in range(num_chunks)] for _ in range(banks + 1)]
    for i, mask in enumerate(sb):
        by_size[mask.bit_count()][i >> _CHUNK_BITS].append(i)
    live = [[index[v] for v in g] for g in groups]
    gids_of = [var_groups[v] for v in io_vars]

    bank_of: dict[int, int] = {}
    conflicts = 0
    repairs = 0
    randrange = rng.randrange
    shift = _CHUNK_BITS
    # A pop lowers the minimum |Sb| by at most one (each peer loses at
    # most one bank), so the scan resumes just below the last minimum.
    s = 0
    for _ in range(len(io_vars)):
        # Pop the min-|Sb| variable: the k-th in ascending var order.
        if s:
            s -= 1
        while not any(by_size[s]):
            s += 1
        chunks = by_size[s]
        k = randrange(sum(map(len, chunks)))
        for chunk in chunks:
            if k < len(chunk):
                break
            k -= len(chunk)
        i = chunk.pop(k)
        v = io_vars[i]

        if s:
            # The k-th compatible bank in ascending order.
            mask = sb[i]
            for _ in range(randrange(s)):
                mask &= mask - 1
            bank = (mask & -mask).bit_length() - 1
        elif v in writable:
            bank, moved = _repair_output(
                v, writable, bank_of, out_group_of, groups, rng
            )
            repairs += moved
        else:
            bank = _least_contended(
                v, range(banks), var_groups, groups, bank_of, rng
            )
            conflicts += 1
        bank_of[v] = bank

        # Retire v; its live peers lose the bank.
        bit = 1 << bank
        for gid in gids_of[i]:
            members = live[gid]
            members.remove(i)
            for j in members:
                mask = sb[j]
                if mask & bit:
                    sb[j] = mask ^ bit
                    size = mask.bit_count()
                    c = j >> shift
                    old = by_size[size][c]
                    del old[bisect_left(old, j)]
                    insort(by_size[size - 1][c], j)
    return bank_of, conflicts, repairs


def _rng_choice(rng: random.Random, items) -> int:
    # Sets iterate in hash order which is stable for ints; sorting keeps
    # the choice reproducible across runs and platforms.
    seq = sorted(items)
    return seq[rng.randrange(len(seq))]


def _least_contended(
    v: int,
    candidates,
    var_groups: dict[int, list[int]],
    groups: list[list[int]],
    bank_of: dict[int, int],
    rng: random.Random,
) -> int:
    """Fallback of Algorithm 2 line 24: minimize simultaneous peers."""
    contention = {b: 0 for b in candidates}
    for gid in var_groups[v]:
        for peer in groups[gid]:
            b = bank_of.get(peer)
            if b is not None and b in contention:
                contention[b] += 1
    best = min(contention.values())
    return _rng_choice(rng, [b for b, c in contention.items() if c == best])


def _repair_output(
    v: int,
    writable: dict[int, tuple[int, ...]],
    bank_of: dict[int, int],
    out_group_of: dict[int, int],
    groups: list[list[int]],
    rng: random.Random,
) -> tuple[int, int]:
    """Augmenting-path relocation for a bankless output (constraint H).

    Returns (bank for ``v``, number of relocated peers).
    """
    gid = out_group_of[v]
    peers = groups[gid]
    taken: dict[int, int] = {}
    for peer in peers:
        b = bank_of.get(peer)
        if b is not None:
            taken[b] = peer

    moved = 0

    def try_take(var: int, visited: set[int]) -> int | None:
        nonlocal moved
        for b in writable[var]:
            if b in visited:
                continue
            visited.add(b)
            owner = taken.get(b)
            if owner is None:
                return b
        for b in list(writable[var]):
            owner = taken.get(b)
            if owner is None or owner == var:
                continue
            alt = try_take(owner, visited)
            if alt is not None:
                taken[alt] = owner
                bank_of[owner] = alt
                moved += 1
                return b
        return None

    bank = try_take(v, set())
    if bank is None:
        raise MappingError(
            f"output var {v}: no writable bank even after repair — "
            "output interconnect feasibility violated (compiler bug)"
        )
    taken[bank] = v
    return bank, moved


def _map_random(
    rng: random.Random,
    config: ArchConfig,
    io_vars: list[int],
    writable: dict[int, tuple[int, ...]],
    write_pe: dict[int, int],
    placements: list[BlockPlacement],
    out_group_of: dict[int, int],
    groups: list[list[int]],
) -> Mapping:
    """fig. 10(b) baseline: uniform banks, hardware-legal for outputs.

    Write conflicts (two outputs of one block on one bank) would be
    unencodable, so the random baseline keeps output banks distinct
    within a block (what the hardware cannot express at all) while
    doing nothing about read conflicts across blocks — the dominant
    effect Algorithm 2 optimizes.
    """
    bank_of: dict[int, int] = {}
    taken_in_group: dict[int, set[int]] = {}
    for v in io_vars:
        if v in writable:
            gid = out_group_of[v]
            taken = taken_in_group.setdefault(gid, set())
            options = [b for b in writable[v] if b not in taken]
            if not options:
                bank, _ = _repair_output(
                    v, writable, bank_of, out_group_of, groups, rng
                )
                # Re-derive the taken set after relocations.
                taken.clear()
                taken.update(
                    bank_of[p] for p in groups[gid] if p in bank_of
                )
            else:
                bank = options[rng.randrange(len(options))]
            bank_of[v] = bank
            taken.add(bank)
        else:
            bank_of[v] = rng.randrange(config.banks)
    return Mapping(
        bank_of=bank_of,
        write_pe=write_pe,
        placements=placements,
        predicted_read_conflicts=-1,
        repairs=0,
    )
