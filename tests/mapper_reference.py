"""Frozen, test-only reference for the conflict-aware bank mapper.

This is the historical bucket-of-sets implementation of Algorithm 2:
the compatible-bank set ``Sb`` of every unassigned io variable is a
Python set, the variables are bucketed by ``|Sb|``, and each pop sorts
the minimum bucket and takes its ``randrange``-th member.  It is slow
and kept only as the A/B reference for :func:`repro.compiler.map_banks`,
which must replay the identical random-choice sequence: same variable
popped, same bank chosen, same conflict and repair fallbacks.

The conflict and repair fallbacks (``_least_contended`` and
``_repair_output``) are copied here as they were when the reference was
frozen, so a change to the mapper's own copies shows up as a mismatch.
Do not optimize this file; its value is that it does not change.
"""

from __future__ import annotations

import random

from repro.compiler.mapping import Mapping
from repro.compiler.placement import place_block, writer_pe
from repro.errors import MappingError


def reference_map_banks(decomposition, interconnect, seed: int = 0):
    """The conflict-aware ``map_banks`` as the bucket-of-sets path."""
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
    all_banks = frozenset(range(config.banks))
    sb: dict[int, set[int]] = {}
    for v in io_vars:
        sb[v] = set(writable[v]) if v in writable else set(all_banks)

    buckets: list[set[int]] = [set() for _ in range(config.banks + 1)]
    for v in io_vars:
        buckets[len(sb[v])].add(v)

    bank_of: dict[int, int] = {}
    conflicts = 0
    repairs = 0
    unassigned = set(io_vars)

    while unassigned:
        v = _pop_min_sb(buckets, sb, unassigned, rng)
        options = sb[v]
        if options:
            bank = _rng_choice(rng, options)
        elif v in writable:
            bank, moved = _repair_output(
                v, writable, bank_of, out_group_of, groups, rng
            )
            repairs += moved
        else:
            bank = _least_contended(
                v, all_banks, var_groups, groups, bank_of, rng
            )
            conflicts += 1
        bank_of[v] = bank
        unassigned.discard(v)
        # Compatibility updates: peers sharing a group lose this bank.
        for gid in var_groups[v]:
            for peer in groups[gid]:
                if peer in unassigned and bank in sb[peer]:
                    size = len(sb[peer])
                    sb[peer].discard(bank)
                    buckets[size].discard(peer)
                    buckets[size - 1].add(peer)

    return Mapping(
        bank_of=bank_of,
        write_pe=write_pe,
        placements=placements,
        predicted_read_conflicts=conflicts,
        repairs=repairs,
    )


def _rng_choice(rng, items) -> int:
    seq = sorted(items)
    return seq[rng.randrange(len(seq))]


def _pop_min_sb(buckets, sb, unassigned, rng) -> int:
    for size, bucket in enumerate(buckets):
        while bucket:
            v = _rng_choice(rng, bucket)
            if v not in unassigned or len(sb[v]) != size:
                bucket.discard(v)
                continue
            bucket.discard(v)
            return v
    raise MappingError("no unassigned variable found (bucket corruption)")


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
