"""Dense binary artifact images for compiled programs and plans.

Pickles are convenient but fragile (Python-version coupled) and bulky
(per-array headers, framing).  This module serializes the two artifact
kinds the cache stores — compiled :class:`~repro.arch.Program` objects
and lowered :class:`~repro.sim.plan.ExecutionPlan` objects — as dense
little-endian binary images:

``header | section table | aligned section data``

* **Header** (32 bytes): magic ``RIMG``, format version, artifact
  kind, section count, payload length and a BLAKE2b-64 checksum of the
  payload (table + data).  A failed checksum, bad magic or truncation
  raises :class:`~repro.errors.ImageError` — the cache maps that to a
  miss, exactly like a torn pickle.
* **Section table**: 32 bytes per section — an 8-byte ASCII tag, file
  offset, byte length and a dtype code.
* **Sections**: a compact JSON metadata blob, raw byte blobs (the
  packed instruction bitstream) and numpy array payloads.  Array
  sections are 64-byte aligned so a reader can map the file with
  :mod:`mmap` and expose every array as a **zero-copy**
  ``np.frombuffer`` view — the serve plan pool loads plans this way.

Plan images pool every ``int32`` index array into one section; the
metadata records only each array's length, in a fixed traversal order,
so reconstruction is a cursor walk over one buffer.

Program images store the *encoded bitstream itself* (the fig. 7
variable-length binary) plus the compiler-only sidecars the hardware
never sees: variable tags, exec block ids and crossbar port-use masks
(a port muxing bank 0 and an unused port encode the same bits, so the
mask is what keeps ``port_source`` — and with it the analytic crossbar
counters — exact through a round-trip).  A mask is one 64-bit word
with bit ``p`` set when port ``p`` is used, stored as its
two's-complement ``<i8`` bit pattern, so an image holds configurations
of at most 64 ports; wider ones raise
:class:`~repro.errors.ImageError`.  ``load_program`` therefore
runs the real decoder: an image round-trip *is* an
encode→decode→reassemble proof, which the differential oracle's
``image-roundtrip`` stage executes and compares bitwise.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import mmap
import struct
from pathlib import Path

import numpy as np

from ..arch import (
    ArchConfig,
    CopyInstr,
    CopyMove,
    EncodedProgram,
    ExecInstr,
    Interconnect,
    LoadInstr,
    NopInstr,
    Program,
    StoreInstr,
    StoreSlot,
    Topology,
    WriteSpec,
    decode_program,
    encode_program,
    instruction_widths,
)
from ..errors import ImageError
from ..sim.functional import ActivityCounters
from ..sim.plan import ComputeStep, ExecutionPlan, MoveStep

MAGIC = b"RIMG"
IMAGE_VERSION = 1
KIND_PLAN = 1
KIND_PROGRAM = 2

#: Crossbar ports one 64-bit port-use mask can describe.
_MAX_PORTS = 64

_HEADER = struct.Struct("<4sHHIQQ4x")  # magic ver kind nsect paylen cksum
_SECTION = struct.Struct("<8sQQB7x")  # tag offset length dtype
_ALIGN = 64

#: Section dtype codes: 0 = raw bytes (incl. JSON), else a numpy dtype.
_DTYPES: dict[int, np.dtype | None] = {
    0: None,
    1: np.dtype("<i4"),
    2: np.dtype("<i8"),
    3: np.dtype("<f8"),
    4: np.dtype("u1"),
}
_DTYPE_CODE = {dt: code for code, dt in _DTYPES.items() if dt is not None}

#: Fixed field order of a ComputeStep's index arrays.
_COMPUTE_FIELDS = (
    "add_out", "add_a", "add_b", "mul_out", "mul_a", "mul_b",
    "mov_out", "mov_src",
)


def _checksum(payload) -> int:
    return int.from_bytes(
        hashlib.blake2b(payload, digest_size=8).digest(), "little"
    )


class _Builder:
    """Assembles one image: sections in, checksummed bytes out."""

    def __init__(self, kind: int) -> None:
        self.kind = kind
        self.sections: list[tuple[bytes, bytes, int]] = []

    def add(self, tag: str, data: bytes, dtype_code: int = 0) -> None:
        raw = tag.encode("ascii")
        if len(raw) > 8:
            raise ImageError(f"section tag {tag!r} longer than 8 bytes")
        self.sections.append((raw.ljust(8, b"\0"), data, dtype_code))

    def add_json(self, tag: str, obj) -> None:
        self.add(
            tag,
            json.dumps(obj, separators=(",", ":"), sort_keys=True).encode(),
        )

    def add_array(self, tag: str, arr: np.ndarray) -> None:
        arr = np.ascontiguousarray(arr)
        dt = np.dtype(arr.dtype.newbyteorder("<"))
        self.add(tag, arr.astype(dt, copy=False).tobytes(), _DTYPE_CODE[dt])

    def tobytes(self) -> bytes:
        n = len(self.sections)
        cursor = _HEADER.size + n * _SECTION.size
        table = []
        blobs = []
        for tag, data, code in self.sections:
            pad = (-cursor) % _ALIGN
            blobs.append(b"\0" * pad)
            cursor += pad
            table.append(_SECTION.pack(tag, cursor, len(data), code))
            blobs.append(data)
            cursor += len(data)
        payload = b"".join(table) + b"".join(blobs)
        header = _HEADER.pack(
            MAGIC, IMAGE_VERSION, self.kind, n, len(payload),
            _checksum(payload),
        )
        return header + payload


class Image:
    """Parsed image over a bytes-like buffer (``bytes`` or ``mmap``).

    Array sections come back as ``np.frombuffer`` views into the
    buffer — no copy; the arrays keep the buffer (and any underlying
    mmap) alive through their ``base`` chain.
    """

    def __init__(self, buf) -> None:
        self._buf = buf
        view = memoryview(buf)
        if len(view) < _HEADER.size:
            raise ImageError("image truncated: no header")
        magic, version, kind, nsect, paylen, cksum = _HEADER.unpack_from(
            view, 0
        )
        if magic != MAGIC:
            raise ImageError(f"bad image magic {magic!r}")
        if version != IMAGE_VERSION:
            raise ImageError(f"unsupported image version {version}")
        if len(view) < _HEADER.size + paylen:
            raise ImageError("image truncated: payload shorter than header "
                             "says")
        payload = view[_HEADER.size:_HEADER.size + paylen]
        if _checksum(payload) != cksum:
            raise ImageError("image checksum mismatch")
        self.kind = kind
        self._view = view
        self.sections: dict[str, tuple[int, int, int]] = {}
        for i in range(nsect):
            tag, offset, length, code = _SECTION.unpack_from(
                view, _HEADER.size + i * _SECTION.size
            )
            if offset + length > len(view) or code not in _DTYPES:
                raise ImageError("image section table out of bounds")
            self.sections[tag.rstrip(b"\0").decode("ascii")] = (
                offset, length, code,
            )

    def raw(self, tag: str) -> memoryview:
        try:
            offset, length, _ = self.sections[tag]
        except KeyError:
            raise ImageError(f"image has no {tag!r} section") from None
        return self._view[offset:offset + length]

    def json(self, tag: str):
        try:
            return json.loads(bytes(self.raw(tag)))
        except ValueError as exc:
            raise ImageError(f"malformed {tag!r} metadata: {exc}") from exc

    def array(self, tag: str) -> np.ndarray:
        offset, length, code = self.sections.get(tag, (0, 0, 0))
        if tag not in self.sections:
            raise ImageError(f"image has no {tag!r} section")
        dt = _DTYPES[code]
        if dt is None:
            raise ImageError(f"section {tag!r} is not an array")
        if length % dt.itemsize:
            raise ImageError(f"section {tag!r} length not a multiple of "
                             f"its dtype")
        return np.frombuffer(self._view, dtype=dt,
                             count=length // dt.itemsize, offset=offset)


def open_image(path: str | Path, use_mmap: bool = True) -> Image:
    """Open an image file, optionally via ``mmap`` (zero-copy arrays).

    Raises:
        ImageError: Malformed image (also wraps I/O and empty-file
            mapping failures, so callers need one except clause).
    """
    try:
        if use_mmap:
            with open(path, "rb") as fh:
                buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            return Image(buf)
        return Image(Path(path).read_bytes())
    except ImageError:
        raise
    except (OSError, ValueError) as exc:
        raise ImageError(f"cannot open image {path}: {exc}") from exc


def _config_dict(config: ArchConfig) -> dict:
    return dataclasses.asdict(config)


# ---------------------------------------------------------------------
# ExecutionPlan images
# ---------------------------------------------------------------------
def _plan_arrays(plan: ExecutionPlan):
    """The plan's int32 arrays, in the image's fixed traversal order."""
    yield plan.input_cells
    yield plan.input_slots
    yield plan.output_cells
    for step in plan.steps:
        if isinstance(step, MoveStep):
            yield step.src
            yield step.dst
        else:
            for name in _COMPUTE_FIELDS:
                yield getattr(step, name)


def dump_plan(plan: ExecutionPlan) -> bytes:
    """Serialize a lowered plan as one image blob."""
    steps_meta = []
    for step in plan.steps:
        if isinstance(step, MoveStep):
            steps_meta.append(["m", int(step.src.size), int(step.dst.size)])
        else:
            steps_meta.append(
                ["c"] + [int(getattr(step, n).size) for n in _COMPUTE_FIELDS]
            )
    meta = {
        "config": _config_dict(plan.config),
        "source_name": plan.source_name,
        "num_instructions": plan.num_instructions,
        "num_inputs": plan.num_inputs,
        "state_size": plan.state_size,
        "output_vars": [int(v) for v in plan.output_vars],
        "counters": dataclasses.asdict(plan.counters),
        "peak_occupancy": [int(v) for v in plan.peak_occupancy],
        "lead": [
            int(plan.input_cells.size),
            int(plan.input_slots.size),
            int(plan.output_cells.size),
        ],
        "steps": steps_meta,
    }
    arrays = list(_plan_arrays(plan))
    pool = (
        np.concatenate([np.asarray(a, dtype="<i4") for a in arrays])
        if arrays else np.empty(0, dtype="<i4")
    )
    builder = _Builder(KIND_PLAN)
    builder.add_json("meta", meta)
    builder.add_array("i32", pool)
    return builder.tobytes()


def load_plan(source: bytes | Image) -> ExecutionPlan:
    """Rebuild a plan from an image; arrays are views into the buffer.

    Raises:
        ImageError: Malformed/corrupt image or inconsistent metadata.
    """
    img = source if isinstance(source, Image) else Image(source)
    if img.kind != KIND_PLAN:
        raise ImageError(f"not a plan image (kind {img.kind})")
    meta = img.json("meta")
    pool = img.array("i32")
    cursor = 0

    def take(n: int) -> np.ndarray:
        nonlocal cursor
        if cursor + n > pool.size:
            raise ImageError("plan image array pool underrun")
        out = pool[cursor:cursor + n]
        cursor += n
        return out

    try:
        config = ArchConfig(**meta["config"])
        counters = ActivityCounters(**meta["counters"])
        n_in_cells, n_in_slots, n_out_cells = (
            int(n) for n in meta["lead"]
        )
        input_cells = take(n_in_cells)
        input_slots = take(n_in_slots)
        output_cells = take(n_out_cells)
        steps = []
        for rec in meta["steps"]:
            if rec[0] == "m":
                src = take(int(rec[1]))
                steps.append(MoveStep(src=src, dst=take(int(rec[2]))))
            elif rec[0] == "c":
                parts = [take(int(n)) for n in rec[1:]]
                steps.append(
                    ComputeStep(**dict(zip(_COMPUTE_FIELDS, parts)))
                )
            else:
                raise ImageError(f"unknown step kind {rec[0]!r}")
        plan = ExecutionPlan(
            config=config,
            source_name=meta["source_name"],
            num_instructions=int(meta["num_instructions"]),
            num_inputs=int(meta["num_inputs"]),
            state_size=int(meta["state_size"]),
            input_cells=input_cells,
            input_slots=input_slots,
            steps=tuple(steps),
            output_vars=tuple(int(v) for v in meta["output_vars"]),
            output_cells=output_cells,
            counters=counters,
            peak_occupancy=[int(v) for v in meta["peak_occupancy"]],
        )
    except ImageError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ImageError(f"malformed plan metadata: {exc}") from exc
    if cursor != pool.size:
        raise ImageError(
            f"plan image pool has {pool.size - cursor} unconsumed entries"
        )
    return plan


def write_plan_image(path: str | Path, plan: ExecutionPlan) -> Path:
    path = Path(path)
    path.write_bytes(dump_plan(plan))
    return path


def read_plan_image(path: str | Path, use_mmap: bool = True) -> ExecutionPlan:
    """Load a plan image from disk; with ``use_mmap`` the plan's index
    arrays are read-only zero-copy views over the mapped file."""
    return load_plan(open_image(path, use_mmap=use_mmap))


# ---------------------------------------------------------------------
# Program images
# ---------------------------------------------------------------------
def _sidecars(program: Program):
    """Variable tags / block ids / port masks the bitstream drops.

    The traversal order mirrors the decoder's field order exactly, so
    reassembly is a linear walk (see :func:`load_program`).
    """
    var_tags: list[int] = []
    block_ids: list[int] = []
    port_masks: list[int] = []
    for instr in program.instructions:
        if isinstance(instr, ExecInstr):
            var_tags.extend(v for _, v in sorted(instr.bank_reads))
            var_tags.extend(
                w.var for w in sorted(instr.writes, key=lambda w: w.bank)
            )
            block_ids.append(instr.block_id)
            mask = 0
            for port, src in enumerate(instr.port_source):
                if src is not None:
                    mask |= 1 << port
            port_masks.append(mask)
        elif isinstance(instr, CopyInstr):
            if instr.mnemonic == "copy_4":
                var_tags.extend(m.var for m in instr.moves)
            else:
                var_tags.extend(
                    m.var
                    for m in sorted(instr.moves, key=lambda m: m.src_bank)
                )
        elif isinstance(instr, LoadInstr):
            var_tags.extend(v for _, v in sorted(instr.dests))
        elif isinstance(instr, StoreInstr):
            if instr.mnemonic == "store_4":
                var_tags.extend(s.var for s in instr.slots)
            else:
                var_tags.extend(
                    s.var
                    for s in sorted(instr.slots, key=lambda s: s.bank)
                )
    return var_tags, block_ids, port_masks


def dump_program(
    program: Program,
    read_addrs: list[dict[int, int]],
    interconnect: Interconnect | None = None,
) -> bytes:
    """Serialize a compiled program: packed bitstream + sidecars."""
    ports = program.config.banks  # one crossbar port per bank
    if ports > _MAX_PORTS:
        raise ImageError(
            f"program images hold at most {_MAX_PORTS} crossbar "
            f"ports per port-use mask; {program.config} has {ports}"
        )
    inter = interconnect or Interconnect(program.config)
    encoded = encode_program(program, read_addrs, inter)
    var_tags, block_ids, port_masks = _sidecars(program)
    meta = {
        "config": _config_dict(program.config),
        "topology": inter.topology.value,
        "source_name": program.source_name,
        "num_data_rows": program.num_data_rows,
        "total_bits": encoded.total_bits,
        "input_layout": [
            [int(v), int(r), int(b)]
            for v, (r, b) in sorted(program.input_layout.items())
        ],
        "input_slots": [
            [int(v), int(s)] for v, s in sorted(program.input_slots.items())
        ],
        "output_layout": [
            [int(v), int(r), int(b)]
            for v, (r, b) in sorted(program.output_layout.items())
        ],
    }
    builder = _Builder(KIND_PROGRAM)
    builder.add_json("meta", meta)
    builder.add("bits", encoded.data)
    builder.add_array("lengths", np.asarray(encoded.lengths, dtype="<i4"))
    builder.add_array("vars", np.asarray(var_tags, dtype="<i4"))
    builder.add_array("blocks", np.asarray(block_ids, dtype="<i4"))
    builder.add_array(
        "ports", np.asarray(port_masks, dtype="<u8").view("<i8")
    )
    return builder.tobytes()


def load_program(
    source: bytes | Image,
) -> tuple[Program, list[dict[int, int]]]:
    """Decode a program image back into the typed instruction IR.

    Runs the real bitstream decoder over the packed ``bits`` section,
    then reattaches the sidecar variable tags / block ids / port masks
    to rebuild :class:`~repro.arch.Program` instructions.  Returns the
    program plus the per-instruction resolved read addresses (so the
    caller can re-encode and assert bitstream stability).

    Raises:
        ImageError: Corrupt image or sidecar/bitstream disagreement.
    """
    img = source if isinstance(source, Image) else Image(source)
    if img.kind != KIND_PROGRAM:
        raise ImageError(f"not a program image (kind {img.kind})")
    meta = img.json("meta")
    try:
        config = ArchConfig(**meta["config"])
        inter = Interconnect(config, Topology(meta["topology"]))
        encoded = EncodedProgram(
            data=bytes(img.raw("bits")),
            total_bits=int(meta["total_bits"]),
            lengths=tuple(int(n) for n in img.array("lengths")),
            widths=instruction_widths(config, inter),
        )
        decoded = decode_program(encoded, config, inter)
    except ImageError:
        raise
    except Exception as exc:
        raise ImageError(f"undecodable program image: {exc}") from exc

    var_tags = img.array("vars")
    block_ids = img.array("blocks")
    # A mask with port 63 in use reads back negative; Python's ``>>``
    # keeps the two's-complement bits, so the walk below is exact.
    port_masks = img.array("ports")
    cursor = {"var": 0, "block": 0, "port": 0}

    def next_of(kind: str, arr: np.ndarray) -> int:
        i = cursor[kind]
        if i >= arr.size:
            raise ImageError(f"program image {kind} sidecar underrun")
        cursor[kind] = i + 1
        return int(arr[i])

    instructions = []
    read_addrs: list[dict[int, int]] = []
    try:
        for dec in decoded:
            fields = dec.fields
            if dec.mnemonic == "nop":
                instructions.append(NopInstr())
                read_addrs.append({})
            elif dec.mnemonic == "exec":
                reads = fields["reads"]
                read_banks = [
                    b for b, r in enumerate(reads) if r is not None
                ]
                bank_reads = tuple(
                    (b, next_of("var", var_tags)) for b in read_banks
                )
                mask = next_of("port", port_masks)
                port_source = tuple(
                    src if (mask >> port) & 1 else None
                    for port, src in enumerate(fields["port_source"])
                )
                writes = tuple(
                    WriteSpec(pe=pe, bank=bank, var=next_of("var", var_tags))
                    for bank, pe in enumerate(fields["write_pe"])
                    if pe is not None
                )
                instructions.append(
                    ExecInstr(
                        bank_reads=bank_reads,
                        port_source=port_source,
                        pe_ops=fields["pe_ops"],
                        writes=writes,
                        valid_rst=frozenset(
                            b for b in read_banks if reads[b][1]
                        ),
                        block_id=next_of("block", block_ids),
                    )
                )
                read_addrs.append({b: reads[b][0] for b in read_banks})
            elif dec.mnemonic == "copy":
                reads = fields["reads"]
                src_var = {
                    b: next_of("var", var_tags)
                    for b, r in enumerate(reads)
                    if r is not None
                }
                moves = tuple(
                    CopyMove(
                        src_bank=src,
                        dst_bank=dst,
                        var=src_var[src],
                        free_source=reads[src][1],
                    )
                    for dst, src in enumerate(fields["dst_source"])
                    if src is not None
                )
                instructions.append(CopyInstr(moves=moves))
                read_addrs.append(
                    {b: reads[b][0] for b in src_var}
                )
            elif dec.mnemonic == "copy_4":
                moves = tuple(
                    CopyMove(
                        src_bank=src,
                        dst_bank=dst,
                        var=next_of("var", var_tags),
                        free_source=rst,
                    )
                    for src, dst, _addr, rst in fields["moves"]
                )
                instructions.append(CopyInstr(moves=moves))
                read_addrs.append(
                    {src: addr for src, _d, addr, _r in fields["moves"]}
                )
            elif dec.mnemonic == "load":
                dests = tuple(
                    (b, next_of("var", var_tags))
                    for b, on in enumerate(fields["enable"])
                    if on
                )
                instructions.append(
                    LoadInstr(row=fields["row"], dests=dests)
                )
                read_addrs.append({})
            elif dec.mnemonic == "store":
                reads = fields["reads"]
                slots = tuple(
                    StoreSlot(
                        bank=b,
                        var=next_of("var", var_tags),
                        free_source=reads[b][1],
                    )
                    for b, r in enumerate(reads)
                    if r is not None
                )
                instructions.append(
                    StoreInstr(row=fields["row"], slots=slots)
                )
                read_addrs.append(
                    {b: reads[b][0]
                     for b, r in enumerate(reads) if r is not None}
                )
            elif dec.mnemonic == "store_4":
                slots = tuple(
                    StoreSlot(
                        bank=bank,
                        var=next_of("var", var_tags),
                        free_source=rst,
                    )
                    for bank, _addr, rst in fields["slots"]
                )
                instructions.append(
                    StoreInstr(row=fields["row"], slots=slots)
                )
                read_addrs.append(
                    {bank: addr for bank, addr, _r in fields["slots"]}
                )
            else:  # pragma: no cover - decoder is exhaustive
                raise ImageError(f"unknown mnemonic {dec.mnemonic!r}")
        program = Program(
            config=config,
            instructions=tuple(instructions),
            input_layout={
                int(v): (int(r), int(b)) for v, r, b in meta["input_layout"]
            },
            input_slots={
                int(v): int(s) for v, s in meta["input_slots"]
            },
            output_layout={
                int(v): (int(r), int(b)) for v, r, b in meta["output_layout"]
            },
            num_data_rows=int(meta["num_data_rows"]),
            source_name=meta["source_name"],
        )
    except ImageError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ImageError(f"malformed program metadata: {exc}") from exc
    if cursor["var"] != var_tags.size:
        raise ImageError("program image has unconsumed variable tags")
    return program, read_addrs


def write_program_image(
    path: str | Path,
    program: Program,
    read_addrs: list[dict[int, int]],
    interconnect: Interconnect | None = None,
) -> Path:
    path = Path(path)
    path.write_bytes(dump_program(program, read_addrs, interconnect))
    return path


def read_program_image(
    path: str | Path, use_mmap: bool = False
) -> tuple[Program, list[dict[int, int]]]:
    return load_program(open_image(path, use_mmap=use_mmap))
