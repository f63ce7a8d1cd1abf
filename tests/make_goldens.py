"""Regenerate the golden snapshots under ``tests/goldens/``.

Usage::

    PYTHONPATH=src python tests/make_goldens.py [--jobs N]

Each registered experiment is run at its reduced ``golden_kwargs``
scale and its canonical snapshot (deterministic metrics only, floats
at full precision) is written to ``tests/goldens/<name>.json``.

``tests/goldens/plan_images.json`` pins the lowering and fusion
stages byte for byte: for every Table-I workload and every synth
family at ``DEFAULT_SCALE``, compiled at each of :data:`PLAN_CONFIGS`,
it holds the sha256 of the lowered plan's image (``dump_plan``, which
carries the activity counters) and of the fused plan's image
(:func:`fused_image`).

Regenerate only when an intentional change shifts the reproduction's
numbers, and review the diff like any other behavioral change.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
PLAN_IMAGES = "plan_images.json"

#: Architecture points the plan images are pinned at: the paper's
#: min-EDP design, and a small point whose register pressure makes
#: the compiler spill (loads, stores and copies dominate the tape).
PLAN_CONFIGS = ("D3-B64-R32", "D2-B8-R16")


def plan_workloads() -> list[str]:
    """Every Table-I workload, then one workload per synth family."""
    from repro.workloads import workload_names

    return workload_names(("pc", "sptrsv", "synth"))


def fused_image(fused) -> bytes:
    """Deterministic byte image of a :class:`~repro.sim.fused.FusedPlan`:
    canonical JSON metadata, then every index array as little-endian
    int64, in a fixed order."""
    levels = [
        [
            None if lv.gather is None else int(lv.gather.size),
            [dataclasses.astuple(k) for k in lv.kernels],
        ]
        for lv in fused.levels
    ]
    meta = {
        "config": dataclasses.asdict(fused.config),
        "source_name": fused.source_name,
        "num_instructions": fused.num_instructions,
        "num_inputs": fused.num_inputs,
        "state_size": fused.state_size,
        "num_ops": fused.num_ops,
        "output_vars": [int(v) for v in fused.output_vars],
        "counters": dataclasses.asdict(fused.counters),
        "peak_occupancy": [int(v) for v in fused.peak_occupancy],
        "fingerprint": fused.fingerprint,
        "levels": levels,
    }
    arrays = [
        fused.base_cells, fused.input_pos, fused.input_slots,
        fused.zero_pos, fused.output_cells,
    ] + [lv.gather for lv in fused.levels if lv.gather is not None]
    blob = json.dumps(meta, sort_keys=True).encode()
    return blob + b"".join(
        np.asarray(a, dtype="<i8").tobytes() for a in arrays
    )


def plan_image_digests(config_label: str, workload: str) -> dict[str, str]:
    """sha256 of the lowered and of the fused image of one workload."""
    from repro.arch import ArchConfig
    from repro.compiler import compile_dag
    from repro.runner.imageio import dump_plan
    from repro.sim.fused import fuse_plan
    from repro.workloads import build_workload

    depth, banks, regs = (int(p[1:]) for p in config_label.split("-"))
    config = ArchConfig(depth=depth, banks=banks, regs_per_bank=regs)
    plan = compile_dag(build_workload(workload), config).plan()
    return {
        "plan": hashlib.sha256(dump_plan(plan)).hexdigest(),
        "fused": hashlib.sha256(fused_image(fuse_plan(plan))).hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument(
        "--out-dir", default=str(GOLDEN_DIR), metavar="DIR",
        help="write snapshots here instead of tests/goldens/ (CI "
        "regenerates to a scratch dir and asserts byte-identity "
        "against the committed files)",
    )
    args = parser.parse_args(argv)

    from repro.runner.registry import canonical_json, run_all

    runs = run_all(jobs=args.jobs, golden=True, progress=True)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, run in runs.items():
        path = out_dir / f"{name}.json"
        path.write_text(canonical_json(run.snapshot) + "\n")
        print(f"wrote {path}")
    path = out_dir / PLAN_IMAGES
    digests = {
        label: {
            name: plan_image_digests(label, name)
            for name in plan_workloads()
        }
        for label in PLAN_CONFIGS
    }
    path.write_text(canonical_json(digests) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
