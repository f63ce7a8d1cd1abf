"""Byte-level parity of plan lowering and fusion, pinned by goldens.

Every Table-I workload and every synth family, compiled at each
architecture point of ``make_goldens.PLAN_CONFIGS``, must lower and
fuse to images whose sha256 matches ``tests/goldens/plan_images.json``.
The plan image carries the activity counters, so this also pins
:func:`repro.sim.activity.count_activity`.
"""

from __future__ import annotations

import json

import pytest

from make_goldens import (
    GOLDEN_DIR,
    PLAN_CONFIGS,
    PLAN_IMAGES,
    plan_image_digests,
    plan_workloads,
)

GOLDEN = json.loads((GOLDEN_DIR / PLAN_IMAGES).read_text())


def test_goldens_cover_every_config_and_workload():
    assert set(GOLDEN) == set(PLAN_CONFIGS)
    for label in PLAN_CONFIGS:
        assert set(GOLDEN[label]) == set(plan_workloads())


@pytest.mark.parametrize("label", PLAN_CONFIGS)
@pytest.mark.parametrize("workload", plan_workloads())
def test_plan_and_fused_images_match_golden(label, workload):
    assert plan_image_digests(label, workload) == GOLDEN[label][workload], (
        f"{workload} @ {label}: lowered or fused image drifted from "
        "tests/goldens/plan_images.json"
    )
