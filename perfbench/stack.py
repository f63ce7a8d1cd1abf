"""Program sets and the calls into the compile -> lower -> fuse -> sweep
stack that every workload times.

The seed drives the synthetic DAGs and the input rows; Table-I
programs stay at their registered seeds and at ``DEFAULT_SCALE``.
"""

from __future__ import annotations

import pickle
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.runner.cache import cached_compile, cached_fused_plan, cached_plan
from repro.runner.imageio import dump_plan
from repro.serve.loadtest import request_inputs
from repro.serve.planpool import ProgramSpec
from repro.sim.batch import BatchSimulator
from repro.workloads.suite import DEFAULT_SCALE, SYNTH_SUITE, workload_names
from repro.workloads.synth import SynthParams

from core import HOST, STATE_DIR, Spans, TimedCache, fast

#: Rows per sweep, the batch the issue's throughput figures use.
BATCH = 256
#: Engines every sweep is cross-checked on; ``auto`` is what users get.
ENGINES = ("step", "fused", "codegen")
WIDE = ("tretail", "bp_200", "bnetflix")
#: Synthetic deep programs: at this size a sweep takes about a
#: millisecond, where at suite size (200 nodes) its speed swings by a
#: quarter from one second to the next on a shared host.
DEEP_FAMILIES = ("deep", "near_chain")
DEEP_NODES = 2000


@dataclass(frozen=True)
class Prog:
    """One program of a workload: its serving identity and its class
    (``deep`` tapes are bound by dispatch cost, ``wide`` ones by
    memory bandwidth)."""

    spec: ProgramSpec
    kind: str = "other"

    @property
    def name(self) -> str:
        return self.spec.name


def _synth(name: str, family: str, n: int, seed: int, kind="other") -> Prog:
    return Prog(ProgramSpec(name, synth=SynthParams(family, n, seed)), kind)


def _suite_synth_size(family: str) -> int:
    spec = next(s for s in SYNTH_SUITE if s.kind == family)
    return int(spec.paper_nodes * DEFAULT_SCALE)


def programs(workload: str, seed: int) -> list[Prog]:
    """The programs a workload compiles, seeded where synthetic."""
    wide = [Prog(ProgramSpec(name), "wide") for name in WIDE]
    if workload == "cold":
        table = [
            Prog(ProgramSpec(name), "wide" if name in WIDE else "other")
            for name in workload_names(("pc", "sptrsv"))
        ]
        # The deep families at the deep size, the rest at suite size.
        synth = [
            _synth(spec.name, spec.kind, DEEP_NODES, seed * 64 + i, "deep")
            if spec.kind in DEEP_FAMILIES else
            _synth(spec.name, spec.kind, _suite_synth_size(spec.kind),
                   seed * 64 + i)
            for i, spec in enumerate(SYNTH_SUITE)
        ]
        return table + synth
    if workload == "batch":
        return wide + [
            _synth(f"{family}{DEEP_NODES}", family, DEEP_NODES,
                   seed * 64 + i, "deep")
            for i, family in enumerate(DEEP_FAMILIES)
        ]
    if workload == "serve":
        return wide + [
            _synth("synth_deep", "deep", DEEP_NODES, seed * 64, "deep")
        ]
    if workload == "http":
        # `repro serve --programs` takes suite names, so the HTTP
        # programs stay at their registered seeds; the seed drives the
        # request payloads instead.
        return wide + [Prog(ProgramSpec("synth_deep"), "deep")]
    raise ValueError(f"unknown workload {workload!r}")


def build_dags(progs: list[Prog]) -> bytes:
    """Build every DAG once and return them pickled.

    Unpickling gives fresh DAG objects carrying no per-DAG memo, so
    each pass starts from the state a new process would see.
    """
    return pickle.dumps([p.spec.build_dag() for p in progs])


@dataclass
class Loaded:
    """One program brought through the cold or warm path."""

    prog: Prog
    nodes: int
    seconds: float
    result: object
    plan: object
    fused: object
    inputs: np.ndarray
    outputs: dict


@dataclass
class Pass:
    """One pass of a program set through the cold (or warm) path."""

    loaded: list[Loaded]
    seconds: float
    cache_get_s: float
    cache_put_s: float
    hits: int
    misses: int
    start_ns: int
    end_ns: int
    compile_steps: dict = field(default_factory=dict)
    #: Each program's time through the path; kept when the pass's
    #: artifacts are dropped.
    program_seconds: dict = field(default_factory=dict)

    @property
    def nodes(self) -> int:
        return sum(x.nodes for x in self.loaded)

    def counts(self) -> dict:
        """Exact per-program counts (cold passes only: a warm hit
        returns the stored stats, not fresh ones)."""
        out = {}
        for x in self.loaded:
            stats = x.result.stats
            out[x.prog.name] = {
                "instructions": len(x.result.program.instructions),
                "bank_conflicts": stats.bank_conflicts,
                "spills": stats.spills,
                "nops": stats.nop_instructions,
                "cycles_per_row": x.plan.cycles_per_row,
            }
        return out


def run_pass(
    progs: list[Prog], dags_blob: bytes, cache: TimedCache,
    spans: Spans, seed: int,
) -> Pass:
    """``cached_compile`` -> ``cached_plan`` -> ``cached_fused_plan`` ->
    first ``BatchSimulator.run`` for every program, through ``cache``.
    Each program's time is scaled to the reference host speed
    (``core.HostSpeed``); the pass's own ``seconds`` is the wall time.
    """
    with spans.span("workloads"):
        dags = pickle.loads(dags_blob)
    get0, put0 = cache.get_s, cache.put_s
    hits0, misses0 = cache.hits, cache.misses
    loaded = []
    steps: dict[str, float] = {}
    start_ns = time.perf_counter_ns()
    for i, (prog, dag) in enumerate(zip(progs, dags)):
        config = prog.spec.config()
        HOST.tick()
        t = time.perf_counter()
        with spans.span("compiler"):
            result = cached_compile(dag, config, cache=cache)
        with spans.span("sim.plan"):
            plan = cached_plan(result, cache=cache)
        with spans.span("sim.fused"):
            fused = cached_fused_plan(result, cache=cache)
        inputs = request_inputs(plan.num_inputs, seed * 1000 + i, BATCH)
        with spans.span("sim.batch"):
            sim = BatchSimulator(plan, engine="auto", fused_plan=fused)
            outputs = sim.run(inputs).outputs
        done = time.perf_counter()
        HOST.tick()
        seconds = HOST.scaled(t, done)
        for step, s in result.stats.step_seconds.items():
            steps[step] = steps.get(step, 0.0) + s
        steps["compile"] = steps.get("compile", 0.0) + (
            result.stats.compile_seconds
        )
        loaded.append(Loaded(
            prog, dag.num_nodes, seconds, result, plan, fused, inputs,
            outputs,
        ))
        del sim  # its per-batch state is not needed after the first run
    return Pass(
        loaded=loaded,
        seconds=(time.perf_counter_ns() - start_ns) / 1e9,
        cache_get_s=cache.get_s - get0,
        cache_put_s=cache.put_s - put0,
        hits=cache.hits - hits0,
        misses=cache.misses - misses0,
        start_ns=start_ns,
        end_ns=time.perf_counter_ns(),
        compile_steps=steps,
        program_seconds={x.prog.name: x.seconds for x in loaded},
    )


class CacheDirs:
    """Fresh, private, empty artifact-cache directories under the
    checkout, removed when the run ends."""

    def __init__(self) -> None:
        self.root = STATE_DIR / f"tmp-{time.time_ns():x}"
        self.root.mkdir(parents=True)
        self._n = 0

    def fresh(self, spans: Spans) -> TimedCache:
        self._n += 1
        return TimedCache(self.root / f"cache{self._n}", spans)

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def same_bits(a, b) -> bool:
    """Bitwise equality of two float64 arrays (NaN payloads and the
    sign of zero included)."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(
        a.view(np.int64), b.view(np.int64)
    )


def same_outputs(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(same_bits(a[k], b[k]) for k in a)


def fused_bytes_per_row(fused) -> int:
    """Bytes one row moves through the fused sweep, from the gather
    and kernel sizes: a gather reads and writes each gathered cell, a
    kernel reads two operands and writes one result (8 B a cell)."""
    cells = 0
    for level in fused.levels:
        if level.gather is not None:
            cells += 2 * int(level.gather.size)
        cells += sum(3 * k.width for k in level.kernels)
    return 8 * cells


def plan_image_bytes(plans) -> int:
    return sum(len(dump_plan(p)) for p in plans)


def time_sweeps(
    cases: list[Loaded], seconds: float, spans: Spans,
    engine: str = "auto", instances: int = 5, rounds: int = 8,
) -> list[list[list[list[float]]]]:
    """Steady-state sweeps for ``seconds``:
    ``times[case][instance][round]`` is one block of sweep times.

    A sweep's speed depends on where its state happens to sit in
    memory: in one process, typically one simulator in four or five
    sweeps every program a fifth faster than the others.  So every
    case is swept on ``instances`` simulators alive at once (distinct
    allocations), and the median over them is reported.  Each sweeps
    back to back in a block (warm host caches, as under sustained
    load), and the blocks rotate ``rounds`` times so the host's slow
    spells fall on every case.  Times are scaled to the reference host
    speed (``core.HostSpeed``), block by block.
    """
    sims = [
        [BatchSimulator(x.plan, engine=engine, fused_plan=x.fused)
         for _ in range(instances)]
        for x in cases
    ]
    for x, group in zip(cases, sims):
        for sim in group:
            sim.run(x.inputs)  # binds the state; not timed
    times = [[[] for _ in range(instances)] for _ in cases]
    block = seconds / (rounds * len(cases) * instances)
    for _ in range(rounds):
        for x, group, per_case in zip(cases, sims, times):
            for sim, per_inst in zip(group, per_case):
                out = []
                HOST.tick()
                start = time.perf_counter()
                end = start + block
                while True:
                    token = spans.begin("sim.batch")
                    t = time.perf_counter()
                    sim.run(x.inputs)
                    done = time.perf_counter()
                    spans.end(token)
                    out.append(done - t)
                    if done >= end:
                        break
                HOST.tick()
                scale = HOST.scaled(start, done) / (done - start)
                per_inst.append([t * scale for t in out])
    return times


def round_medians(case: list[list[list[float]]]) -> list[float]:
    """One sweep time of one case per round: the median over its
    simulators of each one's median sweep in that round."""
    return [
        statistics.median(statistics.median(inst[r]) for inst in case)
        for r in range(len(case[0]))
    ]


def rows_per_s(rounds: list[float]) -> float:
    """Rows per second of one case from its sweep time per round: the
    fast quartile of the rounds (see ``core.fast``)."""
    return BATCH / fast(rounds)


def engine_outputs(loaded: Loaded) -> dict[str, dict]:
    """Outputs of every engine on the program's sweep inputs."""
    return {
        engine: BatchSimulator(
            loaded.plan, engine=engine, fused_plan=loaded.fused
        ).run(loaded.inputs).outputs
        for engine in ENGINES
    }
