"""The four workloads: ``cold``, ``batch``, ``serve`` and ``http``.

Each run follows the same order:

1. set up several times (median reported as ``setup_s``), every time
   from a fresh, private, empty artifact cache;
2. a correctness gate, before anything is timed;
3. the untraced measurement, which gives every end-to-end metric;
4. with ``--trace 1`` only: a traced repetition plus short probes of
   the layers the workload's own phase does not reach, which give the
   per-layer metrics, their self times and the tracing overhead.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import math
import os
import pickle
import time

from repro.runner.cache import configure_cache
from repro.serve import BatchPolicy, InferenceService, build_served_program
from repro.serve.http import start_http_server
from repro.verify import diff_check_dag

from core import (
    HOST, LAYERS, Spans, check_exact_record, fast, gc_paused, geomean, log,
    median, peak_rss_mb, quantile, weighted_quantile,
)
from loads import (
    HTTP_ROWS, SERVE_RATE, ServerProcess, closed_loop, expected_matches,
    http_layer_metrics, open_loop, schedule, serve_layer_metrics, window_ms,
)
from stack import (
    BATCH, ENGINES, CacheDirs, build_dags, engine_outputs,
    fused_bytes_per_row, plan_image_bytes, programs, round_medians,
    rows_per_s, run_pass, same_outputs, time_sweeps,
)

#: Setups per run; the median is ``setup_s``.
SETUP_REPS = 3
#: The ``cold`` workload's set-ups (it only builds the DAGs).
COLD_SETUP_REPS = 7
#: Warm reloads per cold pass; they give ``warm_nodes_per_s``.
WARM_REPS = 5
#: The ``cold`` workload's warm reloads per pass (they are slow there,
#: so it makes fewer of them).
COLD_WARM_REPS = 2
#: Seconds of one ``cold`` iteration (a cold pass, its warm reloads and
#: a sweep sample); a run makes a fixed number of them for its
#: ``--seconds``, at least two, so every run does the same work.
COLD_ITER_S = 10.0
#: Seconds of steady sweeps (both classes) per sample outside
#: ``batch``.  Sweep speed drifts within seconds on a shared host, so
#: the samples are spread over the run: after each set-up and before
#: and after the traffic (``serve``, ``http``), or after each pass.
SWEEP_SAMPLE_S = 1.0
#: Seconds of one window of ``batch`` sweeps (every case, every
#: simulator); each window gives one sample of the latency and rate.
BATCH_WINDOW_S = 2.0
#: Seconds of each layer probe in a traced run.
PROBE_S = 1.0
#: Headline metrics for which a larger traced value is an overhead.
LOWER_IS_BETTER = ("p50_ms",)
COMPILE_STEPS = (
    "binarize", "decompose", "map", "schedule", "reorder", "spill",
    "regalloc",
)


class Run:
    """What one run measured and how many of its checks failed."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.spans = Spans()
        self.dirs = CacheDirs()
        self.progs = programs(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.e2e: dict[str, tuple[float, str]] = {}
        self.layer: dict[str, tuple[float, str]] = {}
        #: Timings of every cold and warm pass (artifacts dropped).
        self.cold_passes = []
        self.warm_passes = []
        #: Exact counts and sizes from the first cold pass.
        self.static: dict = {}
        #: Sweep times by class, case and simulator instance.
        self.sweeps: dict = {}
        # Private default cache for everything not handed a cache
        # explicitly (the oracle, the plan pool, the codegen source).
        configure_cache(self.dirs.root / "default")

    def check(self, ok: bool, what: str, n: int = 1) -> None:
        self.attempted += n
        if not ok:
            self.failed += n
            log(f"MISMATCH: {what}")

    # -- the cold path ---------------------------------------------------
    def cold_and_warm(self, blob: bytes, warm_reps: int = WARM_REPS):
        """One cold pass into a fresh cache, then ``warm_reps`` warm
        reloads on fresh DAG objects; checks warm == cold bitwise, a
        full warm hit ratio, and identical exact counts.  Returns the
        cache, the cold pass and the last warm pass (``None`` without
        reloads)."""
        cache = self.dirs.fresh(self.spans)
        with gc_paused():
            cold = run_pass(self.progs, blob, cache, self.spans, self.seed)
        warms = []
        for _ in range(warm_reps):
            if warms:
                # Only the last warm pass's artifacts are kept.
                warms[-1] = dataclasses.replace(warms[-1], loaded=[])
            with gc_paused():
                warm = run_pass(
                    self.progs, blob, cache, self.spans, self.seed)
            for c, w in zip(cold.loaded, warm.loaded):
                self.check(
                    same_outputs(c.outputs, w.outputs),
                    f"warm-loaded {c.prog.name} differs from cold",
                )
            self.check(warm.misses == 0, "warm pass missed the cache")
            warms.append(warm)
        counts = cold.counts()
        if self.static:
            self.check(
                counts == self.static["counts"],
                "exact compiler counts differ between cold passes",
            )
        else:
            self.static = {
                "counts": counts,
                "nodes": cold.nodes,
                "nodes_by_program": {
                    x.prog.name: x.nodes for x in cold.loaded},
                "plan_bytes": plan_image_bytes(x.plan for x in cold.loaded),
                "levels": sum(x.fused.num_levels for x in cold.loaded),
                "bytes_per_row": sum(
                    fused_bytes_per_row(x.fused) for x in cold.loaded),
            }
        # Keep only timings of passes; their artifacts would pile up.
        # The last warm pass is what later sweeps use; its compile
        # results (many small objects) would only slow the collector.
        last = None
        if warms:
            last = dataclasses.replace(warms[-1], loaded=[
                dataclasses.replace(x, result=None)
                for x in warms[-1].loaded])
        self.cold_passes.append(dataclasses.replace(cold, loaded=[]))
        self.warm_passes += [dataclasses.replace(p, loaded=[]) for p in warms]
        return cache, cold, last

    def setup(self, prepare=None, release=None, sweep=False):
        """``SETUP_REPS`` set-ups; keeps the last one's artifacts.

        ``prepare(cache)`` is the workload's own part of a set-up; its
        result is returned, and ``release()`` undoes all but the last.
        With ``sweep``, each set-up is followed (untimed) by a sweep
        sample.
        """
        times = []
        state = None
        for rep in range(SETUP_REPS):
            if rep and release is not None:
                release()
            HOST.tick()
            t = time.perf_counter()
            cache, _cold, warm = self.cold_and_warm(build_dags(self.progs))
            if prepare is not None:
                state = prepare(cache)
            done = time.perf_counter()
            HOST.tick()
            times.append(HOST.scaled(t, done))
            if sweep:
                self.sample_sweeps(warm)
        self.e2e["setup_s"] = (median(times), "s")
        return warm, state

    # -- shared metrics ----------------------------------------------------
    def path_metrics(self) -> None:
        """Cold/warm throughput from every pass this run made: all
        nodes over the sum of each program's fast time."""
        nodes = self.static["nodes"]
        self.e2e["cold_nodes_per_s"] = (
            nodes / sum(program_times(self.cold_passes).values()),
            "nodes/s")
        self.e2e["warm_nodes_per_s"] = (
            nodes / sum(program_times(self.warm_passes).values()),
            "nodes/s")
        self.e2e["sim_cycles"] = (
            float(sum(c["cycles_per_row"]
                      for c in self.static["counts"].values())), "cycles")

    def class_sims(self, warm, kind: str):
        return [x for x in warm.loaded if x.prog.kind == kind]

    def sample_sweeps(self, warm, seconds: float = SWEEP_SAMPLE_S,
                      rounds: int = 2) -> None:
        """One sample of steady auto-engine sweeps over the deep and
        the wide programs; ``report_sweeps`` pools the samples."""
        for kind in ("deep", "wide"):
            times = time_sweeps(
                self.class_sims(warm, kind), seconds / 2, self.spans,
                rounds=rounds)
            acc = self.sweeps.setdefault(kind, [[] for _ in times])
            for per_round, case in zip(acc, times):
                per_round.extend(round_medians(case))

    def report_sweeps(self) -> None:
        for kind, acc in self.sweeps.items():
            self.e2e[f"{kind}_rows_per_s"] = (
                geomean(rows_per_s(per_round) for per_round in acc),
                "rows/s")

    def engine_gate(self, warm) -> None:
        """Every engine bitwise equal to ``step`` on every program."""
        for x in warm.loaded:
            outs = engine_outputs(x)
            for engine in ENGINES[1:]:
                self.check(
                    same_outputs(outs["step"], outs[engine]),
                    f"{engine} differs from step on {x.prog.name}",
                )

    def served(self, cache) -> dict:
        """Serving-path programs, warm-loaded through the plan pool's
        build from ``cache`` (the deep and wide programs)."""
        configure_cache(cache.directory)
        return {
            p.name: build_served_program(p.spec)
            for p in self.progs if p.kind in ("deep", "wide")
        }

    def finish(self) -> dict:
        counts = dict(self.static["counts"])
        counts["sim_cycles"] = self.e2e["sim_cycles"][0]
        drift = check_exact_record(self.workload, self.seed, counts)
        self.check(not drift, f"exact counts differ from an earlier "
                   f"run of the same code and seed: {drift}")
        self.e2e["peak_rss_mb"] = (peak_rss_mb(), "MB")
        self.e2e["ok_ratio"] = (
            (self.attempted - self.failed) / self.attempted, "ratio")
        return self.e2e

    # -- traced run --------------------------------------------------------
    def trace_section(self, main, probes, headline: str) -> None:
        """Repeat set-up and ``main`` under spans, then ``probes``;
        derive every per-layer metric.  ``main`` returns its value of
        the end-to-end metric ``headline``, which gives the overhead."""
        spans = self.spans
        spans.start()
        with spans.span("workloads"):
            blob = build_dags(self.progs)
        cache, cold, warm = self.cold_and_warm(blob)
        traced_headline = main(cache, warm)
        for probe in probes:
            probe(cache, warm)
        spans.stop()
        selfs, uncovered, wall = spans.self_times()
        cold_selfs, _, _ = spans.self_times(cold.start_ns, cold.end_ns)
        L = self.layer
        for layer in LAYERS:
            L[f"self.{layer}_s"] = (selfs[layer], "s")
        L["self.uncovered_s"] = (uncovered, "s")
        L["trace.wall_s"] = (wall, "s")
        untraced = self.e2e[headline][0]
        change = (traced_headline - untraced) / untraced * 100.0
        L["trace.overhead_pct"] = (
            change if headline in LOWER_IS_BETTER else -change, "%")
        log(f"trace: {headline} untraced {untraced:.6g} traced "
            f"{traced_headline:.6g}")
        L["sim.plan.lower_s"] = (cold_selfs["sim.plan"], "s")
        L["sim.fused.fuse_s"] = (cold_selfs["sim.fused"], "s")
        self.compile_layer()

    def compile_layer(self) -> None:
        L = self.layer
        colds = self.cold_passes
        L["compiler.compile_s"] = (
            median(p.compile_steps["compile"] for p in colds), "s")
        for step in COMPILE_STEPS:
            L[f"compiler.{step}_s"] = (
                median(p.compile_steps[step] for p in colds), "s")
        counts = self.static["counts"].values()
        for name in ("instructions", "bank_conflicts", "spills", "nops"):
            L[f"compiler.{name}"] = (
                float(sum(c[name] for c in counts)), "count")
        L["runner.cache.put_s"] = (
            median(p.cache_put_s for p in colds), "s")
        L["runner.cache.get_s"] = (
            median(p.cache_get_s for p in self.warm_passes), "s")
        hits = sum(p.hits for p in self.warm_passes)
        gets = hits + sum(p.misses for p in self.warm_passes)
        L["runner.cache.hit_ratio"] = (hits / gets, "ratio")
        L["runner.imageio.plan_bytes"] = (
            float(self.static["plan_bytes"]), "bytes")
        L["sim.fused.levels"] = (float(self.static["levels"]), "count")
        L["sim.fused.bytes_per_row"] = (
            float(self.static["bytes_per_row"]), "bytes")

    def engine_probe(self, _cache, warm, seconds: float = 0.3) -> None:
        for kind in ("deep", "wide"):
            members = self.class_sims(warm, kind)
            for engine in ENGINES:
                times = time_sweeps(members, seconds, self.spans, engine)
                self.layer[f"sim.batch.{engine}.{kind}_rows_per_s"] = (
                    geomean(rows_per_s(round_medians(t)) for t in times),
                    "rows/s")

    def serve_probe(self, cache, _warm) -> None:
        served = self.served(cache)
        outcomes, _ = asyncio.run(self.open_loop(served, PROBE_S, 7))
        self.check_served(outcomes, served, None)
        self.fill(serve_layer_metrics(outcomes))

    def http_probe(self, cache, _warm) -> None:
        served = self.served(cache)

        async def probe():
            service = InferenceService()
            for program in served.values():
                service.install(self.traced(program))
            async with service:
                server = await start_http_server(service, port=0)
                host, port = server.sockets[0].getsockname()[:2]
                try:
                    return await self.closed_loop(
                        host, port, served, PROBE_S, 7)
                finally:
                    server.close()
                    await server.wait_closed()

        outcomes, _ = asyncio.run(probe())
        self.check_served(outcomes, served, HTTP_ROWS)
        self.fill(http_layer_metrics(outcomes, widths(served), self.spans))

    def fill(self, metrics: dict) -> None:
        """Add a probe's metrics without overriding the workload's own."""
        for name, value in metrics.items():
            self.layer.setdefault(name, value)

    # -- traffic helpers ---------------------------------------------------
    def traced(self, program):
        """``program`` with its batch execution recorded as a span."""
        execute = program.execute_rows
        spans = self.spans

        def run(rows):
            with spans.span("sim.batch"):
                return execute(rows)

        return dataclasses.replace(program, _executor=run)

    async def open_loop(self, served, seconds: float, salt: int):
        service = InferenceService()
        for program in served.values():
            service.install(self.traced(program))
        arrivals = schedule(
            list(served), seconds, SERVE_RATE, self.seed * 16 + salt
        ).arrivals
        async with service:
            return await open_loop(
                service, arrivals, widths(served), self.spans)

    async def closed_loop(self, host, port, served, seconds, salt):
        # Enough arrivals for any plausible request rate; the loop
        # stops on time, not when the feed runs dry.
        arrivals = schedule(
            list(served), 1.0, 20000.0, self.seed * 16 + salt).arrivals
        return await asyncio.wait_for(
            closed_loop(host, port, arrivals, widths(served),
                        lanes(), seconds, self.spans),
            timeout=seconds + 60.0,
        )

    def check_served(self, outcomes, served, rows) -> None:
        bad = expected_matches(outcomes, served, rows)
        self.attempted += len(outcomes)
        self.failed += bad
        if bad:
            log(f"MISMATCH: {bad} of {len(outcomes)} served responses")

    def serve_traffic(self, served, seconds: float, salt: int):
        """The open loop, with the host probed just before and just
        after it, never during it (a probe would stall the event
        loop).  Returns ``(outcomes, wall_s, speed)``, ``speed`` in
        reference seconds per wall second."""
        HOST.tick()
        t = time.perf_counter()
        outcomes, wall = asyncio.run(self.open_loop(served, seconds, salt))
        done = time.perf_counter()
        HOST.tick()
        return outcomes, wall, HOST.scaled(t, done) / (done - t)

    def traffic_metrics(self, outcomes, wall: float, speed=None) -> None:
        """Latency and rows per second of served traffic; ``speed`` as
        for ``served_ms``."""
        for name, q in (("p50_ms", 0.5), ("p99_ms", 0.99)):
            value = served_ms(outcomes, q, speed)
            self.e2e[name] = (value, "ms")
        rows = sum(o.rows for o in outcomes if o.status == "ok")
        self.e2e["rows_per_s"] = (rows / wall, "rows/s")
        log(f"{len(outcomes)} requests, {rows} rows in {wall:.3f}s")


def served_ms(outcomes, q: float, speed=None) -> float:
    """The ``q`` quantile of served latency (``loads.window_ms``).  With
    ``speed`` (reference seconds per wall second), the part beyond the
    batcher's fixed ``max_wait`` is scaled to the reference host speed;
    the wait itself is a timer, which runs at any host speed."""
    value = window_ms(outcomes, q)
    wait = BatchPolicy().max_wait_s * 1e3
    if speed is None or value <= wait:
        return value
    log(f"p{q * 100:g}: {value:.6g} ms at the host's speed")
    return wait + (value - wait) * speed


def program_times(passes) -> dict[str, float]:
    """Each program's fast time (see ``core.fast``) over ``passes``."""
    return {
        name: fast([p.program_seconds[name] for p in passes])
        for name in passes[0].program_seconds
    }


def widths(served: dict) -> dict:
    return {k: p.num_inputs for k, p in served.items()}


def lanes() -> int:
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------
def cold(run: Run, trace: bool) -> None:
    times = []
    for _ in range(COLD_SETUP_REPS):
        with gc_paused():
            HOST.tick()
            t = time.perf_counter()
            blob = build_dags(run.progs)
            done = time.perf_counter()
            HOST.tick()
            times.append(HOST.scaled(t, done))
    run.e2e["setup_s"] = (median(times), "s")
    config = run.progs[0].spec.config()
    for prog, dag in zip(run.progs, pickle.loads(blob)):
        report = diff_check_dag(dag, config, value_seed=run.seed)
        run.check(report.mismatch is None,
                  f"oracle on {prog.name}: {report.mismatch}")
    for _ in range(max(2, math.ceil(run.seconds / COLD_ITER_S))):
        _cache, _cold, warm = run.cold_and_warm(blob, COLD_WARM_REPS)
        del _cache, _cold
        run.sample_sweeps(warm, 3 * SWEEP_SAMPLE_S, rounds=3)
    run.path_metrics()
    run.report_sweeps()
    # Latency of each program's cold path, weighted by its nodes: the
    # wait a unit of work sees, so the percentiles sit on the large
    # Table-I programs, not on whichever small program happens to be
    # the median.
    latency = program_times(run.cold_passes)
    nodes = run.static["nodes_by_program"]
    weighted = [(latency[k] * 1e3, nodes[k]) for k in latency]
    run.e2e["p50_ms"] = (weighted_quantile(weighted, 0.5), "ms")
    run.e2e["p99_ms"] = (weighted_quantile(weighted, 0.99), "ms")
    run.e2e["rows_per_s"] = (
        BATCH * len(run.progs) / sum(latency.values()), "rows/s")
    if trace:
        def main(_cache, _warm):
            traced = run.cold_passes[-1].program_seconds
            return run.static["nodes"] / sum(traced.values())

        run.trace_section(
            main, [run.engine_probe, run.serve_probe, run.http_probe],
            "cold_nodes_per_s")


def batch(run: Run, trace: bool) -> None:
    warm, _ = run.setup()
    run.engine_gate(warm)
    run.path_metrics()

    def measure(warm, seconds):
        """Sweeps of every program for ``seconds``; returns the rates
        by class and, for the run's windows (one round over every
        case and simulator each), the fast quartiles of their sweep
        latency p50 and p99 and of their rows per second."""
        rounds = max(8, int(seconds / BATCH_WINDOW_S))
        times = time_sweeps(warm.loaded, seconds, run.spans, rounds=rounds)
        rates = {x.prog.kind: [] for x in warm.loaded}
        for x, case in zip(warm.loaded, times):
            rates[x.prog.kind].append(rows_per_s(round_medians(case)))
        windows = [
            [t * 1e3 for case in times for inst in case for t in inst[r]]
            for r in range(rounds)
        ]
        log(f"{sum(map(len, windows))} sweeps of {BATCH} rows")
        return (
            rates,
            fast([quantile(w, 0.5) for w in windows]),
            fast([quantile(w, 0.99) for w in windows]),
            BATCH * 1e3 / fast([sum(w) / len(w) for w in windows]),
        )

    rates, p50, p99, total = measure(warm, run.seconds)
    run.e2e["deep_rows_per_s"] = (geomean(rates["deep"]), "rows/s")
    run.e2e["wide_rows_per_s"] = (geomean(rates["wide"]), "rows/s")
    run.e2e["p50_ms"] = (p50, "ms")
    run.e2e["p99_ms"] = (p99, "ms")
    run.e2e["rows_per_s"] = (total, "rows/s")
    if trace:
        run.trace_section(
            lambda _c, w: measure(w, run.seconds)[3],
            [run.engine_probe, run.serve_probe, run.http_probe],
            "rows_per_s")


def serve(run: Run, trace: bool) -> None:
    warm, served = run.setup(run.served, sweep=True)
    run.path_metrics()
    # Gate and warm-up: a short burst, every response checked.
    gate, _ = asyncio.run(run.open_loop(served, 0.5, 1))
    run.check_served(gate, served, None)
    run.sample_sweeps(warm)
    gc.collect()
    outcomes, wall, speed = run.serve_traffic(served, run.seconds, 2)
    run.check_served(outcomes, served, None)
    run.traffic_metrics(outcomes, wall, speed)
    run.sample_sweeps(warm)
    run.report_sweeps()
    if trace:
        def main(cache, _warm):
            traced_served = run.served(cache)
            outs, _, speed = run.serve_traffic(
                traced_served, run.seconds, 2)
            run.check_served(outs, traced_served, None)
            run.layer.update(serve_layer_metrics(outs))
            return served_ms(outs, 0.5, speed)

        run.trace_section(main, [run.engine_probe, run.http_probe], "p50_ms")


def http(run: Run, trace: bool) -> None:
    procs: list[ServerProcess] = []

    def start(cache):
        served = run.served(cache)
        procs.append(ServerProcess(list(served), cache.directory))
        return served

    def stop():
        while procs:
            procs.pop().stop()

    try:
        warm, served = run.setup(start, stop, sweep=True)
        run.path_metrics()
        host, port = procs[-1].host, procs[-1].port
        gate, _ = asyncio.run(run.closed_loop(host, port, served, 0.3, 1))
        run.check_served(gate, served, HTTP_ROWS)
        run.sample_sweeps(warm)
        gc.collect()
        outcomes, wall = asyncio.run(
            run.closed_loop(host, port, served, run.seconds, 2))
        run.check_served(outcomes, served, HTTP_ROWS)
        run.traffic_metrics(outcomes, wall)
        run.sample_sweeps(warm)
        run.report_sweeps()
        if trace:
            def main(_cache, _warm):
                outs, wall = asyncio.run(
                    run.closed_loop(host, port, served, run.seconds, 2))
                run.check_served(outs, served, HTTP_ROWS)
                run.layer.update(serve_layer_metrics(outs))
                run.layer.update(
                    http_layer_metrics(outs, widths(served), run.spans))
                return sum(o.rows for o in outs if o.status == "ok") / wall

            run.trace_section(
                main, [run.engine_probe, run.serve_probe], "rows_per_s")
    finally:
        stop()


WORKLOADS = {"cold": cold, "batch": batch, "serve": serve, "http": http}


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns ``(correct, attempted, failed,
    metrics)`` where metrics map name -> (value, unit)."""
    run = Run(workload, seed, seconds)
    try:
        WORKLOADS[workload](run, trace)
        e2e = run.finish()
    finally:
        run.dirs.close()
    metrics = run.layer if trace else e2e
    return run.failed == 0, run.attempted, run.failed, metrics
