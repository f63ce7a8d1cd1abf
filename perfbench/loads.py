"""Request drivers: an open loop over an in-process service and a
closed loop over HTTP, plus the ``repro serve`` subprocess.

The open loop times every request from the moment it was due, so a
stall in the generator or the service shows up in the latency of the
requests queued behind it, and it records how late each send was.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from repro.serve.http import HttpClient, parse_infer_body
from repro.serve.loadtest import request_inputs
from repro.workloads.traffic import multi_tenant

from core import ROOT, Spans, fast, quantile
from stack import same_bits

#: Offered load of the open loop: well below the knee on a 2-CPU host,
#: where the p99 of a 10 s run stays put (at 800 req/s it swings 7x).
SERVE_RATE = 400.0
#: Rows per HTTP request: enough that the wire, not the round trip
#: count, dominates, and few enough for about a thousand requests in
#: a 10 s run, which a p99 needs.
HTTP_ROWS = 24
#: Most rows one reference execution in the correctness check covers.
CHECK_ROWS = 64


@dataclass
class Outcome:
    """One request as the client saw it."""

    program: str
    value_seed: int
    status: str
    outputs: dict | None
    latency_s: float  # from due time (open loop) or send (closed loop)
    late_s: float  # how late the generator sent it
    queue_s: float  # server-side queue wait
    total_s: float  # server-side submission to response
    batch: int  # rows in the micro-batch it rode
    rows: int
    at_s: float  # when it was due (open loop) or sent (closed loop)


def schedule(programs: list[str], seconds: float, rate: float, seed: int):
    """A seeded multi-tenant Poisson schedule lasting ``seconds``."""
    return multi_tenant(
        max(int(rate * seconds), 1), rate=rate, seed=seed, programs=programs
    )


async def open_loop(service, arrivals, widths: dict, spans: Spans):
    """Send every arrival at its due time; returns ``(outcomes, wall_s)``."""
    loop = asyncio.get_running_loop()
    rows = [request_inputs(widths[a.program], a.value_seed) for a in arrivals]
    outcomes: list[Outcome] = []

    async def one(arrival, row, due, late):
        token = spans.begin("serve")
        resp = await service.submit(arrival.program, row, tenant=arrival.tenant)
        spans.end(token)
        outcomes.append(Outcome(
            arrival.program, arrival.value_seed, resp.status, resp.outputs,
            loop.time() - due, late, resp.queue_s, resp.total_s,
            resp.batch, resp.rows, arrival.time_s,
        ))

    tasks = []
    start = loop.time() + 0.005
    for arrival, row in zip(arrivals, rows):
        due = start + arrival.time_s
        # Spin rather than sleep until the send is due: an idle vCPU
        # of a shared host wakes up milliseconds late at some times
        # and not at others, which would swamp the p99.  sleep(0)
        # still lets every ready callback of the service run.
        while loop.time() < due:
            await asyncio.sleep(0)
        tasks.append(asyncio.create_task(
            one(arrival, row, due, max(loop.time() - due, 0.0))
        ))
    await asyncio.gather(*tasks)
    return outcomes, loop.time() - start


async def closed_loop(
    host: str, port: int, arrivals, widths: dict, lanes: int,
    seconds: float, spans: Spans,
):
    """``lanes`` keep-alive clients, each sending its next multi-row
    request as soon as the previous one returns, for ``seconds``.
    Returns ``(outcomes, wall_s)``."""
    feed = iter(arrivals)
    outcomes: list[Outcome] = []
    t0 = time.perf_counter()
    end = t0 + seconds

    async def lane() -> None:
        client = HttpClient(host, port)
        ready = time.perf_counter()
        try:
            while time.perf_counter() < end:
                arrival = next(feed)
                x = request_inputs(
                    widths[arrival.program], arrival.value_seed, HTTP_ROWS
                ).tolist()
                sent = time.perf_counter()
                token = spans.begin("serve.http")
                doc = await client.infer(
                    arrival.program, x, tenant=arrival.tenant
                )
                spans.end(token)
                done = time.perf_counter()
                outputs = doc.get("outputs")
                outcomes.append(Outcome(
                    arrival.program, arrival.value_seed, doc.get("status"),
                    None if outputs is None
                    else {int(k): v for k, v in outputs.items()},
                    done - sent, sent - ready,
                    doc.get("queue_ms", 0.0) / 1e3,
                    doc.get("total_ms", 0.0) / 1e3,
                    doc.get("batch", 0), doc.get("rows", 0), sent - t0,
                ))
                ready = done
        finally:
            await client.close()

    await asyncio.gather(*(lane() for _ in range(lanes)))
    return outcomes, time.perf_counter() - t0


def expected_matches(outcomes: list[Outcome], served: dict, rows) -> int:
    """Count outcomes whose outputs differ bitwise from a direct
    ``ServedProgram.execute_rows`` of the same rows (non-ok responses
    count as mismatches).  References run in chunks of at most
    ``CHECK_ROWS`` rows, a batch width the service itself uses, so the
    check leaves no outsized state behind in the shared simulator."""
    bad = 0
    by_prog: dict[str, list[Outcome]] = {}
    for o in outcomes:
        if o.status != "ok":
            bad += 1
        else:
            by_prog.setdefault(o.program, []).append(o)
    per_chunk = max(CHECK_ROWS // (rows or 1), 1)
    for name, outs in by_prog.items():
        program = served[name]
        for lo in range(0, len(outs), per_chunk):
            chunk = outs[lo:lo + per_chunk]
            mats = [
                request_inputs(program.num_inputs, o.value_seed, rows)
                .reshape(rows or 1, -1)
                for o in chunk
            ]
            expect = program.execute_rows(list(np.concatenate(mats)))
            at = 0
            for o, m in zip(chunk, mats):
                span = slice(at, at + m.shape[0])
                at += m.shape[0]
                bad += not (o.outputs.keys() == expect.keys() and all(
                    same_bits(np.atleast_1d(np.asarray(o.outputs[k], float)),
                              expect[k][span])
                    for k in expect
                ))
    return bad


def window_ms(outcomes: list[Outcome], q: float,
              per_window: int = 1000) -> float:
    """The ``q`` quantile of ok latencies, read per window of
    ``per_window`` consecutive requests (in send order; 1000 leaves ten
    requests beyond a p99): the fast quartile of the windows' values
    (see ``core.fast``), so a slow spell of the host moves the windows
    it falls in, not the figure.  With fewer than two windows' worth
    it is the plain quantile."""
    ok = sorted((o.at_s, o.latency_s * 1e3) for o in outcomes
                if o.status == "ok")
    lat = [v for _, v in ok]
    windows = len(lat) // per_window
    if windows < 2:
        return quantile(lat, q)
    return fast([
        quantile(lat[i * per_window:(i + 1) * per_window], q)
        for i in range(windows)
    ])


def serve_layer_metrics(outcomes: list[Outcome]) -> dict:
    """Queue wait, execution and batch size as the service reported
    them, plus generator lateness and failure counts."""
    ok = [o for o in outcomes if o.status == "ok"]
    queue = [o.queue_s * 1e3 for o in ok]
    exec_ = [(o.total_s - o.queue_s) * 1e3 for o in ok]
    return {
        "serve.batcher.queue_ms.p50": (quantile(queue, 0.5), "ms"),
        "serve.batcher.queue_ms.p99": (quantile(queue, 0.99), "ms"),
        "serve.batcher.rows_per_batch": (
            float(np.mean([o.batch for o in ok])), "rows"),
        "serve.exec_ms.p50": (quantile(exec_, 0.5), "ms"),
        "serve.exec_ms.p99": (quantile(exec_, 0.99), "ms"),
        "loadgen.late_ms.p99": (
            quantile([o.late_s * 1e3 for o in outcomes], 0.99), "ms"),
        "serve.rejected": (sum(o.status == "rejected" for o in outcomes),
                           "count"),
        "serve.timeouts": (sum(o.status == "timeout" for o in outcomes),
                           "count"),
        "serve.errors": (sum(o.status == "error" for o in outcomes), "count"),
    }


def http_layer_metrics(outcomes: list[Outcome], widths: dict,
                       spans: Spans) -> dict:
    """Wire time (client round trip minus the server's own total),
    body size, and ``parse_infer_body`` on this run's own bodies."""
    ok = [o for o in outcomes if o.status == "ok"]
    wire = [(o.latency_s - o.total_s) * 1e3 for o in ok]
    bodies = [
        json.dumps({
            "program": o.program,
            "inputs": request_inputs(
                widths[o.program], o.value_seed, HTTP_ROWS).tolist(),
            "tenant": "default",
        }).encode()
        for o in ok[:200]
    ]
    parse = []
    for body in bodies:
        token = spans.begin("serve.http")
        t = time.perf_counter()
        parse_infer_body(body)
        parse.append(time.perf_counter() - t)
        spans.end(token)
    return {
        "serve.http.wire_ms.p50": (quantile(wire, 0.5), "ms"),
        "serve.http.parse_ms": (quantile(parse, 0.5) * 1e3, "ms"),
        "serve.http.body_bytes": (
            float(np.median([len(b) for b in bodies])), "bytes"),
    }


class ServerProcess:
    """``repro serve`` in a subprocess on a private cache directory."""

    def __init__(self, names: list[str], cache_dir) -> None:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.pop("REPRO_NO_CACHE", None)
        env.pop("REPRO_CACHE_DIR", None)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--programs", ",".join(names), "--port", "0",
             "--cache-dir", str(cache_dir)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        )
        # A server that hangs before listening is caught by the run's
        # own time limit; one that exits ends the loop.
        for line in self.proc.stdout:
            if line.startswith("serving ") and "http://" in line:
                addr = line.split("http://", 1)[1].split()[0]
                host, port = addr.rsplit(":", 1)
                self.host, self.port = host, int(port)
                return
        self.stop()
        raise RuntimeError("repro serve exited before listening")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
