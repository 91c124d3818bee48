"""Workload ``serve-hit``: the daemon's steady-state hit path, open loop.

Set-up starts ``repro serve --socket … --cache-db …`` (default settings) in
a subprocess and sends it a hot set of ``HOT_SET`` ``ConfigSpec`` bodies,
each a seed plus one Fig.-6 sweep knob, from ``serve_hit_pool.json``: the
pool's first straggler (a config whose Stage 3 holds its micro-batch back)
and 63 others drawn by the workload seed, so set-up time does not follow
the draw.  Those sends are misses (batched solves plus sqlite cache
writes); ``setup_s`` is the time from spawning the daemon to the last of
them answered, median of three daemons, each with a fresh cache database.
The last daemon serves the load.

The hot set fits the daemon's spec memo (4096) and sqlite cache (256), so
every later request is a hit.  Load comes from this process over one
connection, open loop: request ``j`` of a window is due at ``j / rate`` and
its latency is timed from that due time, so a stall delays every request
behind it.  An *op* is one request.  After a warm-up window of
``WARMUP_SAMPLES`` requests at the light rate come the measured windows,
each preceded and followed by the daemon's ``stats`` op:

* light — ``LIGHT_SAMPLES`` requests at ``LIGHT_RPS`` req/s; their p50, p90
  and p99 are reported.  ``throughput_per_s`` is the
  hit-path capacity: these requests ÷ the CPU seconds the daemon spent
  while answering them, i.e. hits one daemon core answers per second;
* ladder — fixed rates ``HEAVY_RPS · LADDER_FACTOR**k`` (8 % steps), each
  held for ``MIN_SAMPLES`` requests, climbing while a step meets the limit
  (p99 ≤ ``LIMIT_MS`` with every request answered ok, and a backlog at the
  last send under ``LIMIT_MS`` of work; a step is held up to
  ``LADDER_TRIES`` times, and the climb stops after two steps in a row
  miss, or once ``--seconds`` have passed since the warm-up began).  The
  highest rate that met it is reported as ``max_rps``, and the heavy
  rate's p99 as ``hi_p99_ms``; 0 when no rate met it, which a slow spell
  of the host can cause with every reply correct, so it is a figure, not
  a check.  The warm-up and light windows have fixed sizes; ``--seconds``
  bounds only the ladder.

``max_rps`` and the light latencies are reported alongside, not as
end-to-end metrics: on a shared 2-core host the same code gave ``max_rps``
from 1428 to 2856 req/s over ten runs, and the light p50 ranged from 1.0
to 4.3 ms between daemons started a minute apart (p90/p99 more), because
the host's wake-up and scheduling delays come and go by the minute.  The
daemon's CPU time per request does not carry them: over ten seeds its
capacity spread 3-9 % (IQR/median) in every round measured.

``setup_s`` and ``throughput_per_s`` are raw here, unlike the in-process
workloads': host-speed probes (``common.probe_ms``) in this process do
not track the daemon's core, and taking these two at the probes'
reference speed widened their spread over five seeds (set-up 0.16 to
0.26, capacity 0.11 to 0.13).  Pinning the daemon to a core next to its
probes is no way out: a process pinned before it imports numpy runs
OpenBLAS with one thread instead of two.

Checks: every reply is ``ok`` with ``meta.cache == "hit"`` and result bytes
equal to the set-up answer for that spec; the set-up answers were misses;
the ``stats`` counters show a hit share of 1.0.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

import numpy as np

from common import (
    SETUP_REPEATS,
    Outcome,
    pid_cpu_seconds,
    pid_peak_rss_mb,
)

HOT_SET = 64
POOL_PATH = Path(__file__).resolve().parent / "serve_hit_pool.json"
LIGHT_RPS = 440.0
LIGHT_SAMPLES = 2000
WARMUP_SAMPLES = 500
HEAVY_RPS = 1050.0
LADDER_FACTOR = 1.08
LADDER_STEPS = 40
LADDER_TRIES = 2
MIN_SAMPLES = 1000
LIMIT_MS = 50.0
REPLY_WAIT_S = 5.0
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
READ_LIMIT = 1 << 22

#: What follows the id in a hit reply (the daemon writes sorted-key JSON).
_HIT_PREFIX = b', "meta": {"cache": "hit"}, "ok": true, "protocol": 1, "result": '


def hot_set(seed: int) -> List[Dict[str, float]]:
    """``HOT_SET`` distinct ConfigSpec bodies drawn from ``seed``.

    The pool's first straggler goes first, so the same straggler lands in
    the first micro-batch of every set-up; the rest are drawn from the
    others.
    """
    pool = json.loads(POOL_PATH.read_text())
    rng = np.random.default_rng(seed)
    straggler = pool["stragglers"][0]
    others = rng.choice(len(pool["easy"]), HOT_SET - 1, replace=False)
    return [straggler] + [pool["easy"][int(i)] for i in others]


class Daemon:
    """One ``repro serve`` subprocess on a unix socket with a fresh cache db."""

    def __init__(self, work: Path, label: str,
                 spans: Optional[Path] = None) -> None:
        root = Path.cwd()
        # Relative paths keep the socket path under the unix-socket limit.
        self.socket = os.path.relpath(work / f"{label}.sock", root)
        db = os.path.relpath(work / f"{label}.db", root)
        args = ["serve", "--socket", self.socket, "--cache-db", db]
        if spans is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            here = Path(__file__).resolve().parent
            cmd = [sys.executable, str(here / "traced_serve.py"), str(spans),
                   *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        self.log = open(work / f"{label}.log", "wb")
        self.proc = subprocess.Popen(cmd, env=env, stdout=self.log,
                                     stderr=subprocess.STDOUT)

    async def connect(self) -> "Conn":
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.proc.returncode} at start"
                )
            try:
                reader, writer = await asyncio.open_unix_connection(
                    self.socket, limit=READ_LIMIT
                )
                return Conn(reader, writer)
            except (FileNotFoundError, ConnectionRefusedError):
                if time.monotonic() > deadline:
                    raise
                await asyncio.sleep(0.005)

    def peak_rss_mb(self) -> float:
        return pid_peak_rss_mb(self.proc.pid)

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; kill if it does not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        return self.proc.returncode


class Conn:
    """One NDJSON connection; replies are routed to their waiter by id."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader, self.writer = reader, writer
        self.waiters: Dict[bytes, object] = {}
        self.task = asyncio.get_running_loop().create_task(self._read())

    async def _read(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            line = await self.reader.readline()
            if not line:
                return
            now = loop.time()
            rid = line[8:line.index(b'"', 8)]
            waiter = self.waiters.pop(rid, None)
            if isinstance(waiter, asyncio.Future):
                if not waiter.done():  # a timed-out call cancelled it
                    waiter.set_result(line)
            elif waiter is not None:
                waiter.on_reply(rid, line, now)

    def send(self, rid: bytes, body: bytes, waiter: object) -> None:
        self.waiters[rid] = waiter
        self.writer.write(b'{"id": "' + rid + b'", ' + body)

    async def call(self, rid: bytes, body: bytes) -> bytes:
        future = asyncio.get_running_loop().create_future()
        self.send(rid, body, future)
        return await asyncio.wait_for(future, REPLY_WAIT_S * 4)

    async def stats(self, rid: str) -> Dict[str, object]:
        line = await self.call(rid.encode(), b'"op": "stats"}\n')
        return json.loads(line)["stats"]

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self.task.cancel()
        try:
            await self.task
        except asyncio.CancelledError:
            pass


def _solve_body(spec: Dict[str, float]) -> bytes:
    return b'"op": "solve", "spec": ' + json.dumps(spec).encode() + b"}\n"


class Window:
    """One open-loop window: schedule, replies, and their checks."""

    def __init__(self, label: str, rate: float, choices: List[int],
                 refs: List[bytes]) -> None:
        self.label, self.rate, self.choices, self.refs = (
            label, rate, choices, refs)
        n = len(choices)
        self.due = [0.0] * n
        self.latency = [float("inf")] * n
        self.late: List[float] = []
        self.received = self.ok = self.refused = self.errors = 0
        self.mismatched = 0
        self.backlog = 0

    def on_reply(self, rid: bytes, line: bytes, now: float) -> None:
        j = int(rid[rid.index(b"-") + 1:])
        self.received += 1
        end = 8 + len(rid) + 1  # past the id's closing quote
        if line.startswith(_HIT_PREFIX, end):
            self.latency[j] = (now - self.due[j]) * 1000.0
            if line[end + len(_HIT_PREFIX):-2] == self.refs[self.choices[j]]:
                self.ok += 1
            else:
                self.mismatched += 1
        elif b'"ok": true' in line:
            self.mismatched += 1  # answered, but not from the cache
            self.latency[j] = (now - self.due[j]) * 1000.0
        elif b'"ServerOverloaded"' in line:
            self.refused += 1
        else:
            self.errors += 1

    @property
    def failed(self) -> int:
        return len(self.choices) - self.ok

    def p(self, q: float) -> float:
        return np.percentile(self.latency, q)

    def meets_limit(self) -> bool:
        return (
            self.failed == 0
            and self.p(99) <= LIMIT_MS
            and self.backlog <= self.rate * LIMIT_MS / 1000.0
        )


async def _drive(conn: Conn, window: Window, bodies: List[bytes]) -> None:
    """Send on the window's schedule, then wait for the replies."""
    loop = asyncio.get_running_loop()
    prefix = window.label.encode() + b"-"
    start = loop.time() + 0.005
    n = len(window.choices)
    for j in range(n):
        due = start + j / window.rate
        window.due[j] = due
        # Coarse sleep, then yield to the loop (which reads replies) until
        # due: the loop's timer alone rounds sub-millisecond waits up.
        while True:
            wait = due - loop.time()
            if wait <= 0:
                break
            await asyncio.sleep(wait - 0.0015 if wait > 0.002 else 0)
        window.late.append((loop.time() - due) * 1000.0)
        conn.send(prefix + str(j).encode(), bodies[window.choices[j]], window)
        if conn.writer.transport.get_write_buffer_size() > 1 << 16:
            await conn.writer.drain()
    window.backlog = n - window.received
    deadline = loop.time() + REPLY_WAIT_S
    while window.received < n and loop.time() < deadline:
        await asyncio.sleep(0.002)


async def _setup(work: Path, label: str, specs: List[Dict[str, float]],
                 spans: Optional[Path] = None):
    """Spawn a daemon and answer the hot set; returns timing and answers."""
    t0 = time.perf_counter()
    daemon = Daemon(work, label, spans)
    try:
        conn = await daemon.connect()
        futures = []
        loop = asyncio.get_running_loop()
        for i, spec in enumerate(specs):
            future = loop.create_future()
            conn.send(f"s-{i}".encode(), _solve_body(spec), future)
            futures.append(future)
        lines = await asyncio.wait_for(asyncio.gather(*futures), 300.0)
    except BaseException:
        daemon.stop()
        raise
    elapsed = time.perf_counter() - t0
    refs, metas, misses = [], [], 0
    for line in lines:
        reply = json.loads(line)
        if not reply.get("ok"):
            raise RuntimeError(f"set-up solve failed: {reply.get('error')}")
        meta = reply.get("meta", {})
        misses += meta.get("cache") == "solved"
        metas.append(meta)
        refs.append(line[line.index(b'"result": ') + len(b'"result": '):-2])
    return daemon, conn, elapsed, refs, metas, misses


async def _window(conn: Conn, label: str, rate: float, samples: int,
                  rng: np.random.Generator, refs: List[bytes],
                  bodies: List[bytes]) -> tuple:
    window = Window(label, rate, [int(i) for i in rng.integers(
        0, len(refs), samples)], refs)
    before = await conn.stats(f"{label}-before")
    # The collector would pause this process's send and receive loop; keep
    # it out of the window so latencies are the daemon's, not the driver's.
    gc.collect()
    gc.disable()
    try:
        await _drive(conn, window, bodies)
    finally:
        gc.enable()
    after = await conn.stats(f"{label}-after")
    delta = {
        key: after[key] - before[key]
        for key in ("requests", "cache_hits", "shed", "errors")
    }
    return window, delta


async def _cpu_window(conn: Conn, daemon: Daemon, label: str,
                      rng: np.random.Generator, refs: List[bytes],
                      bodies: List[bytes]) -> tuple:
    """A light window timed by the daemon's CPU seconds; returns the
    window, its counter deltas, and those seconds."""
    before = pid_cpu_seconds(daemon.proc.pid)
    window, delta = await _window(conn, label, LIGHT_RPS, LIGHT_SAMPLES, rng,
                                  refs, bodies)
    return window, delta, pid_cpu_seconds(daemon.proc.pid) - before


def _record(out: Outcome, window: Window, delta: Dict[str, int]) -> float:
    """Book a window's requests and checks into ``out``; returns its hit
    share from the daemon's counters."""
    n = len(window.choices)
    out.attempted += n
    out.failed += window.failed
    out.check("replies are ok, byte-equal cache hits", window.failed == 0,
              f"{window.label}: {window.failed} of {n} not "
              f"({window.mismatched} mismatched, {window.refused} refused, "
              f"{window.errors} errors)")
    # The window's own two stats requests are counted by the daemon too.
    hit_share = delta["cache_hits"] / max(1, delta["requests"] - 1)
    out.check("hit share = 1.0", hit_share == 1.0,
              f"{window.label}: {hit_share:.4f}")
    out.report[window.label] = (
        f"{window.rate:.0f} req/s, n={n}, p50 {window.p(50):.3f} ms, "
        f"p99 {window.p(99):.3f} ms, late p99 "
        f"{np.percentile(window.late, 99):.3f} ms, backlog {window.backlog}, "
        f"failed {window.failed}"
    )
    return hit_share


async def _measure(seed: int, seconds: float, trace: bool,
                   work: Path) -> Outcome:
    out = Outcome()
    specs = hot_set(seed)
    bodies = [_solve_body(spec) for spec in specs]
    rng = np.random.default_rng([seed, 1])
    daemons: List[Daemon] = []
    conns: List[Conn] = []
    try:
        setups = []
        repeats = 1 if trace else SETUP_REPEATS
        for i in range(repeats):
            daemon, conn, elapsed, refs, metas, misses = await _setup(
                work, f"d{i}", specs)
            daemons.append(daemon)
            conns.append(conn)
            setups.append(elapsed)
            out.check("set-up sends are misses", misses == len(specs),
                      f"{misses}/{len(specs)} solved")
            if i < repeats - 1:
                await conn.close()
                daemon.stop()
        conn, daemon = conns[-1], daemons[-1]
        start = time.perf_counter()

        # The first requests after set-up see a cold daemon (heap growth,
        # cache pages); a warm-up window at the light rate absorbs them.
        warm, delta = await _window(conn, "warmup", LIGHT_RPS, WARMUP_SAMPLES,
                                    rng, refs, bodies)
        _record(out, warm, delta)
        light, delta, light_cpu = await _cpu_window(
            conn, daemon, "light", rng, refs, bodies)
        _record(out, light, delta)
        if trace:
            return await _traced(out, work, specs, bodies, rng, light_cpu,
                                 conns, daemons)

        max_rps = 0.0
        hi_p99 = float("nan")
        missed_steps = 0
        ladder_end = "top rate reached"
        for step in range(LADDER_STEPS):
            if time.perf_counter() - start >= seconds:
                ladder_end = "--seconds spent"
                break
            rate = HEAVY_RPS * LADDER_FACTOR ** step
            # A step is held up to LADDER_TRIES times until it meets the
            # limit, and the climb ends only after two steps in a row miss:
            # one host stall must not end it, a real limit does.
            for attempt in range(LADDER_TRIES):
                window, delta = await _window(
                    conn, f"ladder{step}t{attempt}", rate, MIN_SAMPLES, rng,
                    refs, bodies)
                _record(out, window, delta)
                if step == 0 and attempt == 0:
                    hi_p99 = window.p(99)
                if window.meets_limit():
                    max_rps, missed_steps = rate, 0
                    break
            else:
                missed_steps += 1
                if missed_steps == 2:
                    ladder_end = "two steps missed the limit"
                    break
        peak = daemon.peak_rss_mb()
        out.report.update({
            "light_daemon_cpu_s": round(light_cpu, 3),
            "max_rps": round(max_rps, 1),
            "ladder_end": ladder_end,
            "hi_p99_ms": round(hi_p99, 3),
            "light_p50_ms": round(light.p(50), 3),
            "light_p90_ms": round(light.p(90), 3),
            "light_p99_ms": round(light.p(99), 3),
        })
        out.metrics = {
            "setup_s": median(setups),
            "peak_rss_mb": peak,
            "throughput_per_s": LIGHT_SAMPLES / light_cpu,
        }
        return out
    finally:
        for conn in conns:
            await conn.close()
        for daemon in daemons:
            code = daemon.stop()
            if code != 0:
                out.check("daemon exits 0 after drain", False, f"exit {code}")


def _window_requests(label: str):
    """Span filter: spans of the solve requests of window ``label``."""
    def keep(span: tuple) -> bool:
        head, _, tail = (span[5] or "").partition("-")
        return head == label and tail.isdigit()
    return keep


async def _traced(out, work, specs, bodies, rng, plain_cpu, conns,
                  daemons) -> Outcome:
    """Repeat set-up and the light window on a daemon with spans on.

    ``plain_cpu`` is the untraced daemon's CPU seconds over its light
    window; ``trace_overhead`` compares CPU per request, the primary
    metric, taken the same way.
    """
    from layers import REQUEST_METRICS, layer_metrics, spans_path
    from spans import Tracer

    spans = spans_path(work, "serve-hit")
    daemon, conn, _, refs, metas, _ = await _setup(
        work, "traced", specs, spans)
    daemons.append(daemon)
    conns.append(conn)
    warm, delta = await _window(conn, "tracedwarmup", LIGHT_RPS,
                                WARMUP_SAMPLES, rng, refs, bodies)
    _record(out, warm, delta)
    window, delta, traced_cpu = await _cpu_window(
        conn, daemon, "traced", rng, refs, bodies)
    hit_share = _record(out, window, delta)
    cache = (await conn.stats("traced-final"))["cache"]
    await conn.close()
    conns.remove(conn)
    if daemon.stop() != 0:
        out.check("traced daemon exits 0", False)
    daemons.remove(daemon)
    tracer = Tracer.load(spans)
    # Per-request figures come from the window's requests only (their ids
    # start with its label); set-up figures (puts, batches) from all spans.
    requests = tracer.select(_window_requests("traced"))
    per_request = layer_metrics(
        requests, ops=requests.calls("server.handle"))
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    out.metrics = layer_metrics(tracer, ops=tracer.calls("server.handle"),
                                extra={
        **{name: per_request[name] for name in REQUEST_METRICS},
        "server.requests": float(delta["requests"]),
        "server.cache_hits": float(delta["cache_hits"]),
        "server.hit_share": hit_share,
        "server.shed": float(delta["shed"]),
        "server.errors": float(delta["errors"]),
        "server.queue_ms": median([m.get("queue_ms", 0.0) for m in metas]),
        "server.batch_size": median(
            [m.get("batch_size", 0) for m in metas]),
        "service.cache_hit_share": cache.get("hits", 0) / lookups
        if lookups else 0.0,
        "trace_overhead": traced_cpu / plain_cpu - 1.0,
    })
    return out


def run(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    return asyncio.run(_measure(seed, seconds, trace, work))
