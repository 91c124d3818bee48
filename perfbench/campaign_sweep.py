"""Workload ``campaign-sweep``: an offline sweep through ``CampaignRunner``.

One pass runs scenario ``solve`` over ``CELLS`` seeds with
``chunk_size=64`` into a fresh directory: two canonical K=64 batched solves,
two npz chunks, and a fsynced ``record.json``/``result.json`` per cell.
``RESUMES`` further runners then resume the finished directory, which only
reads artifacts, so the write and the read side of the same layer are
measured next to each other.  Passes repeat until ``--seconds`` pass.

A K=64 batch runs in lockstep, so one config whose Stage 3 needs extra outer
iterations (a straggler) holds the whole batch back: a chunk with one takes
about 1.7 times as long.  The seeds come from ``campaign_pool.json``, which
splits paper-config seeds into stragglers and the rest.  Chunk ``c`` gets
the pool's ``c``-th straggler (stragglers differ in cost, so they are the
same in every run) and 63 others drawn by the workload seed: every run pays
the same straggler cost once per batch instead of by chance.

``throughput_per_s`` is cells ÷ wall time of a first pass (median over
passes), at the reference host speed (``common.at_reference``: a probe
after every ``PROBE_EVERY`` cells, and each chunk scaled by its own
probes; the probes' own time is taken out of the pass).  The p50 and p90 time of one chunk of a first pass (its batched
solve plus the execution and fsynced save of its 64 cells, timed between
the progress callbacks that close successive chunks) and the resume rate
are reported alongside, and the per-cell write and read sides are in
the per-layer ``campaign.cell_ms`` and ``artifacts.load_ms``.  ``setup_s``
is what starting a campaign costs a fresh process: interpreter start,
imports, building the spec, constructing the runner and writing the
manifest (``run(max_cells=0)``), median of ``SETUP_STARTS`` processes.
It is raw: probes in this process do not track another process's core,
and taking the starts at the probes' reference speed widened their spread
over five seeds from 0.10 to 0.20.
The in-process part alone takes some 15 ms, mostly one fsync, too short
for its median to hold steady on a shared host.

Checks: every pass completes with no quarantined cell, every resumed
``aggregate.json`` is byte-equal to the first pass's, and every canonical
npz chunk holds K=64 configs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict

import numpy as np

from common import Outcome, at_reference, probe_ms, self_peak_rss_mb

CELLS = 128
CHUNK = 64
RESUMES = 5
SETUP_STARTS = 5
#: A host-speed probe runs after every this many completed cells.
PROBE_EVERY = 4
POOL_PATH = Path(__file__).resolve().parent / "campaign_pool.json"
#: First paper-config seed screened into the pool (see make_pool.py).
POOL_BASE_SEED = 100_000


def _spec(seed: int):
    from repro.campaign import CampaignSpec

    pool = json.loads(POOL_PATH.read_text())
    rng = np.random.default_rng(seed)
    chunks = CELLS // CHUNK
    stragglers = pool["stragglers"][:chunks]
    others = rng.choice(pool["easy"], CELLS - chunks, replace=False)
    seeds = []
    for c in range(chunks):
        chunk = [int(stragglers[c])] + [
            int(s) for s in others[c * (CHUNK - 1):(c + 1) * (CHUNK - 1)]
        ]
        seeds += [chunk[i] for i in rng.permutation(CHUNK)]
    return CampaignSpec(
        name=f"perfbench-{seed}",
        scenario="solve",
        seeds=tuple(seeds),
        chunk_size=CHUNK,
    )


def _one_pass(spec, out_dir: Path, out: Outcome) -> Dict[str, object]:
    from repro import io as repro_io
    from repro.campaign import CampaignRunner

    ends = []
    #: probes (ms) taken within each chunk, then after the last one
    probes = [[]]

    def progress(done: int, total: int) -> None:
        if done % PROBE_EVERY == 0:
            probes[-1] += probe_ms()
        if done % CHUNK == 0:
            ends.append(time.perf_counter())
            probes.append([])

    start = time.perf_counter()
    result = CampaignRunner(spec, out_dir=out_dir).run(progress=progress)
    marks = [start] + ends + [time.perf_counter()]
    # Each chunk (and the aggregate written after the last) is scaled by
    # its own probes: a pass spans several host-speed swings.
    segments = [b - a - sum(p) / 1000.0
                for a, b, p in zip(marks, marks[1:], probes)]
    scales = [p or probes[max(0, i - 1)] for i, p in enumerate(probes)]
    wall = sum(segments)
    ref_wall = sum(at_reference(t, p) for t, p in zip(segments, scales))
    chunk_ms = [t * 1000.0 for t in segments[:len(ends)]]
    out.attempted += CELLS
    failed = len(result.failed_cell_ids)
    out.failed += failed
    out.check("campaign complete", result.complete and
              result.cells_completed == CELLS,
              f"{result.cells_completed}/{CELLS} cells")
    out.check("no quarantined cell", failed == 0, f"{failed} quarantined")
    npz_files = sorted((out_dir / "canonical").glob("*.npz"))
    sizes = [len(repro_io.load_batch_npz(path)) for path in npz_files]
    out.check("K = 64 per canonical batch",
              len(sizes) == CELLS // CHUNK and all(k == CHUNK for k in sizes),
              f"batches {sizes}")
    first = (out_dir / "aggregate.json").read_bytes()

    resume_walls = []
    for _ in range(RESUMES):
        t0 = time.perf_counter()
        resumed = CampaignRunner(spec, out_dir=out_dir).run()
        resume_walls.append(time.perf_counter() - t0)
        out.attempted += CELLS
        same = (out_dir / "aggregate.json").read_bytes() == first
        if not (same and resumed.cells_completed == CELLS):
            out.failed += 1
        out.check("resumed aggregate byte-equal", same)
    return {"wall": wall, "ref_wall": ref_wall, "chunks": chunk_ms,
            "resume": median(resume_walls)}


def run(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    from repro.campaign import CampaignRunner
    from repro.campaign.runner import MANIFEST_FILENAME

    out = Outcome()
    spec = _spec(seed)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path.cwd() / "src"), env.get("PYTHONPATH")) if p
    )
    setups = []
    for i in range(SETUP_STARTS):
        target = work / f"setup-{i}"
        t0 = time.perf_counter()
        subprocess.run([sys.executable, __file__, str(seed), str(target)],
                       env=env, check=True, timeout=120)
        setups.append(time.perf_counter() - t0)
        status = CampaignRunner(spec, out_dir=target).status()
        out.check("set-up writes the manifest, runs no cell",
                  (target / MANIFEST_FILENAME).is_file()
                  and status.cells_completed == 0,
                  f"{status.cells_completed}/{status.cells_total} cells")
        shutil.rmtree(target)

    passes = []
    window = seconds / 2.0 if trace else seconds
    start = time.perf_counter()
    # Stop once another pass would end more than half a pass past the window.
    while not passes or (
        time.perf_counter() - start + passes[-1]["wall"] / 2.0 < window
    ):
        target = work / f"campaign-{len(passes)}"
        passes.append(_one_pass(spec, target, out))
        shutil.rmtree(target)
    out.report.update({
        "passes": len(passes),
        "cells_per_pass": CELLS,
        "resume_cells_per_s": round(median(
            [CELLS / p["resume"] for p in passes]), 1),
    })
    if not trace:
        chunks = [ms for p in passes for ms in p["chunks"]]
        out.metrics = {
            "setup_s": median(setups),
            "peak_rss_mb": self_peak_rss_mb(),
            "throughput_per_s": median(CELLS / p["ref_wall"] for p in passes),
        }
        out.report["raw_throughput_per_s"] = round(
            median(CELLS / p["wall"] for p in passes), 4)
        out.report["chunk_p50_ms"] = round(np.percentile(chunks, 50), 3)
        out.report["chunk_p90_ms"] = round(np.percentile(chunks, 90), 3)
        return out

    from layers import install_driver, layer_metrics, spans_path
    from spans import Tracer
    from repro.api.scenarios import SERVICE

    before = SERVICE.cache_info()
    tracer = Tracer()
    install_driver(tracer)
    target = work / "campaign-traced"
    try:
        with tracer.span("campaign-sweep.pass", rid="traced"):
            traced = _one_pass(spec, target, out)
    finally:
        tracer.unwrap()
        shutil.rmtree(target, ignore_errors=True)
    tracer.dump(spans_path(work, "campaign-sweep"))
    after = SERVICE.cache_info()
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    plain_wall = median(p["ref_wall"] for p in passes)
    out.metrics = layer_metrics(tracer, ops=CELLS, extra={
        "service.cache_hit_share": hits / (hits + misses)
        if hits + misses else 0.0,
        "trace_overhead": traced["ref_wall"] / plain_wall - 1.0,
    })
    return out


if __name__ == "__main__":
    # One campaign start, timed from outside by ``run``: seed, directory.
    from repro.campaign import CampaignRunner

    CampaignRunner(_spec(int(sys.argv[1])),
                   out_dir=Path(sys.argv[2])).run(max_cells=0)
