"""Record the input pools of ``solve-cold`` and ``campaign-sweep``.

Run from the repository root (takes a few minutes)::

    python3 perfbench/make_pool.py

``perfbench/solve_cold_pool.json``: every recipe of
:func:`solve_cold.pool_recipes`, solved through the scalar path the workload
uses, with its reference objective and its solve time here (the workload
groups recipes into cost strata by that time).

``perfbench/campaign_pool.json`` and ``perfbench/serve_hit_pool.json``:
paper-config seeds (and, for ``serve-hit``, ConfigSpec bodies with one
Fig.-6 knob) solved in K=64 batches through ``SolverService.solve_batch``
and split by whether Stage 3 needed more outer iterations than the typical
config (a straggler that holds its whole batch back).  The workloads put a
fixed number of stragglers into every run.

Re-record only when a change is meant to move these figures themselves.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import campaign_sweep  # noqa: E402
import numpy as np  # noqa: E402
import serve_hit  # noqa: E402
from common import KNOBS  # noqa: E402
from solve_cold import POOL_PATH, build, pool_recipes  # noqa: E402


def solve_cold_pool() -> None:
    from repro.api.service import SolverService

    service = SolverService(cache_size=0)
    entries = []
    for recipe in pool_recipes():
        config = build(recipe)
        start = time.perf_counter()
        result = service.solve(config)
        elapsed = time.perf_counter() - start
        if not result.converged:
            raise SystemExit(f"reference solve did not converge: {recipe}")
        entries.append({**recipe, "objective": float(result.objective),
                        "ms": round(elapsed * 1000.0, 1)})
    POOL_PATH.write_text(json.dumps({"entries": entries}, indent=1) + "\n")
    print(f"wrote {len(entries)} entries to {POOL_PATH}")


def _screen(configs: list) -> tuple:
    """Stage-3 outer iterations of each config, solved in K=64 batches, and
    the typical (most common) count."""
    from repro.api.service import SolverService
    from repro.core.batch import ConfigBatch

    service = SolverService(cache_size=0)
    k = campaign_sweep.CHUNK
    outer = []
    for b in range(0, len(configs), k):
        solution = service.solve_batch(
            ConfigBatch.from_configs(configs[b:b + k]), use_cache=False
        )
        outer += [solution[i].stage3.outer_iterations
                  for i in range(len(solution))]
    return outer, statistics.mode(outer)


def _write_split(path: Path, items: list, outer: list, typical: int) -> None:
    pool = {
        "typical_stage3_outer_iterations": typical,
        "easy": [x for x, n in zip(items, outer) if n <= typical],
        "stragglers": [x for x, n in zip(items, outer) if n > typical],
    }
    path.write_text(json.dumps(pool, indent=1) + "\n")
    print(f"wrote {len(pool['easy'])} easy and {len(pool['stragglers'])} "
          f"straggler entries to {path}")


def campaign_pool(size: int = 2048) -> None:
    from repro.core.config import paper_config

    base = campaign_sweep.POOL_BASE_SEED
    seeds = list(range(base, base + size))
    outer, typical = _screen([paper_config(seed=s) for s in seeds])
    _write_split(campaign_sweep.POOL_PATH, seeds, outer, typical)


def serve_pool(size: int = 2048, pool_seed: int = 20251) -> None:
    from repro.serve.protocol import ConfigSpec

    rng = np.random.default_rng(pool_seed)
    specs = []
    for i in range(size):
        name, lo, hi = KNOBS[i % len(KNOBS)]
        specs.append({
            "seed": int(rng.integers(1, 2**31)),
            name: float(lo + (hi - lo) * rng.random()),
        })
    outer, typical = _screen([ConfigSpec(**spec).build() for spec in specs])
    _write_split(serve_hit.POOL_PATH, specs, outer, typical)


def main() -> int:
    serve_pool()
    campaign_pool()
    solve_cold_pool()
    return 0


if __name__ == "__main__":
    sys.exit(main())
