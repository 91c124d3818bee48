"""Workload ``solve-cold``: time to a new allocation for a library/CLI user.

Configs are solved one at a time through ``SolverService(cache_size=0)
.solve`` (the scalar Alg. 4 path), so every solve is cold and the serving
layers do nothing.  An *op* is one solve.

Inputs come from a fixed pool of recipes (``solve_cold_pool.json``): three
in four are paper-topology ``ConfigSpec(seed, Fig.-6 knob)`` configs, one in
four a Waxman-topology config with 16 or 64 nodes (``make_topology`` →
``RouteController.initial_routes`` → ``config_for_topology``).  Solve times
differ by more than 2x between configs, so each kind of config in the pool
is cut into cost strata of equal size by the solve time recorded with it
(``STRATA`` in all).  A *round* takes one config from every stratum; the
workload seed picks which one, and the order.
Every run thus sees the same spread of costs in a different set of
configs.  Whole rounds are solved until ``--seconds`` pass.

Each pool entry carries the objective this code base reached for it, so a
run checks every result: converged, feasible under
``QuHEProblem(config).is_feasible``, and within
``OBJECTIVE_RTOL_FACTOR·ε·max(1, |F_ref|)`` of the reference objective
``F_ref``.  ε is the solver's stopping tolerance (Alg. 4 stops once
``|ΔF| <= ε·max(1, |F|)``), so a rewrite of a stage that stops one iteration
earlier or later still passes, a wrong allocation does not.

Metrics: ``throughput_per_s`` is solves ÷ their summed solve times, and
``setup_s`` is the time to build one round's configs.  Each round's configs
are built three times just before the round is solved, and ``setup_s`` is
the median over every build of the run: a build takes a fifth of a second,
and on a shared host one taken only at the start follows the host's speed
at that moment.  Both are taken at the reference host speed
(``common.at_reference``: each solve is scaled by the ``SOLVE_PROBES``
probes just before and just after it, each build by ``SETUP_PROBES``
before and as many after).  The
p50 and p90 of per-solve latency are reported alongside, raw.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, List

import numpy as np

from common import (
    KNOBS,
    SETUP_PROBES,
    SETUP_REPEATS,
    Outcome,
    at_reference,
    probe_ms,
    self_peak_rss_mb,
)

POOL_PATH = Path(__file__).resolve().parent / "solve_cold_pool.json"

BLOCK = 4
POOL_BLOCKS = 96
STRATA = 32
#: Host-speed probes run between two solves.
SOLVE_PROBES = 3
#: Objective tolerance as a multiple of the config's stopping tolerance ε.
OBJECTIVE_RTOL_FACTOR = 10.0


def pool_recipes(pool_seed: int = 20250) -> List[Dict[str, Any]]:
    """The pool's recipes (deterministic; references are recorded for them)."""
    rng = np.random.default_rng(pool_seed)
    recipes: List[Dict[str, Any]] = []
    for block in range(POOL_BLOCKS):
        for j in range(BLOCK - 1):
            name, lo, hi = KNOBS[(block * (BLOCK - 1) + j) % len(KNOBS)]
            recipes.append({
                "kind": "paper",
                "seed": int(rng.integers(1, 2**31)),
                "knob": name,
                "value": float(lo + (hi - lo) * rng.random()),
            })
        recipes.append({
            "kind": "waxman",
            "nodes": 16 if block % 2 == 0 else 64,
            "seed": int(rng.integers(1, 2**31)),
        })
    return recipes


def build(recipe: Dict[str, Any]):
    """The ``SystemConfig`` a recipe describes."""
    if recipe["kind"] == "paper":
        from repro.serve.protocol import ConfigSpec

        return ConfigSpec(
            seed=recipe["seed"], **{recipe["knob"]: recipe["value"]}
        ).build()
    from repro.sim.routing import RouteController
    from repro.sim.topology import config_for_topology, make_topology

    topo = make_topology(
        "waxman", num_nodes=recipe["nodes"], num_clients=4,
        seed=recipe["seed"],
    )
    routes = RouteController(topo, k=3, policy="proactive").initial_routes()
    return config_for_topology(topo, routes, seed=recipe["seed"])


def load_pool() -> List[Dict[str, Any]]:
    entries = json.loads(POOL_PATH.read_text())["entries"]
    if len(entries) != POOL_BLOCKS * BLOCK:
        raise ValueError(f"{POOL_PATH.name}: expected {POOL_BLOCKS * BLOCK} "
                         f"entries, found {len(entries)}")
    return entries


def _kind(recipe: Dict[str, Any]) -> str:
    return recipe["kind"] + str(recipe.get("nodes", ""))


def rounds(pool: List[Dict[str, Any]], seed: int) -> List[List[int]]:
    """Pool indices to solve, one list per round (see module doc)."""
    size = len(pool) // STRATA
    strata = []
    for kind in sorted({_kind(r) for r in pool}):
        members = sorted(
            (i for i, r in enumerate(pool) if _kind(r) == kind),
            key=lambda i: (pool[i]["ms"], i),
        )
        strata += [members[k:k + size] for k in range(0, len(members), size)]
    rng = np.random.default_rng(seed)
    picks = [rng.permutation(stratum) for stratum in strata]
    return [
        [int(picks[k][r]) for k in rng.permutation(STRATA)]
        for r in range(size)
    ]


def _objective_ok(config, objective: float, reference: float) -> bool:
    tol = OBJECTIVE_RTOL_FACTOR * config.tolerance * max(1.0, abs(reference))
    return abs(objective - reference) <= tol


def _solve_round(pool, indices, configs, out: Outcome, tracer=None) -> tuple:
    """Solve one round; returns the latencies (ms) of the solves that
    returned, the same at the reference host speed (s), and the service.

    ``SOLVE_PROBES`` host-speed probes run between solves; each solve is
    scaled by the probes just before and just after it.
    """
    from repro.api.service import SolverService
    from repro.core.problem import QuHEProblem

    service = SolverService(cache_size=0)
    latencies: List[float] = []
    ref_s: List[float] = []
    before = probe_ms(SOLVE_PROBES)
    for index, config in zip(indices, configs):
        recipe = pool[index]
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span("solve-cold.op", rid=str(index)):
                    result = service.solve(config)
            else:
                result = service.solve(config)
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            out.failed += 1
            out.check("every solve succeeds", False, f"{index}: {exc!r}")
            before = probe_ms(SOLVE_PROBES)
            continue
        took = time.perf_counter() - t0
        after = probe_ms(SOLVE_PROBES)
        latencies.append(took * 1000.0)
        ref_s.append(at_reference(took, before + after))
        before = after
        ok = (
            result.converged
            and QuHEProblem(config).is_feasible(result.allocation)
            and _objective_ok(config, result.objective, recipe["objective"])
        )
        if not ok:
            out.failed += 1
            out.check(
                "converged, feasible, objective within tolerance", False,
                f"{index}: converged={result.converged} "
                f"objective={result.objective!r} "
                f"reference={recipe['objective']!r}",
            )
    return latencies, ref_s, service


def run(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    from repro.api.service import config_fingerprint

    out = Outcome()
    pool = load_pool()
    plan = rounds(pool, seed)
    window = seconds / 2.0 if trace else seconds
    setups: List[tuple] = []
    latencies: List[float] = []
    configs: List[Any] = []
    ref_s: List[float] = []
    walls: List[float] = []
    # Stop once another round would end more than half a round past the
    # window of solving time (or the pool runs out).
    while not walls or (
        len(walls) < len(plan) and sum(walls) + walls[-1] / 2.0 < window
    ):
        indices = plan[len(walls)]
        for _ in range(SETUP_REPEATS):
            probes = probe_ms(SETUP_PROBES)
            t0 = time.perf_counter()
            round_configs = [build(pool[i]) for i in indices]
            took = time.perf_counter() - t0
            probes += probe_ms(SETUP_PROBES)
            setups.append((took, at_reference(took, probes)))
        lat, ref, _ = _solve_round(pool, indices, round_configs, out)
        latencies += lat
        ref_s += ref
        configs += round_configs
        walls.append(sum(lat) / 1000.0)
    solved = len(configs)
    distinct = len({config_fingerprint(c) for c in configs})
    out.check("distinct fingerprints = N", distinct == solved,
              f"{distinct} distinct of {solved}")
    waxman = sum(
        1 for r in plan[:len(walls)] for i in r if pool[i]["kind"] == "waxman"
    )
    out.report.update({
        "rounds": len(walls),
        "solves": solved,
        "waxman_share": round(waxman / solved, 4),
        "distinct_fingerprints": distinct,
        "objective_tolerance": f"{OBJECTIVE_RTOL_FACTOR:g} x epsilon",
    })
    if not trace:
        out.metrics = {
            "setup_s": median(ref for _, ref in setups),
            "peak_rss_mb": self_peak_rss_mb(),
            "throughput_per_s": len(ref_s) / sum(ref_s),
        }
        out.report["raw_setup_s"] = round(median(raw for raw, _ in setups), 4)
        out.report["raw_throughput_per_s"] = round(
            len(latencies) / sum(walls), 4)
        if latencies:
            out.report["p50_ms"] = round(np.percentile(latencies, 50), 3)
            out.report["p90_ms"] = round(np.percentile(latencies, 90), 3)
        return out

    from layers import install_driver, layer_metrics, spans_path
    from spans import Tracer

    tracer = Tracer()
    install_driver(tracer)
    try:
        _, traced, service = _solve_round(
            pool, plan[0], configs[:STRATA], out, tracer)
    finally:
        tracer.unwrap()
    tracer.dump(spans_path(work, "solve-cold"))
    info = service.cache_info()
    lookups = info.get("hits", 0) + info.get("misses", 0)
    out.metrics = layer_metrics(tracer, ops=len(plan[0]), extra={
        "service.cache_hit_share": info.get("hits", 0) / lookups
        if lookups else 0.0,
        "trace_overhead": sum(traced) / sum(ref_s[:len(traced)]) - 1.0,
    })
    stages = sum(out.metrics[f"stage{k}.ms"] for k in (1, 2, 3))
    share = stages / out.metrics["quhe.solve_ms"]
    out.report["stage_share_of_solve"] = round(share, 4)
    out.check("stage 1+2+3 time covers >= 90% of the solve", share >= 0.9,
              f"{share:.4f}")
    return out
