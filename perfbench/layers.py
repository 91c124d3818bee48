"""Which program entry points the traced run wraps, and the per-layer metrics.

:func:`install_daemon` wraps the serving layers inside a ``repro serve``
process (see ``traced_serve.py``); :func:`install_driver` wraps the solver,
campaign, artifact and simulator layers inside the benchmark process.  Names
imported into another module with ``from … import name`` are wrapped where
they are looked up, so every caller goes through the span.

:func:`layer_metrics` turns a tracer's totals into the ``per_layer`` metrics
of ``BENCHMARK.json``.  Times are means per call, except ``stageN.ms`` and
the ``…calls``/``…_per_op``/``sim.*`` counts, which are per *op* of the
workload (a request, a solve, a cell, a simulator run).  A layer the
workload never enters reports 0.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional

from spans import Tracer

#: Every ``Process`` subclass whose ``step`` the simulator layer reports.
SIM_PROCESSES = (
    "EntanglementSource",
    "DemandProcess",
    "DisruptionProcess",
    "FadingProcess",
    "AdaptationProcess",
    "MonitorProcess",
)

#: Per-request serving metrics, read from the spans of one window's requests.
REQUEST_METRICS = (
    "protocol.decode_us",
    "protocol.encode_us",
    "server.dispatch_us",
    "cache.gets",
    "cache.get_us",
    "io.to_dict_us",
    "io.from_dict_us",
    "service.fingerprint_us",
    "service.fingerprints_per_op",
)

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("protocol.decode_us", "us", "lower"),
    ("protocol.encode_us", "us", "lower"),
    ("server.requests", "count", "higher"),
    ("server.cache_hits", "count", "higher"),
    ("server.hit_share", "ratio", "higher"),
    ("server.shed", "count", "lower"),
    ("server.errors", "count", "lower"),
    ("server.dispatch_us", "us", "lower"),
    ("server.queue_ms", "ms", "lower"),
    ("server.batch_size", "count", "higher"),
    ("cache.gets", "count", "higher"),
    ("cache.get_us", "us", "lower"),
    ("cache.put_us", "us", "lower"),
    ("io.to_dict_us", "us", "lower"),
    ("io.from_dict_us", "us", "lower"),
    ("io.npz_save_ms", "ms", "lower"),
    ("io.npz_bytes", "bytes", "lower"),
    ("service.fingerprint_us", "us", "lower"),
    ("service.fingerprints_per_op", "count", "lower"),
    ("service.cache_hit_share", "ratio", "higher"),
    ("quhe.solve_ms", "ms", "lower"),
    ("quhe.outer_iterations", "count", "lower"),
    ("quhe.degraded", "count", "lower"),
    ("stage1.ms", "ms", "lower"),
    ("stage1.calls", "count", "lower"),
    ("stage1.iterations", "count", "lower"),
    ("stage2.ms", "ms", "lower"),
    ("stage2.nodes", "count", "lower"),
    ("stage3.ms", "ms", "lower"),
    ("stage3.calls", "count", "lower"),
    ("stage3.outer_iterations", "count", "lower"),
    ("batched.ms_per_config", "ms", "lower"),
    ("batched.k", "count", "higher"),
    ("batched.groups", "count", "lower"),
    ("campaign.cell_ms", "ms", "lower"),
    ("artifacts.save_ms", "ms", "lower"),
    ("artifacts.bytes", "bytes", "lower"),
    ("artifacts.load_ms", "ms", "lower"),
    ("campaign.retries", "count", "lower"),
    ("campaign.quarantined", "count", "lower"),
    ("sim.events", "count", "higher"),
    ("sim.dispatch_us_per_event", "us", "lower"),
    ("sim.trace_digest_ms", "ms", "lower"),
    *(
        entry
        for proc in SIM_PROCESSES
        for entry in (
            (f"sim.steps.{proc}", "count", "higher"),
            (f"sim.step_us.{proc}", "us", "lower"),
        )
    ),
    ("sim.reopts", "count", "lower"),
    ("sim.reopt_ms", "ms", "lower"),
    ("sim.reopt_configs", "count", "lower"),
    ("sim.reopt_failures", "count", "lower"),
    ("routing.reroutes", "count", "lower"),
    ("routing.reroute_ms", "ms", "lower"),
    ("trace_overhead", "ratio", "lower"),
)


def _mean_us(tracer: Tracer, name: str) -> float:
    calls = tracer.calls(name)
    return tracer.total_ms(name) * 1000.0 / calls if calls else 0.0


def _mean_ms(tracer: Tracer, name: str) -> float:
    return _mean_us(tracer, name) / 1000.0


def _per(value: float, base: float) -> float:
    return value / base if base else 0.0


def _dir_bytes(path: Any) -> int:
    root = Path(path)
    if root.is_file():
        return root.stat().st_size
    return sum(p.stat().st_size for p in root.iterdir() if p.is_file())


# -- hooks: counts taken from call arguments and results ----------------------


def _count(key: str, value_of):
    def hook(tracer: Tracer, span, args, result) -> None:
        tracer.counts[key] += value_of(args, result)
    return hook


def _set_request_id(tracer: Tracer, span, args, payload) -> None:
    if span.parent is not None and isinstance(payload, dict):
        span.rid = span.parent.rid = str(payload.get("id", ""))


# -- installation -------------------------------------------------------------


def _install_codecs(tracer: Tracer) -> None:
    import repro.io as repro_io

    tracer.wrap(repro_io, "result_to_dict", "io.to_dict")
    tracer.wrap(repro_io, "result_from_dict", "io.from_dict")


def install_daemon(tracer: Tracer) -> None:
    """Wrap the serving layers (call inside the daemon process)."""
    import repro.api.service as service_mod
    import repro.serve.server as server_mod
    from repro.serve.cache import SqliteResultCache
    from repro.serve.protocol import ServeRequest, ServeResponse

    tracer.wrap(server_mod.AllocationServer, "_handle_line", "server.handle")
    tracer.wrap(server_mod, "decode_line", "protocol.decode_line",
                hook=_set_request_id)
    tracer.wrap(ServeRequest, "from_dict", "protocol.request_from_dict")
    tracer.wrap(ServeResponse, "to_dict", "protocol.response_to_dict")
    tracer.wrap(server_mod, "encode_line", "protocol.encode_line")
    tracer.wrap(server_mod, "config_fingerprint", "service.fingerprint")
    tracer.wrap(service_mod, "config_fingerprint", "service.fingerprint")
    tracer.wrap(SqliteResultCache, "get", "cache.get")
    tracer.wrap(SqliteResultCache, "put", "cache.put")
    _install_codecs(tracer)
    _install_core(tracer)


def _install_core(tracer: Tracer) -> None:
    import repro.api.service as service_mod
    from repro.core.batched import BatchedQuHE
    from repro.core.quhe import QuHE
    from repro.core.stage1 import Stage1Solver
    from repro.core.stage2 import BranchAndBoundSolver
    from repro.core.stage3 import Stage3Solver

    tracer.wrap(QuHE, "solve", "quhe.solve", hook=_count(
        "quhe.outer_iterations", lambda a, r: r.outer_iterations))
    tracer.wrap(service_mod, "_degraded_solve", "quhe.degraded")
    tracer.wrap(Stage1Solver, "solve", "stage1", hook=_count(
        "stage1.iterations", lambda a, r: r.iterations))
    tracer.wrap(BranchAndBoundSolver, "solve", "stage2", hook=_count(
        "stage2.nodes", lambda a, r: r.nodes_explored))
    tracer.wrap(Stage3Solver, "solve", "stage3", hook=_count(
        "stage3.outer_iterations", lambda a, r: r.outer_iterations))
    tracer.wrap(BatchedQuHE, "_solve_group", "batched.group", hook=_count(
        "batched.configs", lambda a, r: len(a[1])))


def install_driver(tracer: Tracer) -> None:
    """Wrap the solver, campaign, artifact and simulator layers in-process."""
    import repro.api.service as service_mod
    import repro.io as repro_io
    from repro.api.artifacts import RunRecord
    from repro.campaign.runner import CampaignRunner
    from repro.sim import processes
    from repro.sim.engine import Simulator
    from repro.sim.qnetwork import QuantumNetworkSimulation
    from repro.sim.routing import RouteController

    tracer.wrap(service_mod, "config_fingerprint", "service.fingerprint")
    _install_core(tracer)
    _install_codecs(tracer)
    tracer.wrap(repro_io, "save_batch_npz", "io.npz_save", hook=_count(
        "io.npz_bytes", lambda a, r: _dir_bytes(r)))
    tracer.wrap(CampaignRunner, "_attempt_cell", "campaign.cell")
    tracer.wrap(CampaignRunner, "_execute_cell", "campaign.execute")
    tracer.wrap(CampaignRunner, "_quarantine_cell", "campaign.quarantine")
    tracer.wrap(RunRecord, "save", "artifacts.save", hook=_count(
        "artifacts.bytes", lambda a, r: _dir_bytes(r)))
    tracer.wrap(RunRecord, "load", "artifacts.load")
    tracer.wrap(QuantumNetworkSimulation, "run", "sim.run", hook=_count(
        "sim.events", lambda a, r: r.events_processed))
    tracer.wrap(QuantumNetworkSimulation, "_reoptimize", "sim.reopt")
    tracer.wrap(service_mod.SolverService, "solve_many", "service.solve_many",
                hook=_count("service.solve_many_configs",
                            lambda a, r: len(a[1])))
    tracer.wrap(RouteController, "routes_for", "routing.routes_for")
    tracer.wrap(Simulator, "run", "sim.engine")
    tracer.wrap(Simulator, "trace_digest", "sim.trace_digest")
    for proc in SIM_PROCESSES:
        tracer.wrap(getattr(processes, proc), "step", f"sim.step.{proc}",
                    aggregate=True)


# -- read-out -----------------------------------------------------------------


def layer_metrics(
    tracer: Tracer,
    *,
    ops: float,
    extra: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Per-layer metrics from ``tracer`` (``ops``: the workload's op count).

    ``extra`` carries values read outside the spans (serve ``stats`` op
    counters, response meta, simulator results) and overrides the defaults.
    """
    t, c = tracer, tracer.counts
    decodes = t.calls("protocol.decode_line")
    encodes = t.calls("protocol.encode_line")
    quhe_calls = t.calls("quhe.solve")
    groups = t.calls("batched.group")
    sim_runs = t.calls("sim.run")
    events = c["sim.events"]
    metrics: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
    metrics.update({
        "protocol.decode_us": _per(
            (t.total_ms("protocol.decode_line")
             + t.total_ms("protocol.request_from_dict")) * 1000.0, decodes),
        "protocol.encode_us": _per(
            (t.total_ms("protocol.response_to_dict")
             + t.total_ms("protocol.encode_line")) * 1000.0, encodes),
        "server.dispatch_us": _per(
            t.self_ms("server.handle") * 1000.0, t.calls("server.handle")),
        "cache.gets": float(t.calls("cache.get")),
        "cache.get_us": _mean_us(t, "cache.get"),
        "cache.put_us": _mean_us(t, "cache.put"),
        "io.to_dict_us": _mean_us(t, "io.to_dict"),
        "io.from_dict_us": _mean_us(t, "io.from_dict"),
        "io.npz_save_ms": _mean_ms(t, "io.npz_save"),
        "io.npz_bytes": _per(c["io.npz_bytes"], t.calls("io.npz_save")),
        "service.fingerprint_us": _mean_us(t, "service.fingerprint"),
        "service.fingerprints_per_op": _per(
            t.calls("service.fingerprint"), ops),
        "quhe.solve_ms": _mean_ms(t, "quhe.solve"),
        "quhe.outer_iterations": _per(c["quhe.outer_iterations"], quhe_calls),
        "quhe.degraded": float(t.calls("quhe.degraded")),
        "stage1.ms": _per(t.total_ms("stage1"), ops),
        "stage1.calls": _per(t.calls("stage1"), ops),
        "stage1.iterations": _per(c["stage1.iterations"], t.calls("stage1")),
        "stage2.ms": _per(t.total_ms("stage2"), ops),
        "stage2.nodes": _per(c["stage2.nodes"], t.calls("stage2")),
        "stage3.ms": _per(t.total_ms("stage3"), ops),
        "stage3.calls": _per(t.calls("stage3"), ops),
        "stage3.outer_iterations": _per(
            c["stage3.outer_iterations"], t.calls("stage3")),
        "batched.ms_per_config": _per(
            t.total_ms("batched.group"), c["batched.configs"]),
        "batched.k": _per(c["batched.configs"], groups),
        "batched.groups": float(groups),
        "campaign.cell_ms": _mean_ms(t, "campaign.cell"),
        "artifacts.save_ms": _mean_ms(t, "artifacts.save"),
        "artifacts.bytes": _per(c["artifacts.bytes"], t.calls("artifacts.save")),
        "artifacts.load_ms": _mean_ms(t, "artifacts.load"),
        "campaign.retries": float(
            t.calls("campaign.execute") - t.calls("campaign.cell")),
        "campaign.quarantined": float(t.calls("campaign.quarantine")),
        "sim.events": _per(events, sim_runs),
        "sim.dispatch_us_per_event": _per(
            t.self_ms("sim.engine") * 1000.0, events),
        "sim.trace_digest_ms": _mean_ms(t, "sim.trace_digest"),
        "sim.reopts": _per(t.calls("sim.reopt"), sim_runs),
        "sim.reopt_ms": _mean_ms(t, "sim.reopt"),
        "sim.reopt_configs": _per(c["service.solve_many_configs"], sim_runs),
        "routing.reroute_ms": _mean_ms(t, "routing.routes_for"),
    })
    for proc in SIM_PROCESSES:
        name = f"sim.step.{proc}"
        metrics[f"sim.steps.{proc}"] = _per(t.calls(name), sim_runs)
        metrics[f"sim.step_us.{proc}"] = _per(
            t.self_ms(name) * 1000.0, t.calls(name))
    metrics.update(extra or {})
    return metrics


def spans_path(work: Path, label: str) -> Path:
    """Where a traced run writes its spans (next to the per-run work dir)."""
    return work.parent / f"spans-{label}.json"
