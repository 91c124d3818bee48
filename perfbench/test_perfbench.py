"""Tests of the benchmark's own tracing and bookkeeping.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from common import END_TO_END  # noqa: E402
from layers import PER_LAYER, install_driver, layer_metrics  # noqa: E402
from spans import Tracer  # noqa: E402


class _Toy:
    def outer(self) -> None:
        time.sleep(0.02)
        self.inner()

    def inner(self) -> None:
        time.sleep(0.03)


def test_self_time_excludes_children_and_wrappers_unwind():
    tracer = Tracer()
    tracer.wrap(_Toy, "outer", "outer")
    tracer.wrap(_Toy, "inner", "inner")
    with tracer.span("root", rid="r1"):
        _Toy().outer()
    tracer.unwrap()
    assert _Toy.outer.__qualname__ == "_Toy.outer"
    assert 15 <= tracer.self_ms("outer") < 29
    assert tracer.total_ms("outer") >= tracer.total_ms("inner") >= 29
    assert tracer.self_ms("root") < 5
    by_name = {span[2]: span for span in tracer.spans}
    assert by_name["inner"][1] == by_name["outer"][0]
    assert {span[5] for span in tracer.spans} == {"r1"}
    # Recomputing from the span records gives the same self times.
    again = tracer.select(lambda span: True)
    for name in ("root", "outer", "inner"):
        assert again.totals[name] == tracer.totals[name]


def test_stage3_time_covers_every_stage3_call():
    """Summed stage-3 span time covers all calls, not just the last one.

    ``QuHEResult.stage3.runtime_s`` is the last Stage-3 call only, so a
    per-stage breakdown read from it undercounts a multi-iteration solve;
    that reading fails the first assertion below.
    """
    from repro.api.service import SolverService
    from repro.serve.protocol import ConfigSpec

    per_call = []
    tracer = Tracer()
    install_driver(tracer)
    from repro.core.stage3 import Stage3Solver

    solve = Stage3Solver.solve

    def record(self, alloc):
        result = solve(self, alloc)
        per_call.append(result.runtime_s * 1000.0)
        return result

    Stage3Solver.solve = record
    try:
        result = SolverService(cache_size=0).solve(ConfigSpec(seed=2).build())
    finally:
        Stage3Solver.solve = solve
        tracer.unwrap()
    assert result.stage3_calls >= 2
    assert tracer.calls("stage3") == result.stage3_calls == len(per_call)
    summed = tracer.total_ms("stage3")
    assert result.stage3.runtime_s * 1000.0 < 0.95 * sum(per_call)
    assert summed >= 0.99 * sum(per_call)
    metrics = layer_metrics(tracer, ops=1)
    stages = sum(metrics[f"stage{k}.ms"] for k in (1, 2, 3))
    assert stages >= 0.9 * metrics["quhe.solve_ms"]


def test_layer_metrics_name_every_per_layer_metric():
    metrics = layer_metrics(Tracer(), ops=0)
    assert set(metrics) == {name for name, _, _ in PER_LAYER}
    assert all(value == 0.0 for value in metrics.values())


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(entry) for entry in PER_LAYER
    ]
