"""The repository benchmark: one command, four workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload solve-cold --seed 1 --seconds 20 --trace 0

Workloads (see each module's docstring):

* ``serve-hit`` (``serve_hit.py``) — the ``repro serve`` daemon answering
  a hot set from its caches, open loop, from this process;
* ``solve-cold`` (``solve_cold.py``) — one cold scalar solve at a time
  through ``SolverService``;
* ``campaign-sweep`` (``campaign_sweep.py``) — ``CampaignRunner`` first
  pass at K=64 plus resume passes;
* ``sim-routed`` (``sim_routed.py``) — ``QuantumNetworkSimulation`` on a
  64-node Waxman graph with rerouting and re-optimization.

Every input is generated from ``--seed``; pass any other seed to re-check a
result on inputs not used while writing it.  ``--trace 0`` prints the
end-to-end metrics (``common.END_TO_END``); ``--trace 1`` runs the workload
untraced and then traced, and prints the per-layer metrics
(``layers.PER_LAYER``) including ``trace_overhead``.  Run metadata, figures
and check results go to stdout as ``#`` lines; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 1 when an output check or workload-property assertion fails, and 2
when the program under test is missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import sys
from pathlib import Path

WORKLOADS = {
    "serve-hit": "serve_hit",
    "solve-cold": "solve_cold",
    "campaign-sweep": "campaign_sweep",
    "sim-routed": "sim_routed",
}


def _filesystem(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    target = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[1]
                if (target == mount or target.startswith(mount.rstrip("/") + "/")
                        or mount == "/") and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def _metadata(args: argparse.Namespace, work: Path) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "work_filesystem": _filesystem(work),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    work = root / "perfbench" / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        module = importlib.import_module(WORKLOADS[args.workload])
        outcome = module.run(args.seed, args.seconds, bool(args.trace), work)
        meta = _metadata(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    from common import END_TO_END
    from layers import PER_LAYER

    units = dict((n, u) for n, u, _ in PER_LAYER) if args.trace else dict(
        END_TO_END)
    missing = sorted(set(units) - set(outcome.metrics))
    outcome.check("every metric reported", not missing, ", ".join(missing))
    for key, value in {**meta, **outcome.report}.items():
        print(f"# {key}: {value}")
    grouped: dict = {}
    for name, passed, detail in outcome.checks:
        grouped.setdefault(name, []).append((passed, detail))
    for name, results in grouped.items():
        failures = [detail for passed, detail in results if not passed]
        shown = failures[0] if failures else results[-1][1]
        status = f"FAILED {len(failures)}/{len(results)}" if failures else (
            f"ok {len(results)}/{len(results)}")
        print(f"# check {name}: {status} {shown}".rstrip())
    result = {
        "correct": outcome.correct,
        "attempted": max(1, int(outcome.attempted)),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(outcome.metrics.get(name, 0.0)),
                   "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
