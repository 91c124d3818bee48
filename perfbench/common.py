"""Shared pieces of the workloads: the outcome record, host speed, CPU time,
memory."""

from __future__ import annotations

import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

#: End-to-end metrics every workload reports: (name, unit).  What
#: ``throughput_per_s`` counts differs per workload; each workload module's
#: docstring defines it, and whether the times behind ``setup_s`` and
#: ``throughput_per_s`` are taken at the reference host speed
#: (:func:`at_reference`, raw values printed as ``#`` figures) or raw.
#: Latencies are printed as ``#`` figures only: on a shared 2-core host they
#: drift with the host's scheduling delays by more than the largest bound a
#: metric may carry.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
)

#: Fig.-6 sweep knobs as (ConfigSpec field, low, high): the panel ranges of
#: ``repro.experiments.fig6_sweeps.PAPER_SWEEPS``.
KNOBS = (
    ("total_bandwidth_hz", 0.5e7, 1.5e7),
    ("max_power_w", 0.2, 1.0),
    ("client_max_frequency_hz", 0.3e10, 1.5e10),
    ("total_frequency_hz", 2.0e10, 3.0e10),
)

#: Set-up is repeated this many times per run; its median is reported.
SETUP_REPEATS = 3

#: Iterations of the host-speed probe loop (see :func:`probe_ms`).
PROBE_LOOPS = 20_000
#: Probes taken just before and just after each timed set-up.
SETUP_PROBES = 10
#: The probe's time (ms) at full speed on a 2-core x86-64 VM with
#: CPython 3.11; in-process times are reported at this host speed.
PROBE_REF_MS = 1.3


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: (check name, passed, detail)
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    #: human-readable figures and run facts, printed before the result line
    report: Dict[str, object] = field(default_factory=dict)

    def check(self, name: str, passed: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(passed), detail))
        return bool(passed)

    @property
    def correct(self) -> bool:
        return all(passed for _, passed, _ in self.checks) and self.failed == 0


def probe_ms(times: int = 1) -> List[float]:
    """Run the host-speed probe ``times`` times; returns each time in ms.

    On a shared VM the same code runs up to twice as fast in one minute as
    in the next: the probe, a fixed pure-Python loop, took from 13 to 24 ms
    at ten times its size within one minute while nothing else ran in the
    VM.  In one round of ten seeds solve-cold's raw set-up and solves per
    second spread 0.17 and 0.09 (IQR/median), sim-routed's events per
    second 0.14.  So the work this process times for an end-to-end metric
    is interleaved with probes and reported at the reference speed
    (:func:`at_reference`); the same runs then spread 0.03, 0.04 and 0.03.
    The probe is the benchmark's own code, so a change to the program moves
    the metric and a change in host speed mostly does not.  The two cores
    of this VM change speed independently (run side by side, the probe's
    20-run blocks varied by 25-28 % on each, with a correlation of 0.11),
    so probes here do not track another process's core, and work done in a
    subprocess is reported raw.  Raw figures are printed alongside.
    """
    times_ms = []
    for _ in range(times):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i % 7
        times_ms.append((time.perf_counter() - t0) * 1000.0)
    return times_ms


def at_reference(seconds: float, probes: Sequence[float]) -> float:
    """``seconds`` of host time at the reference host speed, from the
    probes (ms) taken next to them; unscaled when no probe ran."""
    if not probes:
        return seconds
    return seconds * PROBE_REF_MS / statistics.median(probes)


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_cpu_seconds(pid: int) -> float:
    """User plus system CPU time another live process has used, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set of another live process, from ``/proc``."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
