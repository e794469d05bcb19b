"""Shared pieces of the benchmark: percentiles, memory, environment stamp,
and the two result tables (end-to-end and per-layer)."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: Working directory for run artefacts (WAL directories, span dumps), inside
#: the checkout and ignored by git.
OUT_DIR = ROOT / ".perfbench_out"


def _metric_spec(kind: str) -> Tuple[Tuple[str, str], ...]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return tuple((m["name"], m["unit"]) for m in json.load(handle)[kind])


#: ``(name, unit)`` of every end-to-end metric (untraced runs) and every
#: per-layer metric (traced runs), as BENCHMARK.json lists them.  Every run
#: reports all metrics of its kind; a layer a workload does not run
#: reports 0.  README.md says what each means on each workload.
END_TO_END = _metric_spec("end_to_end")
PER_LAYER = _metric_spec("per_layer")


@dataclass
class Outcome:
    """What one run of a workload produced."""

    values: Dict[str, float]
    #: Client ops the run scheduled.
    attempted: int
    #: Ops rejected or never answered.
    failed: int
    #: Every correctness problem found; empty means the run is correct.
    problems: List[str] = field(default_factory=list)
    #: Median :func:`host_slowdown` over the run's timed windows.
    host_slowdown: float = 1.0


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (the rule :class:`repro.core.host.LatencySummary`
    uses); 0.0 for an empty sample."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    n = len(ordered)
    return ordered[min(n - 1, max(0, int(q * n + 0.5) - 1))]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def mid(values: Iterable[float]) -> float:
    values = list(values)
    return median(values) if values else 0.0


#: Seconds :func:`_reference_loop` takes on the reference host, a 2-vCPU
#: VM in its fast phases.
REFERENCE_LOOP_S = 0.010


def _reference_loop() -> float:
    """Time one fixed pure-Python loop (dict reads and writes), seconds."""
    started = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(60_000):
        table[i % 1000] = table.get(i % 1000, 0) + i
    return time.perf_counter() - started


def host_slowdown() -> float:
    """How much slower than the reference host this host runs right now:
    the median of three timings of :func:`_reference_loop` over
    :data:`REFERENCE_LOOP_S` (about 30 ms of work).

    Every wall-clock end-to-end metric is scaled by the slowdown measured
    around its round or set-up (README.md says why).  The loop runs only
    benchmark code, so a change to the program moves the normalised
    figures by the same factor as the raw ones.
    """
    return sorted(_reference_loop() for _ in range(3))[1] / REFERENCE_LOOP_S


def _status_kib(pid: int, field: str) -> int:
    """One ``VmRSS``/``VmHWM``-style field of ``/proc/<pid>/status`` in KiB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def rss_mb(pid: Optional[int] = None) -> float:
    """Current resident set size of ``pid`` (default: this process), MB."""
    return _status_kib(pid or os.getpid(), "VmRSS") / 1024.0


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of the peak resident set sizes of ``pids``, MB."""
    return sum(_status_kib(pid, "VmHWM") for pid in pids) / 1024.0


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def environment(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, object]:
    """What every result is stamped with: interpreter, kernel core, cores,
    commit and the run's own arguments."""
    from repro._speedups import active_core

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "core": active_core(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
    }


def metric_table(values: Dict[str, float],
                 spec: Sequence[Tuple[str, str]]) -> Dict[str, Dict[str, object]]:
    """``{name: {"value", "unit"}}`` for every metric in ``spec``."""
    names = [name for name, _ in spec]
    if sorted(names) != sorted(values):
        raise KeyError(
            f"measured {sorted(values)} but BENCHMARK.json lists {sorted(names)}"
        )
    return {
        name: {"value": float(values[name]), "unit": unit} for name, unit in spec
    }


def render(table: Dict[str, Dict[str, object]]) -> List[str]:
    width = max(len(name) for name in table)
    return [
        f"  {name:<{width}}  {entry['value']:>14.6g} {entry['unit']}"
        for name, entry in table.items()
    ]
