"""Shared definitions of the benchmark: workloads, statistics, result format.

Every module of the benchmark imports this one; it imports nothing from
``repro`` so that the orchestrator can validate its arguments and report a
missing program without loading it.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Root of the checkout the benchmark runs in (the parent of this directory).
ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
SRC_DIR = ROOT / "src"
#: Staged inputs and working state of runs; listed in the root ``.gitignore``.
CACHE_DIR = ROOT / ".perfbench_cache"

#: Server spawns per serving run; ``setup_s`` is their median set-up time.
SERVE_SPAWNS = 5
#: Conformance contract: every volume within this relative RMSE of ``reference``.
RMSE_TOL = 1e-5
#: Serving requests per run: this many per second of ``--seconds``.
SERVE_REQUESTS_PER_S = 100
#: Every n-th serving arrival also reads ``GET /metrics``.
METRICS_EVERY = 10

@dataclass(frozen=True)
class Workload:
    """One named workload: how its jobs are built and how many a run times."""

    name: str
    kind: str  # "compute" (closed loop over Session.run) or "serve" (HTTP client)
    problem: str = ""
    plan_fields: Dict[str, object] = field(default_factory=dict)
    #: Fresh measured processes per run; ``setup_s`` is their median set-up time.
    processes: int = 3
    #: Timed jobs per process at ``--seconds 10``; the count scales with ``--seconds``.
    timed_jobs: int = 1

    def jobs_per_process(self, seconds: float) -> int:
        """Timed jobs each compute process runs: a count fixed by ``seconds``."""
        return max(1, round(self.timed_jobs * seconds / 10))

    def submissions(self, seconds: float) -> int:
        """Requests of one serving run: a count fixed by ``seconds``."""
        return max(1, round(SERVE_REQUESTS_PER_S * seconds))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fdk-128", "compute", "128x128x32->128x128x128",
            {"target": "fdk", "backend": "parallel", "workers": 2},
            processes=3, timed_jobs=2,
        ),
        Workload(
            "stream-64", "compute", "96x96x128->64x64x64",
            {"target": "fdk", "backend": "vectorized", "streaming": True,
             "chunk_size": 8},
            processes=3, timed_jobs=5,
        ),
        Workload(
            "ifdk-2x2", "compute", "96x96x128->64x64x64",
            {"target": "ifdk", "backend": "vectorized", "rows": 2, "columns": 2},
            processes=7, timed_jobs=1,
        ),
        Workload("serve-closed", "serve"),
    )
}


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #
def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(count: int, beyond: int = 10) -> Optional[float]:
    """Highest candidate percentile leaving at least ``beyond`` samples above it.

    ``None`` when even the median leaves fewer than ``beyond`` samples.
    """
    for q in TAIL_PERCENTILES:
        if count - math.ceil(q / 100.0 * count) >= beyond:
            return q
    return None


def percentile_label(q: float) -> str:
    """``99.0 -> "p99"``, ``99.9 -> "p99.9"``."""
    return "p" + (f"{q:g}")


def relative_rmse(volume, reference_path: Path) -> float:
    """RMSE of ``volume`` against a saved reference, relative to the reference's RMS.

    The reference ``.npy`` file is read one slice of the first axis at a time
    and the sums are kept as float64 scalars, so the check adds little to the
    peak RSS of the process it runs in.
    """
    import numpy as np

    volume = np.asarray(volume)
    with open(reference_path, "rb") as f:
        version = np.lib.format.read_magic(f)
        read_header = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                       else np.lib.format.read_array_header_2_0)
        shape, fortran_order, dtype = read_header(f)
        if fortran_order or tuple(shape) != volume.shape:
            return math.inf
        per_slice = int(np.prod(shape[1:], dtype=np.int64))
        err = ref = 0.0
        for index in range(shape[0]):
            b = np.fromfile(f, dtype=dtype, count=per_slice).astype(np.float64)
            d = volume[index].astype(np.float64).ravel() - b
            err += float(np.dot(d, d))
            ref += float(np.dot(b, b))
    return math.sqrt(err / ref) if ref > 0 else math.sqrt(err / max(1, volume.size))


# --------------------------------------------------------------------- #
# Metric names and the result line
# --------------------------------------------------------------------- #
def load_spec() -> dict:
    """The benchmark's ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(trace: bool) -> Dict[str, str]:
    """Metric name -> unit for an untraced (end-to-end) or traced run."""
    spec = load_spec()
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(
    *, correct: bool, attempted: int, failed: int,
    values: Dict[str, float], trace: bool,
) -> str:
    """The final JSON line: exactly the metrics ``BENCHMARK.json`` declares."""
    units = metric_units(trace)
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise ValueError(f"metric set mismatch: missing {missing}, undeclared {extra}")
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value!r}")
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in units
        },
    })


def last_json_line(text: str) -> dict:
    """Parse the last non-empty line of a child's standard output."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError("child process printed no result")
    return json.loads(lines[-1])


def program_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's ``src`` on the path."""
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def python_cmd(script: str, *args: str) -> List[str]:
    return [sys.executable, str(BENCH_DIR / script), *args]
