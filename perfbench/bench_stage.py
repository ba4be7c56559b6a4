"""Input staging: build a workload's seeded inputs once and cache them.

Runs in its own process, before any measured process starts, so generating
inputs counts toward neither ``setup_s`` nor ``peak_rss_mb``.

Compute workloads get a seeded random-ellipsoid phantom, its exact cone-beam
projections (``stack.npy``, ``angles.npy``) and the ``reference``-backend
volume reconstructed from them (``reference.npy``).  The serving workload
gets its request sequence of plan documents and datasets (``arrivals.json``),
drawn from ``synthetic_trace``.  A finished entry holds ``meta.json`` with the SHA-256
of every file; entries are written to a temporary directory and renamed, so
a cache entry is either whole or absent.

Usage::

    python3 perfbench/bench_stage.py --workload fdk-128 --seed 1 [--seconds 15]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

from bench_common import CACHE_DIR, WORKLOADS, Workload

#: Tenant weights of the serving workload (fair-share scheduling).
SERVE_TENANT_WEIGHTS = {"tenant-0": 4.0, "tenant-1": 2.0, "tenant-2": 1.0, "tenant-3": 1.0}


def entry_dir(workload: Workload, seed: int, seconds: float) -> Path:
    """Cache directory of one workload's inputs for one seed."""
    if workload.kind == "serve":
        key = f"serve-n{workload.submissions(seconds)}-seed{seed}"
    else:
        key = workload.problem.replace("->", "-to-") + f"-seed{seed}"
    return CACHE_DIR / "inputs" / key


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def seeded_phantom(seed: int):
    """A random ellipsoid phantom: a body ellipsoid plus eight seeded features."""
    import numpy as np
    from repro.core.phantom import Ellipsoid, EllipsoidPhantom

    rng = np.random.default_rng(seed)
    parts = [Ellipsoid(1.0, (0.0, 0.0, 0.0), (0.72, 0.85, 0.8), 0.0)]
    for _ in range(8):
        parts.append(Ellipsoid(
            value=float(rng.uniform(-0.4, 0.6)),
            center=tuple(float(c) for c in rng.uniform(-0.35, 0.35, size=3)),
            axes=tuple(float(a) for a in rng.uniform(0.06, 0.3, size=3)),
            phi_deg=float(rng.uniform(0.0, 180.0)),
        ))
    return EllipsoidPhantom(parts)


def projections(workload: Workload, seed: int):
    """The workload's seeded acquisition: exact projections of the phantom."""
    from repro.api import plan_for_problem
    from repro.core.forward import forward_project_analytic

    plan = plan_for_problem(workload.problem, target="fdk", backend="reference")
    return plan, forward_project_analytic(seeded_phantom(seed), plan.geometry)


def build_compute_inputs(workload: Workload, seed: int, out: Path) -> None:
    import numpy as np
    from repro.api import Session

    plan, stack = projections(workload, seed)
    np.save(out / "stack.npy", stack.data)
    np.save(out / "angles.npy", stack.angles)
    with Session(plan) as session:
        reference = session.run(stack).volume.data
    np.save(out / "reference.npy", np.ascontiguousarray(reference))


def build_serve_inputs(workload: Workload, seed: int, seconds: float, out: Path) -> None:
    from repro.api import plan_for_problem
    from repro.service.trace import synthetic_trace

    trace = synthetic_trace(workload.submissions(seconds), seed=seed)
    arrivals = []
    for entry in trace.entries:
        plan = plan_for_problem(
            entry.problem, target="service", backend="vectorized",
            tenant=entry.tenant, priority=entry.priority,
            slo_seconds=entry.slo_seconds, ramp_filter=entry.ramp_filter,
        )
        arrivals.append({
            "dataset": entry.dataset_id,
            "plan": plan.to_json(indent=None),
        })
    (out / "arrivals.json").write_text(json.dumps(
        {"tenant_weights": SERVE_TENANT_WEIGHTS, "arrivals": arrivals}
    ))


def stage(workload: Workload, seed: int, seconds: float) -> Path:
    """Build the inputs into the cache (no-op when already there)."""
    target = entry_dir(workload, seed, seconds)
    if (target / "meta.json").exists():
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.parent / f".{target.name}.{os.getpid()}.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        if workload.kind == "serve":
            build_serve_inputs(workload, seed, seconds, tmp)
        else:
            build_compute_inputs(workload, seed, tmp)
        files = sorted(p.name for p in tmp.iterdir())
        (tmp / "meta.json").write_text(json.dumps({
            "workload": workload.name, "seed": seed,
            "sha256": {name: _sha256(tmp / name) for name in files},
        }, indent=1))
        try:
            tmp.rename(target)
        except OSError:
            if not (target / "meta.json").exists():
                raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return target


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args(argv)
    print(stage(WORKLOADS[args.workload], args.seed, args.seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
