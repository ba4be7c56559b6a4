"""One measured process of a compute workload (``fdk-128``, ``stream-64``, ``ifdk-2x2``).

The orchestrator starts this script as a fresh process and passes its own
``time.perf_counter()`` reading from just before the spawn (``--t0``); on
Linux that clock is system-wide, so ``setup_s`` runs from process start to
the warm-up job's return: imports, ``Session`` construction, pool start and
one job on the workload's own input.  Then ``--jobs`` timed jobs run in a
closed loop with one caller.  Every job's volume is checked against the
staged ``reference`` volume outside the timed region; the check reads the
reference a slice at a time, so ``peak_rss_mb`` is the program's.  The last line of
standard output is a JSON object with the samples.

With ``--trace`` the layer wrappers of :mod:`bench_layers` are installed
before the program is touched and ``tracemalloc`` runs, and the JSON also
carries the per-layer metrics of the timed jobs.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from bench_common import RMSE_TOL, WORKLOADS, relative_rmse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    recorder = None
    if args.trace:
        import tracemalloc

        import bench_layers

        tracemalloc.start()
        recorder = bench_layers.Recorder()
        bench_layers.install(recorder)

    import numpy as np
    from repro.api import Session, plan_for_problem
    from repro.core.types import ProjectionStack

    stack = ProjectionStack(
        data=np.load(args.inputs / "stack.npy"),
        angles=np.load(args.inputs / "angles.npy"),
    )
    plan = plan_for_problem(workload.problem, **workload.plan_fields)
    attempted = failed = 0
    worst_rmse = 0.0

    def run_job():
        """One job: ``(wall seconds, minor faults, volume)``, or None if it raised."""
        nonlocal attempted, failed
        attempted += 1
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        try:
            volume = session.run(stack).volume.data
        except Exception:  # noqa: BLE001 - a failed job is counted, not fatal
            traceback.print_exc()
            failed += 1
            return None
        wall = time.perf_counter() - start
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        return wall, faults, volume

    def check(volume) -> bool:
        """Whether ``volume`` meets the reference; a miss is counted as failed."""
        nonlocal failed, worst_rmse
        rmse = relative_rmse(volume, args.inputs / "reference.npy")
        worst_rmse = max(worst_rmse, rmse)
        if rmse <= RMSE_TOL:
            return True
        print(f"job {attempted}: relative RMSE {rmse:.3g} > {RMSE_TOL}", file=sys.stderr)
        failed += 1
        return False

    session = Session(plan)
    try:
        warm = run_job()
        setup_s = time.perf_counter() - args.t0
        if warm is not None:
            check(warm[2])
        warm = None
        session_init_s = 0.0
        if recorder is not None:
            session_init_s = recorder.total("api.session_init")
            recorder.reset()
        job_s, faults = [], []
        for _ in range(args.jobs):
            outcome = run_job()
            if outcome is not None and check(outcome[2]):
                job_s.append(outcome[0])
                faults.append(outcome[1])
    finally:
        session.close()
    out = {
        "setup_s": setup_s,
        "job_s": job_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "worst_rmse": worst_rmse,
        "updates": plan.problem.updates,
        "minor_faults_per_job": sum(faults) / max(1, len(faults)),
    }
    if recorder is not None:
        import bench_layers

        layers = bench_layers.compute_layer_metrics(recorder, len(job_s), plan.problem)
        layers["api.session_init_s"] = session_init_s
        out["layers"] = layers
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
