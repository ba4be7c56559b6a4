"""The repository's benchmark: one command, four workloads, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fdk-128 --seed 1 --seconds 15 --trace 0

Workloads (see ``perfbench/design.json`` for why each exists and which layer
metric should move which end-to-end metric):

``fdk-128``       ``Session.run`` of 128x128x32->128^3, ``parallel`` backend, 2 workers
``stream-64``     ``Session.run`` of 96x96x128->64^3, streaming in chunks of 8
``ifdk-2x2``      ``Session.run`` of the same 64^3 problem on a simulated 2x2 rank grid
``serve-closed``  one synchronous HTTP client against ``repro serve --http``

Every run stages its seeded inputs in a separate process first (cached in
``.perfbench_cache``), then measures a fixed amount of work that depends
only on ``--seconds``: compute workloads run a fixed number of fresh
processes, each a warm-up job plus a fixed number of timed jobs; the
serving workload sends ``100 x seconds`` requests.  Every volume is checked
against the ``reference`` backend and every submission must complete.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs an untraced
and a traced process and prints the per-layer metrics plus the tracing
overhead (the serving workload adds one untraced and one traced process
driving the service in-process).  A human-readable summary precedes the JSON result, which is the
last line of standard output.  Exit code 2 means the benchmark could not
run (bad arguments, or no program to measure in this checkout).
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import bench_common as bc

CHILD_TIMEOUT_S = 120


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def run_child(cmd: List[str]) -> dict:
    proc = subprocess.run(cmd, capture_output=True, text=True, env=bc.program_env(),
                          timeout=CHILD_TIMEOUT_S, stdin=subprocess.DEVNULL)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{Path(cmd[1]).name} exited with {proc.returncode}")
    if proc.stderr.strip():
        sys.stderr.write(proc.stderr[-4000:])
    return bc.last_json_line(proc.stdout)


def stage_inputs(workload: str, seed: int, seconds: float) -> Path:
    cmd = bc.python_cmd("bench_stage.py", "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds))
    proc = subprocess.run(cmd, capture_output=True, text=True, env=bc.program_env(),
                          timeout=CHILD_TIMEOUT_S, stdin=subprocess.DEVNULL)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError("input staging failed")
    return Path(proc.stdout.strip().splitlines()[-1])


def compute_process(name: str, inputs: Path, jobs: int, trace: bool) -> dict:
    args = ["--workload", name, "--inputs", str(inputs), "--jobs", str(jobs)]
    if trace:
        args.append("--trace")
    t0 = time.perf_counter()
    return run_child(bc.python_cmd("bench_compute.py", *args, "--t0", repr(t0)))


def host_probe() -> dict:
    return run_child(bc.python_cmd("bench_host.py"))


def zero_metrics(trace: bool) -> Dict[str, float]:
    return {name: 0.0 for name in bc.metric_units(trace)}


# --------------------------------------------------------------------- #
def run_compute(workload: bc.Workload, inputs: Path, seconds: float, trace: bool):
    jobs = workload.jobs_per_process(seconds)
    if not trace:
        samples = [compute_process(workload.name, inputs, jobs, False)
                   for _ in range(workload.processes)]
        job_s = [s for sample in samples for s in sample["job_s"]]
        values = {
            "setup_s": bc.median([s["setup_s"] for s in samples]),
            "latency_p50_ms": 1e3 * bc.median(job_s),
            "gups": samples[0]["updates"] * len(job_s) / sum(job_s) / 2**30,
            "peak_rss_mb": bc.median([s["peak_rss_mb"] for s in samples]),
        }
        info = {"timed jobs": len(job_s), "processes": len(samples),
                "worst relative RMSE": max(s["worst_rmse"] for s in samples)}
    else:
        untraced = compute_process(workload.name, inputs, jobs, False)
        traced = compute_process(workload.name, inputs, jobs, True)
        samples = [untraced, traced]
        host = host_probe()
        values = zero_metrics(True)
        values.update(traced["layers"])
        values["host.copy_bw_gbs"] = host["host.copy_bw_gbs"]
        values["api.minor_faults_per_job"] = untraced["minor_faults_per_job"]
        bp_s = values["backends.backproject_s"]
        values["backends.roofline_frac"] = (
            values["backends.backproject_bytes"] / bp_s / (host["host.copy_bw_gbs"] * 1e9)
            if bp_s > 0 else 0.0
        )
        values["trace.traced_p50_ms"] = 1e3 * bc.median(traced["job_s"])
        values["trace.untraced_p50_ms"] = 1e3 * bc.median(untraced["job_s"])
        values["trace.overhead_ratio"] = (
            values["trace.traced_p50_ms"] / values["trace.untraced_p50_ms"]
        )
        info = {"timed jobs per process": jobs,
                "host copy arrays (MiB each)": host["host.copy_array_mb"],
                "last-level cache (MiB)": host["host.llc_mb"],
                "worst relative RMSE": max(s["worst_rmse"] for s in samples)}
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    return values, attempted, failed, info


def run_serve(workload: bc.Workload, inputs: Path, seconds: float, trace: bool):
    sys.path.insert(0, str(bc.SRC_DIR))
    import bench_serve
    from repro.service.dispatch import DEFAULT_PILOT_PROBLEM

    http = bench_serve.run_http(inputs, bc.SERVE_SPAWNS)
    load = http["load"]
    if load.errors:
        sys.stderr.write("\n".join(load.errors) + "\n")
    if not load.submit_ms or http["recover_s"] is None:
        raise RuntimeError("no submission completed, or the restarted server "
                           "did not serve the last job")
    n = len(load.submit_ms)
    q = bc.tail_percentile(n) or 50.0
    label = bc.percentile_label(q)
    info = {
        "submissions": n,
        f"submit_{label}_ms": bc.percentile(load.submit_ms, q),
        "status_p50_ms": bc.median(load.status_ms),
        "metrics_p50_ms": bc.median(load.metrics_ms) if load.metrics_ms else 0.0,
        "recover_s": http["recover_s"],
    }
    attempted, failed = http["attempted"], http["failed"]
    if not trace:
        values = {
            "setup_s": bc.median(http["setup_s"]),
            "latency_p50_ms": bc.median(load.submit_ms),
            "gups": DEFAULT_PILOT_PROBLEM.updates * n / load.wall_s / 2**30,
            "peak_rss_mb": http["peak_rss_mb"],
        }
        return values, attempted, failed, info

    untraced = run_child(bc.python_cmd("bench_serve.py", "--inputs", str(inputs)))
    traced = run_child(bc.python_cmd("bench_serve.py", "--inputs", str(inputs), "--trace"))
    host = host_probe()
    values = zero_metrics(True)
    values.update(traced["layers"])
    values["host.copy_bw_gbs"] = host["host.copy_bw_gbs"]
    values["service.http_overhead_ms"] = bc.median(load.submit_ms) - (
        values["service.submit_plan_ms"] + values["service.advance_ms"]
    )
    values["http.submit_tail_ms"] = info[f"submit_{label}_ms"]
    values["http.status_p50_ms"] = info["status_p50_ms"]
    values["http.metrics_p50_ms"] = info["metrics_p50_ms"]
    values["http.recover_s"] = info["recover_s"]
    values["trace.traced_p50_ms"] = bc.median(traced["arrival_ms"])
    values["trace.untraced_p50_ms"] = bc.median(untraced["arrival_ms"])
    values["trace.overhead_ratio"] = (
        values["trace.traced_p50_ms"] / values["trace.untraced_p50_ms"]
    )
    info.update({"http.submit_tail_ms is": label,
                 "host copy arrays (MiB each)": host["host.copy_array_mb"],
                 "last-level cache (MiB)": host["host.llc_mb"]})
    return values, attempted, failed, info


# --------------------------------------------------------------------- #
def print_summary(workload: str, trace: bool, values: Dict[str, float],
                  attempted: int, failed: int, info: Dict[str, object]) -> None:
    units = bc.metric_units(trace)
    kind = "per-layer (traced run)" if trace else "end-to-end"
    print(f"# perfbench {workload}: {kind} metrics")
    for name in units:
        print(f"  {name:34s} {values[name]:14.6g} {units[name]}")
    print(f"  {'error_rate':34s} {failed / attempted:14.6g} ratio"
          f"  ({failed} failed of {attempted} attempted)")
    for key, value in info.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"  {key}: {shown}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in bc.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; known: {', '.join(bc.WORKLOADS)}")
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    if not (bc.SRC_DIR / "repro" / "__init__.py").is_file():
        return fail(f"no program to measure: {bc.SRC_DIR / 'repro'} is missing")
    workload = bc.WORKLOADS[args.workload]
    trace = bool(args.trace)
    try:
        inputs = stage_inputs(workload.name, args.seed, args.seconds)
        runner = run_serve if workload.kind == "serve" else run_compute
        values, attempted, failed, info = runner(workload, inputs, args.seconds, trace)
        line = bc.result_line(correct=failed == 0, attempted=attempted, failed=failed,
                              values=values, trace=trace)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as exc:
        return fail(f"{type(exc).__name__}: {exc}")
    print_summary(workload.name, trace, values, attempted, failed, info)
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
