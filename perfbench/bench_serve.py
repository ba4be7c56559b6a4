"""The serving workload: an HTTP client against ``repro serve --http``.

The server runs in its own process (``repro serve --http 0 --dispatcher
process --workers 1 --backend vectorized`` with fair-share tenant weights,
a state directory and a disk cache).  The client is one thread in the
orchestrator, in a closed loop: each staged request is sent as soon as the
previous one is answered and timed from its send.  Each sends ``POST
/plans`` and then ``GET /jobs/<id>``; every tenth also reads ``GET
/metrics``.

After the fixed number of requests the server is stopped with SIGTERM and
restarted on the same state directory; ``recover_s`` runs from the restart
until the last job's ``GET /jobs/<id>`` returns 200, and every job must then
be listed as completed.

The traced run adds :func:`drive_in_process`: the same plan sequence through
``ReconstructionService.submit_plan``, ``run_until_idle`` and ``report``,
which attributes the HTTP latency to the service layers.  Each drive runs
as this script in a fresh process::

    python3 perfbench/bench_serve.py --inputs DIR [--trace]

and prints its per-request times (and, traced, the service layer metrics)
as one JSON line.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from bench_common import CACHE_DIR, METRICS_EVERY, median, program_env

REQUEST_TIMEOUT_S = 10.0
START_TIMEOUT_S = 60.0
#: Requests still unsent this long after the first was sent count as failed,
#: so a stalled server cannot hold a run past its time limit.
LOAD_LIMIT_S = 90.0


def _weights_arg(weights: Dict[str, float]) -> str:
    return ",".join(f"{name}={weight:g}" for name, weight in sorted(weights.items()))


class Server:
    """One ``repro serve --http`` process tree in its own session."""

    def __init__(self, state_dir: Path, cache_dir: Path, weights: Dict[str, float],
                 log_path: Path):
        self.spawned_at = time.perf_counter()
        self._log = log_path.open("ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--http", "0",
             "--dispatcher", "process", "--workers", "1",
             "--backend", "vectorized", "--tenant-weights", _weights_arg(weights),
             "--state-dir", str(state_dir), "--cache-dir", str(cache_dir)],
            stdout=subprocess.PIPE, stderr=self._log, stdin=subprocess.DEVNULL,
            env=program_env(), start_new_session=True,
        )
        self.port: Optional[int] = None
        ready = threading.Event()

        def read_stdout() -> None:
            for raw in self.proc.stdout:
                line = raw.decode("utf-8", "replace").strip()
                if self.port is None and line.startswith("serving on http://"):
                    self.port = int(line.rsplit(":", 1)[1])
                    ready.set()
            ready.set()

        self._reader = threading.Thread(target=read_stdout, daemon=True)
        self._reader.start()
        if not ready.wait(START_TIMEOUT_S) or self.port is None:
            self.stop()
            raise RuntimeError("server did not report its port")

    def tree_peak_rss_mb(self) -> float:
        """Sum of every process's peak RSS (VmHWM) in the server's session."""
        total_kb = 0
        for entry in Path("/proc").iterdir():
            if not entry.name.isdigit():
                continue
            try:
                if os.getsid(int(entry.name)) != self.proc.pid:
                    continue
                for line in (entry / "status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
            except (OSError, ValueError):
                continue
        return total_kb / 1024.0

    def _group_alive(self) -> bool:
        try:
            os.killpg(self.proc.pid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:
            return True
        return True

    def stop(self) -> None:
        """SIGTERM the server, then make sure its whole process group is gone.

        Safe to call again once the server has stopped.
        """
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        deadline = time.monotonic() + 10
        while self._group_alive():
            sig = signal.SIGTERM if time.monotonic() < deadline else signal.SIGKILL
            try:
                os.killpg(self.proc.pid, sig)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        self._reader.join(timeout=5)
        self.proc.stdout.close()
        self._log.close()


def request(port: int, method: str, path: str, body: Optional[bytes] = None):
    """One HTTP exchange; returns ``(status, parsed JSON body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        payload = response.read()
        try:
            return response.status, json.loads(payload)
        except ValueError:
            return response.status, None
    finally:
        conn.close()


def submit(port: int, arrival: dict):
    return request(port, "POST", f"/plans?dataset={arrival['dataset']}",
                   arrival["plan"].encode("utf-8"))


@dataclass
class LoadResult:
    submit_ms: List[float] = field(default_factory=list)
    status_ms: List[float] = field(default_factory=list)
    metrics_ms: List[float] = field(default_factory=list)
    job_ids: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    wall_s: float = 0.0


def send_load(port: int, arrivals: List[dict]) -> LoadResult:
    """Send every request in a closed loop, each as soon as the last is answered."""
    result = LoadResult()

    def fail(message: str) -> None:
        result.failed += 1
        if len(result.errors) < 5:
            result.errors.append(message)

    start = time.perf_counter()
    for index, arrival in enumerate(arrivals):
        result.attempted += 1
        sent = time.perf_counter()
        if sent - start > LOAD_LIMIT_S:
            fail(f"request {index}: not sent within {LOAD_LIMIT_S:g} s")
            continue
        try:
            code, body = submit(port, arrival)
            done = time.perf_counter()
            if code != 202 or not isinstance(body, dict):
                fail(f"request {index}: POST /plans -> {code} {body}")
                continue
            job_id = body["job_id"]
            t = time.perf_counter()
            code, record = request(port, "GET", f"/jobs/{job_id}")
            status_done = time.perf_counter()
            if code != 200 or not record or record.get("state") != "completed":
                record = record or {}
                fail(f"request {index}: job {job_id} -> {code} {record.get('state')} "
                     f"{record.get('rejection_reason') or record.get('failure_reason') or ''}")
                continue
            metrics_ms = None
            if index % METRICS_EVERY == 0:
                t_metrics = time.perf_counter()
                code, _ = request(port, "GET", "/metrics")
                metrics_ms = 1e3 * (time.perf_counter() - t_metrics)
                if code != 200:
                    fail(f"request {index}: GET /metrics -> {code}")
                    continue
        except (OSError, http.client.HTTPException, KeyError) as exc:
            fail(f"request {index}: {type(exc).__name__}: {exc}")
            continue
        result.submit_ms.append(1e3 * (done - sent))
        result.status_ms.append(1e3 * (status_done - t))
        if metrics_ms is not None:
            result.metrics_ms.append(metrics_ms)
        result.job_ids.append(job_id)
    result.wall_s = time.perf_counter() - start
    return result


def load_arrivals(inputs: Path) -> dict:
    return json.loads((inputs / "arrivals.json").read_text())


def run_http(inputs: Path, processes: int) -> dict:
    """The HTTP part of a serving run; returns samples and counts."""
    staged = load_arrivals(inputs)
    arrivals, weights = staged["arrivals"], staged["tenant_weights"]
    workdir = CACHE_DIR / f"serve-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    log = workdir / "server.log"
    setup_s: List[float] = []
    warm_failed = 0
    started: List[Server] = []
    try:
        for attempt in range(processes):
            run_dir = workdir / f"run{attempt}"
            server = Server(run_dir / "state", run_dir / "cache", weights, log)
            started.append(server)
            # The warm-up submission is the first request of the workload.
            code, _ = submit(server.port, arrivals[0])
            setup_s.append(time.perf_counter() - server.spawned_at)
            if code != 202:
                warm_failed += 1
                print(f"warm-up submission -> {code}", file=sys.stderr)
            if attempt < processes - 1:
                server.stop()
        load = send_load(server.port, arrivals)
        peak_rss_mb = server.tree_peak_rss_mb()
        server.stop()
        # Restart on the same state: every job must come back completed.
        restart = Server(run_dir / "state", run_dir / "cache", weights, log)
        started.append(restart)
        recover_s = None
        if load.job_ids:
            last = load.job_ids[-1]
            while recover_s is None:
                code, _ = request(restart.port, "GET", f"/jobs/{last}")
                if code == 200:
                    recover_s = time.perf_counter() - restart.spawned_at
                elif time.perf_counter() - restart.spawned_at > START_TIMEOUT_S:
                    break
                else:
                    time.sleep(0.01)
        code, listing = request(restart.port, "GET", "/jobs")
        states = {job["job_id"]: job["state"] for job in (listing or {}).get("jobs", [])}
        lost = [job_id for job_id in load.job_ids if states.get(job_id) != "completed"]
        for job_id in lost[:5]:
            print(f"after restart: job {job_id} is {states.get(job_id)}", file=sys.stderr)
    finally:
        for process in started:
            process.stop()  # idempotent
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "setup_s": setup_s,
        "load": load,
        "peak_rss_mb": peak_rss_mb,
        "recover_s": recover_s,
        "attempted": load.attempted + processes,
        "failed": load.failed + warm_failed + len(lost),
    }


def drive_in_process(inputs: Path, recorder=None) -> Dict[str, object]:
    """The same plan sequence through the service API in this process.

    Each request is ``submit_plan`` plus ``run_until_idle``; every tenth also
    calls ``report``.  Returns the per-request times and the job records.
    With a ``recorder`` (whose wrappers :func:`install_service_spans` put on
    the service) the call spans land in it, and the restart recovery time on
    the resulting state directory is measured too.
    """
    from repro.api import ReconstructionPlan
    from repro.service.queue import AdmissionPolicy
    from repro.service.service import ReconstructionService

    staged = load_arrivals(inputs)
    arrivals = staged["arrivals"]
    plans = [ReconstructionPlan.from_json(a["plan"]) for a in arrivals]
    workdir = CACHE_DIR / f"service-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)

    def make_service() -> ReconstructionService:
        return ReconstructionService(
            16, policy="slo",
            admission=AdmissionPolicy(tenant_weights=staged["tenant_weights"]),
            backend="vectorized", workers=1, dispatcher="process",
            state_dir=workdir / "state", cache_dir=workdir / "cache",
        )

    arrival_ms = []
    out: Dict[str, object] = {}
    try:
        service = make_service()
        try:
            for index, (plan, arrival) in enumerate(zip(plans, arrivals)):
                t0 = time.perf_counter()
                service.submit_plan(plan, dataset_id=arrival["dataset"])
                service.run_until_idle()
                if index % METRICS_EVERY == 0:
                    service.report()
                arrival_ms.append(1e3 * (time.perf_counter() - t0))
            out["records"] = [job.as_record() for job in service.jobs.values()]
        finally:
            service.close()
        if recorder is not None:
            journal = workdir / "state" / "journal.jsonl"
            out["journal_bytes"] = journal.stat().st_size
            t0 = time.perf_counter()
            make_service().close()
            out["recover_s"] = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out["arrival_ms"] = arrival_ms
    return out


def install_service_spans(recorder) -> None:
    """Wrap the service calls the in-process drive makes."""
    from bench_layers import wrap
    from repro.service.service import ReconstructionService

    wrap(ReconstructionService, "submit_plan", recorder, "service.submit_plan")
    wrap(ReconstructionService, "run_until_idle", recorder, "service.advance")
    wrap(ReconstructionService, "report", recorder, "service.report")


def service_layer_metrics(recorder, traced: Dict[str, object]) -> Dict[str, float]:
    """Per-layer serving metrics from the traced in-process drive."""
    records = traced["records"]
    executed = [r["executed_wall_s"] for r in records if r["executed_wall_s"] is not None]
    hits = [r["pilot_cache_hit"] for r in records if r["pilot_cache_hit"] is not None]
    return {
        "service.submit_plan_ms": 1e3 * median(recorder.durations("service.submit_plan")),
        "service.advance_ms": 1e3 * median(recorder.durations("service.advance")),
        "service.report_ms": 1e3 * median(recorder.durations("service.report")),
        "dispatch.pilot_exec_ms": 1e3 * median(executed) if executed else 0.0,
        "dispatch.attempts_per_job": (
            sum(r["execution_attempts"] or 0 for r in records) / max(1, len(records))
        ),
        "cache.hit_ratio": sum(hits) / len(hits) if hits else 0.0,
        "store.journal_bytes_per_job": traced["journal_bytes"] / max(1, len(records)),
        "store.recover_s": traced["recover_s"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="One in-process drive of the serving plans.")
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    recorder = None
    if args.trace:
        import bench_layers

        recorder = bench_layers.Recorder()
        install_service_spans(recorder)
    drive = drive_in_process(args.inputs, recorder)
    out: Dict[str, object] = {"arrival_ms": drive["arrival_ms"]}
    if recorder is not None:
        out["layers"] = service_layer_metrics(recorder, drive)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
