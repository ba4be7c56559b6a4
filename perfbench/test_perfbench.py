"""Self-tests of the benchmark: metric names, the percentile rule, failure
counting and seeded inputs.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import re
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import bench_common as bc

if str(bc.SRC_DIR) not in sys.path:
    sys.path.insert(0, str(bc.SRC_DIR))

#: Names and units as the benchmark contract allows them.
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def valid_name(name: str) -> bool:
    return bool(NAME.match(name))


def valid_unit(unit: str) -> bool:
    return bool(UNIT.match(unit))


# --------------------------------------------------------------------- #
# Metric names and the benchmark's own description
# --------------------------------------------------------------------- #
def test_benchmark_json_follows_the_naming_rules():
    spec = bc.load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(valid_name(n) for n in names), [n for n in names if not valid_name(n)]
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert valid_unit(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int)


def test_names_are_rejected_when_malformed():
    assert not valid_name("-starts-with-dash")
    assert not valid_name("has space")
    assert not valid_name("x" * 65)
    assert valid_name("backends.backproject_gups")
    assert not valid_unit("meters per second")
    assert valid_unit("1/s") and valid_unit("GB/s")


def test_workloads_and_design_record_agree_with_benchmark_json():
    spec = bc.load_spec()
    declared = [w["name"] for w in spec["workloads"]]
    assert set(declared) <= set(bc.WORKLOADS)
    design = json.loads((bc.BENCH_DIR / "design.json").read_text())
    assert set(design["workloads"]) == set(declared) == set(bc.WORKLOADS)
    e2e = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert set(design["end_to_end"]) == e2e
    listed = set()
    for layer in design["layers"]:
        listed.update(layer["metrics"])
        for claim in layer["moves"] + layer["no_change"]:
            assert claim["workload"] in bc.WORKLOADS
            assert set(claim["metrics"]) <= e2e
    # Every per-layer metric is attributed to exactly one layer.
    assert listed == per_layer


def test_result_line_requires_exactly_the_declared_metrics():
    values = {name: 1.5 for name in bc.metric_units(False)}
    line = json.loads(bc.result_line(correct=True, attempted=3, failed=0,
                                     values=values, trace=False))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(values)
    with pytest.raises(ValueError):
        bc.result_line(correct=True, attempted=3, failed=0,
                       values={**values, "extra": 1.0}, trace=False)
    with pytest.raises(ValueError):
        bc.result_line(correct=True, attempted=3, failed=0,
                       values={**values, "setup_s": float("nan")}, trace=False)


# --------------------------------------------------------------------- #
# The percentile rule
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("count, expected", [
    (10010, 99.9), (1000, 99.0), (999, 98.0), (750, 98.0), (500, 98.0),
    (499, 95.0), (200, 95.0), (100, 90.0), (40, 75.0), (20, 50.0), (19, None),
])
def test_tail_percentile_leaves_ten_samples_beyond(count, expected):
    assert bc.tail_percentile(count) == expected


def test_nearest_rank_percentile_and_label():
    values = list(range(1, 101))
    assert bc.percentile(values, 99.0) == 99
    assert bc.percentile(values, 50.0) == 50
    assert bc.percentile([7.0], 99.0) == 7.0
    assert bc.percentile_label(99.0) == "p99"
    assert bc.percentile_label(99.9) == "p99.9"


def test_relative_rmse_matches_the_conformance_definition(tmp_path):
    import numpy as np

    reference = np.random.default_rng(0).normal(size=(4, 5, 6)).astype(np.float32)
    path = tmp_path / "reference.npy"
    np.save(path, reference)
    noisy = reference + np.float32(0.01) * reference[::-1]
    a, b = noisy.astype(np.float64), reference.astype(np.float64)
    expected = np.sqrt(np.mean((a - b) ** 2) / np.mean(b * b))
    assert bc.relative_rmse(reference, path) == 0.0
    assert bc.relative_rmse(noisy, path) == pytest.approx(expected, rel=1e-9)
    assert bc.relative_rmse(reference[:2], path) == float("inf")


def test_job_counts_depend_only_on_seconds():
    fdk = bc.WORKLOADS["fdk-128"]
    assert fdk.jobs_per_process(10) == fdk.timed_jobs
    assert fdk.jobs_per_process(20) == 2 * fdk.timed_jobs
    assert fdk.jobs_per_process(1) == 1
    assert bc.WORKLOADS["serve-closed"].submissions(15) == 1500


# --------------------------------------------------------------------- #
# Failure counting in the serving client
# --------------------------------------------------------------------- #
class _FakeService(BaseHTTPRequestHandler):
    """Answers by dataset: ok, quota (429), crash (500), stuck (queued)."""

    def log_message(self, *args):
        pass

    def _send(self, code, payload):
        body = json.dumps(payload).encode()
        self.send_response(code)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):  # noqa: N802
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        dataset = self.path.split("dataset=")[1]
        if dataset == "quota":
            self._send(429, {"error": "tenant quota"})
        elif dataset == "crash":
            self._send(500, {"error": "boom"})
        else:
            self._send(202, {"job_id": dataset})

    def do_GET(self):  # noqa: N802
        if self.path == "/metrics":
            self._send(200, {"summary": {}})
            return
        job_id = self.path.rsplit("/", 1)[1]
        self._send(200, {"job_id": job_id,
                         "state": "queued" if job_id == "stuck" else "completed"})


def test_load_counts_refusals_errors_and_unfinished_jobs():
    import bench_serve

    server = ThreadingHTTPServer(("127.0.0.1", 0), _FakeService)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        datasets = ["ok", "quota", "ok", "crash", "stuck", "ok"]
        arrivals = [{"dataset": d, "plan": "{}"} for d in datasets]
        result = bench_serve.send_load(server.server_address[1], arrivals)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert result.attempted == 6
    assert result.failed == 3
    assert len(result.submit_ms) == 3
    assert result.job_ids == ["ok", "ok", "ok"]
    assert len(result.metrics_ms) == 1  # request 0 is the only tenth that succeeded
    assert result.wall_s > 0


def test_load_counts_a_refused_connection_as_failed():
    import socket

    import bench_serve

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    result = bench_serve.send_load(port, [{"dataset": "x", "plan": "{}"}])
    assert (result.attempted, result.failed) == (1, 1)


# --------------------------------------------------------------------- #
# Seeded inputs
# --------------------------------------------------------------------- #
def test_compute_inputs_are_byte_identical_for_a_seed():
    import bench_stage

    workload = bc.WORKLOADS["stream-64"]
    _, first = bench_stage.projections(workload, 7)
    _, again = bench_stage.projections(workload, 7)
    _, other = bench_stage.projections(workload, 8)
    assert first.data.tobytes() == again.data.tobytes()
    assert first.angles.tobytes() == again.angles.tobytes()
    assert first.data.tobytes() != other.data.tobytes()


def test_serve_inputs_are_byte_identical_for_a_seed(tmp_path):
    import bench_stage

    workload = bc.WORKLOADS["serve-closed"]
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        (tmp_path / name).mkdir()
        bench_stage.build_serve_inputs(workload, seed, 2, tmp_path / name)
    a, b, c = ((tmp_path / n / "arrivals.json").read_bytes() for n in "abc")
    assert a == b and a != c
    staged = json.loads(a)
    assert len(staged["arrivals"]) == workload.submissions(2)
