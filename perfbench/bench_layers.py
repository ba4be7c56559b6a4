"""Per-layer attribution for the traced run, measured from outside the program.

:func:`install` wraps public entry points of the program's layers — class
methods and module functions, replaced on their owning class or module for
the life of the traced process — with spans recorded in a
:class:`Recorder`.  Nothing inside ``src/`` changes: every number below is
either a span the benchmark itself timed around a public call, or a public
field of a value such a call returned.

Layers and the entry points wrapped:

* ``api`` — ``Session.__init__`` and ``Session.run``;
* ``backends`` — ``filter_stack`` / ``apply_filter`` (one "filter" group) and
  ``backproject`` / ``VolumeAccumulator.add|add_stack|volume`` (one
  "backproject" group) of every registered backend; only the outermost call
  of a group on a thread is a span, so drivers calling primitives are not
  counted twice;
* ``streaming`` — ``StreamingReconstructor.reconstruct``, whose chunk source
  is wrapped so the time spent waiting for each chunk is its own span;
* ``pipeline`` and ``pfs`` — ``IFDKFramework.reconstruct`` (its returned
  ``IFDKRunResult`` carries per-rank stage times and the PFS byte counters),
  ``IFDKFramework.stage_input`` and the volume read-back;
* ``mpi`` — ``SimCommunicator.Allgather`` and ``Reduce`` (bytes moved).

A span's self time is its duration minus the durations of the spans it
directly caused on the same thread.
"""

from __future__ import annotations

import threading
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    name: str
    start: float
    stop: float = 0.0
    parent: Optional[int] = None
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.stop - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


@dataclass
class Recorder:
    """Spans, counters and captured results of one traced process."""

    spans: List[Span] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    ifdk_results: List[object] = field(default_factory=list)
    streaming_results: List[object] = field(default_factory=list)
    alloc_peaks: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._in_flight = 0
        self._alloc_base = 0

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open_names(self) -> List[str]:
        return [self.spans[i].name for i in self._stack()]

    def begin(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(name, 0.0, parent=stack[-1] if stack else None))
        stack.append(index)
        self.spans[index].start = time.perf_counter()
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span.stop = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            with self._lock:
                self.spans[span.parent].children_s += span.duration

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    # Allocation peaks over each interval in which a backend call is in flight.
    def alloc_enter(self) -> None:
        if not tracemalloc.is_tracing():
            return
        with self._lock:
            if self._in_flight == 0:
                tracemalloc.reset_peak()
                self._alloc_base = tracemalloc.get_traced_memory()[0]
            self._in_flight += 1

    def alloc_exit(self) -> None:
        if not tracemalloc.is_tracing():
            return
        with self._lock:
            self._in_flight -= 1
            if self._in_flight == 0:
                peak = tracemalloc.get_traced_memory()[1]
                self.alloc_peaks.append(max(0, peak - self._alloc_base))

    def reset(self) -> None:
        """Forget everything recorded so far (after the warm-up job)."""
        with self._lock:
            self.spans.clear()
            self.counters.clear()
            self.ifdk_results.clear()
            self.streaming_results.clear()
            self.alloc_peaks.clear()

    # Aggregates ---------------------------------------------------------
    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def self_total(self, name: str) -> float:
        return sum(s.self_s for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def durations(self, name: str) -> List[float]:
        return [s.duration for s in self.spans if s.name == name]


def wrap(owner, attr: str, recorder: Recorder, name: str, *,
         alloc: bool = False, after: Optional[Callable] = None,
         before: Optional[Callable] = None) -> None:
    """Replace ``owner.attr`` with a version that records span ``name``.

    Only the outermost call of ``name`` on a thread is recorded.  ``before``
    may rewrite the arguments; ``after`` sees the call's arguments, result
    and span.
    """
    original = owner.__dict__[attr]

    def wrapper(*args, **kwargs):
        if name in recorder.open_names():
            return original(*args, **kwargs)
        if before is not None:
            args, kwargs = before(args, kwargs)
        if alloc:
            recorder.alloc_enter()
        index = recorder.begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.end(index)
            if alloc:
                recorder.alloc_exit()
        if after is not None:
            after(args, kwargs, result, recorder.spans[index])
        return result

    wrapper.__wrapped__ = original
    setattr(owner, attr, wrapper)


def _all_subclasses(cls) -> List[type]:
    out, todo = [], [cls]
    while todo:
        current = todo.pop()
        for sub in current.__subclasses__():
            out.append(sub)
            todo.append(sub)
    return out


def install(recorder: Recorder) -> None:
    """Wrap every layer's public entry points (call once per process)."""
    import repro.pipeline.ifdk as ifdk_module
    from repro.api import Session
    from repro.backends import ComputeBackend, available_backends, get_backend
    from repro.backends.base import VolumeAccumulator
    from repro.mpi.communicator import SimCommunicator
    from repro.pipeline.ifdk import IFDKFramework
    from repro.streaming import ProjectionChunkSource, StreamingReconstructor

    for name in available_backends():
        get_backend(name)  # import every backend so its classes exist
    wrap(Session, "__init__", recorder, "api.session_init")
    wrap(Session, "run", recorder, "api.run")

    for cls in [ComputeBackend, *_all_subclasses(ComputeBackend)]:
        for attr in ("filter_stack", "apply_filter"):
            method = cls.__dict__.get(attr)
            if method is not None and not getattr(method, "__isabstractmethod__", False):
                wrap(cls, attr, recorder, "backends.filter", alloc=True)
        if "backproject" in cls.__dict__:
            wrap(cls, "backproject", recorder, "backends.backproject", alloc=True)
    for cls in _all_subclasses(VolumeAccumulator):
        for attr in ("add", "add_stack", "volume"):
            if attr in cls.__dict__:
                wrap(cls, attr, recorder, "backends.backproject", alloc=True)

    class _TimedSource(ProjectionChunkSource):
        """Wraps a chunk source; each wait for the next chunk is a span."""

        def __init__(self, inner):
            self._inner = inner

        @property
        def num_projections(self) -> int:
            return self._inner.num_projections

        def chunks(self, bounds, *args, **kwargs):
            iterator = iter(self._inner.chunks(bounds, *args, **kwargs))
            while True:
                index = recorder.begin("streaming.chunk_wait")
                try:
                    piece = next(iterator)
                except StopIteration:
                    return
                finally:
                    recorder.end(index)
                recorder.count("streaming.chunks")
                yield piece

    def timed_source(args, kwargs):
        if "source" in kwargs:
            kwargs = dict(kwargs, source=_TimedSource(kwargs["source"]))
        else:
            args = (args[0], _TimedSource(args[1]), *args[2:])
        return args, kwargs

    wrap(StreamingReconstructor, "reconstruct", recorder, "streaming.reconstruct",
          before=timed_source,
          after=lambda a, k, result, span: recorder.streaming_results.append(result))

    def capture_ifdk(args, kwargs, result, span):
        recorder.ifdk_results.append(result)

    def pfs_before(args, kwargs):
        framework = args[0]
        stats = framework.pfs.stats
        recorder.count("pfs.bytes_read", -stats.bytes_read)
        recorder.count("pfs.bytes_written", -stats.bytes_written)
        return args, kwargs

    def pfs_after(args, kwargs, result, span):
        stats = args[0].pfs.stats
        recorder.count("pfs.bytes_read", stats.bytes_read)
        recorder.count("pfs.bytes_written", stats.bytes_written)
        capture_ifdk(args, kwargs, result, span)

    wrap(IFDKFramework, "reconstruct", recorder, "pipeline.reconstruct",
          before=pfs_before, after=pfs_after)
    wrap(IFDKFramework, "stage_input", recorder, "pfs.stage_input")
    wrap(ifdk_module, "read_volume", recorder, "pfs.read_volume")

    def comm_bytes(metric: str, fan_out: bool):
        def after(args, kwargs, result, span):
            comm = args[0]
            sendbuf = args[1] if len(args) > 1 else kwargs["sendbuf"]
            recorder.count(metric, sendbuf.nbytes * (comm.Get_size() if fan_out else 1))
        return after

    wrap(SimCommunicator, "Allgather", recorder, "mpi.allgather",
          after=comm_bytes("mpi.allgather_bytes", fan_out=True))
    wrap(SimCommunicator, "Reduce", recorder, "mpi.reduce",
          after=comm_bytes("mpi.reduce_bytes", fan_out=False))


def bp_wait_seconds(ifdk_result) -> float:
    """Time each rank's back-projection thread sat idle, summed over ranks.

    Per rank: the interval from its first to its last ``h2d``/``backprojection``
    event, minus the time those events were busy.
    """
    total = 0.0
    for rank in ifdk_result.rank_results:
        events = [e for e in rank.events if e.stage in ("h2d", "backprojection")]
        if not events:
            continue
        window = max(e.stop for e in events) - min(e.start for e in events)
        total += max(0.0, window - sum(e.duration for e in events))
    return total


def compute_layer_metrics(recorder: Recorder, jobs: int, problem) -> Dict[str, float]:
    """Per-job layer metrics of a traced compute process (after its warm-up)."""
    from repro.core.backprojection import operation_counts

    per_job = 1.0 / max(1, jobs)
    bp_s = recorder.total("backends.backproject")
    updates = problem.updates
    chunks = recorder.counters.get("streaming.chunks", 0.0)
    metrics = {
        "api.run_overhead_s": recorder.self_total("api.run") * per_job,
        "backends.filter_s": recorder.total("backends.filter") * per_job,
        "backends.filter_calls": recorder.calls("backends.filter") * per_job,
        "backends.backproject_s": bp_s * per_job,
        "backends.backproject_calls": recorder.calls("backends.backproject") * per_job,
        "backends.backproject_gups": (updates * jobs / bp_s / 2**30) if bp_s > 0 else 0.0,
        "backends.backproject_ops": operation_counts(problem, "proposed").weighted_total,
        # Computed, not measured: every projection is read once and the
        # whole volume is read and written once per projection.
        "backends.backproject_bytes": float(problem.np_ * (
            problem.nu * problem.nv * 4 + 2 * problem.output_voxels * 4
        )),
        "backends.peak_alloc_mb": max(recorder.alloc_peaks, default=0) / 2**20,
        "streaming.chunks": chunks * per_job,
        "streaming.chunk_wait_s": recorder.total("streaming.chunk_wait") * per_job,
        "streaming.per_chunk_overhead_ms": (
            1e3 * recorder.self_total("streaming.reconstruct") / chunks if chunks else 0.0
        ),
        "streaming.working_set_mb": max(
            (r.working_set_bytes for r in recorder.streaming_results), default=0
        ) / 2**20,
        "pfs.stage_input_s": recorder.total("pfs.stage_input") * per_job,
        "pfs.read_volume_s": recorder.total("pfs.read_volume") * per_job,
        "pfs.bytes_read": recorder.counters.get("pfs.bytes_read", 0.0) * per_job,
        "pfs.bytes_written": recorder.counters.get("pfs.bytes_written", 0.0) * per_job,
        "mpi.allgather_bytes": recorder.counters.get("mpi.allgather_bytes", 0.0) * per_job,
        "mpi.reduce_bytes": recorder.counters.get("mpi.reduce_bytes", 0.0) * per_job,
    }
    stages = ("load", "filter", "allgather", "backprojection", "reduce", "store")
    results = recorder.ifdk_results
    for stage in stages:
        metrics[f"pipeline.{stage}_s"] = sum(
            r.stage_totals().get(stage, 0.0) for r in results
        ) * per_job
    metrics["pipeline.overlap_delta"] = (
        sum(r.mean_overlap_delta() for r in results) / len(results) if results else 0.0
    )
    metrics["pipeline.bp_wait_s"] = sum(bp_wait_seconds(r) for r in results) * per_job
    return metrics
