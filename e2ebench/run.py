"""End-to-end benchmark of the DHS reproduction.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload paper-table2 --seed 1 --seconds 20 --trace 0

Workloads are defined in ``suite.py``.  A run sets the workload up, then
repeats *passes* of it until ``--seconds`` are spent, checking the
output of every pass and of every count.  With ``--trace 0`` it reports
the end-to-end metrics of BENCHMARK.json, measured with no tracing.
With ``--trace 1`` it alternates untraced and traced passes and reports
the per-layer metrics (``spans.py``); the spans of the last traced pass
are written to ``e2ebench/out/``.

Every time reported is scaled to the speed of a reference host by a
fixed loop timed all along the run (:class:`HostSpeed`); the times as
measured are printed on the ``# host=`` line and as ``wall.run_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is
run from ``src/`` of the same checkout; without it the benchmark exits
with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
OUT = os.path.join(HERE, "out")

#: The seed whose outputs reference.json pins byte for byte.
DEFAULT_SEED = 0
#: Fresh interpreters timed importing the program (median reported).
IMPORT_REPEATS = 3
#: Iterations of the reference loop that samples the host's speed.
REFERENCE_ITERATIONS = 20_000
#: Seconds between two samples of the host's speed.
SAMPLE_INTERVAL = 0.05
#: Samples of the host's speed taken before each fresh interpreter.
SAMPLES_PER_IMPORT = 20
#: The reference loop's time on this benchmark's reference host (2-core
#: x86_64 VM, Python 3.11.7) when nothing else competes for it.  Reported
#: times are scaled to it; see :class:`HostSpeed`.
REFERENCE_S = 1.3e-3

# Conditions that affect steadiness, pinned whatever the shell sets.
PINNED_ENV = {"DHS_JOBS": "1", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}


def percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation between ranks); 0
    when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def environment() -> Dict[str, Any]:
    import numpy

    uname = os.uname()
    return {
        "machine": uname.machine,
        "system": f"{uname.sysname} {uname.release}",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pinned": PINNED_ENV,
    }


class HostSpeed:
    """Samples the host's speed while the benchmark works.

    A shared host's speed changes by half within a minute as other
    tenants come and go, and a fixed loop slows with it.  Every
    ``SAMPLE_INTERVAL`` seconds a timer signal times such a loop;
    :meth:`scale` turns wall times measured over a stretch of samples
    into seconds at the reference host's speed.  The time the samples
    take is kept in :attr:`spent`, for timers to subtract.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(REFERENCE_ITERATIONS):
            total += i * i % 7
        self.samples.append(time.perf_counter() - start)
        self.spent += time.perf_counter() - start

    def _on_alarm(self, signum: int, frame: Any) -> None:
        self.sample()

    def resume(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)

    def pause(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self._on_alarm)
        self.resume()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.pause()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, first: int, last: Optional[int] = None) -> float:
        """Reference loop time over the mean loop time of samples
        ``first`` to ``last`` (1.0 when there are none)."""
        samples = self.samples[first:last]
        return REFERENCE_S / statistics.fmean(samples) if samples else 1.0


def import_seconds(modules: Tuple[str, ...], host: HostSpeed) -> float:
    """Median wall time for a fresh interpreter to import ``modules``.

    The host's speed is sampled in this process just before each
    interpreter starts, not while this process only waits for it.
    """
    code = f"import sys; sys.path.insert(0, {SRC!r}); " + "; ".join(
        f"import {module}" for module in modules
    )
    env = {**os.environ, **PINNED_ENV}
    samples = []
    host.pause()
    for _ in range(IMPORT_REPEATS):
        for _ in range(SAMPLES_PER_IMPORT):
            host.sample()
        start = time.perf_counter()
        # No timeout: waiting with one polls every 50 ms, and rounds the
        # time up by as much.
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        samples.append(time.perf_counter() - start)
    host.resume()
    return statistics.median(samples)


class Run:
    """One benchmark run: passes, checks and the figures they give."""

    def __init__(
        self, workload: Any, count_log: Any, reference: Optional[Any], host: HostSpeed
    ) -> None:
        self.workload = workload
        self.log = count_log
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.outputs: List[Any] = []
        self.records: List[Any] = []  # counts of untraced passes
        self.seconds: Dict[bool, List[float]] = {False: [], True: []}
        self.tracers: List[Any] = []
        self.host = host
        self.first_sample = len(host.samples)  # the first taken while measuring
        self.wall_setup_s = 0.0  # set-up time as measured, not scaled

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED: {self.workload.name}: {what}", file=sys.stderr)

    def one_pass(self, traced: bool) -> float:
        """Run one pass; a traced pass repeats the last untraced pass's input."""
        from spans import Tracer, installed

        gc.collect()
        first = len(self.log.records)
        index = max(0, len(self.seconds[False]) - traced)
        tracer = Tracer() if traced else None
        if tracer is not None:
            self.workload.begin_request = tracer.set_request
        spent = self.host.spent
        start = time.perf_counter()
        try:
            if tracer is None:
                output = self.workload.run_pass(index)
            else:
                with installed(tracer):
                    output = self.workload.run_pass(index)
        except Exception:  # a failed operation: record it and go on
            del self.log.records[first:]
            self.attempted += 1
            self.fail(traceback.format_exc())
            return time.perf_counter() - start
        finally:
            self.workload.begin_request = lambda request: None
        sampled = self.host.spent - spent
        elapsed = time.perf_counter() - start - sampled
        self.seconds[traced].append(elapsed)
        if tracer is not None:
            # The spans include the samples taken inside them.
            self.tracers.append((tracer, elapsed + sampled))
        records = self.log.records[first:]
        del self.log.records[first:]
        if not traced:
            self.records.extend(records)
        self.check(output, records)
        return elapsed

    def check(self, output: Any, records: List[Any]) -> None:
        from repro.obs import runtime

        workload = self.workload
        for record in records:
            self.attempted += 1
            if not workload.check_count(record):
                self.fail(f"count out of bounds: {record}")
        self.attempted += 1
        problems = workload.check_pass(output)
        if runtime.TRACING or runtime.METERING:
            # They switch the count fast path off: a different algorithm.
            problems.append("repro.obs tracing or metering was on")
        value = json.loads(json.dumps(workload.reference_value(output)))
        if not self.outputs and self.reference is not None and value != self.reference:
            problems.append("output differs from reference.json")
        for problem in problems:
            self.fail(problem)
        self.outputs.append(output)

    def measure(self, seconds: float, trace: bool) -> None:
        """Passes until ``seconds`` are spent; traced runs alternate.

        Raises when no pass of a needed kind succeeded in twice the time.
        """
        start = time.perf_counter()
        deadline = start + seconds
        traced = False
        while True:
            elapsed = self.one_pass(traced)
            if trace:
                traced = not traced
            both_kinds = self.seconds[False] and (self.seconds[True] or not trace)
            now = time.perf_counter()
            if both_kinds and now + elapsed > deadline:
                return
            if now > deadline + seconds:
                raise RuntimeError(f"{self.workload.name}: no pass succeeded")


def end_to_end(run: Run, setup_s: float) -> Dict[str, Tuple[float, str]]:
    """The untraced figures; times at the reference host's speed."""
    passes = run.seconds[False]
    run_s = statistics.median(passes) * run.host.scale(run.first_sample)
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (run_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "counts_per_s": (len(run.records) / len(passes) / run_s, "1/s"),
    }


def count_figures(records: List[Any], scale: float) -> Dict[str, Tuple[float, str]]:
    """Latency (scaled by ``scale``) and cost per count, from the
    untraced passes' counts."""
    metrics: Dict[str, Tuple[float, str]] = {}
    for estimator in ("sll", "pcsa"):
        latencies = [r.seconds * 1000 * scale for r in records if r.estimator == estimator]
        metrics[f"count_{estimator}_p50_ms"] = (percentile(latencies, 50), "ms")
        metrics[f"count_{estimator}_p99_ms"] = (percentile(latencies, 99), "ms")
    metrics["count_hops"] = (statistics.fmean(r.hops for r in records), "hops")
    metrics["count_kbytes"] = (statistics.fmean(r.kbytes for r in records), "kB")
    return metrics


LAYER_TIMES = (
    ("workloads", "workloads.self_s"),
    ("hashing", "hashing.self_s"),
    ("overlay.build", "overlay.build_s"),
    ("overlay.lookup", "overlay.lookup.self_s"),
    ("overlay.store", "overlay.store.self_s"),
    ("core.insert", "core.insert.self_s"),
    ("core.count", "core.count.self_s"),
    ("sketches.estimate", "sketches.estimate.self_s"),
    ("histograms.reconstruct", "histograms.reconstruct.self_s"),
    ("core.maintenance", "core.maintenance.self_s"),
    ("overlay.antientropy", "overlay.antientropy.self_s"),
    ("overlay.replication", "overlay.replication.self_s"),
    ("core.policy", "core.policy.self_s"),
    ("sim.parallel", "sim.parallel.self_s"),
    ("experiments", "experiments.self_s"),
)
LAYER_CALLS = (
    ("workloads", "workloads.calls"),
    ("hashing", "hashing.calls"),
    ("overlay.lookup", "overlay.lookup.calls"),
    ("overlay.store", "overlay.store.calls"),
    ("core.insert", "core.insert.calls"),
    ("core.count", "core.count.calls"),
    ("sketches.estimate", "sketches.estimate.calls"),
    ("histograms.reconstruct", "histograms.reconstruct.calls"),
    ("core.maintenance", "core.maintenance.ticks"),
    ("overlay.antientropy", "overlay.antientropy.rounds"),
    ("overlay.replication", "overlay.replication.calls"),
    ("core.policy", "core.policy.calls"),
)
LAYER_COUNTERS = (
    ("workloads.items", "count"),
    ("hashing.items", "count"),
    ("overlay.lookup.hops", "hops"),
    ("core.insert.hops", "hops"),
    ("core.insert.kbytes", "kB"),
    ("core.count.probes", "count"),
    ("core.count.unique_probed", "count"),
    ("core.count.intervals", "count"),
    ("core.count.exhausted_intervals", "count"),
    ("overlay.faults.timeouts", "count"),
    ("overlay.faults.drops", "count"),
    ("sim.parallel.cells", "count"),
)
QUALITY_UNITS = {
    "count_error_pct": "%",
    "degraded_pct": "%",
    "repair_kbytes": "kB",
    "underread_pct": "%",
}


def per_layer(run: Run) -> Dict[str, Tuple[float, str]]:
    """Per-pass means over the traced passes, plus output quality.

    Times are scaled to the reference host's speed, as in
    :func:`end_to_end`; ``wall.run_s`` is the median untraced pass as
    measured and ``host.scale`` the factor.
    """
    tracers = [tracer for tracer, _ in run.tracers]
    n = len(tracers)
    scale = run.host.scale(run.first_sample)

    def mean(get: Any) -> float:
        return sum(get(tracer) for tracer in tracers) / n

    metrics: Dict[str, Tuple[float, str]] = {}
    for layer, name in LAYER_TIMES:
        metrics[name] = (mean(lambda t: t.self_s.get(layer, 0.0)) * scale, "s")
    for layer, name in LAYER_CALLS:
        metrics[name] = (mean(lambda t: t.calls.get(layer, 0)), "count")
    for name, unit in LAYER_COUNTERS:
        metrics[name] = (mean(lambda t: t.counters.get(name, 0.0)), unit)
    intervals = metrics["core.count.intervals"][0]
    exhausted = metrics["core.count.exhausted_intervals"][0]
    metrics["core.count.resolved_ratio"] = (
        1 - exhausted / intervals if intervals else 1.0,
        "ratio",
    )
    traced = statistics.median(run.seconds[True])
    untraced = statistics.median(run.seconds[False])
    metrics["trace.overhead_pct"] = (100 * (traced / untraced - 1), "%")
    metrics["trace.unattributed_s"] = (
        sum(elapsed - tracer.attributed_s() for tracer, elapsed in run.tracers) / n * scale,
        "s",
    )
    metrics["wall.run_s"] = (untraced, "s")
    metrics["host.scale"] = (scale, "ratio")
    metrics.update(count_figures(run.records, scale))
    quality = run.workload.quality(run.outputs, run.records)
    for name, unit in QUALITY_UNITS.items():
        metrics[name] = (quality[name], unit)
    return metrics


def load_reference(workload: Any) -> Optional[Any]:
    if workload.seed != DEFAULT_SEED or not os.path.exists(REFERENCE):
        return None
    with open(REFERENCE) as handle:
        entry = json.load(handle).get(workload.name)
    if entry is None or entry["sizes"] != json.loads(json.dumps(workload.sizes)):
        return None
    return entry["output"]


def write_reference(workload: Any, output: Any) -> None:
    """Record ``output`` as the pinned output of this workload."""
    entries: Dict[str, Any] = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as handle:
            entries = json.load(handle)
    entries[workload.name] = {
        "seed": workload.seed,
        "sizes": workload.sizes,
        "output": workload.reference_value(output),
    }
    with open(REFERENCE, "w") as handle:
        json.dump(entries, handle, indent=1, sort_keys=True)
        handle.write("\n")


def benchmark(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: Optional[Dict[str, Any]] = None,
    check_reference: bool = True,
) -> Tuple[Dict[str, Any], Run]:
    """Set up, measure and check one workload; returns the result object."""
    from suite import WORKLOADS, CountLog

    workload = WORKLOADS[name](seed, **(sizes or {}))
    log = CountLog()
    log.install()
    try:
        with HostSpeed() as host:
            imports = import_seconds(workload.modules, host)
            setups = []
            for _ in range(workload.setups):
                gc.collect()
                spent = host.spent
                start = time.perf_counter()
                workload.setup()
                setups.append(time.perf_counter() - start - (host.spent - spent))
            log.records.clear()
            reference = load_reference(workload) if check_reference else None
            run = Run(workload, log, reference, host)
            run.measure(seconds, trace)
    finally:
        log.restore()
    run.wall_setup_s = imports + statistics.median(setups)
    setup_s = run.wall_setup_s * host.scale(0, run.first_sample)
    metrics = per_layer(run) if trace else end_to_end(run, setup_s)
    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return result, run


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference", action="store_true",
        help="record the first pass's output in reference.json instead of checking it",
    )
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program is not there ({SRC}/repro)", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from suite import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")

    result, run = benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace),
        check_reference=not args.write_reference,
    )
    if args.write_reference:
        write_reference(run.workload, run.outputs[0])
    if run.tracers:
        os.makedirs(OUT, exist_ok=True)
        run.tracers[-1][0].write(os.path.join(OUT, f"{args.workload}.spans.npz"))
    env = environment()
    passes = {"untraced_s": run.seconds[False], "traced_s": run.seconds[True]}
    print(f"# {args.workload} seed={args.seed} passes={json.dumps(passes)}")
    host = {
        "wall_setup_s": run.wall_setup_s,
        "setup_scale": run.host.scale(0, run.first_sample),
        "run_scale": run.host.scale(run.first_sample),
        "samples": len(run.host.samples),
    }
    print(f"# host={json.dumps(host)}")
    print(f"# env={json.dumps(env)}")
    for key, metric in result["metrics"].items():
        print(f"{key:34s} {metric['value']:14.6f} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
