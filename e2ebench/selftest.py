"""Fast self-test of the benchmark harness at tiny sizes.

Run from the repository root::

    python3 e2ebench/selftest.py

It checks that every workload prints every metric BENCHMARK.json names,
with its unit, traced and untraced; that corrupted outputs (a perturbed
estimate, a soak row that did not converge) count as failed operations;
and that without the program's sources the benchmark exits non-zero
without printing a result.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402  (needs the paths above)

TINY: Dict[str, Dict[str, Any]] = {
    "paper-table2": dict(scale=0.0005, n_nodes=16, ms=(64,), trials=1),
    "paper-table3": dict(n_nodes=32, scale=0.0001, ms=(64,), n_buckets=10, trials=1),
    "count-query": dict(scale=0.0005, n_nodes=16, m=64, rings=2, origins=1),
    "churn-soak": dict(ticks=24, items_per_tick=20),
}
SEED = 3
SECONDS = 0.2


def declared(kind: str) -> Dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def tiny_run(workload: str, trace: bool) -> Dict[str, Any]:
    result, _ = run.benchmark(workload, SEED, SECONDS, trace, sizes=TINY[workload])
    return result


def check_metrics(problems: List[str]) -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        names = [w["name"] for w in json.load(handle)["workloads"]]
    if sorted(names) != sorted(TINY):
        problems.append(f"BENCHMARK.json workloads {names} != {sorted(TINY)}")
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        units = declared(kind)
        for workload in TINY:
            result = tiny_run(workload, trace)
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != units:
                problems.append(f"{workload} {kind}: printed {printed}, declared {units}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} {kind}: clean run judged incorrect: {result}")
            print(f"ok  {workload:13s} {kind:10s} {len(printed)} metrics", flush=True)


def check_corruption(problems: List[str]) -> None:
    from repro.core.count import Counter
    import repro.experiments.soak as soak

    count = Counter.__dict__["count"]

    def perturbed(self: Any, *args: Any, **kwargs: Any) -> Any:
        result = count(self, *args, **kwargs)
        result.estimates = {key: 3 * value for key, value in result.estimates.items()}
        return result

    Counter.count = perturbed  # type: ignore[method-assign]
    try:
        result = tiny_run("count-query", False)
    finally:
        Counter.count = count  # type: ignore[method-assign]
    if result["correct"] or result["failed"] < 1:
        problems.append(f"perturbed estimates not counted as failed: {result}")
    print(f"ok  perturbed estimate -> {result['failed']} failed", flush=True)

    cell = soak._soak_cell

    def diverged(*args: Any, **kwargs: Any) -> Any:
        row = cell(*args, **kwargs)
        row.final_divergence += 1
        return row

    soak._soak_cell = diverged
    try:
        result = tiny_run("churn-soak", False)
    finally:
        soak._soak_cell = cell
    if result["correct"] or result["failed"] < 1:
        problems.append(f"unconverged soak row not counted as failed: {result}")
    print(f"ok  diverged soak row -> {result['failed']} failed", flush=True)


def check_bare_directory(problems: List[str]) -> None:
    """Only BENCHMARK.json and the benchmark: exit non-zero, no result."""
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "e2ebench"), ignore=shutil.ignore_patterns("out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        done = subprocess.run(
            [sys.executable, "e2ebench/run.py", "--workload", "count-query",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        problems.append(f"bare directory: exit {done.returncode}, stdout {done.stdout!r}")
    print(f"ok  bare directory -> exit {done.returncode}", flush=True)


def main() -> int:
    os.environ.update(run.PINNED_ENV)
    run.IMPORT_REPEATS = 1
    problems: List[str] = []
    check_metrics(problems)
    check_corruption(problems)
    check_bare_directory(problems)
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
