"""Entry point of the fockcascade benchmark.

    python3 perfbench/run.py --workload nogo-max --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end metrics
when ``--trace 0`` and the per-layer metrics when ``--trace 1``.  The lines
before it are a JSON report with the environment, sample counts and the
slowest item.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("nogo-max", "oracle-dense", "cascade-check")
BLAS_THREADS = 1
SETUP_PROBES = 5
TRACE_PASSES = 2
MAX_TIMED_SECONDS = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def _fix_threads() -> None:
    """One BLAS thread, set before numpy loads: the oracle-dense median moves
    by 2x between one and two threads on a 2-core machine."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _import_package() -> None:
    if not (SRC / "fockcascade" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'fockcascade'}")
    sys.path.insert(0, str(SRC))
    import fockcascade

    if Path(fockcascade.__file__).resolve().parent != SRC / "fockcascade":
        raise SystemExit(f"error: imported fockcascade from {fockcascade.__file__}, not {SRC}")


def _workdir(name: str) -> Path:
    path = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    path.mkdir(parents=True)
    return path


def _remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:  # another run still uses it
        pass


def environment() -> dict:
    import numpy
    import scipy

    revision = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        revision = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def measure_setup(args) -> list[float]:
    """Wall time of fresh processes that import the package and build the
    workload's inputs, as a user's run pays it."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=170,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
    return times


def reference_ms() -> float:
    """Time of a fixed pure-Python loop.  It does not depend on the package,
    so comparing it between runs shows how fast the machine itself was."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return (time.perf_counter() - start) * 1000.0


def run_items(workload, indices, tracer=None):
    """Run and check the given items; returns [(index, seconds, Outcome)]."""
    from workloads import Outcome

    rows = []
    for index in indices:
        gc.collect()
        if tracer is not None:
            tracer.begin_item(index)
        start = time.perf_counter()
        try:
            raw = workload.run(index)
        except Exception as exc:  # an item that raises is a failed item
            seconds = time.perf_counter() - start
            rows.append((index, seconds, Outcome(False, float("inf"), repr(exc))))
            continue
        seconds = time.perf_counter() - start
        rows.append((index, seconds, workload.check(index, raw)))
    return rows


def timed_phase(workload, seconds: float):
    """Whole cycles until the elapsed time is closest to ``seconds``."""
    rows = []
    cycles = 0
    start = time.perf_counter()
    while True:
        first = cycles * workload.cycle
        workload.prepare(first + workload.cycle)
        rows += run_items(workload, range(first, first + workload.cycle))
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / cycles >= seconds or elapsed > MAX_TIMED_SECONDS:
            return rows, cycles


def _summary(workload, rows) -> dict:
    failed = [r for r in rows if not r[2].ok]
    index, seconds, outcome = max(rows, key=lambda r: r[1])
    return {
        "items": len(rows),
        "failed_share": len(failed) / len(rows),
        "failures": [
            {"index": i, "description": workload.describe(i), "detail": o.detail}
            for i, _, o in failed[:10]
        ],
        "max_error_ratio": max(o.error_ratio for _, _, o in rows),
        "slowest_item": {
            "index": index,
            "item_seed": workload.seed_of(index),
            "description": workload.describe(index),
            "detail": outcome.detail,
            "ms": seconds * 1000.0,
        },
    }


def _result(correct: bool, rows, metrics: dict) -> dict:
    return {
        "correct": bool(correct),
        "attempted": len(rows),
        "failed": sum(1 for r in rows if not r[2].ok),
        "metrics": metrics,
    }


def slot_medians(rows, workload) -> dict[int, float]:
    """Each panel slot's median time over all its items in the run."""
    by_slot: dict[int, list[float]] = {}
    for index, seconds, _ in rows:
        by_slot.setdefault(workload.slot_of(index), []).append(seconds)
    return {slot: statistics.median(times) for slot, times in by_slot.items()}


def untraced_run(args, workload, report) -> dict:
    """Timing metrics use each slot's median over the cycles, so a burst of
    machine noise during one item does not move them, and count every slot
    once per cycle; the raw item times are in the report."""
    warm = run_items(workload, [0])
    before = reference_ms()
    rows, cycles = timed_phase(workload, args.seconds)
    report["reference_ms"] = [before, reference_ms()]
    medians = slot_medians(rows, workload)
    times_ms = sorted(m * 1000.0 for m in medians.values() for _ in range(cycles))
    p90 = statistics.quantiles(times_ms, n=10)[8]
    report.update(_summary(workload, rows))
    report["cycles"] = cycles
    report["p90_samples_at_or_beyond"] = sum(1 for t in times_ms if t >= p90)
    report["item_ms"] = [round(r[1] * 1000.0, 3) for r in rows]
    metrics = {
        "setup_s": statistics.median(report["setup_s_samples"]),
        "items_per_s": len(medians) / sum(medians.values()),
        "item_ms_p50": statistics.median(times_ms),
        "item_ms_p90": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    correct = warm[0][2].ok and report["failed_share"] == 0.0
    return _result(correct, rows, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()})


def traced_run(args, workload, report) -> dict:
    """The first ``trace_cycles`` cycles: once untraced, then twice traced.
    Counts must agree exactly between the traced passes."""
    import tracer as tracing

    indices = range(workload.trace_cycles * workload.cycle)
    workload.prepare(len(indices))
    run_items(workload, [0])
    start = time.perf_counter()
    rows = run_items(workload, indices)
    plain_s = time.perf_counter() - start

    passes = []
    for _ in range(TRACE_PASSES):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            start = time.perf_counter()
            rows += run_items(workload, indices, tracer)
            wall = time.perf_counter() - start
        finally:
            tracer.uninstall()
        passes.append((wall, tracer.metrics(), tracer))

    first, second = passes[0][1], passes[1][1]
    work = [name for name, unit in tracing.METRICS.items() if unit != "s"]
    mismatched = [n for n in work if first.get(n) != second.get(n)]
    problems = [f"count {n} differs between traced passes: {first.get(n)} vs {second.get(n)}" for n in mismatched]
    problems += workload.trace_problems(passes[0][2], indices)

    # The result line carries every declared metric; a layer this workload
    # never reaches reads 0 there and is named in the report's absent_layers.
    metrics = {}
    for name, unit in tracing.METRICS.items():
        if unit == "s":
            value = statistics.fmean(p[1].get(name, 0.0) for p in passes)
        else:
            value = first.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
    traced_s = statistics.fmean(p[0] for p in passes)
    metrics["trace.overhead_s"] = {"value": traced_s - plain_s, "unit": "s"}
    metrics["check.max_error_ratio"] = {"value": max(o.error_ratio for _, _, o in rows), "unit": "ratio"}

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl"
    passes[0][2].write_spans(str(spans_path))

    report.update(_summary(workload, rows))
    report.update({
        "traced_items": len(indices),
        "untraced_s": plain_s,
        "traced_s": [p[0] for p in passes],
        "overhead_share": (traced_s - plain_s) / plain_s,
        "absent_layers": sorted(n for n in tracing.METRICS if n not in first),
        "self_check_problems": problems,
        "spans_file": str(spans_path.relative_to(ROOT)),
    })
    correct = report["failed_share"] == 0.0 and not problems
    return _result(correct, rows, metrics)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    _fix_threads()
    _import_package()
    import workloads

    workdir = _workdir(args.workload)
    try:
        if args.setup_probe:
            workloads.WORKLOADS[args.workload](args.seed, str(workdir))
            return 0

        report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": environment()}
        if not args.trace:
            report["setup_s_samples"] = measure_setup(args)
        workload = workloads.WORKLOADS[args.workload](args.seed, str(workdir))

        gate = workloads.known_answer_gate()
        report["known_answers"] = {name: ok for name, ok, _ in gate}
        wrong = [f"{name}: {detail}" for name, ok, detail in gate if not ok]
        if wrong:
            print("error: known-answer gate failed, nothing timed:\n  " + "\n  ".join(wrong), file=sys.stderr)
            return 1

        result = (traced_run if args.trace else untraced_run)(args, workload, report)
        print(json.dumps(report, indent=1))
        print(json.dumps(result))
        return 0
    finally:
        _remove_workdir(workdir)


if __name__ == "__main__":
    sys.exit(main())
