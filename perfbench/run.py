"""Benchmark of decfem: seeded workloads, end-to-end metrics and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every end-to-end metric of every workload, with all output checks:

    for w in poisson_converge homology_surfaces verify_harmonic; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 30 --trace 0
    done

Run from a checkout of the repository; the library is imported from its
``src`` directory.  The seed picks the vertex relabelling of every input.
Set-up (input generation and checks, JSON round trip, a warm-up pass on
tiny inputs) is repeated, and the import of decfem plus its median is
reported as ``setup_s``.
Passes over the workload's task list then repeat for ``--seconds``
seconds and report medians.  With ``--trace 0`` the end-to-end metrics of
BENCHMARK.json are printed, every time in reference seconds (measured
seconds rescaled by a kernel sampled all through the run, see
``calibrate.py``; the measured pass times are printed too); with
``--trace 1`` untraced and traced passes alternate and the per-layer
metrics are printed as measured, including the tracing overhead.  Every
output is checked; the last line of standard output is one JSON object.
BLAS and OpenMP are capped at one thread per available core, and all load
comes from this one process.
"""

from __future__ import annotations

import os

THREADS = str(len(os.sched_getaffinity(0)))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench import calibrate  # noqa: E402  (needs ROOT on the path)

OUT = ROOT / ".perfbench_out"
WORKLOADS = ("poisson_converge", "homology_surfaces", "verify_harmonic")
SETUP_REPEATS = 5
MIN_PASSES = 3
MIN_TRACED_PASSES = 2


class SetupError(RuntimeError):
    pass


def import_dependencies():
    """Load numpy and scipy, untimed.

    Their load time (about 0.5 s, most of the import) is set by the page
    cache and the host's memory rather than by any code here, and it varied
    from 0.34 s to 0.62 s between runs of identical code, more than setup_s
    may move.
    """
    try:
        import numpy  # noqa: F401
        import scipy.sparse.linalg  # noqa: F401
    except ImportError as exc:
        raise SetupError(f"cannot import decfem's dependencies: {exc}") from exc


def import_library():
    """Import decfem from this checkout's ``src``; return the import seconds."""
    start, spent = time.perf_counter(), calibrate.spent()
    sys.path.insert(0, str(SRC))
    try:
        import decfem
    except ImportError as exc:
        raise SetupError(f"cannot import decfem from {SRC}: {exc}") from exc
    if Path(decfem.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"decfem imported from {decfem.__file__}, not from {SRC}")
    import perfbench.workloads  # noqa: F401  (the benchmark's own modules count too)

    return elapsed_since(start, spent)


def elapsed_since(start: float, spent: float) -> float:
    """Seconds since ``start``, less the time the calibration kernel took."""
    return time.perf_counter() - start - (calibrate.spent() - spent)


def run_pass(tasks: list, tracer=None):
    """Run every task once.

    Returns (seconds over all tasks, seconds on the largest input, failed
    task count, failure messages); output checks are not timed.
    """
    wall = largest = 0.0
    failed = 0
    messages = []
    for task in tasks:
        if tracer is not None:
            tracer.begin_task(task.name)
        start, spent = time.perf_counter(), calibrate.spent()
        try:
            result = task.run()
            elapsed = elapsed_since(start, spent)
            problems = task.check(result)
        except Exception as exc:  # a task that raises counts as failed; keep measuring
            problems = [f"{type(exc).__name__}: {exc}"]
            elapsed = elapsed_since(start, spent)
        wall += elapsed
        if task.largest:
            largest += elapsed
        if problems:
            failed += 1
            messages += [f"{task.name}: {p}" for p in problems]
    return wall, largest, failed, messages


def setup(workload: str, seed: int, workdir: Path):
    """Generate, check and write the seeded inputs and run the warm-up pass."""
    import numpy as np
    from perfbench import workloads
    from perfbench.inputs import InputError

    start, spent = time.perf_counter(), calibrate.spent()
    tiny_dir = workdir / "tiny"
    tiny_dir.mkdir(parents=True, exist_ok=True)
    try:
        tasks = workloads.build(workload, np.random.default_rng(seed), workdir)
        warmup = workloads.build(workload, np.random.default_rng(seed), tiny_dir, tiny=True)
    except InputError as exc:
        raise SetupError(f"bad input: {exc}") from exc
    _, _, failed, messages = run_pass(warmup)
    if failed:
        raise SetupError("warm-up failed: " + "; ".join(messages))
    return elapsed_since(start, spent), tasks


def resident_mb() -> float:
    """Current resident set size, after collecting cyclic garbage."""
    gc.collect()
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def measure(tasks: list, seconds: float):
    """Repeat passes for ``seconds``; times in reference seconds, plus measured pass times."""
    walls, largests, measured, failed, attempted = [], [], [], 0, 0
    peak = None
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        mark = calibrate.mark()
        wall, largest, pass_failed, messages = run_pass(tasks)
        scale = calibrate.factor(mark)
        # The peak is read after the first pass: the library keeps every
        # complex it has cached geometry for, so a later reading would grow
        # with the number of passes that fit in the run.
        if peak is None:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        measured.append(wall)
        walls.append(wall * scale)
        largests.append(largest * scale)
        failed += pass_failed
        attempted += len(tasks)
        for m in messages:
            print(f"FAILED {m}", file=sys.stderr)
    metrics = {
        "wall_s": statistics.median(walls),
        "largest_s": statistics.median(largests),
        "peak_rss_mb": peak,
    }
    return metrics, attempted, failed, measured


def measure_traced(workload: str, seed: int, workdir: Path, tasks: list, seconds: float, names: list):
    """Alternate untraced and traced passes; return the named per-layer medians."""
    from perfbench.tracing import Tracer

    tracer = Tracer()
    unknown = [n for n in names if not tracer.produces(n.removeprefix("setup."))]
    if unknown:
        raise SetupError(f"no tracer produces {unknown}")
    tracer.install()
    try:
        setup(workload, seed, workdir / "traced_setup")
    finally:
        tracer.uninstall()
    setup_metrics = {f"setup.{k}": v for k, v in tracer.pass_metrics().items()}

    untraced, cpu, traced, per_pass = [], [], [], []
    failed = attempted = 0
    resident_before = resident_mb()
    start = time.perf_counter()
    while len(traced) < MIN_TRACED_PASSES or time.perf_counter() - start < seconds:
        cpu_start = time.process_time()
        wall, _, pass_failed, messages = run_pass(tasks)
        cpu.append(time.process_time() - cpu_start)
        untraced.append(wall)
        tracer.reset()
        tracer.install()
        try:
            wall, _, traced_failed, traced_messages = run_pass(tasks, tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        per_pass.append(tracer.pass_metrics())
        failed += pass_failed + traced_failed
        attempted += 2 * len(tasks)
        for m in messages + traced_messages:
            print(f"FAILED {m}", file=sys.stderr)

    with open(OUT / f"spans-{workload}-seed{seed}.jsonl", "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    tracer.reset()  # drop the last pass's spans and meshes before reading memory
    whole_run = {
        "process.cpu_s": statistics.median(cpu),
        "process.retained_mb_per_pass": (resident_mb() - resident_before) / (2 * len(traced)),
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
    }
    metrics = {}
    for name in names:
        if name in whole_run:
            metrics[name] = whole_run[name]
        elif name.startswith("setup."):
            metrics[name] = setup_metrics.get(name, 0)
        else:
            metrics[name] = statistics.median(m.get(name, 0) for m in per_pass)
    return metrics, attempted, failed, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # The traced run reports per-layer times as measured: the calibration
    # signal would land inside the spans.
    if not args.trace:
        calibrate.start()
    try:
        return run(args)
    finally:
        calibrate.stop()


def run(args) -> int:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        import_dependencies()
        setup_mark = calibrate.mark()
        import_s = import_library()
    except (OSError, SetupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="inputs-", dir=OUT))
    try:
        setups = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            seconds, tasks = setup(args.workload, args.seed, workdir)
            setups.append(seconds)
        setup_scale = calibrate.factor(setup_mark)
        chosen = spec["per_layer" if args.trace else "end_to_end"]
        if args.trace:
            metrics, attempted, failed, passes = measure_traced(
                args.workload, args.seed, workdir, tasks, args.seconds, [m["name"] for m in chosen]
            )
        else:
            metrics, attempted, failed, passes = measure(tasks, args.seconds)
            metrics["setup_s"] = (import_s + statistics.median(setups)) * setup_scale
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in chosen}
    print(f"workload {args.workload}, seed {args.seed}, {THREADS} BLAS threads")
    print(
        f"  set-up seconds as measured: import {import_s:.3f}, repeats "
        + " ".join(f"{s:.3f}" for s in setups)
    )
    print("  pass seconds as measured: " + " ".join(f"{w:.3f}" for w in passes))
    if not args.trace:
        print(f"  reference seconds per measured second: {calibrate.factor():.4f} ({calibrate.mark()} kernel samples)")
    for name, entry in result.items():
        print(f"  {name:48s} {entry['value']:.6g} {entry['unit']}")
    print(f"  {'failed_frac':48s} {failed / attempted:.6g} ({failed} of {attempted} tasks)")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
