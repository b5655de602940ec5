"""sdrkit benchmark: one workload, one process, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload's inputs are generated from
``--seed``.  Set-up (import plus input generation) is timed three times,
once in this process and twice in fresh child processes, and its median
reported.  The operation is then repeated, each time into an empty output
directory, for ``--seconds`` seconds and at least MIN_ITERATIONS times.  A
fixed reference loop is timed before the first iteration and after every
iteration; ``op_ref`` is the median over iterations of each iteration's wall
time divided by the median reference slice timed just before and after it.  The first iteration is checked in full
and every later iteration must reproduce it exactly.
With ``--trace 1`` half the time runs untraced and half traced (at least
twice each), the per-layer metrics come from the traced half, and the
deterministic counts must repeat across the traced iterations.

Metric names and units are read from ``BENCHMARK.json``.  The last line of
standard output is the JSON result; the lines before it describe the
environment and the metrics for a human reader.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ITERATIONS = 3
SETUP_CHILDREN = 2
# median reference slice on the machine the benchmark was defined on, in its
# fast phase; setup_s is scaled by REFERENCE_S / (this run's median slice)
# into seconds at that speed
REFERENCE_S = 0.040
# deterministic per-iteration counts: each must repeat exactly
REPEATING = (
    "ordinal.calls", "irt.grad_evals", "irt.map_grad_evals.likert", "irt.map_grad_evals.gfc",
    "irt.hmc_grad_evals", "irt.hmc_min_ess", "irt.hmc_rhat_share", "irt.hmc_divergences",
    "simulate.calls", "administer.sessions", "administer.units", "assemble.candidates",
    "assemble.nodes", "assemble.optimal_instances",
)
# per-layer values that come from the workloads' output checks
CHECK_VALUES = ("report.recovery_min", "simulate.answer_mismatches")


def single_thread_blas() -> int:
    """Run BLAS on one thread and return the CPUs this process may use.

    With two threads on a 2-vCPU host, study-map used 1.8 CPUs and its time
    depended on whether the second vCPU was free; on one thread its CPU
    time equals its wall time.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    return len(os.sched_getaffinity(0))


def blas_runtime() -> tuple[str, int | None]:
    """Version string and thread count of the OpenBLAS numpy loaded."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("openblas", ""), ("scipy_openblas", "64_"), ("openblas", "64_")):
            try:
                config = getattr(lib, f"{prefix}_get_config{suffix}")
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            except AttributeError:
                continue
            config.restype = ctypes.c_char_p
            return config().decode(), int(threads())
    return "unknown", None


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    blas, threads = blas_runtime()
    return {
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "blas_threads": threads,
    }


def reference_loop() -> list[float]:
    """Time four equal slices of fixed interpreter and small-array numpy work.

    The host's speed switches between a fast and a slow phase (about 1.5x
    apart) every few seconds, and for minutes at a time.  The slices timed
    around an iteration measure the speed the iteration ran at, and
    ``op_ref`` divides by it.  The loop calls no sdrkit code.
    """
    import numpy as np

    a = np.linspace(-3.0, 3.0, 4800).reshape(80, 60)
    out = []
    for _ in range(4):
        t0 = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(200_000):
            counts[i & 1023] = counts.get(i & 1023, 0) + i
        for _ in range(1000):
            np.exp(-np.abs(a)).sum(axis=0)
        out.append(time.perf_counter() - t0)
    return out


class Loop:
    """Times repeated iterations of one workload and checks their outputs."""

    def __init__(self, workload, out: Path):
        self.workload = workload
        self.out = out
        self.first_fingerprint = None
        self.outcome = None  # full check of the first iteration
        self.iterations = self.attempted = self.failed = 0
        self.reference_times: list[float] = []  # every slice of the run
        self.errors: list[str] = []

    def measure(self, seconds: float, min_iterations: int, tracer=None, layer_metrics=None):
        """Iterate for ``seconds`` and at least ``min_iterations`` times;
        return the wall times, each divided by the median reference slice
        around it, and, when traced, each iteration's layer metrics."""
        times: list[float] = []
        ratios: list[float] = []
        per_iteration: list = []
        before = reference_loop()
        self.reference_times += before
        start = time.perf_counter()
        while len(times) < min_iterations or time.perf_counter() - start < seconds:
            shutil.rmtree(self.out, ignore_errors=True)  # resume would reuse old files
            if tracer is not None:
                tracer.clear()
            t0 = time.perf_counter()
            result = self.workload.run()
            times.append(time.perf_counter() - t0)
            if tracer is not None:
                per_iteration.append(layer_metrics(tracer))
            after = reference_loop()
            self.reference_times += after
            ratios.append(times[-1] / statistics.median(before + after))
            before = after
            self.iterations += 1
            fingerprint = self.workload.fingerprint(result)
            if self.outcome is None:
                self.first_fingerprint = fingerprint
                self.outcome = self.workload.check(result)
                self.errors.extend(self.outcome.errors)
            elif fingerprint != self.first_fingerprint:
                self.errors.append("output differs from the first iteration")
            self.attempted += self.outcome.attempted
            self.failed += self.outcome.failed
        return times, ratios, per_iteration

    def failure_rate(self) -> float:
        """Failed / attempted operations of one iteration."""
        return self.outcome.failed / self.outcome.attempted


def per_layer(names, loop: Loop, untraced, traced, per_iteration) -> dict[str, float]:
    """Each value is its median over the traced iterations; p50/p99 pool
    every call of the traced half."""
    scalars: dict[str, list[float]] = {}
    pooled: dict[str, list[float]] = {}
    for metrics, samples in per_iteration:
        for k, v in metrics.items():
            scalars.setdefault(k, []).append(v)
        for k, v in samples.items():
            pooled.setdefault(k, []).extend(v)
    for k, v in loop.outcome.values.items():
        scalars[k] = [v]
    for k in REPEATING:
        if len(set(scalars[k])) > 1:
            loop.errors.append(f"{k} differs between iterations: {scalars[k]}")
    values = {
        "run.op_s": statistics.median(untraced),
        "run.reference_s": statistics.median(loop.reference_times),
        "trace.overhead_ratio": statistics.median(traced) / statistics.median(untraced),
        "check.failure_rate": loop.failure_rate(),
    }
    out = {}
    for name in names:
        base, _, pct = name.rpartition(".")
        if name in values:
            out[name] = values[name]
        elif name in scalars:
            out[name] = statistics.median(scalars[name])
        elif base in pooled and pct in ("p50", "p99"):
            xs = sorted(pooled[base])
            out[name] = xs[min(len(xs) - 1, int(len(xs) * int(pct[1:]) / 100))] if xs else 0.0
        elif name in CHECK_VALUES:
            out[name] = 0.0  # this workload's checks do not produce it
        else:
            raise KeyError(f"no per-layer metric named {name!r}")
    return out


def timed_setup(workload: str, seed: int, work: Path) -> float:
    """Import the workloads and set one up, in this (fresh) process."""
    t0 = time.perf_counter()
    import workloads  # imports sdrkit, numpy and scipy

    workloads.WORKLOADS[workload](seed, work).setup()
    return time.perf_counter() - t0


def child_setup_seconds(workload: str, seed: int, work: Path) -> list[float]:
    """Time SETUP_CHILDREN set-ups, each in a fresh child process."""
    out = []
    for k in range(SETUP_CHILDREN):
        probe = work / f"setup{k}"
        probe.mkdir()
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--setup-probe", str(probe)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(child.stdout.split()[-1]))
    return out


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description="sdrkit benchmark")
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "sdrkit").is_dir():
        print(f"no sdrkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    nproc = single_thread_blas()
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe is not None:
        print(timed_setup(args.workload, args.seed, args.setup_probe))
        return 0

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        (work / "setup").mkdir()
        # the first timed set-up is also this process's import of sdrkit
        setup_times = [timed_setup(args.workload, args.seed, work / "setup")]
        import workloads

        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        workload.setup()
        loop = Loop(workload, work / "run")
        if args.trace:
            import layers
            from spans import Tracer

            untraced, _, _ = loop.measure(args.seconds / 2, 2)
            tracer = Tracer()
            layers.install(tracer)
            try:
                traced, _, per_iteration = loop.measure(
                    args.seconds / 2, 2, tracer, layers.iteration_metrics
                )
            finally:
                tracer.restore()
            specs = bench["per_layer"]
            values = per_layer(
                [m["name"] for m in specs], loop, untraced, traced, per_iteration
            )
        else:
            setup_times += child_setup_seconds(args.workload, args.seed, work)
            times, ratios, _ = loop.measure(args.seconds, MIN_ITERATIONS)
            print("iteration seconds " + " ".join(f"{t:.4f}" for t in times))
            print("reference seconds " + " ".join(f"{t:.4f}" for t in loop.reference_times))
            print("setup seconds " + " ".join(f"{t:.4f}" for t in setup_times))
            print(f"op_s (wall, median) {statistics.median(times):.4f}")
            specs = bench["end_to_end"]
            values = {
                "setup_s": statistics.median(setup_times) * REFERENCE_S
                / statistics.median(loop.reference_times),
                "op_ref": statistics.median(ratios),
                "success_rate": 1.0 - loop.failure_rate(),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    attempted, failed = loop.attempted, loop.failed
    correct = not loop.errors
    print("env " + json.dumps(environment(nproc)))
    print(f"workload {args.workload} seed {args.seed}: {loop.iterations} iterations, "
          f"{attempted} operations attempted, {failed} failed")
    for err in loop.errors:
        print(f"CHECK FAILED: {err}")
    for spec in specs:
        direction = f"{spec['better']} is better" if "better" in spec else ""
        print(f"  {spec['name']:<32} {values[spec['name']]:>16.6g} {spec['unit']:<6} {direction}")
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
