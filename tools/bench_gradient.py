"""Time the posterior gradient as a study's MAP fit calls it; write BENCH_gradient.json.

Runs ``sdrkit pipeline`` with the MAP backend and the simulator provider on
study-map's recorded study (100 personas, 200 response units per format) and
on one twice its size (200 personas, 400 units), with ``irt._ascend`` wrapped
so that every gradient call of every MAP start is timed and its minor page
faults counted (``resource.getrusage``). Each study runs with two CPUs,
where ``fit_map`` runs its four starts in forked workers, and with one, where
they run in process; each of these four cases runs in ``RUNS`` fresh Python
processes, the cases taking turns.

Page faults are measured inside the pipeline because they depend on what
the process allocated before: glibc hands a freed array back to the OS, to
be faulted in again on the next call, or keeps it, according to thresholds
that earlier allocations move. A loop of gradient calls in a bare process
need not fault where the pipeline's fit does.

Each row reports, per format and placement, the starts and gradient calls
of all runs, microseconds per call (the median of each run, and the median
of those) and minor faults per call (the mean over all runs). Per-run
medians, rather than one median of the pooled calls, keep a run that a
busy neighbour on the host slowed from moving the figure.

    python3 tools/bench_gradient.py [--out BENCH_gradient.json]
        [--baseline OTHER_RUN.json]

``--baseline`` copies another run's rows (say, of the parent commit on the
same host) into the output under ``"baseline"``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from sdrkit import cli, irt  # noqa: E402

PERSONAS = (100, 200)
RUNS = 5
# study-map's recorded study: perfbench's StudyMap.STUDY_SEED 0 gives these data seeds
DATA_SEEDS = [int(v) for v in np.random.SeedSequence(0).generate_state(4)]
FIT_SEED = 1


def recording_ascend(ascend, records: list):
    """``irt._ascend`` that times each gradient call and counts its minor
    page faults, and appends one record per start to ``records`` (in the
    process that ran the start)."""

    def wrapped(fg, x0, upper):
        us, faults = [], 0

        def timed(x):
            nonlocal faults
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            result = fg(x)
            us.append((time.perf_counter() - start) * 1e6)
            faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
            return result

        result = ascend(timed, x0, upper)
        records.append({"model": fg.args[0].design.model, "us": us, "faults": faults})
        return result

    return wrapped


def run_case(n_personas: int, cpus: int) -> list[dict]:
    """One pipeline run in this process; its MAP starts' gradient records."""
    os.sched_getaffinity = lambda pid: set(range(cpus))
    with tempfile.TemporaryDirectory() as tmp:
        records_dir = Path(tmp, "records")
        records_dir.mkdir()
        ascend = irt._ascend

        def save_start(fg, x0, upper):
            records: list = []
            result = recording_ascend(ascend, records)(fg, x0, upper)
            name = f"{os.getpid()}-{time.perf_counter_ns()}.json"
            (records_dir / name).write_text(json.dumps(records[0]), encoding="utf-8")
            return result

        irt._ascend = save_start
        config = Path(tmp, "pipeline.json")
        config.write_text(json.dumps({
            "n_personas": n_personas, "backend": "map", "out_dir": str(Path(tmp, "run")),
            "seeds": dict(zip(("personas", "plan", "sim", "params", "fit"),
                              DATA_SEEDS + [FIT_SEED])),
        }), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(["pipeline", "--config", str(config)]) != 0:
                raise SystemExit("the pipeline failed")
        return [json.loads(p.read_text("utf-8")) for p in records_dir.iterdir()]


def summarize(n_personas: int, cpus: int, runs: list[list[dict]]) -> list[dict]:
    """One row per format from the start records of each run of a case."""
    rows = []
    for fmt, model in (("likert", "grm"), ("gfc", "gfc")):
        mine = [[s for s in starts if s["model"] == model] for starts in runs]
        run_us = [[u for s in starts for u in s["us"]] for starts in mine]
        run_medians = [statistics.median(us) for us in run_us]
        calls = sum(map(len, run_us))
        rows.append({
            "format": fmt,
            "units": 2 * n_personas,
            "where": "forked workers" if cpus > 1 else "in process",
            "starts": sum(map(len, mine)),
            "calls": calls,
            "us_per_call": round(statistics.median(run_medians), 1),
            "us_per_call_runs": [round(m, 1) for m in run_medians],
            "minor_faults_per_call": round(
                sum(s["faults"] for starts in mine for s in starts) / calls, 2),
        })
    return rows


def host() -> dict:
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True).stdout.strip()

    return {
        "commit": git("rev-parse", "HEAD") or None,
        "src_modified": bool(git("status", "--porcelain", "--", "src")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_dispatch": irt._numpy_simd()[1],
        "openblas": [f"{name}: {config}" for name, config, *_ in irt._openblas_libraries()],
        "cpus": len(os.sched_getaffinity(0)),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_gradient.json")
    parser.add_argument("--baseline", type=Path)
    parser.add_argument("--case", nargs=2, type=int, help=argparse.SUPPRESS)  # in a child
    args = parser.parse_args()
    if args.case:
        print(json.dumps(run_case(*args.case)))
        return
    cases = [(n_personas, cpus) for n_personas in PERSONAS for cpus in (2, 1)]
    runs: dict = {case: [] for case in cases}
    for _ in range(RUNS):
        for case in cases:
            child = subprocess.run(
                [sys.executable, __file__, "--case", *map(str, case)],
                capture_output=True, text=True, check=True,
            )
            runs[case].append(json.loads(child.stdout))
    rows = [row for case in cases for row in summarize(*case, runs[case])]
    for row in rows:
        print(json.dumps(row))
    out = {
        "benchmark": "irt.log_posterior_and_grad in sdrkit pipeline's MAP fits",
        "host": host(),
        "settings": {"data_seeds": DATA_SEEDS, "fit_seed": FIT_SEED, "personas": PERSONAS,
                     "runs": RUNS},
        "results": rows,
    }
    if args.baseline:
        base = json.loads(args.baseline.read_text(encoding="utf-8"))
        out["baseline"] = {"host": base["host"], "results": base["results"]}
    args.out.write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
