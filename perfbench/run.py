"""facemetrics benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A workload is one or more datasets (``generate.WORKLOADS``); the
benchmark runs ``geometry`` (FDDB-shaped ellipse evaluation, then the
region-proposal pipeline) and ``matching`` (WIDER-shaped crowd
evaluation, then crowds under the optimal matcher).  The harness
generates each dataset's inputs from the seed (under ``.perfbench_tmp/``
in the checkout), then:

* measures ``setup_s``: the median, over several fresh interpreters, of
  the time from starting the interpreter until ``import facemetrics`` has
  finished and every dataset's input files are parsed into an
  ``EvalDataset``;
* runs jobs in a closed loop for about S seconds: one caller, each job
  in its own child process, the next started only when the previous one
  has finished and only while at least half a job's time is left.
  A job starts from the input files and ends with every output of every
  dataset written.  ``images_per_s`` is the run's throughput: the images
  of all its jobs over the sum of their wall times (the median and
  quartiles of the per-job rates are printed too).  On a shared host the
  speed of the machine drifts by tens of percent within a minute; the
  throughput over the whole run averages that drift where the median of
  a few jobs does not.  ``peak_rss_mb`` is the median over jobs of the
  job process's peak resident memory;
* checks the outputs: every job must exit 0 and write the same bytes,
  and those bytes must agree with the references in ``check.py``;
  ``wider-crowded`` must also write the same bytes with one thread as
  with two.  A job that fails any of these counts in ``failed``.

With ``--trace 1`` the loop alternates untraced and traced jobs and
reports the per-layer metrics of the traced ones (medians), each
dataset's share of the untraced job time (``dataset.<name>_s``) and
``trace_overhead``, the untraced over the traced throughput.  The spans
of the last traced job are kept in ``.perfbench_tmp/<workload>.spans.jsonl``.

``--workload all`` runs the benchmark's workloads in turn.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import generate  # noqa: E402
from check import check_outputs  # noqa: E402

END_TO_END = {"setup_s": "s", "images_per_s": "images/s", "peak_rss_mb": "MiB"}
BENCHMARK_WORKLOADS = ("geometry", "matching")
DATASET_METRICS = {f"dataset.{name}_s": "s" for name in generate.DATASETS}
SETUP_PROBES_PER_JOB = 2
JOB_TIMEOUT_S = 150
JOB = HERE / "job.py"


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("FACEMETRICS_THREADS", None)  # every job states --threads itself
    env.pop("PYTHONPATH", None)
    return env


def _dataset_args(datasets: tuple[str, ...], data: Path) -> list[str]:
    return [arg for name in datasets for arg in ("--dataset", name)] + ["--data", str(data)]


def setup_probe(datasets: tuple[str, ...], data: Path) -> float | None:
    """Seconds from starting a fresh interpreter to parsed datasets; None if it failed."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(JOB), "setup"] + _dataset_args(datasets, data),
        env=_child_env(), capture_output=True, text=True, timeout=JOB_TIMEOUT_S,
    )
    if done.returncode != 0:
        print(f"setup probe error: exit {done.returncode}: {done.stderr.strip()[-500:]}")
        return None
    return float(done.stdout.split()[-1]) - start


def run_job(datasets: tuple[str, ...], data: Path, out: Path, *, threads: int | None = None,
            trace: Path | None = None) -> dict:
    """Run one job in a child process; return its result, or its error under ``error``."""
    command = [sys.executable, str(JOB), "run"] + _dataset_args(datasets, data) + ["--out", str(out)]
    if threads is not None:
        command += ["--threads", str(threads)]
    if trace is not None:
        command += ["--trace", str(trace)]
    try:
        done = subprocess.run(command, env=_child_env(), capture_output=True, text=True,
                              timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"out": out, "error": f"timed out after {JOB_TIMEOUT_S}s"}
    if done.returncode != 0:
        return {"out": out, "error": f"exit {done.returncode}: {done.stderr.strip()[-500:]}"}
    result = json.loads((out / "result.json").read_text(encoding="utf-8"))
    result["out"] = out
    result["digests"] = {name: output_digest(out / name) for name in datasets}
    return result


def output_digest(out: Path) -> str:
    """SHA-256 over the names and bytes of one dataset's outputs."""
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def count_failures(jobs: list[dict], reference_ok: bool) -> int:
    """Jobs that errored or wrote, for some dataset, other bytes than the first job did.

    The first successful job's output is the one checked against the
    references; when it is wrong, every job that wrote the same bytes
    is wrong too.
    """
    reference: dict[str, str] = {}
    for job in jobs:
        for name, digest in job.get("digests", {}).items():
            reference.setdefault(name, digest)
    if not reference:
        return len(jobs)
    return sum(
        1 for job in jobs
        if "error" in job or not reference_ok
        or any(digest != reference[name] for name, digest in job["digests"].items())
    )


def throughput(images: int, jobs: list[dict]) -> float:
    """Images per second over all of ``jobs``: their images over their summed wall time."""
    seconds = sum(job["wall_s"] for job in jobs)
    return images * len(jobs) / seconds if seconds > 0 else 0.0


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    datasets = generate.WORKLOADS[workload]
    data = scratch / "data"
    print(f"== {workload} seed={seed} trace={int(trace)}")
    images = 0
    for name in datasets:
        shape = generate.generate(name, seed, data / name)
        images += shape["images"]
        print(f"dataset {name}: " + " ".join(f"{k}={v}" for k, v in shape.items()))

    probes, jobs, traced = [], [], []
    if not trace:
        setup_probe(datasets, data)  # warm-up: byte-compiles the package on a fresh checkout
    deadline = time.monotonic() + seconds
    rounds: list[float] = []  # wall time of each pass through the loop
    # Start another round while at least half a typical round fits, so the
    # jobs cover about S seconds on average.
    while not rounds or time.monotonic() + statistics.median(rounds) / 2 <= deadline:
        round_start = time.monotonic()
        if not trace:
            # Probes interleaved with jobs see the same machine conditions.
            probes += [setup_probe(datasets, data) for _ in range(SETUP_PROBES_PER_JOB)]
        out = scratch / f"job{len(jobs) + len(traced)}"
        jobs.append(run_job(datasets, data, out))
        if trace:
            trace_file = ROOT / ".perfbench_tmp" / f"{workload}.spans.jsonl"
            out = scratch / f"job{len(jobs) + len(traced)}"
            traced.append(run_job(datasets, data, out, trace=trace_file))
        rounds.append(time.monotonic() - round_start)
    extra = []
    if "wider-crowded" in datasets:
        # Thread count must never change the output.
        extra.append(run_job(("wider-crowded",), data, scratch / "threads1", threads=1))

    first = next((job for job in jobs if "error" not in job), None)
    problems = ["no job succeeded"] if first is None else [
        f"{name}: {problem}" for name in datasets
        for problem in check_outputs(name, data / name, first["out"] / name, seed)
    ]
    for problem in problems:
        print(f"check: {problem}")
    for job in jobs + traced + extra:
        if "error" in job:
            print(f"job error: {job['error']}")
    every = jobs + traced + extra
    setup = [t for t in probes if t is not None]
    failed = count_failures(every, not problems) + len(probes) - len(setup)

    ok_jobs = [job for job in jobs if "error" not in job]
    rates = [images / job["wall_s"] for job in ok_jobs] or [0.0]
    q1, median_rate, q3 = _quartiles(rates)
    rate = throughput(images, ok_jobs)
    print(f"jobs: {len(jobs)} untraced, {len(traced)} traced (closed loop, one caller)")
    print(f"images_per_s: {rate:.4f} over {sum(job['wall_s'] for job in ok_jobs):.1f} s of jobs;"
          f" per job median {median_rate:.4f} p25 {q1:.4f} p75 {q3:.4f} over {len(rates)} jobs")
    rss = [job["peak_rss_mb"] for job in ok_jobs] or [0.0]
    print(f"peak_rss_mb: median {statistics.median(rss):.2f} max {max(rss):.2f}")
    if not trace:
        print(f"setup_s: median {statistics.median(setup or [0.0]):.4f} s"
              f" over {len(setup)} fresh interpreters")
    print(f"checks: {len(every) + len(probes) - failed}/{len(every) + len(probes)} steps correct"
          + (" (one job ran with --threads 1)" if extra else ""))

    if not trace:
        values = {
            "setup_s": statistics.median(setup or [0.0]),
            "images_per_s": rate,
            "peak_rss_mb": statistics.median(rss),
        }
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}
    else:
        from spans import LAYER_METRICS

        layered = [job for job in traced if "error" not in job]
        metrics = {}
        for dataset in generate.DATASETS:
            shares = [job["dataset_s"].get(dataset, 0.0) for job in ok_jobs] or [0.0]
            metrics[f"dataset.{dataset}_s"] = _metric(statistics.median(shares), "s")
        for name, unit in LAYER_METRICS.items():
            if name == "trace_overhead":
                value = rate / throughput(images, layered) if layered else 0.0
            else:
                value = statistics.median(job["layers"][name] for job in layered) if layered else 0.0
            metrics[name] = _metric(value, unit)
        if layered:
            own = layered[-1]["self_s"]
            print("self time by span (last traced job): " + ", ".join(
                f"{name}={own[name]:.3f}s" for name in sorted(own, key=own.get, reverse=True)))
    return {"correct": failed == 0, "attempted": len(every) + len(probes), "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="facemetrics benchmark")
    parser.add_argument("--workload", required=True, choices=[*generate.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "facemetrics" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"perfbench: {needed.relative_to(ROOT)} not found; run from a facemetrics checkout",
                  file=sys.stderr)
            return 2

    workloads = BENCHMARK_WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    base = ROOT / ".perfbench_tmp"
    for workload in workloads:
        scratch = base / f"run-{os.getpid()}-{workload}"
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            results[workload] = run_workload(workload, args.seed, args.seconds, bool(args.trace), scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        print(json.dumps(results[workload]))
    if len(results) == 1:
        summary = next(iter(results.values()))
    else:
        for workload, result in results.items():
            for name, metric in result["metrics"].items():
                print(f"{workload:18s} {name:34s} {metric['value']:12.4f} {metric['unit']}")
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
        }
        print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
