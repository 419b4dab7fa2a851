"""One benchmark job, run in a fresh child process.

A job covers one or more datasets, each named by ``--dataset`` (repeated,
in order); a dataset's input files are in ``DATA/<dataset>`` and its
outputs go to ``OUT/<dataset>``.

``job.py setup --dataset D ... --data DATA`` imports facemetrics, parses
each dataset's input files into an ``EvalDataset`` and prints the
monotonic clock; the parent measures set-up time from its own clock
reading taken before it started this interpreter.

``job.py run --dataset D ... --data DATA --out OUT [--trace FILE]`` runs
one complete job: from the input files to every output written.  It
writes ``result.json`` (job wall time, each dataset's share of it, peak
resident memory and, when traced, the per-layer metrics) in OUT.  With
``--trace`` the facemetrics functions are wrapped before the job starts
and every span is written to FILE when it ends.

Only the standard library is imported before facemetrics, so the set-up
probe times the interpreter and the package, not the benchmark.
"""

import argparse
import contextlib
import io as _stdio
import json
import math
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# The CLI invocations of each ROC dataset: (output name, flags).
EVAL_STEPS = {
    "fddb-ellipse": [
        ("discrete", ["--mode", "discrete", "--threads", "1"]),
        ("continuous", ["--mode", "continuous", "--threads", "1"]),
    ],
    "wider-crowded": [
        ("discrete", ["--mode", "discrete", "--query-fp", "100", "--threads", "2"]),
    ],
    "crowd-optimal": [
        ("continuous", ["--matcher", "optimal", "--mode", "continuous", "--threads", "1"]),
    ],
}
RECALL_IOU_GRID = tuple(i / 100 for i in range(50, 100, 5))


def eval_steps(dataset: str, threads: int | None = None) -> list[tuple[str, list[str]]]:
    """The dataset's CLI steps, optionally with the thread count replaced."""
    steps = []
    for name, flags in EVAL_STEPS[dataset]:
        flags = list(flags)
        if threads is not None:
            flags[flags.index("--threads") + 1] = str(threads)
        steps.append((name, flags))
    return steps


def load_dataset(dataset: str, data: Path):
    """Parse the dataset's input files into an ``EvalDataset``."""
    from facemetrics import io

    gt = io.parse_region_list((data / "gt.txt").read_text(encoding="utf-8"))
    if dataset == "proposal-pipeline":
        det = io.AnnotationFile(())
    else:
        det = io.parse_region_list((data / "det.txt").read_text(encoding="utf-8"))
    return io.build_dataset(gt, det)


def _run_eval(dataset: str, data: Path, out: Path, threads: int | None) -> None:
    import facemetrics.cli

    for name, flags in eval_steps(dataset, threads):
        argv = ["eval", "--gt", str(data / "gt.txt"), "--det", str(data / "det.txt")]
        argv += flags + ["--out", str(out / f"{name}.csv")]
        summary = _stdio.StringIO()
        with contextlib.redirect_stderr(summary):
            code = facemetrics.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"facemetrics {' '.join(argv)} exited {code}: {summary.getvalue()}")
        (out / f"{name}.summary").write_text(summary.getvalue(), encoding="utf-8")


def _run_proposals(data: Path, out: Path) -> float:
    """resize_scale -> anchor_grid -> decode -> top_n -> nms -> proposal_recall.

    Returns the seconds those steps took.  Each image's seeded deltas are
    built just before the image and off the clock, so the process holds
    one image's inputs at a time and its peak memory is the program's.
    """
    from facemetrics import anchors, geometry, io, metrics
    from facemetrics.anchors import BoxDelta
    from facemetrics.geometry import Rect
    from facemetrics.matching import Detection, GroundTruth

    from generate import ANCHOR_STRIDE, NMS_IOU, PRE_NMS_TOP_N, RECALL_BUDGETS, proposal_deltas

    described = json.loads((data / "images.json").read_text(encoding="utf-8"))
    start = time.perf_counter()
    dataset = load_dataset("proposal-pipeline", data)
    decode = anchors.decode
    images = {}
    proposal_lines = []
    elapsed = time.perf_counter() - start
    for image in described:
        deltas = [(BoxDelta(tx, ty, tw, th), s) for tx, ty, tw, th, s in proposal_deltas(image)]
        start = time.perf_counter()
        image_id = image["id"]
        plan = anchors.resize_scale(image["width"], image["height"], "test")
        grid = anchors.anchor_grid(
            math.ceil(plan.resized_w / ANCHOR_STRIDE),
            math.ceil(plan.resized_h / ANCHOR_STRIDE),
            anchors.DEFAULT_ANCHOR_SPEC,
        )
        if len(grid) != len(deltas):
            raise RuntimeError(f"{image_id}: {len(grid)} anchors for {len(deltas)} deltas")
        scored = [(decode(delta, anchor), score) for (delta, score), anchor in zip(deltas, grid)]
        top = anchors.top_n(scored, PRE_NMS_TOP_N)
        kept = geometry.nms(
            [Detection(region=rect, score=score, image_id=image_id) for rect, score in top],
            NMS_IOU,
        )
        s = plan.scale
        gts = [
            GroundTruth(Rect(r.x_min * s, r.y_min * s, r.x_max * s, r.y_max * s), image_id)
            for r in (g.region for g in dataset.images[image_id].ground_truths)
        ]
        images[image_id] = (kept, gts)
        proposal_lines += [image_id, str(len(kept))]
        proposal_lines += [io.format_rect(d.region, d.score) for d in kept]
        elapsed += time.perf_counter() - start
    start = time.perf_counter()
    curves = metrics.proposal_recall(
        metrics.EvalDataset.from_images(images), RECALL_BUDGETS, RECALL_IOU_GRID
    )
    (out / "proposals.txt").write_text("\n".join(proposal_lines) + "\n", encoding="utf-8")
    for n, curve in zip(RECALL_BUDGETS, curves):
        (out / f"recall_{n}.csv").write_text(io.write_curve(curve), encoding="utf-8")
    return elapsed + time.perf_counter() - start


def peak_rss_mb() -> float:
    """Peak resident memory of this process image, in MiB.

    ``VmHWM`` counts only this interpreter; ``ru_maxrss`` would also carry
    the parent's resident size from before ``exec``.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_job(datasets: list[str], data: Path, out: Path, threads: int | None,
            trace_file: Path | None) -> dict:
    tracer = None
    if trace_file is not None:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    dataset_s = {}
    for dataset in datasets:
        (out / dataset).mkdir(parents=True, exist_ok=True)
        if dataset == "proposal-pipeline":
            dataset_s[dataset] = _run_proposals(data / dataset, out / dataset)
        else:
            start = time.perf_counter()
            _run_eval(dataset, data / dataset, out / dataset, threads)
            dataset_s[dataset] = time.perf_counter() - start
    result = {"wall_s": sum(dataset_s.values()), "dataset_s": dataset_s, "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        import spans

        result["layers"] = spans.layer_metrics(tracer.spans, tracer.totals(), len(tracer.ellipses))
        result["self_s"] = spans.self_time_by_name(tracer.spans)
        with open(trace_file, "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span._asdict()) + "\n")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("action", choices=("setup", "run"))
    parser.add_argument("--dataset", action="append", required=True)
    parser.add_argument("--data", type=Path, required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--threads", type=int, help="replace the --threads value of every eval step")
    parser.add_argument("--trace", type=Path, help="wrap facemetrics and write spans here")
    args = parser.parse_args()
    if args.action == "setup":
        for dataset in args.dataset:
            load_dataset(dataset, args.data / dataset)
        print(time.monotonic())
        return 0
    result = run_job(args.dataset, args.data, args.out, args.threads, args.trace)
    (args.out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
