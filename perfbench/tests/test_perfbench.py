"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
import shutil
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import generate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from check import check_outputs  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("dataset", generate.DATASETS)
def test_generator_is_deterministic_per_seed(dataset, tmp_path):
    shapes = [generate.generate(dataset, seed, tmp_path / name)
              for seed, name in ((7, "a"), (7, "b"), (8, "c"))]
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    # Region counts are fixed by image index, so every seed does the same work.
    fixed = ("images", "ground_truths", "detections", "anchors")
    assert [{k: s[k] for k in fixed if k in s} for s in shapes[1:]] == [
        {k: shapes[0][k] for k in fixed if k in shapes[0]}
    ] * 2


def test_corrupted_curve_counts_as_failure(tmp_path):
    data = tmp_path / "data"
    generate.generate("crowd-optimal", 3, data / "crowd-optimal")
    good = run.run_job(("crowd-optimal",), data, tmp_path / "job0")
    assert "error" not in good
    assert check_outputs("crowd-optimal", data / "crowd-optimal", good["out"] / "crowd-optimal", 3) == []

    bad_out = tmp_path / "job1"
    shutil.copytree(good["out"], bad_out)
    curve = bad_out / "crowd-optimal" / "continuous.csv"
    lines = curve.read_text().splitlines()
    x, y, threshold = lines[len(lines) // 2].split(",")
    lines[len(lines) // 2] = f"{x},{float(y) + 0.01:.6g},{threshold}"
    curve.write_text("\n".join(lines) + "\n")
    bad = dict(good, out=bad_out, digests={"crowd-optimal": run.output_digest(bad_out / "crowd-optimal")})

    assert check_outputs("crowd-optimal", data / "crowd-optimal", bad_out / "crowd-optimal", 3) != []
    # Differs from the checked first job: one failure of two.
    assert run.count_failures([good, bad], reference_ok=True) == 1
    # The first job itself is wrong: both fail.
    assert run.count_failures([bad, bad], reference_ok=False) == 2
    assert run.count_failures([{"error": "exit 1"}, good], reference_ok=True) == 1


def test_single_dataset_job_is_compared_on_its_dataset_only():
    composite = {"digests": {"a": "1", "b": "2"}}
    assert run.count_failures([composite, {"digests": {"b": "2"}}], reference_ok=True) == 0
    assert run.count_failures([composite, {"digests": {"b": "3"}}], reference_ok=True) == 1


def test_throughput_is_images_over_summed_job_time():
    jobs = [{"wall_s": 2.0}, {"wall_s": 3.0}, {"wall_s": 5.0}]
    assert run.throughput(10, jobs) == pytest.approx(30 / 10.0)
    assert run.throughput(10, []) == 0.0


def test_self_time_subtracts_overlapping_children_once():
    parent = spans.Span(1, "metrics.roc", 0.0, 10.0, 0)
    children = [
        spans.Span(2, "matching.greedy_assignment", 1.0, 4.0, 1),  # worker thread A
        spans.Span(3, "matching.greedy_assignment", 2.0, 6.0, 1),  # worker thread B
        spans.Span(4, "matching.greedy_assignment", 8.0, 12.0, 1),  # clipped at 10
    ]
    own = spans.self_times([parent] + children)
    assert own[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[2] == 3.0 and own[3] == 4.0 and own[4] == 4.0


def test_traced_job_self_times_never_exceed_parents(tmp_path):
    data = tmp_path / "data"
    generate.generate("crowd-optimal", 4, data / "crowd-optimal")
    trace_file = tmp_path / "spans.jsonl"
    result = run.run_job(("crowd-optimal",), data, tmp_path / "job", trace=trace_file)
    assert "error" not in result
    recorded = [spans.Span(**json.loads(line)) for line in trace_file.read_text().splitlines()]
    by_id = {span.id: span for span in recorded}
    own = spans.self_times(recorded)
    assert recorded
    for span in recorded:
        duration = span.end - span.start
        assert -1e-9 <= own[span.id] <= duration + 1e-9
        if span.parent:
            parent = by_id[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
            assert own[span.id] <= parent.end - parent.start
    counts = Counter(span.name for span in recorded)
    assert counts["cli.main"] == 1 and counts["metrics.roc"] == 1
    assert result["layers"]["matching.optimal_assignment.calls"] == counts["matching.optimal_assignment"]


def test_benchmark_json_lists_the_reported_metrics():
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in config["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == {
        **spans.LAYER_METRICS, **run.DATASET_METRICS}
    assert [w["name"] for w in config["workloads"]] == list(run.BENCHMARK_WORKLOADS)
    covered = [d for w in run.BENCHMARK_WORKLOADS for d in generate.WORKLOADS[w]]
    assert sorted(covered) == sorted(generate.DATASETS)
