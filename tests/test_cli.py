"""End-to-end tests for the ``facemetrics`` command-line interface."""

import dataclasses
import io
import itertools
import json
import math
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from facemetrics import anchors, cli
from facemetrics.cli import RunConfig, main
from facemetrics.geometry import nms
from facemetrics.io import build_dataset, parse_region_list, read_curve, write_curve
from facemetrics.metrics import MATCHERS, discrete_roc, proposal_recall

DATA_DIR = Path(__file__).parent / "data"
GT_PATH = str(DATA_DIR / "synthetic_gt.txt")
DET_PATH = str(DATA_DIR / "synthetic_det.txt")

TWO_BOXES = "0 0 10 10 0.9\n1 1 10 10 0.8\n"

# Each subcommand's required flags, and the RunConfig fields they set.
REQUIRED_FLAGS = {
    "eval": (["--gt", "g", "--det", "d"], {"gt": "g", "det": "d"}),
    "proposal-recall": (["--gt", "g", "--det", "d"], {"gt": "g", "det": "d"}),
    "nms": ([], {}),
    "anchors": (["--width", "3", "--height", "2"], {"width": 3, "height": 2}),
    "resize-plan": (
        ["--width", "3", "--height", "2", "--mode", "test"],
        {"width": 3.0, "height": 2.0, "mode": "test"},
    ),
}


def subcommand_parsers(parser):
    return parser._subparsers._group_actions[0].choices


def fixture_dataset():
    return build_dataset(
        parse_region_list(Path(GT_PATH).read_text()),
        parse_region_list(Path(DET_PATH).read_text()),
    )


def fixture_curve(mode="discrete", matcher="greedy"):
    build = cli._MODE_BUILDERS[mode]
    return build(fixture_dataset(), matcher)


def error_of(call, *args, **kwargs):
    """The message of the ValueError that ``call(*args, **kwargs)`` raises, or None."""
    try:
        call(*args, **kwargs)
    except ValueError as exc:
        return str(exc)
    return None


class TestRunConfig:
    def test_eval_defaults_validate(self):
        config = RunConfig(subcommand="eval", gt="g", det="d")
        assert config.mode == "discrete"
        assert config.iou == 0.5

    def test_rejects_bad_values_before_any_work(self):
        with pytest.raises(ValueError, match="--threads"):
            RunConfig(subcommand="eval", gt="g", det="d", threads=0)
        with pytest.raises(ValueError, match=re.escape("iou_threshold must be in [0, 1]")):
            RunConfig(subcommand="eval", gt="g", det="d", iou=1.5)
        with pytest.raises(ValueError, match="--mode"):
            RunConfig(subcommand="eval", gt="g", det="d", mode="fancy")
        with pytest.raises(ValueError, match="n_values"):
            RunConfig(subcommand="proposal-recall", gt="g", det="d", top_n=(-1,))
        with pytest.raises(ValueError, match="stdout"):
            RunConfig(subcommand="proposal-recall", gt="g", det="d", out="-")
        with pytest.raises(ValueError, match="anchor_grid requires a non-empty grid"):
            RunConfig(subcommand="anchors", width=0, height=5)
        with pytest.raises(ValueError, match="resize_scale mode must be one of"):
            RunConfig(subcommand="resize-plan", width=100, height=100, mode="val")
        with pytest.raises(ValueError, match="subcommand"):
            RunConfig(subcommand="frobnicate")

    def test_rejects_rules_only_the_cli_states(self):
        with pytest.raises(ValueError, match="--format must be one of .*, got 'xml'"):
            RunConfig(subcommand="eval", gt="g", det="d", format="xml")
        with pytest.raises(ValueError, match="--angle-unit must be one of"):
            RunConfig(subcommand="eval", gt="g", det="d", angle_unit="gradians")
        for subcommand in ("eval", "proposal-recall"):
            with pytest.raises(ValueError, match="--gt and --det are required"):
                RunConfig(subcommand=subcommand, det="d")

    def test_anchor_settings_are_checked_before_any_work(self):
        for bad in ({"scales": (math.inf,)}, {"ratios": (0.0,)}, {"stride": math.nan}):
            with pytest.raises(ValueError, match="AnchorSpec"):
                RunConfig(subcommand="anchors", width=1, height=1, **bad)


class TestRangeRulesFollowTheirOwners:
    """RunConfig rejects a library-owned range exactly when the owner does, with its message."""

    def test_iou_threshold(self):
        ds = fixture_dataset()
        outcomes = []
        for iou in (
            -0.0, 0.0, 1.0, math.nextafter(0.0, -1.0), math.nextafter(0.0, 1.0),
            math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), math.nan, math.inf,
        ):
            owner = error_of(discrete_roc, ds, iou_threshold=iou)
            assert error_of(RunConfig, subcommand="eval", gt="g", det="d", iou=iou) == owner, iou
            assert error_of(nms, [], iou) == owner, iou
            assert error_of(RunConfig, subcommand="nms", iou=iou) == owner, iou
            outcomes.append(owner)
        assert None in outcomes and any(outcomes)

    def test_matcher(self):
        ds = fixture_dataset()
        outcomes = []
        for matcher in (*MATCHERS, "fancy"):
            owner = error_of(discrete_roc, ds, matcher)
            config = error_of(RunConfig, subcommand="eval", gt="g", det="d", matcher=matcher)
            assert config == owner, matcher
            outcomes.append(owner)
        assert None in outcomes and any(outcomes)

    def test_recall_grid(self):
        ds = fixture_dataset()
        outcomes = []
        thresholds = (0.0, 5e-324, 1.0, math.nextafter(1.0, 2.0), math.nan)
        grids = [(t,) for t in thresholds] + [(), (0.5, 0.7, 0.5)]
        for ns, grid in itertools.product(((-1,), (0,), (1,), (1, 1)), grids):
            owner = error_of(proposal_recall, ds, list(ns), list(grid))
            config = error_of(
                RunConfig,
                subcommand="proposal-recall", gt="g", det="d", top_n=ns, iou_thresholds=grid,
            )
            assert config == owner, (ns, grid)
            outcomes.append(owner)
        assert None in outcomes and any(outcomes)

    def test_anchor_grid(self):
        outcomes = []
        # At stride 1e308 the third cell's anchors overflow, and the first's
        # collapse to zero width: every such grid is rejected.
        for width, height, stride in itertools.product((0, 1, 3), (0, 1, 3), (16.0, 1e308)):
            spec = anchors.AnchorSpec(
                anchors.DEFAULT_ANCHOR_SPEC.scales, anchors.DEFAULT_ANCHOR_SPEC.ratios, stride
            )
            owner = error_of(anchors.anchor_grid, width, height, spec)
            config = error_of(
                RunConfig, subcommand="anchors", width=width, height=height, stride=stride
            )
            assert config == owner, (width, height, stride)
            outcomes.append(owner)
        assert None in outcomes and any(outcomes)
        assert any(owner and "overflows" in owner for owner in outcomes)
        assert any(owner and "collapses" in owner for owner in outcomes)

    def test_resize_plan(self):
        outcomes = []
        sizes = (0.0, 5e-324, math.inf, math.nan, 450.0)
        for width, height, mode in itertools.product(sizes, sizes, anchors._RESIZE_MODES):
            owner = error_of(anchors.resize_scale, width, height, mode)
            config = error_of(
                RunConfig, subcommand="resize-plan", width=width, height=height, mode=mode
            )
            assert config == owner, (width, height, mode)
            outcomes.append(owner)
        assert None in outcomes and any(outcomes)


class TestEval:
    def test_writes_the_library_curve(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code = main(["eval", "--gt", GT_PATH, "--det", DET_PATH, "--out", str(out)])
        assert code == 0
        assert out.read_text() == write_curve(fixture_curve(), "csv")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tpr_discrete=1 at fp_count=7" in captured.err

    def test_stdout_output(self, capsys):
        assert main(["eval", "--gt", GT_PATH, "--det", DET_PATH]) == 0
        captured = capsys.readouterr()
        assert captured.out == write_curve(fixture_curve(), "csv")

    def test_query_fp_summary(self, capsys):
        code = main(["eval", "--gt", GT_PATH, "--det", DET_PATH, "--query-fp", "2"])
        assert code == 0
        assert "tpr_discrete=0.6 at fp_count=2" in capsys.readouterr().err

    def test_json_format_records_metadata(self, tmp_path, capsys):
        out = tmp_path / "curve.json"
        code = main(
            [
                "eval", "--gt", GT_PATH, "--det", DET_PATH,
                "--format", "json", "--matcher", "optimal",
                "--dataset-name", "synthetic", "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["dataset"] == "synthetic"
        assert payload["matcher"] == "optimal"
        parsed = read_curve(out.read_text())
        assert parsed.points == fixture_curve(matcher="optimal").points

    def test_modes_change_the_curve(self, tmp_path):
        curves = {}
        for mode in ("discrete", "continuous", "normalized"):
            out = tmp_path / f"{mode}.csv"
            assert main(
                ["eval", "--gt", GT_PATH, "--det", DET_PATH, "--mode", mode, "--out", str(out)]
            ) == 0
            curves[mode] = out.read_text()
        assert len(set(curves.values())) == 3
        for mode, text in curves.items():
            assert text == write_curve(fixture_curve(mode=mode), "csv")

    def test_top_cap_limits_detections_per_image(self, tmp_path, capsys):
        out = tmp_path / "capped.csv"
        code = main(
            ["eval", "--gt", GT_PATH, "--det", DET_PATH, "--top", "1", "--out", str(out)]
        )
        assert code == 0
        curve = read_curve(out.read_text())
        # 3 images, 1 detection each: the curve sweeps only 3 detections
        assert len(curve.points) == 4

    def test_threads_do_not_change_bytes(self, tmp_path):
        texts = []
        for threads in ("1", "4"):
            out = tmp_path / f"t{threads}.csv"
            assert main(
                [
                    "eval", "--gt", GT_PATH, "--det", DET_PATH,
                    "--threads", threads, "--out", str(out),
                ]
            ) == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        outputs = set()
        for i in range(3):
            out = tmp_path / f"run{i}.csv"
            assert main(["eval", "--gt", GT_PATH, "--det", DET_PATH, "--out", str(out)]) == 0
            outputs.add(out.read_bytes())
        assert len(outputs) == 1

    def test_an_ellipse_whose_area_passes_half_the_float_range_matches_its_box(self, capsys):
        # Ellipse area 1.5e308, box area 1.9e308: twice the one and the other overflow.
        gt, det = str(DATA_DIR / "huge_gt.txt"), str(DATA_DIR / "huge_det.txt")
        assert main(["eval", "--gt", gt, "--det", det, "--mode", "continuous"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[2:] == ["0,0,inf", "0,0.785389,0.9"]
        assert "tpr_continuous=0.785389 at fp_count=0" in captured.err

    def test_a_box_whose_areas_sum_past_the_float_range_matches_itself(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        gt.write_text("img\n1\n0 0 1e154 1e154\n")
        det = tmp_path / "det.txt"
        det.write_text("img\n1\n0 0 1e154 1e154 0.9\n")
        assert main(["eval", "--gt", str(gt), "--det", str(det)]) == 0
        assert capsys.readouterr().out.splitlines()[2:] == ["0,0,inf", "0,1,0.9"]

    def test_no_stray_files_next_to_output(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["eval", "--gt", GT_PATH, "--det", DET_PATH, "--out", str(out)]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["curve.csv"]

    @pytest.mark.parametrize("mode", ["discrete", "continuous", "normalized"])
    @pytest.mark.parametrize("scores, threshold", [("0.0 -0.0", "0"), ("-0.0 0.0", "-0")])
    def test_a_signed_zero_tie_prints_its_first_score(
        self, mode, scores, threshold, tmp_path, capsys
    ):
        gt = tmp_path / "gt.txt"
        gt.write_text("img\n1\n0 0 10 10\n")
        det = tmp_path / "det.txt"
        first, second = scores.split()
        det.write_text(f"img\n2\n0 0 10 10 {first}\n20 20 10 10 {second}\n")
        assert main(["eval", "--gt", str(gt), "--det", str(det), "--mode", mode]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [row.rpartition(",")[2] for row in rows] == ["inf", threshold]


class TestProposalRecall:
    def test_default_budgets_emit_four_files(self, tmp_path):
        prefix = str(tmp_path / "recall_")
        code = main(["proposal-recall", "--gt", GT_PATH, "--det", DET_PATH, "--out", prefix])
        assert code == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "recall_100.csv", "recall_1000.csv", "recall_300.csv", "recall_500.csv"
        ]
        # budgets beyond the per-image detection count saturate: all equal
        assert len({(tmp_path / n).read_text() for n in names}) == 1

    def test_single_budget_emits_one_file(self, tmp_path):
        prefix = str(tmp_path / "r")
        code = main(
            [
                "proposal-recall", "--gt", GT_PATH, "--det", DET_PATH,
                "--top-n", "300", "--out", prefix,
            ]
        )
        assert code == 0
        assert [p.name for p in tmp_path.iterdir()] == ["r300.csv"]

    def test_single_budget_may_use_stdout(self, capsys):
        code = main(
            ["proposal-recall", "--gt", GT_PATH, "--det", DET_PATH, "--top-n", "2"]
        )
        assert code == 0
        curve = read_curve(capsys.readouterr().out)
        assert curve.x_semantics.value == "iou_threshold"
        assert [p.x for p in curve.points] == [i / 100 for i in range(50, 100, 5)]

    def test_multiple_budgets_need_a_prefix(self, capsys):
        code = main(["proposal-recall", "--gt", GT_PATH, "--det", DET_PATH])
        assert code == 1
        assert "stdout" in capsys.readouterr().err

    def test_budget_zero_writes_the_library_curve(self, capsys):
        code = main(["proposal-recall", "--gt", GT_PATH, "--det", DET_PATH, "--top-n", "0"])
        assert code == 0
        (curve,) = proposal_recall(fixture_dataset(), [0], [i / 100 for i in range(50, 100, 5)])
        assert capsys.readouterr().out == write_curve(curve, "csv")
        assert {p.y for p in curve.points} == {0.0}

    def test_custom_thresholds(self, capsys):
        code = main(
            [
                "proposal-recall", "--gt", GT_PATH, "--det", DET_PATH,
                "--top-n", "4", "--iou-thresholds", "0.25,0.5,0.75",
            ]
        )
        assert code == 0
        curve = read_curve(capsys.readouterr().out)
        assert [p.x for p in curve.points] == [0.25, 0.5, 0.75]


class TestNms:
    def test_two_box_fixture_keeps_one_line(self, tmp_path, capsys):
        src = tmp_path / "boxes.txt"
        src.write_text(TWO_BOXES)
        code = main(["nms", "--in", str(src), "--iou", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert out == "0 0 10 10 0.9\n"

    def test_loose_threshold_keeps_both(self, tmp_path, capsys):
        src = tmp_path / "boxes.txt"
        src.write_text(TWO_BOXES)
        code = main(["nms", "--in", str(src), "--iou", "0.7"])
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_reads_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(TWO_BOXES))
        assert main(["nms", "--iou", "0.5"]) == 0
        assert capsys.readouterr().out == "0 0 10 10 0.9\n"

    def test_output_round_trips_as_input(self, tmp_path, capsys):
        src = tmp_path / "boxes.txt"
        src.write_text(TWO_BOXES)
        first = tmp_path / "kept.txt"
        assert main(["nms", "--in", str(src), "--out", str(first)]) == 0
        # running NMS on its own output changes nothing
        assert main(["nms", "--in", str(first)]) == 0
        assert capsys.readouterr().out == first.read_text()


class TestAnchors:
    def test_ten_by_ten_grid_emits_900_lines(self, capsys):
        code = main(
            [
                "anchors", "--scales", "128,256,512", "--ratios", "1,2,0.5",
                "--width", "10", "--height", "10", "--stride", "16",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 900
        # first anchor: 128x128 square centred on the first cell centre (8, 8)
        assert lines[0] == "-56 -56 128 128"

    def test_defaults_match_explicit_flags(self, capsys):
        assert main(["anchors", "--width", "3", "--height", "2"]) == 0
        default_out = capsys.readouterr().out
        assert main(
            [
                "anchors", "--scales", "128,256,512", "--ratios", "1,2,0.5",
                "--stride", "16", "--width", "3", "--height", "2",
            ]
        ) == 0
        assert capsys.readouterr().out == default_out
        assert len(default_out.splitlines()) == 3 * 2 * 9


class TestResizePlan:
    def test_test_mode_scales_short_side_to_600(self, capsys):
        code = main(["resize-plan", "--width", "350", "--height", "450", "--mode", "test"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "scale 1.714286"
        assert lines[1] == "resized_width 600.000000"
        assert lines[2] == "resized_height 771.428571"

    def test_train_mode_scales_long_side_to_1024(self, capsys):
        code = main(["resize-plan", "--width", "2048", "--height", "1024", "--mode", "train"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "scale 0.500000"

    def test_test_mode_caps_the_long_side(self, capsys):
        code = main(["resize-plan", "--width", "500", "--height", "2000", "--mode", "test"])
        assert code == 0
        # 600/500 = 1.2 would push the long side past 1024; the cap wins
        assert capsys.readouterr().out.splitlines()[0] == "scale 0.512000"

    def test_mode_help_shows_the_resize_targets(self):
        actions = subcommand_parsers(cli.build_parser())["resize-plan"]._actions
        (mode,) = [action for action in actions if action.dest == "mode"]
        assert (anchors._LONG_SIDE, anchors._SHORT_SIDE) == (1024.0, 600.0)
        assert mode.help == (
            "train: longer side to 1024; test: shorter side to 600, longer capped at 1024"
        )

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_size_returns_1(self, value, capsys):
        for size in (["--width", value, "--height", "450"], ["--width", "350", "--height", value]):
            assert main(["resize-plan", *size, "--mode", "test"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "resize_scale requires positive, finite dimensions" in captured.err


# A detection file with two faults, and the error reported for it: syntax
# errors anywhere come first, then the first detection that breaks a dataset
# rule, then an empty dataset.
_FIRST_ERRORS = [
    (
        "a\n1\n0 0 10 10\n",
        "zzz\n1\n0 0 10 10 0.9\na\n1\n0 0 10 x 0.5\n",
        "line 6: expected a number, got 'x'",
    ),
    (
        "",
        "a\n1\n0 0 10\n",
        "line 3: expected 4 fields (rect), 5 (scored rect) or 6 (ellipse), got 3",
    ),
    (
        "a\n1\n0 0 10 10\nb\n1\n0 0 10 10\n",
        "a\n1\n10 5 0 20 20 1\nb\n1\n0 0 10 10 x\n",
        "line 6: expected a number, got 'x'",
    ),
    (
        "a\n1\n0 0 10 10\n",
        "zzz\n0\na\n1\n0 0 10 10 0.9\nzzz\n0\n",
        "line 6: duplicate image id 'zzz' (first seen on line 1)",
    ),
    (
        "a\n1\n0 0 10 10\nb\n1\n0 0 10 10\n",
        "b\n1\n0 0 10 10\na\n1\n10 5 0 20 20 1\n",
        "line 3: image 'b': detection entries must carry scores",
    ),
    (
        "a\n0\n",
        "a\n2\n0 0 10 10 0.9\n0 0 10 10\n",
        "line 4: image 'a': detection entries must carry scores",
    ),
    ("", "ghost\n0\n", "line 1: detections reference image 'ghost' absent from the annotations"),
    ("a\n0\n", "a\n1\n0 0 10 10 0.9\n", "dataset has no ground truths; curves would be undefined"),
    ("", "", "dataset has no images"),
]
_FIRST_ERROR_IDS = [
    "absent-then-syntax",
    "no-images-then-syntax",
    "ellipse-then-syntax",
    "absent-then-repeated-id",
    "unscored-then-ellipse",
    "no-ground-truths-then-unscored",
    "no-images-then-absent",
    "no-ground-truths",
    "no-images",
]


class TestExitCodes:
    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", "--gt", GT_PATH])  # --det missing
        assert excinfo.value.code == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 1

    def test_missing_input_file_returns_1(self, tmp_path, capsys):
        code = main(["eval", "--gt", str(tmp_path / "nope.txt"), "--det", DET_PATH])
        assert code == 1
        assert "facemetrics: error:" in capsys.readouterr().err

    def test_unparseable_input_returns_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("img\n2\n0 0 10 10\n")
        code = main(["eval", "--gt", str(bad), "--det", DET_PATH])
        assert code == 1
        err = capsys.readouterr().err
        assert "facemetrics: error:" in err
        assert "line" in err

    def test_validation_error_returns_1(self, capsys):
        code = main(["eval", "--gt", GT_PATH, "--det", DET_PATH, "--iou", "2.0"])
        assert code == 1
        assert "iou_threshold must be in [0, 1]" in capsys.readouterr().err

    def test_unwritable_output_returns_1_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "curve.csv"
        code = main(["eval", "--gt", GT_PATH, "--det", DET_PATH, "--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert list(tmp_path.iterdir()) == []

    def test_failed_rename_removes_the_staged_file(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.mkdir()
        assert main(["anchors", "--width", "1", "--height", "1", "--out", str(taken)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("facemetrics: error: ")
        assert captured.err.endswith(f": '{taken}'\n")
        assert list(tmp_path.iterdir()) == [taken]
        assert list(taken.iterdir()) == []

    def test_failed_encode_removes_the_staged_file_and_reraises(self, tmp_path):
        # A lone surrogate cannot be encoded as UTF-8: the error is not an
        # OSError, so it propagates as it is, after the staged file is gone.
        out = tmp_path / "out.txt"
        with pytest.raises(UnicodeEncodeError):
            cli._write_text(str(out), "ok\ud800\n")
        assert list(tmp_path.iterdir()) == []

    def test_output_files_get_the_mode_of_a_plain_write(self, tmp_path, capsys):
        # The staging file is created 0600; the renamed file must not keep that.
        umask = os.umask(0o022)
        try:
            new = tmp_path / "new.txt"
            assert main(["anchors", "--width", "1", "--height", "1", "--out", str(new)]) == 0
            assert stat.S_IMODE(new.stat().st_mode) == 0o644
            existing = tmp_path / "existing.txt"
            existing.write_text("old\n")
            existing.chmod(0o640)
            assert main(["anchors", "--width", "1", "--height", "1", "--out", str(existing)]) == 0
            assert stat.S_IMODE(existing.stat().st_mode) == 0o640
            assert existing.read_text() != "old\n"
            taken = tmp_path / "taken"
            taken.mkdir()
            assert main(["anchors", "--width", "1", "--height", "1", "--out", str(taken)]) == 1
            assert sorted(p.name for p in tmp_path.iterdir()) == ["existing.txt", "new.txt", "taken"]
            assert list(taken.iterdir()) == []
        finally:
            os.umask(umask)

    def test_writing_a_new_file_leaves_the_umask_alone(self, tmp_path, monkeypatch, capsys):
        # Setting the umask, even for a moment, would change the mode of any
        # file another thread of the process creates meanwhile.
        def no_umask(mask):
            raise AssertionError(f"os.umask({mask:#o}) called")

        umask = os.umask(0o027)
        try:
            new = tmp_path / "new.txt"
            with monkeypatch.context() as patch:
                patch.setattr(os, "umask", no_umask)
                assert main(["anchors", "--width", "1", "--height", "1", "--out", str(new)]) == 0
            assert capsys.readouterr().err == ""
            assert stat.S_IMODE(new.stat().st_mode) == 0o640
            assert list(tmp_path.iterdir()) == [new]
        finally:
            os.umask(umask)

    @pytest.mark.parametrize(
        "det, error",
        [
            (
                "img1\n2\n0 0 10 10 0.9\n0 0 5 5\n",
                "line 4: image 'img1': detection entries must carry scores",
            ),
            (
                "\nimg1\n2\n0 0 10 10 0.9\n10 5 0 20 20 1\n",
                "line 5: image 'img1': detections must be rectangles, got an ellipse",
            ),
            (
                "img1\n1\n0 0 10 10 0.9\n\n\nimg9\n0\n",
                "line 6: detections reference image 'img9' absent from the annotations",
            ),
        ],
        ids=["unscored", "ellipse", "unknown-image"],
    )
    def test_detection_file_errors_name_their_line(self, det, error, tmp_path, capsys):
        gt_path = tmp_path / "gt.txt"
        gt_path.write_text("img1\n1\n0 0 10 10\n")
        det_path = tmp_path / "det.txt"
        det_path.write_text(det)
        assert main(["eval", "--gt", str(gt_path), "--det", str(det_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"facemetrics: error: {error}\n"

    @pytest.mark.parametrize("top", [[], ["--top", "1"]], ids=["all", "top-1"])
    @pytest.mark.parametrize("gt, det, error", _FIRST_ERRORS, ids=_FIRST_ERROR_IDS)
    def test_the_first_error_of_two_is_reported(self, gt, det, error, top, tmp_path, capsys):
        # Syntax errors anywhere in the detection file come first, then the
        # first detection that breaks a dataset rule, then an empty dataset.
        gt_path = tmp_path / "gt.txt"
        gt_path.write_text(gt)
        det_path = tmp_path / "det.txt"
        det_path.write_text(det)
        out = tmp_path / "curve.csv"
        argv = ["eval", "--gt", str(gt_path), "--det", str(det_path), "--out", str(out), *top]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"facemetrics: error: {error}\n")
        assert not out.exists()

    @pytest.mark.parametrize("gt, det, error", _FIRST_ERRORS, ids=_FIRST_ERROR_IDS)
    def test_proposal_recall_reports_the_first_error_as_eval_does(
        self, gt, det, error, tmp_path, capsys
    ):
        # Both subcommands read their inputs one way, so the same faults give
        # the same first error, as they did when proposal-recall read the
        # whole detection file before matching.
        (tmp_path / "gt.txt").write_text(gt)
        (tmp_path / "det.txt").write_text(det)
        argv = ["proposal-recall", "--gt", str(tmp_path / "gt.txt"),
                "--det", str(tmp_path / "det.txt"), "--out", str(tmp_path / "recall_")]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"facemetrics: error: {error}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["det.txt", "gt.txt"]

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_non_finite_detection_score_names_its_line(self, score, tmp_path, capsys):
        det = tmp_path / "det.txt"
        det.write_text(f"img\n1\n0 0 10 10 {score}\n")
        assert main(["eval", "--gt", GT_PATH, "--det", str(det)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "facemetrics: error: line 3: invalid rectangle: "
            f"region score must be finite, got {float(score)!r}\n"
        )

    @pytest.mark.parametrize(
        "ellipse, error",
        [
            (
                "1e200 1e200 0 0 0 1",
                "Ellipse semi_major 1e+200 with semi_minor 1e+200 gives an infinite area",
            ),
            (
                "1e160 1 0 0 0 1",
                "Ellipse(center_x=0.0, center_y=0.0, semi_major=1e+160, semi_minor=1.0, angle=0.0) "
                "has axis-aligned bounds past the float range",
            ),
        ],
        ids=["area", "bounds"],
    )
    def test_ellipse_past_the_float_range_names_its_line(self, ellipse, error, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        gt.write_text(f"img\n1\n{ellipse}\n")
        det = tmp_path / "det.txt"
        det.write_text("img\n1\n0 0 10 10 0.9\n")
        assert main(["eval", "--gt", str(gt), "--det", str(det)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"facemetrics: error: line 3: invalid ellipse: {error}\n"

    def test_failed_write_names_the_given_path(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        runs = [
            (["eval", "--out", "missing/c.csv"], "missing/c.csv"),
            (["proposal-recall", "--out", "missing/r"], "missing/r100.csv"),
        ]
        for (subcommand, *out), written in runs:
            errors = []
            for _ in range(2):
                assert main([subcommand, "--gt", GT_PATH, "--det", DET_PATH, *out]) == 1
                errors.append(capsys.readouterr().err)
            assert errors[0] == errors[1]
            assert errors[0] == (
                f"facemetrics: error: [Errno 2] No such file or directory: '{written}'\n"
            )
            assert list(tmp_path.iterdir()) == []

    def test_internal_error_returns_2(self, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise RuntimeError("wired to fail")

        monkeypatch.setitem(cli._MODE_BUILDERS, "discrete", boom)
        code = main(["eval", "--gt", GT_PATH, "--det", DET_PATH])
        assert code == 2
        err = capsys.readouterr().err
        assert "internal error" in err
        assert "RuntimeError" in err

    def test_import_leaves_traceback_unloaded(self):
        # Only the exit-2 branch prints a traceback, so only it imports the
        # module.  -I -S keeps the environment and site-packages out; -I
        # also drops PYTHONDONTWRITEBYTECODE, so -B keeps src/ free of a
        # bytecode cache.
        src = str(Path(cli.__file__).resolve().parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import facemetrics.cli; "
            "assert 'traceback' not in sys.modules, 'traceback imported'"
        )
        subprocess.run([sys.executable, "-B", "-I", "-S", "-c", code], check=True)

    @pytest.mark.parametrize(
        "argv, error",
        [
            (
                ["eval", "--gt", GT_PATH, "--det", DET_PATH, "--top", "0"],
                "top must be an int >= 1, got 0",
            ),
            (
                ["eval", "--gt", GT_PATH, "--det", DET_PATH, "--query-fp", "nan"],
                "query x must not be NaN",
            ),
            (
                ["proposal-recall", "--gt", GT_PATH, "--det", DET_PATH, "--top-n", "5",
                 "--iou-thresholds", "0"],
                "iou_thresholds must lie in (0, 1]",
            ),
            (
                ["proposal-recall", "--gt", GT_PATH, "--det", DET_PATH, "--top-n", "5",
                 "--iou-thresholds", "1.5"],
                "iou_thresholds must lie in (0, 1]",
            ),
            (["nms", "--in", ""], "an input path is required"),
            (
                ["anchors", "--width", "3", "--height", "2", "--scales", "a"],
                "argument --scales: expected comma-separated numbers, got 'a'",
            ),
            (
                ["proposal-recall", "--gt", GT_PATH, "--det", DET_PATH, "--top-n", "x"],
                "argument --top-n: expected comma-separated integers, got 'x'",
            ),
            (
                ["eval", "--gt", GT_PATH, "--det", DET_PATH, "--ellipse-n", "64"],
                "unrecognized arguments: --ellipse-n 64",
            ),
            (
                ["resize-plan", "--width", "5e-324", "--height", "5e-324", "--mode", "test"],
                "resize_scale overflows for dimensions 5e-324x5e-324",
            ),
            (
                ["proposal-recall", "--gt", GT_PATH, "--det", DET_PATH, "--top-n", "5,5"],
                "n_values must not repeat a value, got 5 more than once",
            ),
            (
                ["proposal-recall", "--gt", GT_PATH, "--det", DET_PATH, "--top-n", "5",
                 "--iou-thresholds", "0.5,0.5,0.7"],
                "iou_thresholds must not repeat a value, got 0.5 more than once",
            ),
            (
                ["anchors", "--width", "3", "--height", "1", "--stride", "1e308"],
                "anchor_grid overflows for a 3x1 grid at stride 1e+308",
            ),
            (
                ["anchors", "--width", "1", "--height", "1", "--scales", "1e308",
                 "--ratios", "1e-300"],
                "AnchorSpec scale 1e+308 with ratio 1e-300 gives an infinite anchor side",
            ),
            (
                ["anchors", "--width", "1", "--height", "1", "--stride", "1e308"],
                "anchor_grid collapses anchors to zero width for a 1x1 grid at stride 1e+308",
            ),
        ],
    )
    def test_bad_flag_value_exits_1_with_its_own_error(self, argv, error, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flag itself
            code = exc.code
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"error: {error}" in captured.err

    @pytest.mark.parametrize("argv", [["eval", "--gt", GT_PATH, "--det", DET_PATH], ["nms"]])
    def test_unrecognized_flag_is_reported_by_its_subcommand(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--bogus", "1"])
        captured = capsys.readouterr()
        assert excinfo.value.code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"usage: facemetrics {argv[0]} [-h]")
        assert captured.err.endswith(
            f"\nfacemetrics {argv[0]}: error: unrecognized arguments: --bogus 1\n"
        )


class TestThreadsResolution:
    def eval_with_env(self, monkeypatch, capsys, value, *flags):
        if value is None:
            monkeypatch.delenv("FACEMETRICS_THREADS", raising=False)
        else:
            monkeypatch.setenv("FACEMETRICS_THREADS", value)
        assert main(["eval", "--gt", GT_PATH, "--det", DET_PATH, *flags]) == 0
        return capsys.readouterr()

    def test_env_var_does_not_set_the_default(self, monkeypatch, capsys):
        baseline = self.eval_with_env(monkeypatch, capsys, None)
        assert self.eval_with_env(monkeypatch, capsys, "4") == baseline

    def test_invalid_env_var_is_ignored(self, monkeypatch, capsys):
        baseline = self.eval_with_env(monkeypatch, capsys, None)
        assert self.eval_with_env(monkeypatch, capsys, "0") == baseline
        assert self.eval_with_env(monkeypatch, capsys, "0", "--threads", "2") == baseline

    def test_non_integer_env_var_is_ignored(self, monkeypatch, capsys):
        baseline = self.eval_with_env(monkeypatch, capsys, None)
        assert self.eval_with_env(monkeypatch, capsys, "many") == baseline

    def test_zero_threads_flag_returns_1(self, capsys):
        assert main(["eval", "--gt", GT_PATH, "--det", DET_PATH, "--threads", "0"]) == 1
        assert "--threads" in capsys.readouterr().err


class TestFlagsMatchRunConfig:
    def test_every_dest_is_a_field(self):
        fields = {field.name for field in dataclasses.fields(RunConfig)}
        parser = cli.build_parser()
        assert {a.dest for a in parser._actions} - {"help", "version"} <= fields
        for name, sub in subcommand_parsers(parser).items():
            dests = {a.dest for a in sub._actions} - {"help"}
            assert dests <= fields, f"{name}: {sorted(dests - fields)} are not RunConfig fields"

    def test_required_flags_alone_leave_the_rest_to_run_config_defaults(self):
        parser = cli.build_parser()
        assert set(subcommand_parsers(parser)) == set(REQUIRED_FLAGS)
        for name, (argv, values) in REQUIRED_FLAGS.items():
            flags = vars(parser.parse_args([name, *argv]))
            assert flags.pop("handler") is getattr(cli, "cmd_" + name.replace("-", "_"))
            # Nothing else is in the namespace, so RunConfig(**flags) takes
            # every other field's default.
            assert flags == {"subcommand": name, **values}


class TestHelp:
    def test_every_flag_is_documented(self):
        for name, sub in subcommand_parsers(cli.build_parser()).items():
            for action in sub._actions:
                assert action.help, f"{name}: {action.option_strings} lacks help text"

    def test_help_defaults_are_the_run_config_defaults(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        defaults = {field.name: field.default for field in dataclasses.fields(RunConfig)}
        checked = set()
        for name, sub in subcommand_parsers(cli.build_parser()).items():
            text = " ".join(sub.format_help().split())
            for action in sub._actions:
                match = re.search(r"\(default (\S+?)\)", action.help)
                if match is None:
                    continue
                assert " ".join(action.help.split()) in text
                parse = action.type or str
                assert parse(match.group(1)) == defaults[action.dest], (name, action.dest)
                checked.add(action.dest)
        assert checked == {
            "threads", "iou", "top_n", "iou_thresholds", "scales", "ratios", "stride",
        }

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for name in ("eval", "proposal-recall", "nms", "anchors", "resize-plan"):
            assert name in out


class TestSubprocess:
    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "facemetrics",
             "resize-plan", "--width", "350", "--height", "450", "--mode", "test"],
            capture_output=True,
            text=True,
            check=False,
        )
        assert result.returncode == 0
        assert result.stdout.splitlines()[0] == "scale 1.714286"

    def test_version_flag(self):
        result = subprocess.run(
            [sys.executable, "-m", "facemetrics", "--version"],
            capture_output=True,
            text=True,
            check=False,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("facemetrics ")
