"""End-to-end tests for the ``facemetrics`` command-line interface."""

import dataclasses
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from facemetrics import cli
from facemetrics.cli import RunConfig, main
from facemetrics.io import build_dataset, parse_region_list, read_curve, write_curve
from facemetrics.metrics import discrete_roc

DATA_DIR = Path(__file__).parent / "data"
GT_PATH = str(DATA_DIR / "synthetic_gt.txt")
DET_PATH = str(DATA_DIR / "synthetic_det.txt")

TWO_BOXES = "0 0 10 10 0.9\n1 1 10 10 0.8\n"

# Each subcommand's required flags, and the RunConfig fields they set.
REQUIRED_FLAGS = {
    "eval": (["--gt", "g", "--det", "d"], {"gt_path": "g", "det_path": "d"}),
    "proposal-recall": (["--gt", "g", "--det", "d"], {"gt_path": "g", "det_path": "d"}),
    "nms": ([], {}),
    "anchors": (["--width", "3", "--height", "2"], {"grid_w": 3, "grid_h": 2}),
    "resize-plan": (
        ["--width", "3", "--height", "2", "--mode", "test"],
        {"image_w": 3.0, "image_h": 2.0, "mode": "test"},
    ),
}


def subcommand_parsers(parser):
    return parser._subparsers._group_actions[0].choices


def fixture_curve(mode="discrete", matcher="greedy"):
    ds = build_dataset(
        parse_region_list(Path(GT_PATH).read_text()),
        parse_region_list(Path(DET_PATH).read_text()),
    )
    build = cli._MODE_BUILDERS[mode]
    return build(ds, matcher)


class TestRunConfig:
    def test_eval_defaults_validate(self):
        config = RunConfig(subcommand="eval", gt_path="g", det_path="d")
        assert config.mode == "discrete"
        assert config.iou_threshold == 0.5

    def test_rejects_bad_values_before_any_work(self):
        with pytest.raises(ValueError, match="--threads"):
            RunConfig(subcommand="eval", gt_path="g", det_path="d", threads=0)
        with pytest.raises(ValueError, match="--iou"):
            RunConfig(subcommand="eval", gt_path="g", det_path="d", iou_threshold=1.5)
        with pytest.raises(ValueError, match="--mode"):
            RunConfig(subcommand="eval", gt_path="g", det_path="d", mode="fancy")
        with pytest.raises(ValueError, match="--top-n"):
            RunConfig(subcommand="proposal-recall", gt_path="g", det_path="d", n_values=(0,))
        with pytest.raises(ValueError, match="stdout"):
            RunConfig(subcommand="proposal-recall", gt_path="g", det_path="d", out_path="-")
        with pytest.raises(ValueError, match="--width"):
            RunConfig(subcommand="anchors", grid_w=0, grid_h=5)
        with pytest.raises(ValueError, match="--mode"):
            RunConfig(subcommand="resize-plan", image_w=100, image_h=100, mode="val")
        with pytest.raises(ValueError, match="subcommand"):
            RunConfig(subcommand="frobnicate")


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

    def test_no_stray_files_next_to_output(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["eval", "--gt", GT_PATH, "--det", DET_PATH, "--out", str(out)]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["curve.csv"]


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
        assert "--iou" in capsys.readouterr().err

    def test_unwritable_output_returns_1_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "curve.csv"
        code = main(["eval", "--gt", GT_PATH, "--det", DET_PATH, "--out", str(out)])
        assert code == 1
        assert not out.exists()
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
