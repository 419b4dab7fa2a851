"""Tests for annotation parsing, dataset assembly, and curve serialization."""

import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

from facemetrics import io
from facemetrics.geometry import Ellipse, Rect
from facemetrics.io import (
    AnnotationEntry,
    AnnotationFile,
    ParseError,
    build_dataset,
    format_rect,
    parse_region_list,
    parse_scored_rects,
    read_curve,
    read_detections,
    write_curve,
)
from facemetrics.matching import Detection, GroundTruth
from facemetrics.metrics import Curve, CurvePoint, XSemantics, YSemantics

DATA_DIR = Path(__file__).parent / "data"

MIXED_TEXT = """\
fold-01/img_1
2
42.5 28.3 1.2471 120.0 88.4 1
10 20 30 40
fold-01/img_2
1
5.5 6.5 12 18 0.875
"""


class TestParseRegionList:
    def test_mixed_region_kinds(self):
        parsed = parse_region_list(MIXED_TEXT)
        assert isinstance(parsed, AnnotationFile)
        assert [e.image_id for e in parsed.entries] == ["fold-01/img_1", "fold-01/img_2"]
        first, second = parsed.entries
        ellipse, rect = first.regions
        assert isinstance(ellipse, Ellipse)
        assert ellipse.semi_major == 42.5
        assert ellipse.angle == 1.2471
        assert ellipse.center_x == 120.0
        assert isinstance(rect, Rect)
        assert rect == Rect(x_min=10, y_min=20, x_max=40, y_max=60)
        (scored,) = second.regions
        assert isinstance(scored, Detection)
        assert scored.region == Rect(x_min=5.5, y_min=6.5, x_max=17.5, y_max=24.5)
        assert scored.score == 0.875

    def test_each_line_kind_parses_to_one_object(self):
        parsed = parse_region_list("a\n1\n1 2 3 4\nb\n2\n1 2 3 4 0.5\n3 2 0 5 6 1\n")
        assert [entry.regions for entry in parsed.entries] == [
            (Rect(1.0, 2.0, 4.0, 6.0),),
            (
                Detection(Rect(1.0, 2.0, 4.0, 6.0), 0.5, "b"),
                Ellipse(center_x=5.0, center_y=6.0, semi_major=3.0, semi_minor=2.0, angle=0.0),
            ),
        ]
        (scored,) = parse_scored_rects("1 2 3 4 0.5\n")
        assert scored == Detection(Rect(1.0, 2.0, 4.0, 6.0), 0.5, "")

    def test_blank_lines_between_records_are_skipped(self):
        text = "\nimg_a\n1\n0 0 10 10\n\n\nimg_b\n1\n1 1 5 5\n\n"
        parsed = parse_region_list(text)
        assert [e.image_id for e in parsed.entries] == ["img_a", "img_b"]

    def test_zero_count_record(self):
        parsed = parse_region_list("img_empty\n0\nimg_b\n1\n0 0 4 4\n")
        assert parsed.entries[0].regions == ()
        assert len(parsed.entries[1].regions) == 1

    def test_empty_input_gives_empty_file(self):
        assert parse_region_list("").entries == ()
        assert parse_region_list("\n  \n").entries == ()

    def test_degrees_mode_converts_angles(self):
        text = "img\n1\n40 20 90 100 80 1\n"
        (entry,) = parse_region_list(text, angle_unit="degrees").entries
        (ellipse,) = entry.regions
        assert ellipse.angle == pytest.approx(math.pi / 2, rel=1e-12)
        # radians mode takes the value verbatim
        (entry_r,) = parse_region_list(text).entries
        assert entry_r.regions[0].angle == 90.0

    def test_rejects_unknown_angle_unit(self):
        with pytest.raises(ValueError, match="angle_unit"):
            parse_region_list("img\n1\n40 20 0 100 80 1\n", angle_unit="turns")

    def test_count_must_be_a_nonnegative_integer(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_region_list("img\n-1\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_region_list("img\ntwo\n0 0 1 1\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_region_list("img\n1.5\n0 0 1 1\n")

    def test_truncated_record_reports_missing_region_line(self):
        with pytest.raises(ParseError) as excinfo:
            parse_region_list("img\n2\n0 0 10 10\n")
        assert "img" in str(excinfo.value)
        assert excinfo.value.line == 4

    def test_missing_count_at_eof(self):
        with pytest.raises(ParseError) as excinfo:
            parse_region_list("img\n1\n0 0 10 10\nimg_b\n")
        assert excinfo.value.line == 5

    def test_wrong_field_count_is_rejected(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_region_list("img\n1\n0 0 10\n")
        with pytest.raises(ParseError, match="line 3"):
            parse_region_list("img\n1\n0 0 10 10 0.5 1 7\n")

    def test_non_numeric_token_is_rejected(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_region_list("img\n1\n0 0 ten 10\n")

    def test_invalid_geometry_is_wrapped_as_parse_error(self):
        # negative width
        with pytest.raises(ParseError, match="line 3"):
            parse_region_list("img\n1\n0 0 -5 10\n")
        # semi-minor exceeding semi-major
        with pytest.raises(ParseError, match="line 3"):
            parse_region_list("img\n1\n10 20 0 50 50 1\n")
        # non-finite value
        with pytest.raises(ParseError, match="line 3"):
            parse_region_list("img\n1\nnan 0 5 10\n")

    def test_duplicate_image_id_reports_first_occurrence(self):
        text = "img_a\n1\n0 0 1 1\nimg_b\n0\nimg_a\n1\n2 2 3 3\n"
        with pytest.raises(ValueError, match="line 1"):
            parse_region_list(text)

    def test_annotation_file_rejects_duplicate_image_ids(self):
        entries = (AnnotationEntry("a", ()), AnnotationEntry("b", ()), AnnotationEntry("a", ()))
        with pytest.raises(ValueError, match=r"duplicate image ids: \['a'\]"):
            AnnotationFile(entries)

    def test_annotation_file_names_repeated_ids_among_many_in_linear_time(self):
        entries = [AnnotationEntry(f"img_{i}", ()) for i in range(100_000)]
        entries[50_000] = AnnotationEntry("img_7", ())
        entries[99_999] = AnnotationEntry("img_123", ())
        # A count per id, quadratic in the entries, would take minutes at this size.
        with pytest.raises(ValueError, match=r"^duplicate image ids: \['img_123', 'img_7'\]$"):
            AnnotationFile(tuple(entries))

    def test_error_carries_line_and_reason(self):
        try:
            parse_region_list("img\n1\n0 0 ten 10\n")
        except ParseError as err:
            assert err.line == 3
            assert "ten" in err.reason
        else:  # pragma: no cover - guarded by the raise above
            pytest.fail("expected ParseError")

    def test_bundled_fixture_parses(self):
        gt = parse_region_list((DATA_DIR / "synthetic_gt.txt").read_text())
        det = parse_region_list((DATA_DIR / "synthetic_det.txt").read_text())
        assert len(gt.entries) == 3
        assert sum(len(e.regions) for e in gt.entries) == 5
        assert all(isinstance(r, Ellipse) for e in gt.entries for r in e.regions)
        assert sum(len(e.regions) for e in det.entries) == 12
        scores = [r.score for e in det.entries for r in e.regions]
        assert len(set(scores)) == 12


class TestScoredRects:
    def test_round_trip_through_format_rect(self):
        rects = [
            (Rect.from_xywh(1.25, 2.5, 10.0, 20.0), 0.875),
            (Rect.from_xywh(0.0, 0.0, 3.0, 4.0), 0.5),
        ]
        text = "".join(format_rect(r, score=s) + "\n" for r, s in rects)
        parsed = parse_scored_rects(text)
        assert [(p.region, p.score) for p in parsed] == rects

    def test_format_rect_without_score(self):
        assert format_rect(Rect.from_xywh(1.0, 2.0, 3.0, 4.0)) == "1 2 3 4"
        assert format_rect(Rect.from_xywh(0.5, 0.5, 1.25, 2.0), score=0.375) == "0.5 0.5 1.25 2 0.375"

    def test_format_rect_uses_six_significant_digits(self):
        line = format_rect(Rect.from_xywh(1.2345678, 0.0, 10.0, 10.0))
        assert line.split()[0] == "1.23457"

    def test_rejects_unscored_lines(self):
        for line in ("0 0 1 1", "10 5 0 20 20 1"):
            with pytest.raises(ParseError, match="^line 2: expected an 'x y w h score' line$"):
                parse_scored_rects(f"0 0 1 1 0.5\n{line}\n")

    def test_skips_blank_lines_and_keeps_counting_them(self):
        parsed = parse_scored_rects("0 0 1 1 0.5\n\n  \t\n2 2 1 1 0.25\n")
        assert [(p.region, p.score) for p in parsed] == [
            (Rect(0.0, 0.0, 1.0, 1.0), 0.5),
            (Rect(2.0, 2.0, 3.0, 3.0), 0.25),
        ]
        with pytest.raises(ParseError, match="line 3"):
            parse_scored_rects("0 0 1 1 0.5\n\n0 0 1 1\n")

    def test_rejects_garbage(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_scored_rects("not a rect\n")


class TestBuildDataset:
    def test_joins_on_image_id(self):
        annotations = parse_region_list(MIXED_TEXT)
        detections = parse_region_list("fold-01/img_1\n1\n10 20 30 40 0.75\nfold-01/img_2\n0\n")
        ds = build_dataset(annotations, detections)
        assert set(ds.images) == {"fold-01/img_1", "fold-01/img_2"}
        dets, gts = ds.images["fold-01/img_1"]
        assert len(gts) == 2
        assert [d.score for d in dets] == [0.75]
        assert all(isinstance(g, GroundTruth) for g in gts)
        assert all(isinstance(d, Detection) for d in dets)
        assert ds.images["fold-01/img_2"].detections == ()

    def test_detections_are_the_parsed_objects_themselves(self):
        annotations = parse_region_list("a\n0\nb\n0\nc\n0\n")
        detections = parse_region_list("a\n2\n0 0 1 1 0.5\n0 0 2 2 0.25\nb\n0\n")
        ds = build_dataset(annotations, detections)
        parsed = detections.entries[0].regions
        assert ds.images["a"].detections is parsed
        assert all(d is p for d, p in zip(ds.images["a"].detections, parsed))
        assert ds.images["b"].detections == ds.images["c"].detections == ()

    def test_gt_regions_keep_their_geometry(self):
        annotations = parse_region_list(MIXED_TEXT)
        ds = build_dataset(annotations, parse_region_list(""))
        ellipse_gt, rect_gt = ds.images["fold-01/img_1"].ground_truths
        assert isinstance(ellipse_gt.region, Ellipse)
        assert isinstance(rect_gt.region, Rect)

    def test_scored_gt_score_is_ignored(self):
        annotations = parse_region_list("img\n1\n0 0 10 10 0.99\n")
        ds = build_dataset(annotations, parse_region_list(""))
        (gt,) = ds.images["img"].ground_truths
        assert gt.region == Rect.from_xywh(0, 0, 10, 10)

    def test_detection_less_images_are_kept(self):
        annotations = parse_region_list("img_a\n1\n0 0 10 10\nimg_b\n1\n5 5 10 10\n")
        detections = parse_region_list("img_a\n1\n0 0 10 10 0.9\n")
        ds = build_dataset(annotations, detections)
        assert ds.images["img_b"].detections == ()
        assert len(ds.images["img_b"].ground_truths) == 1

    def test_rejects_detections_for_unknown_images(self):
        annotations = parse_region_list("img_a\n1\n0 0 10 10\n")
        detections = parse_region_list("img_zzz\n1\n0 0 10 10 0.9\n")
        with pytest.raises(ValueError, match="img_zzz"):
            build_dataset(annotations, detections)

    def test_rejects_unscored_detection_rects(self):
        annotations = parse_region_list("img\n1\n0 0 10 10\n")
        detections = parse_region_list("img\n1\n0 0 10 10\n")
        with pytest.raises(ValueError, match="score"):
            build_dataset(annotations, detections)

    def test_rejects_ellipse_detections(self):
        annotations = parse_region_list("img\n1\n0 0 10 10\n")
        detections = parse_region_list("img\n1\n10 5 0 20 20 1\n")
        with pytest.raises(ValueError, match="rect"):
            build_dataset(annotations, detections)

    def test_errors_name_the_line_of_a_parsed_entry_only(self):
        annotations = parse_region_list("img\n1\n0 0 10 10\n")
        parsed = parse_region_list("\nimg\n1\n0 0 10 10 0.5\n\nimg_zzz\n0\n")
        assert [entry.line for entry in parsed.entries] == [2, 6]
        with pytest.raises(ParseError, match=r"^line 6: detections reference image 'img_zzz'"):
            build_dataset(annotations, parsed)
        built = AnnotationFile((AnnotationEntry("img", (Rect(0, 0, 1, 1),)),))
        assert built.entries[0].line == 0
        with pytest.raises(ValueError, match=r"^image 'img': detection entries must carry scores$"):
            build_dataset(annotations, built)
        # A detection is handed on as it is, so one on another image is not re-filed.
        misfiled = AnnotationFile(
            (AnnotationEntry("img", (Detection(Rect(0, 0, 1, 1), 0.5, "x"),)),)
        )
        with pytest.raises(ValueError, match=r"^detection for image 'x' filed under 'img'$"):
            build_dataset(annotations, misfiled)



class TestReadDetections:
    TEXT = "a\n3\n0 0 1 1 0.5\n0 0 1 1 0.9\n0 0 1 1 0.5\nb\n0\nzzz\n1\n0 0 1 1 0.5\n"

    def test_yields_each_block_in_turn_capped_in_input_order(self):
        blocks = read_detections(self.TEXT, {"a", "b"}, top=2)
        assert [(d.score, d.image_id) for d in next(blocks)] == [(0.5, "a"), (0.9, "a")]
        assert next(blocks) == ()
        # A block that breaks a dataset rule raises once the text has parsed.
        with pytest.raises(ParseError, match="^line 8: detections reference image 'zzz' absent"):
            next(blocks)

    def test_a_malformed_line_comes_before_an_earlier_rule_error(self):
        blocks = read_detections(self.TEXT + "c\n1\n0 0 1\n", {"a", "b"})
        with pytest.raises(ParseError, match="^line 13: expected 4 fields"):
            list(blocks)
        with pytest.raises(ValueError, match="^angle_unit must be one of"):
            read_detections(self.TEXT, {"a"}, angle_unit="turns")

    @pytest.mark.parametrize("top", [0, -1, True, False, 2.0])
    def test_rejects_a_top_that_is_not_an_int_of_at_least_1_at_the_call(self, top):
        # Checked before the first block: top=-1 once dropped each image's
        # lowest-ranked detection, top=0 every detection, and True acted as 1.
        with pytest.raises(ValueError) as excinfo:
            read_detections(self.TEXT, {"a", "b"}, top=top)
        assert str(excinfo.value) == f"top must be an int >= 1, got {top!r}"

    def test_top_1_keeps_each_block_s_best_detection(self):
        blocks = read_detections(self.TEXT, {"a", "b", "zzz"}, top=1)
        assert [[d.score for d in block] for block in blocks] == [[0.9], [], [0.5]]


# Every line break str.splitlines knows.
_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestLineWalk:
    """Region-list readers walk the text a chunk at a time, numbering lines as splitlines does."""

    LINES = ["a", "2", "0 0 1 1 0.5", "0 0 2 2 0.9", "", "b", "0", "", "c", "1", "1 1 3 3 0.2"]

    def test_the_walk_is_enumerate_splitlines_at_every_chunk_size(self, monkeypatch):
        rng = random.Random(71)
        alphabet = _BREAKS + ["x", "y", " ", "\r\r", "\n\n"]
        texts = ["", "\n", "\r\n", "x", "\r", "x\r\ny\r\n"]
        for _ in range(300):
            texts.append("".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40))))
        for chunk in (1, 2, 3, 7, 8192):
            monkeypatch.setattr(io, "_CHUNK", chunk)
            for text in texts:
                assert list(io._lines(text)) == list(enumerate(text.splitlines(), 1)), (chunk, text)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 5])
    def test_a_crlf_across_a_chunk_boundary_is_one_break(self, monkeypatch, chunk):
        # With chunk sizes 1-5, some chunk's nominal end falls between the
        # \r and the \n of each \r\n, or just before or after the pair.
        monkeypatch.setattr(io, "_CHUNK", chunk)
        assert list(io._lines("ab\r\ncd\r\n\r\nef")) == [(1, "ab"), (2, "cd"), (3, ""), (4, "ef")]
        text = "\r\n".join(self.LINES) + "\r\n"
        assert parse_region_list(text) == parse_region_list("\n".join(self.LINES))

    @pytest.mark.parametrize("sep", _BREAKS)
    @pytest.mark.parametrize("chunk", [1, 3, 8192])
    def test_each_break_gives_the_same_blocks_and_error_lines(self, monkeypatch, sep, chunk):
        want = parse_region_list("\n".join(self.LINES))
        monkeypatch.setattr(io, "_CHUNK", chunk)
        assert parse_region_list(sep.join(self.LINES)) == want
        blocks = read_detections(sep.join(self.LINES) + sep, {"a", "b", "c"})
        assert [[d.score for d in block] for block in blocks] == [[0.5, 0.9], [], [0.2]]
        # A bad line, a missing region and a missing count name the line
        # that splitlines numbers them by.
        for lines, line, message in (
            (self.LINES[:10] + ["1 1 3"], 11, "expected 4 fields"),
            (self.LINES[:10], 11, "image 'c': declared 1 regions, found 0"),
            (self.LINES[:9], 10, "image 'c': missing region count"),
            (self.LINES + ["a"], 12, "duplicate image id 'a' (first seen on line 1)"),
        ):
            with pytest.raises(ParseError) as excinfo:
                parse_region_list(sep.join(lines))
            assert excinfo.value.line == line and excinfo.value.reason.startswith(message)
            with pytest.raises(ParseError) as excinfo:
                list(read_detections(sep.join(lines) + sep, {"a", "b", "c"}))
            assert excinfo.value.line == line and excinfo.value.reason.startswith(message)


def _sample_curve() -> Curve:
    return Curve(
        points=(
            CurvePoint(x=0.0, y=0.0, threshold=math.inf),
            CurvePoint(x=0.0, y=0.5, threshold=0.9),
            CurvePoint(x=1.0, y=0.5, threshold=0.8),
            CurvePoint(x=1.0, y=1.0, threshold=0.7),
        ),
        x_semantics=XSemantics.FP_COUNT,
        y_semantics=YSemantics.TPR_DISCRETE,
    )


_IOU_HEADER = "# x=iou_threshold y=detection_rate"


class TestCurveSerialization:
    def test_csv_round_trip(self):
        curve = _sample_curve()
        text = write_curve(curve, format="csv")
        back = read_curve(text)
        assert back.points == curve.points
        assert back.x_semantics == curve.x_semantics
        assert back.y_semantics == curve.y_semantics

    def test_semantics_given_by_name_become_members(self):
        # Such a curve once built and then failed to write in either format.
        named = Curve(_sample_curve().points, "fp_count", "tpr_discrete")
        assert named.x_semantics is XSemantics.FP_COUNT
        assert named.y_semantics is YSemantics.TPR_DISCRETE
        for format in ("csv", "json"):
            assert write_curve(named, format=format) == write_curve(_sample_curve(), format=format)
        with pytest.raises(ValueError, match="'bogus' is not a valid XSemantics"):
            Curve((), "bogus", YSemantics.TPR_DISCRETE)
        with pytest.raises(ValueError, match="'bogus' is not a valid YSemantics"):
            Curve((), XSemantics.FP_COUNT, "bogus")

    def test_csv_layout(self):
        lines = write_curve(_sample_curve(), format="csv").splitlines()
        assert lines[0] == "# x=fp_count y=tpr_discrete"
        assert lines[1] == "x,y,threshold"
        assert lines[2] == "0,0,inf"
        assert lines[3] == "0,0.5,0.9"
        assert write_curve(_sample_curve(), format="csv").endswith("\n")

    def test_json_round_trip_and_metadata(self):
        curve = _sample_curve()
        text = write_curve(curve, format="json", dataset_name="folds-1-5", matcher="greedy")
        payload = json.loads(text)
        assert payload["dataset"] == "folds-1-5"
        assert payload["matcher"] == "greedy"
        assert payload["x_semantics"] == "fp_count"
        assert payload["points"][0] == [0.0, 0.0, "inf"]
        back = read_curve(text)
        assert back.points == curve.points

    def test_only_a_failed_json_read_parses_again_for_line_numbers(self, monkeypatch):
        tracked = []
        line_tracking = io._json_with_list_lines

        def counted(text):
            tracked.append(text)
            return line_tracking(text)

        monkeypatch.setattr(io, "_json_with_list_lines", counted)
        curve = _sample_curve()
        text = write_curve(curve, format="json")
        assert read_curve(text).points == curve.points
        assert tracked == []
        mangled = text.replace("fp_count", "bananas")
        with pytest.raises(ParseError, match="bananas"):
            read_curve(mangled)
        assert tracked == [mangled]

    def test_json_keys_are_sorted(self):
        text = write_curve(_sample_curve(), format="json")
        keys = list(json.loads(text).keys())
        assert keys == sorted(keys)

    def test_infinite_threshold_survives_both_formats(self):
        for fmt in ("csv", "json"):
            back = read_curve(write_curve(_sample_curve(), format=fmt))
            assert back.points[0].threshold == math.inf

    def test_writes_are_canonical(self):
        curve = _sample_curve()
        for fmt in ("csv", "json"):
            assert write_curve(curve, format=fmt) == write_curve(curve, format=fmt)

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            write_curve(_sample_curve(), format="xml")

    def test_read_curve_rejects_missing_header(self):
        with pytest.raises(ParseError):
            read_curve("0,0,inf\n1,0.5,0.9\n")

    def test_read_curve_names_the_line_of_a_bad_csv_header(self):
        cases = [
            ("# curve\nx,y,threshold\n", 1, "must define x= and y="),
            ("# x=fp_count\nx,y,threshold\n", 1, "must define x= and y="),
            ("# x=fp_count y=tpr_discrete\n0,0,inf\n", 2, "header row"),
            ("# x=fp_count y=tpr_discrete\n", 2, "header row"),
        ]
        for text, line, reason in cases:
            with pytest.raises(ParseError, match=reason) as excinfo:
                read_curve(text)
            assert excinfo.value.line == line, text

    def test_read_curve_rejects_proposal_count_semantics(self):
        text = "# x=proposal_count y=detection_rate\nx,y,threshold\n1,0.5,1\n"
        with pytest.raises(ParseError, match="proposal_count") as excinfo:
            read_curve(text)
        assert excinfo.value.line == 1

    def test_read_curve_rejects_bad_row(self):
        text = write_curve(_sample_curve(), format="csv") + "1,2\n"
        with pytest.raises(ParseError):
            read_curve(text)

    def test_read_curve_reports_the_line_of_an_invalid_point(self):
        lines = write_curve(_sample_curve(), format="csv").splitlines()
        assert lines[4:] == ["1,0.5,0.8", "1,1,0.7"]
        cases = [
            (4, ["1,1.6,0.8"], 5, "y values"),
            (5, ["0.5,1,0.7"], 6, "ascending x"),
            (4, ["1,0.5,0.95"], 5, "thresholds"),
            (3, ["nan,0.5,1"], 4, "NaN"),
            # A NaN threshold would hide the rise to 2 from the order check.
            (3, ["0,0.5,nan", "1,0.6,2"], 4, "NaN"),
            # No count of false positives is infinite or negative.
            (2, ["0,0,inf", "inf,0.5,0.9"], 4, "finite and non-negative"),
            (2, ["-3,0,inf"], 3, "finite and non-negative"),
            # A recall curve's x is an IoU threshold, in (0, 1].
            (0, [_IOU_HEADER, "x,y,threshold", "-0.5,0,-0.5"], 3, "IoU-threshold x"),
            (0, [_IOU_HEADER, "x,y,threshold", "0.5,0,0.5", "2,0.5,2"], 4, "IoU-threshold x"),
            (0, [_IOU_HEADER, "x,y,threshold", "0.5,0,0.5", "inf,0.5,inf"], 4, "IoU-threshold x"),
        ]
        for index, rows, line, reason in cases:
            bad = lines[:index] + rows + lines[index + len(rows) :]
            with pytest.raises(ParseError, match=reason) as excinfo:
                read_curve("\n".join(bad) + "\n")
            assert excinfo.value.line == line
        # Blank lines still count.
        with pytest.raises(ParseError) as excinfo:
            read_curve("\n".join(lines[:5] + ["", "0.5,1,0.7"]) + "\n")
        assert excinfo.value.line == 7

    def test_read_curve_rejects_malformed_json(self):
        with pytest.raises(ParseError):
            read_curve('{"points": [')

    def test_read_curve_reports_the_json_line_of_an_invalid_point(self):
        payload = json.loads(write_curve(_sample_curve(), format="json"))
        # Each point opens with '[' on a line of its own: point 2 on line 15.
        assert json.dumps(payload, indent=2, sort_keys=True).splitlines()[14] == "    ["
        cases = [
            ([1.0, 1.6, 0.8], "y values"),
            ([1.0, 0.5, 0.95], "thresholds"),
            ([1.0, 0.5], "3-element list"),
            ([1.0, "half", 0.8], "non-numeric point"),
            ([math.nan, 0.5, 0.8], "NaN"),
            ([1.0, 0.5, math.nan], "NaN"),
        ]
        for point, reason in cases:
            edited = dict(payload, points=payload["points"][:2] + [point] + payload["points"][3:])
            with pytest.raises(ParseError, match=reason) as excinfo:
                read_curve(json.dumps(edited, indent=2, sort_keys=True))
            assert excinfo.value.line == 15, reason
        # An integer past the float range reads as inf, 5,001 digits (past
        # int()'s digit limit) included, and true or false is no number.
        for x, y, reason in (
            ("1" + "0" * 400, "0.5", "finite and non-negative"),
            ("1.0", "1" + "0" * 5000, "y values"),
            ("true", "0.5", "non-numeric point"),
            ("1.0", "false", "non-numeric point"),
        ):
            edited = dict(payload, points=payload["points"][:2] + [["X", "Y", 0.8]])
            text = json.dumps(edited, indent=2, sort_keys=True)
            with pytest.raises(ParseError, match=reason) as excinfo:
                read_curve(text.replace('"X"', x).replace('"Y"', y))
            assert excinfo.value.line == 15, reason
        # A point that is no list gets the line of the point list's '['.
        edited = dict(payload, points=payload["points"][:2] + [7])
        with pytest.raises(ParseError, match="3-element list") as excinfo:
            read_curve(json.dumps(edited, indent=2, sort_keys=True))
        assert excinfo.value.line == 4

    def test_read_curve_rejects_malformed_json_documents(self):
        # Only text that opens with '{' is read as JSON, so a parsed document is an object.
        payload = json.loads(write_curve(_sample_curve(), format="json"))
        cases = [
            ("{" + json.dumps([payload]), "invalid JSON"),
            (json.dumps({k: v for k, v in payload.items() if k != "points"}), "missing key"),
            (json.dumps(dict(payload, points=5)), "'points' must be a list"),
        ]
        for text, reason in cases:
            with pytest.raises(ParseError, match=reason) as excinfo:
                read_curve(text)
            assert excinfo.value.line == 1, reason

    def test_read_curve_rejects_json_nested_past_the_recursion_limit(self):
        # Deeper than the recursion limit lets the line-tracking parse go.
        # The parse hits RecursionError on the way, which switches off any
        # sys.settrace tracer (a line-coverage run, say) for the rest of the
        # process, so these cases run in a child interpreter.
        texts = [
            '{"points": ' + "[" * 500 + "]" * 500 + "}",
            '{"points": ' + "[" * 5000 + "]" * 5000 + "}",
            # With one '[' a line, the k-th opens line k.
            '{\n"points":\n' + "[" * 5000 + "]" * 5000 + "}",
            '{"points": ' + "[\n" * 5000 + "]" * 5000 + "}",
        ]
        code = (
            "import json, sys\n"
            "from facemetrics.io import ParseError, read_curve\n"
            "errors = []\n"
            "for text in json.load(sys.stdin):\n"
            "    try:\n"
            "        read_curve(text)\n"
            "    except ParseError as exc:\n"
            "        errors.append((str(exc), exc.line))\n"
            "    else:\n"
            "        errors.append(None)\n"
            "print(json.dumps(errors))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            input=json.dumps(texts),
            capture_output=True,
            text=True,
            check=True,
        )
        errors = json.loads(result.stdout)
        assert len(errors) == len(texts)
        for error in errors:
            assert error is not None and "nested too deeply" in error[0], error
        # The error names the line of the deepest '[' the parse reached.
        assert [line for _, line in errors[:3]] == [1, 1, 3]
        assert 1 < errors[3][1] < 5000

    def test_read_curve_rejects_unknown_semantics(self):
        text = write_curve(_sample_curve(), format="json")
        mangled = text.replace("fp_count", "bananas")
        with pytest.raises(ParseError, match="bananas"):
            read_curve(mangled)


class TestFuzz:
    def test_random_text_parses_or_raises_parse_error(self):
        rng = random.Random(20240817)
        alphabet = "0123456789. -\nabcimg_/"
        for _ in range(300):
            length = rng.randrange(0, 120)
            text = "".join(rng.choice(alphabet) for _ in range(length))
            try:
                parsed = parse_region_list(text)
            except (ParseError, ValueError):
                continue
            assert isinstance(parsed, AnnotationFile)

    def test_structured_fuzz_round_trips(self):
        rng = random.Random(99)
        for _ in range(50):
            lines = []
            expected = []
            for i in range(rng.randrange(1, 4)):
                image = f"img_{i}"
                n = rng.randrange(0, 3)
                lines.append(image)
                lines.append(str(n))
                count = 0
                for _ in range(n):
                    x, y = rng.uniform(0, 50), rng.uniform(0, 50)
                    w, h = rng.uniform(1, 30), rng.uniform(1, 30)
                    lines.append(f"{x} {y} {w} {h}")
                    count += 1
                expected.append((image, count))
            parsed = parse_region_list("\n".join(lines) + "\n")
            assert [(e.image_id, len(e.regions)) for e in parsed.entries] == expected
