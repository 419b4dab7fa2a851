"""Command-line driver: ``facemetrics <subcommand> [flags]``.

Subcommands
-----------
``eval``
    Match detections against ground truths and write an ROC curve
    (``discrete``, ``continuous``, or ``normalized`` false positives
    per image).  A one-line summary goes to stderr so the curve can be
    piped from stdout untouched.
``proposal-recall``
    Detection rate of the top-N proposals per image as a function of
    the IoU threshold, one curve file per N.
``nms``
    Filter a file of scored boxes with non-maximum suppression.
``anchors``
    Emit the anchor grid for a feature map, one box per line.
``resize-plan``
    Print the uniform rescale factor for an image size.

Conventions shared by all subcommands: ``-`` means stdin or stdout;
list-valued flags take comma-separated values; output files are written
to a temporary name and renamed into place, so a failing run never
leaves partial output; identical inputs and flags produce byte-identical
output regardless of ``--threads``.

Exit status: 0 on success, 1 for bad input or flags, 2 if an internal
invariant breaks (a bug, not a usage problem).

Each flag's destination is a :class:`RunConfig` field, and a flag left
out keeps that field's default, so every default is stated once.
``--threads`` is accepted for compatibility and must be at least 1;
every subcommand runs on one thread and the value changes nothing.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
import traceback
from dataclasses import dataclass
from typing import NoReturn

from ._version import __version__
from .anchors import AnchorSpec, anchor_grid, resize_scale
from .geometry import nms
from .io import (
    ParseError,
    build_dataset,
    format_rect,
    parse_region_list,
    parse_scored_rects,
    write_curve,
)
from .matching import Detection
from .metrics import (
    MATCHERS,
    Curve,
    EvalDataset,
    continuous_roc,
    curve_query,
    discrete_roc,
    normalized_fp_roc,
    proposal_recall,
)

__all__ = [
    "RunConfig",
    "cmd_eval",
    "cmd_proposal_recall",
    "cmd_nms",
    "cmd_anchors",
    "cmd_resize_plan",
    "main",
]

_EVAL_MODES = ("discrete", "continuous", "normalized")
_RESIZE_MODES = ("train", "test")
_FORMATS = ("csv", "json")
_ANGLE_UNITS = ("radians", "degrees")

_MODE_BUILDERS = {
    "discrete": discrete_roc,
    "continuous": continuous_roc,
    "normalized": normalized_fp_roc,
}


@dataclass(frozen=True, slots=True)
class RunConfig:
    """Validated flag set for one invocation.

    One type covers every subcommand; each field is a flag's
    destination, and its default is that flag's default (fields a
    subcommand does not use keep theirs).  Construction performs all
    validation, so a ``RunConfig`` that exists is safe to run: nothing
    is read, computed, or written before the whole configuration has
    been checked.
    """

    subcommand: str
    gt_path: str | None = None
    det_path: str | None = None
    input_path: str = "-"
    mode: str = "discrete"
    matcher: str = "greedy"
    iou_threshold: float = 0.5
    n_values: tuple[int, ...] = (100, 300, 500, 1000)
    recall_thresholds: tuple[float, ...] = tuple(i / 100 for i in range(50, 100, 5))
    top_cap: int | None = None
    query_x: float | None = None
    out_path: str = "-"
    out_format: str = "csv"
    ellipse_n: int = 1024
    angle_unit: str = "radians"
    threads: int = 1
    dataset_name: str = ""
    scales: tuple[float, ...] = (128.0, 256.0, 512.0)
    ratios: tuple[float, ...] = (1.0, 2.0, 0.5)
    stride: float = 16.0
    grid_w: int = 0
    grid_h: int = 0
    image_w: float = 0.0
    image_h: float = 0.0

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ValueError(f"--threads must be >= 1, got {self.threads}")
        if self.out_format not in _FORMATS:
            raise ValueError(f"--format must be one of {_FORMATS}, got {self.out_format!r}")
        if self.ellipse_n < 8:
            raise ValueError(f"--ellipse-n must be >= 8, got {self.ellipse_n}")
        if self.angle_unit not in _ANGLE_UNITS:
            raise ValueError(
                f"--angle-unit must be one of {_ANGLE_UNITS}, got {self.angle_unit!r}"
            )
        if self.subcommand in ("eval", "proposal-recall"):
            if not self.gt_path or not self.det_path:
                raise ValueError("--gt and --det are required")
        if self.subcommand == "eval":
            if self.mode not in _EVAL_MODES:
                raise ValueError(f"--mode must be one of {_EVAL_MODES}, got {self.mode!r}")
            if self.matcher not in MATCHERS:
                raise ValueError(f"--matcher must be one of {MATCHERS}, got {self.matcher!r}")
            if not 0.0 <= self.iou_threshold <= 1.0:
                raise ValueError(f"--iou must be in [0, 1], got {self.iou_threshold}")
            if self.top_cap is not None and self.top_cap < 1:
                raise ValueError(f"--top must be >= 1, got {self.top_cap}")
            if self.query_x is not None and math.isnan(self.query_x):
                raise ValueError("--query-fp must not be NaN")
        elif self.subcommand == "proposal-recall":
            if not self.n_values:
                raise ValueError("--top-n must list at least one value")
            if any(n < 1 for n in self.n_values):
                raise ValueError(f"--top-n values must be >= 1, got {list(self.n_values)}")
            if not self.recall_thresholds:
                raise ValueError("--iou-thresholds must list at least one value")
            if any(not 0.0 < t <= 1.0 for t in self.recall_thresholds):
                raise ValueError(
                    f"--iou-thresholds must lie in (0, 1], got {list(self.recall_thresholds)}"
                )
            if self.out_path == "-" and len(self.n_values) > 1:
                raise ValueError(
                    "stdout can hold only one curve; pass a single --top-n value "
                    "or an --out prefix"
                )
        elif self.subcommand == "nms":
            if not self.input_path:
                raise ValueError("an input path is required")
            if not 0.0 <= self.iou_threshold <= 1.0:
                raise ValueError(f"--iou must be in [0, 1], got {self.iou_threshold}")
        elif self.subcommand == "anchors":
            if self.grid_w < 1 or self.grid_h < 1:
                raise ValueError(
                    f"--width and --height must be >= 1, got {self.grid_w}x{self.grid_h}"
                )
            if not self.scales or not self.ratios:
                raise ValueError("--scales and --ratios must be non-empty")
            if any(s <= 0 for s in self.scales) or any(r <= 0 for r in self.ratios):
                raise ValueError("--scales and --ratios must be positive")
            if self.stride <= 0:
                raise ValueError(f"--stride must be positive, got {self.stride}")
        elif self.subcommand == "resize-plan":
            if self.image_w <= 0 or self.image_h <= 0:
                raise ValueError(
                    f"--width and --height must be positive, got {self.image_w}x{self.image_h}"
                )
            if self.mode not in _RESIZE_MODES:
                raise ValueError(f"--mode must be one of {_RESIZE_MODES}, got {self.mode!r}")
        else:
            raise ValueError(f"unknown subcommand {self.subcommand!r}")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_text(path: str, text: str) -> None:
    """Write atomically: stage in a sibling temp file, then rename over."""
    if path == "-":
        sys.stdout.write(text)
        sys.stdout.flush()
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, staged = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(staged, path)
    except BaseException:
        try:
            os.unlink(staged)
        except OSError:
            pass
        raise


def _load_dataset(config: RunConfig) -> EvalDataset:
    annotations = parse_region_list(_read_text(config.gt_path), angle_unit=config.angle_unit)
    detections = parse_region_list(_read_text(config.det_path), angle_unit=config.angle_unit)
    return build_dataset(annotations, detections)


def _cap_detections(ds: EvalDataset, cap: int) -> EvalDataset:
    """Keep each image's ``cap`` best-scored detections (ties by input order)."""
    images = {}
    for image_id, entry in ds.images.items():
        dets = entry.detections
        order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
        kept = tuple(dets[i] for i in sorted(order[:cap]))
        images[image_id] = (kept, entry.ground_truths)
    return EvalDataset.from_images(images)


def _summarize(curve: Curve, query_x: float | None) -> str:
    if query_x is not None:
        y = curve_query(curve, query_x)
        return (
            f"{curve.y_semantics.value}={y:.6g}"
            f" at {curve.x_semantics.value}={query_x:.6g}"
        )
    last = curve.points[-1]
    return (
        f"{curve.y_semantics.value}={last.y:.6g}"
        f" at {curve.x_semantics.value}={last.x:.6g} (score threshold {last.threshold:.6g})"
    )


def cmd_eval(config: RunConfig) -> int:
    ds = _load_dataset(config)
    if config.top_cap is not None:
        ds = _cap_detections(ds, config.top_cap)
    build = _MODE_BUILDERS[config.mode]
    curve = build(
        ds,
        config.matcher,
        iou_threshold=config.iou_threshold,
        polygon_vertices=config.ellipse_n,
    )
    text = write_curve(
        curve, config.out_format, dataset_name=config.dataset_name, matcher=config.matcher
    )
    _write_text(config.out_path, text)
    print(_summarize(curve, config.query_x), file=sys.stderr)
    return 0


def cmd_proposal_recall(config: RunConfig) -> int:
    ds = _load_dataset(config)
    curves = proposal_recall(
        ds,
        config.n_values,
        config.recall_thresholds,
        polygon_vertices=config.ellipse_n,
    )
    for n, curve in zip(config.n_values, curves):
        text = write_curve(
            curve, config.out_format, dataset_name=config.dataset_name, matcher=""
        )
        if config.out_path == "-":
            _write_text("-", text)
        else:
            _write_text(f"{config.out_path}{n}.{config.out_format}", text)
    return 0


def cmd_nms(config: RunConfig) -> int:
    regions = parse_scored_rects(_read_text(config.input_path))
    detections = [Detection(region=r.rect, score=r.score, image_id="") for r in regions]
    kept = nms(detections, config.iou_threshold)
    _write_text(config.out_path, "".join(format_rect(d.region, d.score) + "\n" for d in kept))
    return 0


def cmd_anchors(config: RunConfig) -> int:
    spec = AnchorSpec(scales=config.scales, ratios=config.ratios, stride=config.stride)
    grid = anchor_grid(config.grid_w, config.grid_h, spec)
    _write_text(config.out_path, "".join(format_rect(rect) + "\n" for rect in grid))
    return 0


def cmd_resize_plan(config: RunConfig) -> int:
    plan = resize_scale(config.image_w, config.image_h, config.mode)
    _write_text(
        config.out_path,
        f"scale {plan.scale:.6f}\n"
        f"resized_width {plan.resized_w:.6f}\n"
        f"resized_height {plan.resized_h:.6f}\n",
    )
    return 0


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(token) for token in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(token) for token in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with status 1, not 2."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_io_flags(sub: argparse.ArgumentParser, *, formats: bool) -> None:
    sub.add_argument(
        "--out", dest="out_path", metavar="OUT", help="output path, or - for stdout (default)"
    )
    if formats:
        sub.add_argument(
            "--format", dest="out_format", choices=_FORMATS, help="curve file format"
        )


def _add_dataset_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--gt",
        dest="gt_path",
        metavar="GT",
        required=True,
        help="ground-truth region file, or - for stdin",
    )
    sub.add_argument(
        "--det",
        dest="det_path",
        metavar="DET",
        required=True,
        help="detection region file, or - for stdin",
    )
    sub.add_argument(
        "--angle-unit", choices=_ANGLE_UNITS, help="unit of ellipse angles in the input files"
    )
    sub.add_argument(
        "--ellipse-n", type=int, help="vertex count for polygonal ellipse areas (default 1024)"
    )
    sub.add_argument(
        "--threads",
        type=int,
        help="accepted for compatibility and must be >= 1 (default 1); "
        "work runs on one thread",
    )
    sub.add_argument("--dataset-name", help="dataset label recorded in JSON output")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="facemetrics",
        description="Face-detection evaluation: ROC curves, proposal recall, "
        "NMS, anchor grids, and resize planning.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="subcommand", required=True, metavar="subcommand")

    # Flags left out stay out of the namespace, so RunConfig's defaults apply.
    def add_command(name: str, **kwargs) -> argparse.ArgumentParser:
        return commands.add_parser(name, argument_default=argparse.SUPPRESS, **kwargs)

    sub = add_command("eval", help="match detections to ground truths and write an ROC curve")
    _add_dataset_flags(sub)
    sub.add_argument(
        "--mode",
        choices=_EVAL_MODES,
        help="discrete: matches count 1; continuous: matches contribute their IoU; "
        "normalized: discrete with false positives divided by the image count",
    )
    sub.add_argument("--matcher", choices=MATCHERS, help="assignment strategy")
    sub.add_argument(
        "--iou",
        dest="iou_threshold",
        metavar="IOU",
        type=float,
        help="IoU a match must exceed (default 0.5)",
    )
    sub.add_argument(
        "--top",
        dest="top_cap",
        metavar="TOP",
        type=int,
        help="evaluate only each image's N best-scored detections",
    )
    sub.add_argument(
        "--query-fp",
        dest="query_x",
        metavar="QUERY_FP",
        type=float,
        help="also report the curve's y value at this x (false-positive budget)",
    )
    _add_io_flags(sub, formats=True)
    sub.set_defaults(handler=cmd_eval)

    sub = add_command(
        "proposal-recall",
        help="detection rate of the top-N proposals vs IoU threshold, per N",
    )
    _add_dataset_flags(sub)
    sub.add_argument(
        "--top-n",
        dest="n_values",
        type=_int_list,
        metavar="N[,N...]",
        help="proposal budgets, one output curve each (default 100,300,500,1000)",
    )
    sub.add_argument(
        "--iou-thresholds",
        dest="recall_thresholds",
        type=_float_list,
        metavar="T[,T...]",
        help="IoU thresholds to sweep (default 0.5,0.55,...,0.95)",
    )
    sub.add_argument(
        "--out",
        dest="out_path",
        metavar="OUT",
        help="output path prefix: each curve goes to <prefix><N>.<format>; "
        "- (stdout) is allowed for a single N",
    )
    sub.add_argument(
        "--format", dest="out_format", choices=_FORMATS, help="curve file format"
    )
    sub.set_defaults(handler=cmd_proposal_recall)

    sub = add_command("nms", help="suppress overlapping boxes in a scored-rectangle file")
    sub.add_argument(
        "--in", dest="input_path", help="scored-rectangle file, or - for stdin"
    )
    sub.add_argument(
        "--iou",
        dest="iou_threshold",
        metavar="IOU",
        type=float,
        help="suppress a box overlapping a kept one by more than this (default 0.5)",
    )
    _add_io_flags(sub, formats=False)
    sub.set_defaults(handler=cmd_nms)

    sub = add_command("anchors", help="emit an anchor grid, one box per line")
    sub.add_argument(
        "--scales",
        type=_float_list,
        metavar="S[,S...]",
        help="anchor scales in pixels (default 128,256,512)",
    )
    sub.add_argument(
        "--ratios",
        type=_float_list,
        metavar="R[,R...]",
        help="height/width ratios (default 1,2,0.5)",
    )
    sub.add_argument("--stride", type=float, help="feature-cell size in pixels (default 16)")
    sub.add_argument(
        "--width",
        dest="grid_w",
        metavar="WIDTH",
        type=int,
        required=True,
        help="feature-grid width in cells",
    )
    sub.add_argument(
        "--height",
        dest="grid_h",
        metavar="HEIGHT",
        type=int,
        required=True,
        help="feature-grid height in cells",
    )
    _add_io_flags(sub, formats=False)
    sub.set_defaults(handler=cmd_anchors)

    sub = add_command("resize-plan", help="print the uniform rescale factor for an image size")
    sub.add_argument(
        "--width",
        dest="image_w",
        metavar="WIDTH",
        type=float,
        required=True,
        help="image width in pixels",
    )
    sub.add_argument(
        "--height",
        dest="image_h",
        metavar="HEIGHT",
        type=float,
        required=True,
        help="image height in pixels",
    )
    sub.add_argument(
        "--mode",
        required=True,
        choices=_RESIZE_MODES,
        help="train: longer side to 1024; test: shorter side to 600, longer capped at 1024",
    )
    _add_io_flags(sub, formats=False)
    sub.set_defaults(handler=cmd_resize_plan)

    return parser


def main(argv: list[str] | None = None) -> int:
    flags = vars(build_parser().parse_args(argv))
    handler = flags.pop("handler")
    try:
        return handler(RunConfig(**flags))
    except (ParseError, ValueError, OSError) as exc:
        print(f"facemetrics: error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # noqa: BLE001 - a bug, reported as such
        traceback.print_exc()
        print("facemetrics: internal error (invariant violation)", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
