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

Each flag sets the :class:`RunConfig` field named after it (``--in``,
a keyword, sets ``input_path``), and a flag left out keeps that field's
default, so every default is stated once; the ``(default ...)`` notes in
``--help`` are rendered from those fields too.  A range rule that a
library function owns (the IoU threshold, the matcher, the ``--top``
cap, the ``--query-fp`` value, the proposal budgets and IoU grid, the
anchor grid, the resize size and mode) is checked by calling that owner
before any work, so its error names the library parameter.
``--threads`` is accepted for compatibility and must be at least 1;
every subcommand runs on one thread and the value changes nothing.
Ellipse areas use the IoU layer's fixed 1024-vertex polygon, which no
flag or parameter changes.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import stat
import sys
from dataclasses import dataclass
from typing import Iterator, NoReturn

from ._version import __version__
from .anchors import _LONG_SIDE, _RESIZE_MODES, _SHORT_SIDE, DEFAULT_ANCHOR_SPEC, AnchorSpec
from .anchors import _check_grid, anchor_grid, resize_scale
from .geometry import _check_iou_threshold, nms
from .io import (
    _ANGLE_UNITS,
    _FORMATS,
    _check_top,
    AnnotationFile,
    ParseError,
    build_dataset,
    format_rect,
    parse_region_list,
    parse_scored_rects,
    read_detections,
    write_curve,
)
from .matching import Detection
from .metrics import (
    _MATCH_IOU,
    _check_matcher,
    _check_query_x,
    _check_recall_grid,
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

_MODE_BUILDERS = {
    "discrete": discrete_roc,
    "continuous": continuous_roc,
    "normalized": normalized_fp_roc,
}
_EVAL_MODES = tuple(_MODE_BUILDERS)


@dataclass(frozen=True, slots=True)
class RunConfig:
    """Validated flag set for one invocation, one field per flag (see the module docstring).

    One type covers every subcommand; fields a subcommand does not use
    keep their defaults.  ``width`` and ``height`` are grid cells for
    ``anchors`` and pixels for ``resize-plan``.  Construction performs all
    validation, so nothing is read, computed or written before the whole
    configuration has been checked.
    """

    subcommand: str
    gt: str | None = None
    det: str | None = None
    input_path: str = "-"
    mode: str = "discrete"
    matcher: str = "greedy"
    iou: float = _MATCH_IOU
    top_n: tuple[int, ...] = (100, 300, 500, 1000)
    iou_thresholds: tuple[float, ...] = tuple(i / 100 for i in range(50, 100, 5))
    top: int | None = None
    query_fp: float | None = None
    out: str = "-"
    format: str = "csv"
    angle_unit: str = "radians"
    threads: int = 1
    dataset_name: str = ""
    scales: tuple[float, ...] = DEFAULT_ANCHOR_SPEC.scales
    ratios: tuple[float, ...] = DEFAULT_ANCHOR_SPEC.ratios
    stride: float = DEFAULT_ANCHOR_SPEC.stride
    width: float = 0
    height: float = 0

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ValueError(f"--threads must be >= 1, got {self.threads}")
        if self.format not in _FORMATS:
            raise ValueError(f"--format must be one of {_FORMATS}, got {self.format!r}")
        if self.angle_unit not in _ANGLE_UNITS:
            raise ValueError(
                f"--angle-unit must be one of {_ANGLE_UNITS}, got {self.angle_unit!r}"
            )
        if self.subcommand in ("eval", "proposal-recall"):
            if not self.gt or not self.det:
                raise ValueError("--gt and --det are required")
        _check_iou_threshold(self.iou)
        if self.subcommand == "eval":
            if self.mode not in _EVAL_MODES:
                raise ValueError(f"--mode must be one of {_EVAL_MODES}, got {self.mode!r}")
            _check_matcher(self.matcher)
            _check_top(self.top)
            if self.query_fp is not None:
                _check_query_x(self.query_fp)
        elif self.subcommand == "proposal-recall":
            _check_recall_grid(self.top_n, self.iou_thresholds)
            if self.out == "-" and len(self.top_n) > 1:
                raise ValueError(
                    "stdout can hold only one curve; pass a single --top-n value "
                    "or an --out prefix"
                )
        elif self.subcommand == "nms":
            if not self.input_path:
                raise ValueError("an input path is required")
        elif self.subcommand == "anchors":
            spec = AnchorSpec(scales=self.scales, ratios=self.ratios, stride=self.stride)
            _check_grid(self.width, self.height, spec)
        elif self.subcommand == "resize-plan":
            resize_scale(self.width, self.height, self.mode)
        else:
            raise ValueError(f"unknown subcommand {self.subcommand!r}")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _create_staged(path: str) -> tuple[int, str]:
    """Create a new, randomly named sibling of ``path``; return its fd and name.

    It is created with mode 0o666, which the kernel masks with the umask,
    as ``open(path, "w")`` would for a new file.  The umask itself is never
    set: that would change the mode of files other threads create meanwhile.
    """
    prefix = os.path.join(os.path.dirname(os.path.abspath(path)), os.path.basename(path) + ".")
    while True:
        staged = prefix + os.urandom(6).hex()
        with contextlib.suppress(FileExistsError):
            return os.open(staged, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), staged


def _write_text(path: str, text: str) -> None:
    """Write atomically: stage in a sibling file, then rename over.

    The renamed file has the mode a plain write would leave: the target's
    own if it exists, else 0o666 less the umask.
    """
    if path == "-":
        sys.stdout.write(text)
        sys.stdout.flush()
        return
    staged = None
    try:
        fd, staged = _create_staged(path)
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        try:
            mode = stat.S_IMODE(os.stat(path).st_mode)
        except FileNotFoundError:
            pass
        else:
            os.chmod(staged, mode)
        os.replace(staged, path)
    except BaseException as exc:
        if staged is not None:
            with contextlib.suppress(OSError):
                os.unlink(staged)
        if isinstance(exc, OSError):
            # Name the path asked for, not the randomly named staging file.
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _read_inputs(config: RunConfig) -> tuple[EvalDataset, Iterator[tuple[Detection, ...]]]:
    """The ground truths, read whole, and the detection file's image blocks, read as swept."""
    annotations = parse_region_list(_read_text(config.gt), angle_unit=config.angle_unit)
    ds = build_dataset(annotations, AnnotationFile(()))
    detections = read_detections(
        _read_text(config.det), ds.images, angle_unit=config.angle_unit, top=config.top
    )
    return ds, detections


def _summarize(curve: Curve, query_x: float | None) -> str:
    x_name, y_name = curve.x_semantics.value, curve.y_semantics.value
    if query_x is not None:
        return f"{y_name}={curve_query(curve, query_x):.6g} at {x_name}={query_x:.6g}"
    last = curve.points[-1]
    return f"{y_name}={last.y:.6g} at {x_name}={last.x:.6g} (score threshold {last.threshold:.6g})"


def cmd_eval(config: RunConfig) -> int:
    """Write the curve of ``config.mode`` and print its summary line to stderr.

    Each detection block is swept as it is read, then dropped, so memory
    grows with the largest image and the distinct scores.
    """
    ds, detections = _read_inputs(config)
    build = _MODE_BUILDERS[config.mode]
    curve = build(ds, config.matcher, iou_threshold=config.iou, detections=detections)
    text = write_curve(
        curve, config.format, dataset_name=config.dataset_name, matcher=config.matcher
    )
    _write_text(config.out, text)
    print(_summarize(curve, config.query_fp), file=sys.stderr)
    return 0


def cmd_proposal_recall(config: RunConfig) -> int:
    """Write one recall curve per ``config.top_n`` budget, reading detections as ``eval`` does."""
    ds, detections = _read_inputs(config)
    curves = proposal_recall(ds, config.top_n, config.iou_thresholds, detections=detections)
    for n, curve in zip(config.top_n, curves):
        text = write_curve(curve, config.format, dataset_name=config.dataset_name)
        path = "-" if config.out == "-" else f"{config.out}{n}.{config.format}"
        _write_text(path, text)
    return 0


def cmd_nms(config: RunConfig) -> int:
    kept = nms(parse_scored_rects(_read_text(config.input_path)), config.iou)
    _write_text(config.out, "".join(format_rect(d.region, d.score) + "\n" for d in kept))
    return 0


def cmd_anchors(config: RunConfig) -> int:
    spec = AnchorSpec(scales=config.scales, ratios=config.ratios, stride=config.stride)
    grid = anchor_grid(config.width, config.height, spec)
    _write_text(config.out, "".join(format_rect(rect) + "\n" for rect in grid))
    return 0


def cmd_resize_plan(config: RunConfig) -> int:
    plan = resize_scale(config.width, config.height, config.mode)
    _write_text(
        config.out,
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


def _default(dest: str) -> str:
    """A flag's ``(default ...)`` note: its ``RunConfig`` field's default, as flag text."""
    value = next(f.default for f in dataclasses.fields(RunConfig) if f.name == dest)
    values = value if isinstance(value, tuple) else (value,)
    text = ",".join(f"{v:g}" if isinstance(v, float) else str(v) for v in values)
    return f"(default {text})"


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with status 1, not 2.

    Each parser rejects the arguments it does not recognize itself, so a
    stray flag after a subcommand is reported with that subcommand's usage.
    """

    def parse_known_args(
        self, args: list[str] | None = None, namespace: argparse.Namespace | None = None
    ) -> tuple[argparse.Namespace, list[str]]:
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_io_flags(
    sub: argparse.ArgumentParser,
    *,
    formats: bool,
    out_help: str = "output path, or - for stdout (default)",
) -> None:
    sub.add_argument("--out", help=out_help)
    if formats:
        sub.add_argument("--format", choices=_FORMATS, help="curve file format")


def _add_dataset_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--gt", required=True, help="ground-truth region file, or - for stdin")
    sub.add_argument("--det", required=True, help="detection region file, or - for stdin")
    sub.add_argument(
        "--angle-unit", choices=_ANGLE_UNITS, help="unit of ellipse angles in the input files"
    )
    sub.add_argument(
        "--threads",
        type=int,
        help=f"accepted for compatibility and must be >= 1 {_default('threads')}; "
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
    sub.add_argument("--iou", type=float, help=f"IoU a match must exceed {_default('iou')}")
    sub.add_argument(
        "--top", type=int, help="evaluate only each image's N best-scored detections"
    )
    sub.add_argument(
        "--query-fp",
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
        type=_int_list,
        metavar="N[,N...]",
        help=f"proposal budgets, one output curve each {_default('top_n')}",
    )
    sub.add_argument(
        "--iou-thresholds",
        type=_float_list,
        metavar="T[,T...]",
        help=f"IoU thresholds to sweep {_default('iou_thresholds')}",
    )
    _add_io_flags(
        sub,
        formats=True,
        out_help="output path prefix: each curve goes to <prefix><N>.<format>; "
        "- (stdout) is allowed for a single N",
    )
    sub.set_defaults(handler=cmd_proposal_recall)

    sub = add_command("nms", help="suppress overlapping boxes in a scored-rectangle file")
    sub.add_argument(
        "--in", dest="input_path", help="scored-rectangle file, or - for stdin"
    )
    sub.add_argument(
        "--iou",
        type=float,
        help=f"suppress a box overlapping a kept one by more than this {_default('iou')}",
    )
    _add_io_flags(sub, formats=False)
    sub.set_defaults(handler=cmd_nms)

    sub = add_command("anchors", help="emit an anchor grid, one box per line")
    sub.add_argument(
        "--scales",
        type=_float_list,
        metavar="S[,S...]",
        help=f"anchor scales in pixels {_default('scales')}",
    )
    sub.add_argument(
        "--ratios",
        type=_float_list,
        metavar="R[,R...]",
        help=f"height/width ratios {_default('ratios')}",
    )
    sub.add_argument(
        "--stride", type=float, help=f"feature-cell size in pixels {_default('stride')}"
    )
    sub.add_argument("--width", type=int, required=True, help="feature-grid width in cells")
    sub.add_argument("--height", type=int, required=True, help="feature-grid height in cells")
    _add_io_flags(sub, formats=False)
    sub.set_defaults(handler=cmd_anchors)

    sub = add_command("resize-plan", help="print the uniform rescale factor for an image size")
    sub.add_argument("--width", type=float, required=True, help="image width in pixels")
    sub.add_argument("--height", type=float, required=True, help="image height in pixels")
    sub.add_argument(
        "--mode",
        required=True,
        choices=_RESIZE_MODES,
        help=f"train: longer side to {_LONG_SIDE:g}; test: shorter side to {_SHORT_SIDE:g}, "
        f"longer capped at {_LONG_SIDE:g}",
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
        import traceback  # only this branch needs it; kept off the start-up path

        traceback.print_exc()
        print("facemetrics: internal error (invariant violation)", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
