"""In-memory tracing of facemetrics at its module boundaries.

:func:`install` rebinds the package's public functions, in every
facemetrics module namespace that refers to them, with wrappers that
record spans ``(id, name, start, end, parent)`` and per-thread counts.
Nothing under ``src/`` changes; the wrappers live only in the traced
job's process.  :func:`layer_metrics` turns one job's spans and counts
into the per-layer metrics the benchmark reports.

Spans opened on a worker thread with no open span of their own take the
innermost open span of the main thread as parent: the per-image thread
pool in ``metrics`` runs inside the ROC call that the main thread waits
on.  Very frequent calls (``iou_rect``, ``ellipse_to_polygon``,
``decode``) record counts and summed time only, so tracing them does not
fill memory with spans.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Iterable, NamedTuple

# Per-layer metrics in report order, with units.
LAYER_METRICS = {
    "io.parse_s": "s",
    "io.parse_regions": "count",
    "io.build_dataset_s": "s",
    "io.write_curve_s": "s",
    "geometry.iou_ellipse_rect_s": "s",
    "geometry.iou_ellipse_rect.calls": "count",
    "geometry.ellipse_polygons_per_gt": "ratio",
    "geometry.iou_rect.calls": "count",
    "geometry.nms_s": "s",
    "geometry.nms.boxes_in": "count",
    "geometry.nms.kept_ratio": "ratio",
    "matching.iou_matrix_s": "s",
    "matching.iou_matrix.cells": "count",
    "matching.greedy_assignment_s": "s",
    "matching.greedy_assignment.calls": "count",
    "matching.optimal_assignment_s": "s",
    "matching.optimal_assignment.calls": "count",
    "matching.greedy_by_iou_s": "s",
    "metrics.roc_s": "s",
    "metrics.roc_self_s": "s",
    "metrics.thresholds": "count",
    "metrics.rematch_useful_ratio": "ratio",
    "metrics.proposal_recall_s": "s",
    "anchors.anchor_grid_s": "s",
    "anchors.anchors": "count",
    "anchors.decode_s": "s",
    "anchors.decode.calls": "count",
    "anchors.top_n_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "trace_overhead": "ratio",
}


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int  # 0: no parent


class Tracer:
    """Spans and counts of one process, kept in memory until written out."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.ellipses: set = set()
        self._next_id = itertools.count(1).__next__
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._counters: list[Counter] = []
        self._lock = threading.Lock()
        # Last kept-detection set per image matrix, and the matrix each
        # row list belongs to; both hold references so ids stay unique.
        self._last_kept: dict[int, tuple[object, frozenset]] = {}
        self._row_owner: dict[int, object] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is self._main else []
            self._local.stack = stack
        return stack

    def counts(self) -> Counter:
        """This thread's counter (merged with the others by :meth:`totals`)."""
        counter = getattr(self._local, "counts", None)
        if counter is None:
            counter = Counter()
            self._local.counts = counter
            with self._lock:
                self._counters.append(counter)
        return counter

    def totals(self) -> Counter:
        merged = Counter()
        with self._lock:
            for counter in self._counters:
                merged.update(counter)
        return merged

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            try:
                parent = self._main_stack[-1]
            except IndexError:
                parent = 0
        span_id = self._next_id()
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent))

    def note_kept(self, matrix: object, kept: frozenset) -> None:
        """Count an assignment call as useful when its kept set is new for its image."""
        counter = self.counts()
        counter["assignment.calls"] += 1
        previous = self._last_kept.get(id(matrix))
        if kept and (previous is None or previous[1] != kept):
            counter["assignment.useful"] += 1
        self._last_kept[id(matrix)] = (matrix, kept)


def _spanned(tracer: Tracer, name: str, fn: Callable, observe=None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if observe is not None:
            observe(args, result)
        return result

    return wrapper


def _counted(tracer: Tracer, name: str, fn: Callable, timed: bool = False, observe=None) -> Callable:
    if timed:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            counter = tracer.counts()
            counter[name + "_s"] += time.perf_counter() - start
            counter[name + ".calls"] += 1
            return result
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts()[name + ".calls"] += 1
            if observe is not None:
                observe(args)
            return fn(*args, **kwargs)

    return wrapper


def _wrappers(tracer: Tracer) -> dict[Callable, Callable]:
    from facemetrics import anchors, cli, geometry, io, matching, metrics

    def add(key: str, amount) -> None:
        tracer.counts()[key] += amount

    def observe_parse(args, result):
        add("io.parse_regions", sum(len(entry.regions) for entry in result.entries))

    def observe_matrix(args, result):
        add("matching.iou_matrix.cells", len(result) * (len(result[0]) if result else 0))
        for row in result:
            tracer._row_owner[id(row)] = result

    def observe_greedy(args, result):
        tracer.note_kept(args[0], frozenset(args[1]))

    def observe_optimal(args, result):
        rows = args[0]
        owner = tracer._row_owner.get(id(rows[0])) if rows else None
        tracer.note_kept(owner, frozenset(map(id, rows)))

    def observe_roc(args, result):
        add("metrics.roc.calls", 1)
        add("metrics.thresholds", len(result.points))

    def observe_nms(args, result):
        add("geometry.nms.boxes_in", len(args[0]))
        add("geometry.nms.kept", len(result))

    def observe_grid(args, result):
        add("anchors.anchors", len(result))

    table = [
        (io.parse_region_list, "io.parse", observe_parse),
        (io.build_dataset, "io.build_dataset", None),
        (io.write_curve, "io.write_curve", None),
        (geometry.iou_ellipse_rect, "geometry.iou_ellipse_rect", None),
        (geometry.nms, "geometry.nms", observe_nms),
        (matching.iou_matrix, "matching.iou_matrix", observe_matrix),
        (matching.greedy_assignment, "matching.greedy_assignment", observe_greedy),
        (matching.optimal_assignment, "matching.optimal_assignment", observe_optimal),
        (matching.greedy_assignment_by_iou, "matching.greedy_by_iou", None),
        (metrics.discrete_roc, "metrics.roc", observe_roc),
        (metrics.continuous_roc, "metrics.roc", observe_roc),
        (metrics.normalized_fp_roc, "metrics.roc", observe_roc),
        (metrics.proposal_recall, "metrics.proposal_recall", None),
        (anchors.anchor_grid, "anchors.anchor_grid", observe_grid),
        (anchors.top_n, "anchors.top_n", None),
        (cli.main, "cli.main", None),
    ]
    wrapped = {fn: _spanned(tracer, name, fn, observe) for fn, name, observe in table}
    wrapped[geometry.iou_rect] = _counted(tracer, "geometry.iou_rect", geometry.iou_rect)
    wrapped[geometry.ellipse_to_polygon] = _counted(
        tracer,
        "geometry.ellipse_to_polygon",
        geometry.ellipse_to_polygon,
        observe=lambda args: tracer.ellipses.add(args[0]),
    )
    wrapped[anchors.decode] = _counted(tracer, "anchors.decode", anchors.decode, timed=True)
    return wrapped


def install(tracer: Tracer) -> None:
    """Point every facemetrics reference to a wrapped function at its wrapper.

    Module globals are rebound, and so are values of module-level dicts
    (such as a table of curve builders), since those capture the function
    object at import time.
    """
    import facemetrics
    from facemetrics import anchors, cli, geometry, io, matching, metrics

    wrapped = {id(fn): wrapper for fn, wrapper in _wrappers(tracer).items()}
    for module in (facemetrics, anchors, cli, geometry, io, matching, metrics):
        for name, value in list(vars(module).items()):
            if id(value) in wrapped:
                setattr(module, name, wrapped[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in wrapped:
                        value[key] = wrapped[id(item)]


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Per span id: its duration minus the part of it its direct children cover.

    Children on different threads may overlap each other; the covered
    part is the union of their intervals, clipped to the parent's.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        children[span.parent].append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        run_start = run_end = None
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, span.start), min(end, span.end)
            if end <= start:
                continue
            if run_end is None or start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = start, end
            else:
                run_end = max(run_end, end)
        if run_end is not None:
            covered += run_end - run_start
        result[span.id] = (span.end - span.start) - covered
    return result


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += own[span.id]
    return dict(totals)


def layer_metrics(spans: list[Span], counts: Counter, distinct_ellipses: int) -> dict[str, float]:
    """One traced job's per-layer metrics (all but ``trace_overhead``)."""
    busy: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for span in spans:
        busy[span.name] += span.end - span.start
        calls[span.name] += 1
    own = self_time_by_name(spans)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "io.parse_s": busy["io.parse"],
        "io.parse_regions": counts["io.parse_regions"],
        "io.build_dataset_s": busy["io.build_dataset"],
        "io.write_curve_s": busy["io.write_curve"],
        "geometry.iou_ellipse_rect_s": busy["geometry.iou_ellipse_rect"],
        "geometry.iou_ellipse_rect.calls": calls["geometry.iou_ellipse_rect"],
        "geometry.ellipse_polygons_per_gt": ratio(
            counts["geometry.ellipse_to_polygon.calls"], distinct_ellipses
        ),
        "geometry.iou_rect.calls": counts["geometry.iou_rect.calls"],
        "geometry.nms_s": busy["geometry.nms"],
        "geometry.nms.boxes_in": counts["geometry.nms.boxes_in"],
        "geometry.nms.kept_ratio": ratio(
            counts["geometry.nms.kept"], counts["geometry.nms.boxes_in"]
        ),
        "matching.iou_matrix_s": busy["matching.iou_matrix"],
        "matching.iou_matrix.cells": counts["matching.iou_matrix.cells"],
        "matching.greedy_assignment_s": busy["matching.greedy_assignment"],
        "matching.greedy_assignment.calls": calls["matching.greedy_assignment"],
        "matching.optimal_assignment_s": busy["matching.optimal_assignment"],
        "matching.optimal_assignment.calls": calls["matching.optimal_assignment"],
        "matching.greedy_by_iou_s": busy["matching.greedy_by_iou"],
        "metrics.roc_s": busy["metrics.roc"],
        "metrics.roc_self_s": own.get("metrics.roc", 0.0),
        "metrics.thresholds": ratio(counts["metrics.thresholds"], counts["metrics.roc.calls"]),
        "metrics.rematch_useful_ratio": ratio(
            counts["assignment.useful"], counts["assignment.calls"]
        ),
        "metrics.proposal_recall_s": busy["metrics.proposal_recall"],
        "anchors.anchor_grid_s": busy["anchors.anchor_grid"],
        "anchors.anchors": counts["anchors.anchors"],
        "anchors.decode_s": counts["anchors.decode_s"],
        "anchors.decode.calls": counts["anchors.decode.calls"],
        "anchors.top_n_s": busy["anchors.top_n"],
        "cli.main_s": busy["cli.main"],
        "cli.self_s": own.get("cli.main", 0.0),
    }
