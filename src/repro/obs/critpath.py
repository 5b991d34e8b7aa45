"""Critical paths: the one classifier of simulated request time.

For **one** request this module answers the question the paper's traces
are really about: which chain of child spans determined its latency?  An
8 KB read that took 40 ms spent that time *somewhere* — in the driver
queue behind the writer, on the arm, in the throttle — and the critical
path names the culprit interval by interval.  Summed per request kind,
the same paths are the layer time attribution table
(:func:`repro.obs.attrib.attribution_table` is :meth:`CritReport.by_kind`).

Every instant is blamed on exactly one category:

==============  ======================================================
category        meaning
==============  ======================================================
cpu             no wait span active — the request was computing
                (syscall path, page copies, checksum work)
queue_wait      buf sat in the driver queue behind other I/O
rotation_seek   disk arm seeking / head switching / rotational latency
transfer        bytes moving over the media or the bus
throttle_wait   blocked on the write throttle or waiting for memory
rpc             network round-trip (NFS client waiting on the wire)
other_io        inside disk service but not attributable to seek or
                transfer (controller overhead, track-buffer housekeeping)
==============  ======================================================

Algorithm
---------
For each closed root span the request's lifetime ``[begin, end]`` is
swept over the boundary points of its descendant spans.  Over each
elementary segment between two points the active span with the largest
key wins.  *Wait* spans (``queue_wait``, ``rotation_seek``,
``transfer``, ``throttle_wait``, ``mem_wait``, ``rpc``; then the
priority-0 ``service``) beat every structural span; among them priority
wins, then category order, then depth, begin time and span id, so the
sweep is deterministic.  When no wait span is active the **deepest**
structural span wins — the request on the CPU inside
``read``/``getpage``/``cluster_read``, which gives flamegraph stacks
their shape — and its time is ``cpu``.  Instants no descendant covers
belong to the root itself (``cpu``).  Nested or overlapping waits never
double-count: concurrent sibling I/Os (clustered readahead) still put
each instant in exactly one bucket.

Each segment's length is added to its winner's category as the sweep
goes, in ascending point order; the winning intervals, merged, are the
critical path: a sequence of :class:`Segment` objects whose durations
sum to the request's latency (the conservation invariant,
:func:`verify_conservation`).

Open spans
----------
A span with no end would silently contribute zero duration
(:attr:`Span.duration`) and corrupt the math.  Analyzers here never let
that happen quietly: still-open *roots* are excluded and counted
(``open_roots``), still-open *descendants* of a closed root are clamped
to the root's end and counted (``open_spans``) — both counts surface in
reports so a leaked span is a visible data-quality warning, not a
misattribution.  The attribution table follows the same policy, since it
is these paths summed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.trace import Span, Tracer

#: Category order — also the deterministic tiebreak when two spans of the
#: same priority overlap (earlier wins).
ATTRIBUTION_CATEGORIES = (
    "cpu",
    "queue_wait",
    "rotation_seek",
    "transfer",
    "throttle_wait",
    "rpc",
    "other_io",
)

#: span name -> (category, priority).  Higher priority wins the sweep;
#: ``service`` is the priority-0 fallback that catches disk time not
#: explained by the synthesized rotation_seek/transfer children.
_SPAN_CATEGORY: dict[str, tuple[str, int]] = {
    "queue_wait": ("queue_wait", 1),
    "rotation_seek": ("rotation_seek", 1),
    "transfer": ("transfer", 1),
    "throttle_wait": ("throttle_wait", 1),
    "mem_wait": ("throttle_wait", 1),
    "rpc": ("rpc", 1),
    "service": ("other_io", 0),
}

_CATEGORY_ORDER = {name: i for i, name in enumerate(ATTRIBUTION_CATEGORIES)}

#: span name -> (sweep rank, category) for wait spans: priority first,
#: then the earlier category.  Every structural span ranks 0, below them.
_SWEEP_RANK = {
    name: (1 + (priority + 1) * len(ATTRIBUTION_CATEGORIES)
           - _CATEGORY_ORDER[category], category)
    for name, (category, priority) in _SPAN_CATEGORY.items()
}
_STRUCTURAL = (0, "cpu")


def span_category(name: str) -> str:
    """The attribution category a span name belongs to.

    Structural spans (``read``, ``getpage``, ``disk_io``,
    ``disk_io[mN]`` …) default to ``cpu``: their *own* uncovered time is
    the request computing, not a wait.
    """
    return _SWEEP_RANK.get(name, _STRUCTURAL)[1]


class Segment(NamedTuple):
    """One interval of a request's critical path.

    ``span`` is the deepest span active over ``[begin, end)`` — the root
    itself for pure-CPU stretches.
    """

    span: "Span"
    begin: float
    end: float
    depth: int

    @property
    def duration(self) -> float:
        return self.end - self.begin

    @property
    def category(self) -> str:
        """The sweep's category: the root's own time (depth 0) is cpu."""
        return span_category(self.span.name) if self.depth else "cpu"

    def describe(self) -> str:
        return (f"{self.span.name:<16} [{self.begin * 1e3:10.3f}ms "
                f"+{self.duration * 1e3:8.3f}ms] depth={self.depth}")


class CriticalPath:
    """The critical path of one completed request root."""

    __slots__ = ("root", "segments", "open_spans", "_categories")

    def __init__(self, root: "Span", segments: "list[Segment]",
                 open_spans: int, categories: "dict[str, float]"):
        self.root = root
        self.segments = segments
        #: Descendant spans that were still open and had to be clamped.
        self.open_spans = open_spans
        self._categories = categories

    @property
    def latency(self) -> float:
        assert self.root.end is not None
        return self.root.end - self.root.begin

    @property
    def path_time(self) -> float:
        """Sum of segment durations; equals :attr:`latency` to float
        tolerance (the conservation invariant)."""
        return sum(seg.duration for seg in self.segments)

    def blame(self) -> dict[str, float]:
        """Seconds on the path per span *name* (self time under the root's
        own name), largest first; deterministic tie order by name."""
        totals: dict[str, float] = {}
        for seg in self.segments:
            totals[seg.span.name] = totals.get(seg.span.name, 0.0) + seg.duration
        return dict(sorted(totals.items(), key=lambda kv: (-kv[1], kv[0])))

    def categories(self) -> dict[str, float]:
        """Seconds per attribution category (all categories present, zeros
        included), as the sweep accumulated them segment by segment."""
        return dict(self._categories)

    def dominant(self) -> str:
        """The category that got the most of this request's time."""
        totals = self._categories
        return max(ATTRIBUTION_CATEGORIES,
                   key=lambda c: (totals[c], -_CATEGORY_ORDER[c]))

    def describe(self) -> str:
        top = self.dominant()
        share = (self._categories[top] / self.latency * 100.0
                 if self.latency > 0 else 0.0)
        warn = f" open_spans={self.open_spans}" if self.open_spans else ""
        return (f"{self.root.name:<10} #{self.root.fields.get('request', self.root.id):<5} "
                f"{self.latency * 1e3:9.3f}ms dominated by {top} "
                f"({share:.0f}%){warn}")

    def render(self) -> str:
        """The whole chain, one line per merged interval."""
        lines = [self.describe()]
        lines.extend("  " + seg.describe() for seg in self.segments)
        return "\n".join(lines)


def critical_path(tracer: "Tracer", root: "Span",
                  children: "dict[int, list[Span]] | None" = None
                  ) -> CriticalPath:
    """Extract the critical path of one *closed* root span.

    Open descendants are clamped to the root's end and counted on the
    returned path's ``open_spans``; passing an open root is a ValueError
    (exclude and count those at the report level).
    """
    if root.end is None:
        raise ValueError(f"root span {root.id} ({root.name}) is still open")
    if children is None:
        children = tracer.children_index()
    lo, hi = root.begin, root.end
    open_spans = 0
    categories = dict.fromkeys(ATTRIBUTION_CATEGORIES, 0.0)
    segments: list[Segment] = []
    # (rank, depth, begin, span id, end, span, category), clamped into the
    # root's lifetime.  The first four fields are the sweep key, unique
    # because of the id; the root, always active, ranks below every span.
    intervals: list[tuple] = [(-1, 0, lo, root.id, hi, root, "cpu")]
    points = {lo, hi}
    stack: list[tuple["Span", int]] = [(root, 1)]
    while stack:
        span, depth = stack.pop()
        for kid in children.get(span.id, ()):
            if kid.id in children:
                stack.append((kid, depth + 1))
            end = kid.end
            if end is None:
                open_spans += 1
                end = hi
            elif end > hi:
                end = hi
            begin = kid.begin
            if begin < lo:
                begin = lo
            if end > begin:
                points.add(begin)
                points.add(end)
                rank, category = _SWEEP_RANK.get(kid.name, _STRUCTURAL)
                intervals.append((rank, depth, begin, kid.id, end, kid,
                                  category))

    if hi > lo:
        # Best key first: a segment's winner is the first active interval.
        intervals.sort(reverse=True)
        ordered = sorted(points)
        run_span, run_begin, run_depth = None, lo, 0
        for seg_lo, seg_hi in zip(ordered, ordered[1:]):
            for iv in intervals:
                if iv[2] <= seg_lo and iv[4] >= seg_hi:
                    break
            categories[iv[6]] += seg_hi - seg_lo
            if iv[5] is not run_span:
                if run_span is not None:
                    segments.append(Segment(run_span, run_begin, seg_lo,
                                            run_depth))
                run_span, run_begin, run_depth = iv[5], seg_lo, iv[1]
        segments.append(Segment(run_span, run_begin, hi, run_depth))
    return CriticalPath(root, segments, open_spans, categories)


class CritReport:
    """Critical paths of every completed request in a trace."""

    def __init__(self, paths: "list[CriticalPath]", open_roots: int):
        self.paths = paths
        #: Requests still in flight when the trace was snapshotted —
        #: excluded from every total below, never silently zeroed.
        self.open_roots = open_roots

    @property
    def open_spans(self) -> int:
        """Clamped still-open descendant spans across all paths."""
        return sum(p.open_spans for p in self.paths)

    def by_kind(self) -> dict[str, dict[str, object]]:
        """Per-request-kind blame totals — the attribution table:
        ``{kind: {"requests", "total", "categories"}}``, kinds sorted."""
        table: dict[str, dict[str, object]] = {}
        for path in self.paths:
            row = table.get(path.root.name)
            if row is None:
                row = table[path.root.name] = {
                    "requests": 0,
                    "total": 0.0,
                    "categories": dict.fromkeys(ATTRIBUTION_CATEGORIES, 0.0),
                }
            row["requests"] += 1
            row["total"] += path.latency
            cats = row["categories"]
            for category, seconds in path._categories.items():
                cats[category] += seconds
        return {kind: table[kind] for kind in sorted(table)}

    def top(self, n: int = 10) -> "list[CriticalPath]":
        """The ``n`` slowest requests, slowest first (id breaks ties)."""
        return sorted(self.paths,
                      key=lambda p: (-p.latency, p.root.id))[:n]

    def render(self, top_n: int = 5) -> str:
        """Blame table plus the top-N slowest requests with their paths."""
        lines = [f"critical paths: {len(self.paths)} requests"]
        if self.open_roots:
            lines.append(f"WARNING: {self.open_roots} request(s) still "
                         "open — excluded from every total")
        if self.open_spans:
            lines.append(f"WARNING: {self.open_spans} open child span(s) "
                         "clamped to their request's end")
        for kind, row in self.by_kind().items():
            cats = row["categories"]
            total = row["total"]
            parts = "  ".join(
                f"{c}={cats[c] * 1e3:.2f}ms"
                for c in ATTRIBUTION_CATEGORIES if cats[c] > 0.0)
            lines.append(f"  {kind:<10} n={row['requests']:<5} "
                         f"total={total * 1e3:10.2f}ms  {parts}")
        slow = self.top(top_n)
        if slow:
            lines.append(f"slowest {len(slow)} requests:")
            for path in slow:
                lines.extend("  " + line for line in
                             path.render().splitlines())
        return "\n".join(lines)

    def to_json(self) -> dict:
        """A JSON-ready summary (per-kind blame + top-10 one-liners)."""
        return {
            "requests": len(self.paths),
            "open_roots": self.open_roots,
            "open_spans": self.open_spans,
            "by_kind": self.by_kind(),
            "slowest": [
                {
                    "kind": p.root.name,
                    "request": p.root.fields.get("request", p.root.id),
                    "latency": p.latency,
                    "dominant": p.dominant(),
                    "categories": p.categories(),
                    "open_spans": p.open_spans,
                }
                for p in self.top(10)
            ],
        }


def critical_paths(tracer: "Tracer") -> CritReport:
    """Extract every completed request's critical path from a trace.

    Open roots are excluded and counted on the report.
    """
    children = tracer.children_index()
    paths: list[CriticalPath] = []
    open_roots = 0
    for root in tracer.span_roots():
        if root.end is None:
            open_roots += 1
            continue
        paths.append(critical_path(tracer, root, children))
    return CritReport(paths, open_roots)


def verify_conservation(report: CritReport, tol: float = 1e-9
                        ) -> "list[str]":
    """Check every path's segments sum to its latency (within ``tol``
    relative to the latency).  Returns human-readable violations."""
    problems = []
    for path in report.paths:
        bound = max(tol, abs(path.latency) * tol)
        if abs(path.path_time - path.latency) > bound:
            problems.append(
                f"{path.root.name} span {path.root.id}: path time "
                f"{path.path_time!r} != latency {path.latency!r}")
    return problems


def verify_against_attribution(tracer: "Tracer", report: CritReport,
                               tol: float = 1e-6) -> "list[str]":
    """Always ``[]``: kept only so existing importers keep working.

    The attribution table *is* ``report.by_kind()``, so there is no
    second sweep to disagree with.  Due for deletion with the next
    change to the host-time benchmark (``perfbench/``), its last caller.
    """
    return []


__all__ = ["ATTRIBUTION_CATEGORIES", "CritReport", "CriticalPath", "Segment",
           "critical_path", "critical_paths", "span_category",
           "verify_conservation"]
