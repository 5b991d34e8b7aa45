"""Per-layer time attribution: where simulated time went, per request kind.

The span trees recorded by :class:`~repro.sim.request.IORequest` already
say *what happened* to each request; the attribution table turns them
into the paper-style question of *where the time went*.  It is the
per-kind sum of the request critical paths (:mod:`repro.obs.critpath`),
whose one boundary sweep puts every instant of every completed request
in exactly one category (``cpu``, ``queue_wait``, ``rotation_seek``,
``transfer``, ``throttle_wait``, ``rpc``, ``other_io``; the category
table and the priority rules are documented there).  The categories of
one request therefore sum to its elapsed time, and still-open spans get
the critical paths' policy: open roots are skipped, open descendants are
clamped to their root's end.

The output — :func:`attribution_table` — is ready for ``BENCH.json`` and
the perf gate's "attribution blowup" check.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.critpath import ATTRIBUTION_CATEGORIES, critical_paths

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.trace import Tracer


def attribution_table(tracer: "Tracer") -> dict[str, dict[str, object]]:
    """Where simulated time went, per request kind.

    Returns ``{kind: {"requests": n, "total": seconds,
    "categories": {category: seconds}}}``, kinds sorted: the critical
    paths' :meth:`~repro.obs.critpath.CritReport.by_kind`.
    """
    return critical_paths(tracer).by_kind()


def render_attribution(table: dict[str, dict[str, object]]) -> str:
    """The attribution table as fixed-width text (one row per kind)."""
    if not table:
        return "(no traced requests)"
    header = (f"{'kind':<12} {'reqs':>6} {'total_ms':>10}  "
              + "  ".join(f"{c:>13}" for c in ATTRIBUTION_CATEGORIES))
    lines = [header, "-" * len(header)]
    for kind, row in table.items():
        total = row["total"]
        cells = []
        for category in ATTRIBUTION_CATEGORIES:
            seconds = row["categories"][category]
            share = (seconds / total * 100.0) if total > 0 else 0.0
            cells.append(f"{seconds * 1e3:8.2f}({share:3.0f}%)")
        lines.append(f"{kind:<12} {row['requests']:>6} {total * 1e3:>10.2f}  "
                     + "  ".join(f"{c:>13}" for c in cells))
    return "\n".join(lines)


__all__ = ["ATTRIBUTION_CATEGORIES", "attribution_table",
           "render_attribution"]
