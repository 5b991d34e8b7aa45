"""Layer time attribution: the sweep, its invariant, and the real stack.

The load-bearing property is *conservation*: for every traced request,
the per-category times sum exactly to the request's elapsed time — no
instant double-counted, none dropped.
"""

import pytest

from repro.bench.iobench import IObench
from repro.kernel import SystemConfig
from repro.obs.attrib import (
    ATTRIBUTION_CATEGORIES, attribution_table, render_attribution,
)
from repro.sim import Engine, Tracer
from repro.units import MB


def _tracer():
    return Tracer(Engine(), enabled=True)


def test_empty_tracer_gives_empty_table():
    table = attribution_table(_tracer())
    assert table == {}
    assert render_attribution(table) == "(no traced requests)"


def test_single_request_splits_and_conserves():
    tr = _tracer()
    root = tr.record_span("read", 0.0, 10.0)
    io = tr.record_span("disk_io", 1.0, 9.0, parent=root)
    tr.record_span("queue_wait", 1.0, 3.0, parent=io)
    service = tr.record_span("service", 3.0, 9.0, parent=io)
    tr.record_span("rotation_seek", 3.0, 5.0, parent=service)
    tr.record_span("transfer", 5.0, 7.0, parent=service)

    table = attribution_table(tr)
    row = table["read"]
    cats = row["categories"]
    assert row["requests"] == 1
    assert row["total"] == 10.0
    assert cats["queue_wait"] == 2.0
    assert cats["rotation_seek"] == 2.0
    assert cats["transfer"] == 2.0
    # service minus its explained children -> other_io; uncovered -> cpu.
    assert cats["other_io"] == 2.0
    assert cats["cpu"] == 2.0
    assert sum(cats.values()) == pytest.approx(row["total"])


def test_overlapping_waits_never_double_count():
    tr = _tracer()
    root = tr.record_span("write", 0.0, 4.0)
    # Two overlapping throttle waits plus a queue wait on top.
    tr.record_span("throttle_wait", 0.0, 2.0, parent=root)
    tr.record_span("throttle_wait", 1.0, 3.0, parent=root)
    tr.record_span("queue_wait", 1.5, 2.5, parent=root)

    cats = attribution_table(tr)["write"]["categories"]
    assert sum(cats.values()) == pytest.approx(4.0)
    # queue_wait wins its overlap (earlier category rank breaks the tie).
    assert cats["queue_wait"] == pytest.approx(1.0)
    assert cats["throttle_wait"] == pytest.approx(2.0)
    assert cats["cpu"] == pytest.approx(1.0)


def test_child_spans_clamped_to_root_lifetime():
    tr = _tracer()
    root = tr.record_span("fsync", 2.0, 6.0)
    # A child recorded wider than its root (interrupt-side completion
    # after the syscall returned) must not inflate the attribution.
    tr.record_span("queue_wait", 0.0, 10.0, parent=root)
    cats = attribution_table(tr)["fsync"]["categories"]
    assert cats["queue_wait"] == pytest.approx(4.0)
    assert sum(cats.values()) == pytest.approx(4.0)


def test_open_roots_are_skipped():
    tr = _tracer()
    open_root = tr.span_begin("read")
    assert open_root is not None and open_root.end is None
    tr.record_span("write", 0.0, 1.0)
    table = attribution_table(tr)
    assert list(table) == ["write"]


def test_open_child_span_is_clamped_and_counted():
    # A wait still open when the trace was taken runs to its root's end,
    # the same policy as the critical paths (the table is their sum).
    tr = _tracer()
    root = tr.record_span("read", 0.0, 10e-3)
    leaked = tr.record_span("queue_wait", 2e-3, 3e-3, parent=root)
    leaked.end = None
    cats = attribution_table(tr)["read"]["categories"]
    assert cats["cpu"] == pytest.approx(2e-3)
    assert cats["queue_wait"] == pytest.approx(8e-3)
    assert sum(cats.values()) == pytest.approx(10e-3)


def test_mem_wait_maps_to_throttle_wait():
    tr = _tracer()
    root = tr.record_span("pageout", 0.0, 2.0)
    tr.record_span("mem_wait", 0.0, 1.0, parent=root)
    cats = attribution_table(tr)["pageout"]["categories"]
    assert cats["throttle_wait"] == pytest.approx(1.0)


def test_render_has_every_category_column():
    tr = _tracer()
    tr.record_span("read", 0.0, 1.0)
    text = render_attribution(attribution_table(tr))
    for category in ATTRIBUTION_CATEGORIES:
        assert category in text


def test_real_benchmark_attribution_conserves_time():
    """End to end: trace every IObench phase on the real stack and demand
    the invariant holds for every request kind."""
    bench = IObench(SystemConfig.by_name("A"), file_size=1 * MB,
                    random_ops=32, trace_phase="*")
    bench.run()
    system = bench.system
    table = attribution_table(system.tracer)
    assert {"read", "write", "fsync"} <= set(table)
    for kind, row in table.items():
        assert row["requests"] > 0, kind
        assert sum(row["categories"].values()) == pytest.approx(
            row["total"]), kind
    # Sequential reads on config A actually touch the disk: mechanical
    # time must show up, or the disk accounting came unwired.
    read_cats = table["read"]["categories"]
    assert read_cats["rotation_seek"] > 0
    assert read_cats["transfer"] > 0
