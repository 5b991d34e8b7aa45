"""The benchmark's own tests: ``python -m pytest perfbench`` from the root.

Workloads are shrunk here so the suite stays short; the benchmark itself
always runs them at full size.
"""

from __future__ import annotations

import json
import re
import time

import pytest

from perfbench import hostclock, run
from perfbench.profiling import folded_lines, group_profile, layer_of
from perfbench.workloads import (
    WORKLOADS, IObenchD, Iteration, SmallfileSan, TraceA,
)
from repro.sim.invariants import Sanitizer

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class TinyIObenchD(IObenchD):
    file_mb = 1
    random_ops = 16


class TinyTraceA(TraceA):
    file_mb = 1
    random_ops = 16


class TinySmallfileSan(SmallfileSan):
    users = 2
    rounds = 1


TINY = [TinyIObenchD, TinyTraceA, TinySmallfileSan]


@pytest.fixture
def spec():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.fixture(autouse=True)
def scratch_out(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_metric_names_units_and_directions_are_valid(spec):
    names = [m["name"] for section in ("end_to_end", "per_layer")
             for m in spec[section]]
    assert len(names) == len(set(names))
    for section in ("end_to_end", "per_layer"):
        for metric in spec[section]:
            assert NAME.fullmatch(metric["name"]), metric
            assert UNIT.fullmatch(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher"), metric
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_workloads_are_the_declared_ones(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in spec["workloads"]:
        assert NAME.fullmatch(workload["name"])
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_end_to_end_run_reports_every_metric_and_passes(workload, spec,
                                                        capsys):
    assert run.run_e2e(workload(), seed=3, seconds=0) == 0
    result = last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_traced_run_reports_every_layer_and_profile_overhead(workload, spec,
                                                             capsys):
    assert run.run_traced(workload(), seed=3) == 0
    result = last_json(capsys)
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["host.profile_overhead"] > 1.0
    assert metrics["host.calls"] > 0 and metrics["sim.engine.steps"] > 0
    shares = [v for k, v in metrics.items() if k.endswith(".host_share")]
    assert 0.0 < sum(shares) <= 1.0 + 1e-9
    assert (run.OUT_DIR / f"{workload.name}-seed3.host.folded").stat().st_size


def test_same_seed_gives_same_digest_and_seed_changes_it():
    workload = TinyIObenchD()
    first, again, other = (workload.iterate(seed) for seed in (5, 5, 6))
    assert first.ok and again.ok and other.ok
    assert first.digest == again.digest != other.digest


def test_digest_mismatch_counts_as_a_failed_operation():
    iterations = [Iteration(digest="a" * 64, attempted=10) for _ in range(3)]
    iterations[1].digest = "b" * 64
    run.check_digests(iterations)
    attempted, failed = run.tally(iterations)
    assert (attempted, failed) == (33, 1)
    assert "differs" in iterations[1].problems[0]


def test_sanitizer_failure_raises_error_rate(monkeypatch, capsys):
    def forced(sanitizer, point, idle, deep):
        if point == "fsync":  # after set-up, inside the workload
            sanitizer.fail("forced", "deliberate failure")

    monkeypatch.setattr(Sanitizer, "CHECKS",
                        Sanitizer.CHECKS + [("forced", False, forced)])
    assert run.run_e2e(TinySmallfileSan(), seed=3, seconds=0) == 0
    result = last_json(capsys)
    assert not result["correct"]
    assert result["failed"] >= 1 and result["attempted"] >= result["failed"]


def test_host_clock_charges_program_time_at_the_quiet_speed(monkeypatch):
    # A host that turns twice as slow halfway: the program's spin and the
    # reference both take twice as long, and the clock must not notice.
    slowdown = [1.0]

    def spin(seconds):
        end = time.perf_counter() + seconds * slowdown[0]
        while time.perf_counter() < end:
            pass

    monkeypatch.setattr(hostclock, "reference", lambda: spin(0.0002))
    clock = hostclock.HostClock()
    with clock.calibrated(period=0.005):
        t0 = clock.now()
        spin(0.1)
        t1 = clock.now()
        slowdown[0] = 2.0
        raw = time.perf_counter()
        t2 = clock.now()
        spin(0.1)
        t3 = clock.now()
        raw = time.perf_counter() - raw
    assert raw > 0.19
    assert len(clock.samples) > hostclock.WARMUP_SAMPLES + 20
    assert clock.scale() == pytest.approx(0.0002, rel=0.25)
    assert (t1 - t0) * clock.scale() == pytest.approx(0.1, rel=0.2)
    assert (t3 - t2) * clock.scale() == pytest.approx(0.1, rel=0.2)
    assert 0.9 < clock.slowdown() < 2.1


def test_host_clock_is_the_plain_counter_when_not_calibrated():
    clock = hostclock.HostClock()
    before = time.perf_counter()
    reading = clock.now()
    assert before <= reading <= time.perf_counter()
    assert clock.samples == [] and clock.scale() == 1.0


def test_layer_of_groups_by_package():
    root = run.ROOT / "src" / "repro"
    assert layer_of(str(root / "ufs" / "io.py")) == "ufs"
    assert layer_of(str(root / "sim" / "events.py")) == "sim.engine"
    assert layer_of(str(root / "sim" / "invariants.py")) == "sim.invariants"
    assert layer_of(str(root / "units.py")) == "repro"
    assert layer_of("~") is None and layer_of(json.__file__) is None


def test_native_time_is_charged_to_the_calling_layer():
    root = run.ROOT / "src" / "repro"
    scan = (str(root / "vm" / "pagecache.py"), 192, "vnode_pages")
    push = (str(root / "ufs" / "io.py"), 380, "_push_range")
    builtin = ("~", 0, "<built-in method builtins.sorted>")
    stats = {
        scan: (1, 1, 0.5, 1.5, {push: (1, 1, 0.5, 1.5)}),
        push: (1, 1, 0.25, 1.75, {}),
        builtin: (2, 2, 1.0, 1.0, {scan: (2, 2, 1.0, 1.0)}),
    }
    layers, folded = group_profile(stats)
    assert layers == {"vm": 1.5, "ufs": 0.25}
    assert folded_lines(folded) == ("ufs;io._push_range 250000\n"
                                    "vm;builtins.sorted 1000000\n"
                                    "vm;pagecache.vnode_pages 500000\n")


def test_missing_program_source_fails_without_a_result(tmp_path, monkeypatch,
                                                       capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "iobench-D"]) != 0
    assert capsys.readouterr().out == ""
