"""The benchmark's three seeded workloads, driven through public entry points.

Each workload is a closed loop: one process, single-threaded, one simulated
world per iteration, the next iteration started only when the previous one
has finished.  The workload seed is the only input that varies between
runs; it drives IObench's random offsets and MusBus's think times and file
sizes.  README.md says why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import mean
from typing import Any, Callable, Iterator

from perfbench.hostclock import CLOCK
from repro.bench.iobench import PHASES, IObench
from repro.bench.musbus import run_musbus
from repro.bench.report import PAPER_FIGURE_10
from repro.kernel.config import SystemConfig
from repro.kernel.system import System
from repro.obs.attrib import ATTRIBUTION_CATEGORIES, attribution_table
from repro.obs.critpath import (
    critical_paths, verify_against_attribution, verify_conservation,
)
from repro.obs.export import chrome_trace_json, folded_stacks
from repro.sim.invariants import ENV_SWITCH
from repro.ufs.fsck import fsck
from repro.units import KB, MB

#: The seed at which iobench-D and trace-A reproduce RESULTS.md's Figure 10
#: rows D and A (IObench's own default seed).
DEFAULT_SEED = 1991

#: The attribution categories reported as ``attrib.<category>_share``.
SHARE_CATEGORIES = ("cpu", "queue_wait", "rotation_seek", "transfer",
                    "throttle_wait")


@dataclass
class Iteration:
    """What one iteration of a workload measured and checked.

    Times are differences of :data:`perfbench.hostclock.CLOCK` readings:
    host seconds, or reference units while the clock is calibrated.
    """

    #: Host seconds of each ``System.booted`` call (build, mkfs, mount).
    setup_s: list[float] = field(default_factory=list)
    #: Host seconds of the workload after setup, including whatever the
    #: workload does after the simulation (trace-A's analyses,
    #: smallfile-san's sync and fsck).
    wall_s: float = 0.0
    #: Host seconds of the simulation alone (the engine running).
    engine_s: float = 0.0
    #: Simulated seconds the simulation advanced.
    sim_s: float = 0.0
    #: sha256 over the simulated results; equal for equal seeds.
    digest: str = ""
    #: Operations attempted: syscall-level I/O requests plus checks made.
    attempted: int = 0
    #: One line per failed operation: a raising syscall or a failed check.
    problems: list[str] = field(default_factory=list)
    #: Per-layer values: exact simulated counts and direct host timers.
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


@contextmanager
def patched(owner: Any, name: str,
            wrap: Callable[[Callable[..., Any]], Callable[..., Any]]
            ) -> Iterator[None]:
    """Replace ``owner.name`` with ``wrap(original function)`` while inside.

    Class- and static methods are unwrapped and rewrapped, so the wrapper
    always sees the plain function and its arguments.
    """
    original = owner.__dict__[name]
    kind = type(original) if isinstance(
        original, (classmethod, staticmethod)) else None
    func = original.__func__ if kind else original
    setattr(owner, name, kind(wrap(func)) if kind else wrap(func))
    try:
        yield
    finally:
        setattr(owner, name, original)


class BootProbe:
    """Times every ``System.booted`` call and keeps the machine it built.

    Both IObench and MusBus boot their own machine, so this is how the
    benchmark separates set-up time from workload time and reaches the
    machine afterwards for its counters and its final image.
    """

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self.systems: list[System] = []
        #: Simulated time at the end of each boot (mount runs the engine).
        self.sim_at_boot: list[float] = []

    def _wrap(self, booted: Callable[..., System]) -> Callable[..., System]:
        def timed_booted(cls, *args, **kwargs):
            t0 = CLOCK.now()
            system = booted(cls, *args, **kwargs)
            self.seconds.append(CLOCK.now() - t0)
            self.systems.append(system)
            self.sim_at_boot.append(system.now)
            return system
        return timed_booted

    def installed(self):
        return patched(System, "booted", self._wrap)


@contextmanager
def sanitizer_default(enabled: bool) -> Iterator[None]:
    """Set the sanitizer default for machines built inside, then restore it."""
    previous = os.environ.get(ENV_SWITCH)
    os.environ[ENV_SWITCH] = "1" if enabled else "0"
    try:
        yield
    finally:
        if previous is None:
            del os.environ[ENV_SWITCH]
        else:
            os.environ[ENV_SWITCH] = previous


@contextmanager
def profiling(profiler: Any) -> Iterator[None]:
    """Enable ``profiler`` (a ``cProfile.Profile`` or None) while inside."""
    if profiler is None:
        yield
        return
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()


def digest_of(record: dict) -> str:
    """sha256 over the canonical JSON of a workload's simulated results."""
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def paper_err_pct(config: str, rates: dict[str, float]) -> float:
    """Mean |ours - paper| / paper over the Figure 10 phases, in percent."""
    paper = PAPER_FIGURE_10[config]
    return 100.0 * mean(abs(rates[p] - paper[p]) / paper[p] for p in PHASES)


def _snapshot_layers(snapshot: dict) -> dict[str, float]:
    """The exact simulated counts the per-layer metrics take from the
    machine's metrics registry."""
    driver = snapshot["disk.driver"]
    ufs = snapshot["ufs"]
    metacache = snapshot["ufs.metacache"]
    lookups = metacache["hits"] + metacache["misses"]
    return {
        "vm.pagecache.hits": snapshot["vm.pagecache"]["hits"],
        "vm.pagecache.misses": snapshot["vm.pagecache"]["misses"],
        "ufs.read_ios": ufs.get("read_ios", 0),
        "ufs.write_ios": ufs.get("write_ios", 0),
        "ufs.readaheads": ufs.get("readaheads", 0),
        "ufs.metacache.hit_ratio": (metacache["hits"] / lookups
                                    if lookups else 0.0),
        "disk.driver.requests": driver["requests"],
        "disk.driver.avg_io_kb": (driver["bytes"] / driver["requests"] / KB
                                  if driver["requests"] else 0.0),
        "disk.driver.queue_depth.max":
            snapshot["disk.driver.queue_depth"]["max"],
        "disk.mech.seeks": snapshot["disk.mech"]["seeks"],
    }


class Workload:
    """One seeded workload; :meth:`iterate` runs one checked iteration."""

    name = ""
    config = "A"
    sanitize = False

    def boot_once(self) -> float:
        """Host seconds of one ``System.booted`` of this workload's machine."""
        with sanitizer_default(self.sanitize):
            t0 = CLOCK.now()
            System.booted(SystemConfig.by_name(self.config))
            return CLOCK.now() - t0

    def iterate(self, seed: int, profiler: Any = None, detail: bool = False,
                check_image: bool = True) -> Iteration:
        """Run one iteration and check its outputs.

        ``profiler`` is enabled around the timed region only.  ``detail``
        also measures per-layer values that cost host time or memory
        outside the timed region (the trace's JSONL size).
        ``check_image=False`` skips an untimed fsck of the final image
        that the workload does not time itself.  An exception
        from the program ends the iteration and is recorded as a failed
        operation, so one bad run cannot hide the others.
        """
        it = Iteration()
        probe = BootProbe()
        try:
            with sanitizer_default(self.sanitize), probe.installed():
                self._run(seed, it, probe, profiler, detail, check_image)
        except Exception as exc:  # a raising syscall or sanitizer check
            it.problems.append(f"{type(exc).__name__}: {exc}")
        it.setup_s = probe.seconds
        if probe.systems:
            requests = probe.systems[-1].metrics.snapshot()["requests"]
            it.attempted += int(requests["started"])
        it.attempted = max(it.attempted, len(it.problems), 1)
        return it

    def _run(self, seed: int, it: Iteration, probe: BootProbe,
             profiler: Any, detail: bool, check_image: bool) -> None:
        raise NotImplementedError

    def _check_fsck(self, system: System, it: Iteration) -> float:
        """fsck the final image; returns its host seconds."""
        t0 = CLOCK.now()
        report = fsck(system.store)
        seconds = CLOCK.now() - t0
        it.attempted += 1
        if not report.clean:
            it.problems.append(f"fsck: {len(report.findings)} finding(s), "
                               f"first: {report.findings[0]}")
        return seconds


class IObenchWorkload(Workload):
    """IObench's five phases at the paper's 16 MB / 2048-op size."""

    file_mb = 16
    random_ops = 2048
    traced = False

    def _run(self, seed: int, it: Iteration, probe: BootProbe,
             profiler: Any, detail: bool, check_image: bool) -> None:
        bench = IObench(SystemConfig.by_name(self.config),
                        file_size=self.file_mb * MB,
                        random_ops=self.random_ops, seed=seed,
                        trace_phase="*" if self.traced else None)
        t0 = CLOCK.now()
        with profiling(profiler):
            result = bench.run()
            t1 = CLOCK.now()
            record = self._analyse(bench.system, it) if self.traced else {}
        t2 = CLOCK.now()
        system = bench.system
        booted = sum(probe.seconds)
        it.wall_s = t2 - t0 - booted
        it.engine_s = t1 - t0 - booted
        it.sim_s = system.now - probe.sim_at_boot[0]
        snapshot = system.metrics.snapshot()
        steps = system.engine._steps
        record.update(rates=result.rates, steps=steps, sim_s=it.sim_s,
                      metrics=snapshot)
        it.digest = digest_of(record)
        if detail and self.traced:
            it.layers["sim.trace.jsonl_bytes"] = len(system.tracer.to_jsonl())
        it.layers.update(_snapshot_layers(snapshot))
        it.layers["sim.engine.steps"] = steps
        it.layers["sim.invariants.checkpoints"] = system.sanitizer.checkpoints
        it.layers["sim.invariants.checks_run"] = system.sanitizer.checks_run
        it.layers["bench.paper_err_pct"] = paper_err_pct(self.config,
                                                         result.rates)
        for phase in PHASES:
            it.layers[f"bench.{phase}_kbps"] = result.rates[phase]
        # The final image is checked outside the timed region: fsck is
        # smallfile-san's job to time, and IObench leaves metadata cached.
        if check_image:
            system.sync()
            it.layers["ufs.fsck_s"] = self._check_fsck(system, it)

    def _analyse(self, system: System, it: Iteration) -> dict:
        """What ``python -m repro trace`` does with a finished run."""
        tracer = system.tracer
        timers = it.layers
        t0 = CLOCK.now()
        table = attribution_table(tracer)
        t1 = CLOCK.now()
        report = critical_paths(tracer)
        t2 = CLOCK.now()
        violations = (verify_conservation(report)
                      + verify_against_attribution(tracer, report))
        t3 = CLOCK.now()
        chrome = chrome_trace_json(tracer)
        t4 = CLOCK.now()
        folded = folded_stacks(tracer, report)
        t5 = CLOCK.now()
        timers["obs.attribution_s"] = t1 - t0
        timers["obs.critpath_s"] = t2 - t1
        timers["obs.verify_s"] = t3 - t2
        timers["obs.chrome_s"] = t4 - t3
        timers["obs.folded_s"] = t5 - t4
        timers["obs.chrome_bytes"] = len(chrome)
        timers["sim.trace.spans"] = len(tracer.spans)
        it.attempted += 1
        if violations:
            it.problems.append(f"trace: {len(violations)} conservation/"
                               f"attribution violation(s), first: "
                               f"{violations[0]}")
        totals = dict.fromkeys(ATTRIBUTION_CATEGORIES, 0.0)
        for row in table.values():
            for category, seconds in row["categories"].items():
                totals[category] += seconds
        grand = sum(totals.values())
        for category in SHARE_CATEGORIES:
            timers[f"attrib.{category}_share"] = (
                totals[category] / grand if grand else 0.0)
        return {"attribution": table,
                "folded_sha256": hashlib.sha256(folded.encode()).hexdigest()}


class IObenchD(IObenchWorkload):
    name = "iobench-D"
    config = "D"


class TraceA(IObenchWorkload):
    name = "trace-A"
    config = "A"
    traced = True


class SmallfileSan(Workload):
    """The MusBus-like multi-user churn, sanitized, then fsck."""

    name = "smallfile-san"
    config = "A"
    sanitize = True
    users = 4
    rounds = 8

    def _run(self, seed: int, it: Iteration, probe: BootProbe,
             profiler: Any, detail: bool, check_image: bool) -> None:
        config = SystemConfig.by_name(self.config)
        t0 = CLOCK.now()
        with profiling(profiler):
            result = run_musbus(config, users=self.users,
                                iterations=self.rounds, seed=seed)
            t1 = CLOCK.now()
            system = probe.systems[-1]
            sim_end = system.now
            system.sync()
            fsck_s = self._check_fsck(system, it)
        t2 = CLOCK.now()
        booted = sum(probe.seconds)
        it.wall_s = t2 - t0 - booted
        it.engine_s = t1 - t0 - booted
        it.sim_s = sim_end - probe.sim_at_boot[0]
        snapshot = system.metrics.snapshot()
        steps = system.engine._steps
        # Reaching here means the sanitizer raised nothing at any of its
        # checkpoints; that is one more check passed.
        it.attempted += 1
        it.digest = digest_of({"elapsed": result.elapsed, "steps": steps,
                               "sim_s": it.sim_s, "metrics": snapshot})
        it.layers.update(_snapshot_layers(snapshot))
        it.layers["sim.engine.steps"] = steps
        it.layers["sim.invariants.checkpoints"] = system.sanitizer.checkpoints
        it.layers["sim.invariants.checks_run"] = system.sanitizer.checks_run
        it.layers["ufs.fsck_s"] = fsck_s


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (IObenchD, TraceA, SmallfileSan)
}
