"""Host-time benchmark of the simulator, with its correctness check.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload iobench-D --seed 1991 --seconds 40 --trace 0
    python3 perfbench/run.py --workload trace-A --trace 1
    python3 perfbench/run.py --workload smallfile-san --check-proxies

``--trace 0`` repeats the workload for ``--seconds`` seconds and reports
the end-to-end metrics as medians over the iterations, timed on the
host clock of ``hostclock.py`` (host seconds at the host's quiet speed,
so busy neighbours do not count as the program's time).  ``--trace 1`` runs
one plain iteration and one profiled iteration and reports the per-layer
metrics, including the profiling overhead (profiled / plain ``wall_s``).
``--check-proxies`` reruns the profiled mode in fresh processes under
several ``PYTHONHASHSEED`` values and reports any drift of the exact work
proxies (``sim.engine.steps``, ``host.calls``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are for people.  Metric names and units are those of ``BENCHMARK.json``.
Full records, and the host-time flamegraph input of ``--trace 1``, are
written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pstats
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Extra ``System.booted`` calls made before the timed loop, so that
#: ``setup_s`` is a median over enough samples even when an iteration is
#: long; each iteration adds its own boot.
SETUP_BOOTS = 5

#: ``PYTHONHASHSEED`` of each proxy-check run: the same value twice
#: (repeats across runs), then other values (repeats across hash seeds).
PROXY_HASH_SEEDS = ("0", "0", "1", "2")

#: Per-layer metrics that repeat exactly for a given seed.
EXACT_PROXIES = ("sim.engine.steps", "host.calls")


def declared_metrics(section: str) -> dict[str, str]:
    """``{name: unit}`` of one metric section of ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def check_digests(iterations: list) -> None:
    """Every iteration of one run must reach the same simulated results.

    The digest most iterations agree on is taken as the answer; each
    completed iteration that disagrees gets one failed check.
    """
    digests = Counter(it.digest for it in iterations if it.digest)
    if not digests:
        return
    answer = digests.most_common(1)[0][0]
    for it in iterations:
        if not it.digest:
            continue
        it.attempted += 1
        if it.digest != answer:
            it.problems.append(f"digest {it.digest[:16]} differs from the "
                               f"run's {answer[:16]}")


def tally(iterations: list) -> tuple[int, int]:
    """(attempted, failed) operations over a run's iterations."""
    attempted = sum(it.attempted for it in iterations)
    failed = sum(len(it.problems) for it in iterations)
    return attempted, failed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(iterations: list, setup: list[float],
               scale: float = 1.0) -> dict[str, float]:
    """The end-to-end metrics of one run, medians over its iterations.

    ``scale`` is the host seconds of one unit of the clock the times were
    read on.
    """
    done = [it for it in iterations if it.ok] or iterations
    return {
        "wall_s": scale * median(it.wall_s for it in done),
        "sim_s_per_wall_s": median(it.sim_s / (scale * it.engine_s)
                                   if it.engine_s else 0.0 for it in done),
        "setup_s": scale * median(setup + [s for it in iterations
                                           for s in it.setup_s]),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(plain, profiled, probe_values: dict[str, float],
              stats: pstats.Stats, layers: dict[str, float],
              declared: dict[str, str]) -> dict[str, float]:
    """The per-layer metrics of one plain and one profiled iteration.

    A layer the workload does not run reads 0 (no spans, no checkpoints,
    no IObench phase).
    """
    values = dict.fromkeys(declared, 0.0)
    values.update(plain.layers)
    values.update(probe_values)
    steps = plain.layers.get("sim.engine.steps", 0)
    values["sim.engine.host_us_per_step"] = (
        plain.engine_s / steps * 1e6 if steps else 0.0)
    total = sum(layers.values())
    for name in declared:
        if name.endswith(".host_share"):
            layer = name[:-len(".host_share")]
            values[name] = layers.get(layer, 0.0) / total if total else 0.0
    values["host.calls"] = stats.total_calls
    values["host.profile_overhead"] = (
        profiled.wall_s / plain.wall_s if plain.wall_s else 0.0)
    unknown = set(values) - set(declared)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return values


def write_record(name: str, record: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / name).write_text(json.dumps(record, indent=1, sort_keys=True)
                                + "\n")


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict[str, float], units: dict[str, str]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    })


def run_e2e(workload, seed: int, seconds: float) -> int:
    from perfbench.hostclock import CLOCK

    units = declared_metrics("end_to_end")
    iterations = []
    with CLOCK.calibrated():
        setup = [workload.boot_once() for _ in range(SETUP_BOOTS)]
        start = time.perf_counter()
        deadline = start + seconds
        # Start another iteration only if one as long as the average still
        # fits, so a run lasts about ``seconds`` whatever an iteration
        # costs.  The untimed fsck runs once: later iterations reach the
        # same digest.
        while True:
            gc.collect()
            iterations.append(workload.iterate(seed,
                                               check_image=not iterations))
            now = time.perf_counter()
            if now + (now - start) / len(iterations) > deadline:
                break
    check_digests(iterations)
    attempted, failed = tally(iterations)
    scale = CLOCK.scale()
    metrics = end_to_end(iterations, setup, scale)
    walls = sorted(scale * it.wall_s for it in iterations)
    err = [it.layers["bench.paper_err_pct"] for it in iterations
           if "bench.paper_err_pct" in it.layers]
    digest = iterations[0].digest
    print(f"perfbench {workload.name} seed={seed}: {len(iterations)} "
          f"iteration(s) in {seconds} s")
    print(f"  wall_s            {metrics['wall_s']:10.4f} s     median of "
          f"{len(walls)} ({walls[0]:.4f} .. {walls[-1]:.4f})")
    print(f"  sim_s_per_wall_s  {metrics['sim_s_per_wall_s']:10.4f} 1/s")
    print(f"  setup_s           {metrics['setup_s']:10.4f} s     median of "
          f"{len(setup) + sum(len(it.setup_s) for it in iterations)} boots")
    print(f"  peak_rss_mb       {metrics['peak_rss_mb']:10.2f} MB")
    print(f"  host clock        {len(CLOCK.samples):10d} reference samples, "
          f"quiet {scale * 1e3:.4f} ms, median {CLOCK.slowdown():.3f}x quiet")
    print("  paper_err_pct     " + (f"{err[0]:10.4f} %" if err else
                                    "       n/a (no Figure 10 phase)"))
    print(f"  error_rate        {failed / attempted:10.4f}       "
          f"{failed} failed of {attempted} operations")
    print(f"  digest            {digest}")
    for it in iterations:
        for problem in it.problems:
            print(f"  FAILED: {problem}")
    write_record(f"{workload.name}-seed{seed}.json", {
        "workload": workload.name, "seed": seed, "digest": digest,
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "clock_scale_s": scale, "clock_slowdown": CLOCK.slowdown(),
        "setup_units": setup,
        "iterations": [{"wall_units": it.wall_s, "engine_units": it.engine_s,
                        "sim_s": it.sim_s, "setup_units": it.setup_s,
                        "digest": it.digest, "problems": it.problems}
                       for it in iterations],
    })
    print(result_line(failed == 0, attempted, failed, metrics, units))
    return 0


def run_traced(workload, seed: int) -> int:
    from perfbench.profiling import LayerProbe, folded_lines, group_profile

    units = declared_metrics("per_layer")
    probe = LayerProbe()
    with probe.installed():
        gc.collect()
        plain = workload.iterate(seed, detail=True)
        probe_values = probe.values()
        probe.reset()
        gc.collect()
        profiler = cProfile.Profile()
        profiled = workload.iterate(seed, profiler=profiler,
                                    check_image=False)
    iterations = [plain, profiled]
    check_digests(iterations)
    attempted, failed = tally(iterations)
    stats = pstats.Stats(profiler)
    layers, folded = group_profile(stats.stats)
    metrics = per_layer(plain, profiled, probe_values, stats, layers, units)
    folded_path = OUT_DIR / f"{workload.name}-seed{seed}.host.folded"
    OUT_DIR.mkdir(exist_ok=True)
    folded_path.write_text(folded_lines(folded))
    total = sum(layers.values())
    print(f"perfbench {workload.name} seed={seed}: per-layer host time "
          f"(cProfile self time, {total:.3f} s profiled)")
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:16s} {seconds:9.3f} s  {seconds / total:7.2%}")
    for name in sorted(metrics):
        print(f"  {name:32s} {metrics[name]:16.6g} {units[name]}")
    for it in iterations:
        for problem in it.problems:
            print(f"  FAILED: {problem}")
    print(f"  flamegraph input: {os.path.relpath(folded_path, ROOT)}")
    write_record(f"{workload.name}-seed{seed}.layers.json", {
        "workload": workload.name, "seed": seed, "digest": plain.digest,
        "metrics": metrics, "host_layers_s": layers,
        "attempted": attempted, "failed": failed,
    })
    print(result_line(failed == 0, attempted, failed, metrics, units))
    return 0


def check_proxies(workload_name: str, seed: int) -> int:
    """Rerun the profiled mode in fresh processes; report proxy drift."""
    readings = []
    for hash_seed in PROXY_HASH_SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload_name, "--seed", str(seed), "--seconds", "1",
             "--trace", "1"],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 2
        metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
        reading = {name: metrics[name]["value"] for name in EXACT_PROXIES}
        readings.append(reading)
        print(f"PYTHONHASHSEED={hash_seed}: "
              + "  ".join(f"{k}={v:.0f}" for k, v in reading.items()))
    drift = False
    for name in EXACT_PROXIES:
        values = [r[name] for r in readings]
        spread = (max(values) - min(values)) / max(values)
        drift = drift or spread > 0
        print(f"{name}: {'exact' if spread == 0 else 'DRIFT'} over "
              f"{len(values)} runs (max-min = {spread:.4%} of max)")
    return 1 if drift else 0


def main(argv: "list[str] | None" = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-proxies", action="store_true")
    args = parser.parse_args(argv)
    if args.check_proxies:
        return check_proxies(args.workload, args.seed)
    workload = WORKLOADS[args.workload]()
    if args.trace:
        return run_traced(workload, args.seed)
    return run_e2e(workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
