"""The determinism differ: run a workload twice, demand identical traces.

The simulation's whole claim to being an *instrument* rests on two legs:

* every invariant the sanitizer checks actually holds while a real
  workload runs (not just in unit tests), and
* the same seed produces the same history, byte for byte — otherwise no
  campaign finding, no benchmark regression, no sanitizer report is
  diagnosable.

``python -m repro simcheck`` stands on both.  It runs IObench twice with
the same seed — sanitizer on, one phase traced — and compares a digest
of the trace/span JSONL plus the phase rates and request counts.

Span, request, and buf ids are per-world (each machine numbers its own
from 1), so two same-seed runs in one process export byte-identical
JSONL and a plain SHA-256 of it is the digest.
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import Any, Callable

from repro.sim.invariants import ENV_SWITCH, default_enabled
from repro.units import MB


def stable_digest(jsonl: str) -> str:
    """SHA-256 of a trace's JSONL export: equal iff the runs' histories
    (ordering, timing, structure, ids) are byte-identical."""
    return hashlib.sha256(jsonl.encode()).hexdigest()


def run_simcheck(config_name: str = "C", file_mb: int = 4,
                 random_ops: int = 256, trace_phase: str = "FSW",
                 seed: int = 1991,
                 json_path: "str | None" = None,
                 out: Callable[[str], None] = print) -> int:
    """Run the workload twice; return 0 when both legs hold.

    Leg one: every sanitizer check passes at every quiesce point of
    both runs, plus a deep (fsck-backed) sweep after each.  Leg two: the
    two runs' stable trace digests, phase rates, and request counts are
    identical.  ``json_path`` writes the comparison (both runs' digests,
    rates, counts, and the verdict) as one JSON document — the CI
    artifact form.  Leg one needs ``REPRO_SANITIZE=1`` in the
    environment; ``python -m repro simcheck`` always sets it.
    """
    from repro.bench.iobench import IObench
    from repro.kernel.config import SystemConfig

    if not default_enabled():
        raise RuntimeError(f"simcheck needs the sanitizer: set {ENV_SWITCH}=1 "
                           "(python -m repro simcheck sets it)")

    def one_run() -> dict[str, Any]:
        bench = IObench(SystemConfig.by_name(config_name),
                        file_size=file_mb * MB, random_ops=random_ops,
                        seed=seed, trace_phase=trace_phase)
        result = bench.run()
        system = bench.system
        assert system is not None
        # Final quiesce: flush everything, then the deep sweep (fsck's
        # walkers over the on-disk bytes, read-only).
        system.sync()
        system.sanitizer.checkpoint("simcheck_end", idle=True, deep=True)
        return {
            "digest": stable_digest(system.tracer.to_jsonl()),
            "spans": len(system.tracer.spans),
            "rates": dict(result.rates),
            "counts": dict(system.requests.stats.as_dict()),
            "checkpoints": system.sanitizer.checkpoints,
            "checks": system.sanitizer.checks_run,
        }

    first = one_run()
    second = one_run()

    out(f"simcheck: config {config_name}, {file_mb} MB file, "
        f"{random_ops} random ops, traced phase {trace_phase}")
    out(f"  sanitizer: {first['checks']} checks at "
        f"{first['checkpoints']} checkpoints per run — all passed")
    out(f"  trace: {first['spans']} spans, digest {first['digest'][:16]}…")

    failures = []
    for key in ("digest", "spans", "rates", "counts"):
        if first[key] != second[key]:
            failures.append(key)
            out(f"  MISMATCH {key}: run1={first[key]!r} run2={second[key]!r}")
    if json_path:
        document = {
            "config": config_name,
            "file_mb": file_mb,
            "random_ops": random_ops,
            "trace_phase": trace_phase,
            "seed": seed,
            "runs": [first, second],
            "mismatched_keys": failures,
            "ok": not failures,
        }
        text = json.dumps(document, indent=2, sort_keys=True) + "\n"
        if json_path == "-":
            # The CLI's --json-to-stdout mode: the document owns stdout
            # (human lines already routed to stderr by the caller's out).
            sys.stdout.write(text)
        else:
            with open(json_path, "w") as fh:
                fh.write(text)
            out(f"wrote {json_path}")
    if failures:
        out(f"simcheck FAILED: runs diverged on {', '.join(failures)}")
        return 1
    out("simcheck OK: identical digests, rates, and request counts")
    return 0


__all__ = ["stable_digest", "run_simcheck"]
