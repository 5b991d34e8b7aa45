"""Tests for the determinism differ (digests over trace JSONL)."""

import json

import pytest

from repro.sim.simcheck import run_simcheck, stable_digest


def lines(*objs):
    return "\n".join(json.dumps(o) for o in objs)


def test_digest_sees_structural_divergence():
    a = lines({"type": "span", "id": 1, "parent": None, "name": "write",
               "begin": 0.0, "end": 1.0})
    later = lines({"type": "span", "id": 1, "parent": None, "name": "write",
                   "begin": 0.0, "end": 1.5})
    renamed = lines({"type": "span", "id": 1, "parent": None, "name": "read",
                     "begin": 0.0, "end": 1.0})
    assert stable_digest(a) != stable_digest(later)
    assert stable_digest(a) != stable_digest(renamed)


def test_digest_sees_reparenting():
    a = lines(
        {"type": "span", "id": 1, "parent": None, "name": "w", "begin": 0.0},
        {"type": "span", "id": 2, "parent": 1, "name": "x", "begin": 0.1},
        {"type": "span", "id": 3, "parent": 1, "name": "x", "begin": 0.2},
    )
    b = lines(
        {"type": "span", "id": 1, "parent": None, "name": "w", "begin": 0.0},
        {"type": "span", "id": 2, "parent": 1, "name": "x", "begin": 0.1},
        {"type": "span", "id": 3, "parent": 2, "name": "x", "begin": 0.2},
    )
    assert stable_digest(a) != stable_digest(b)


def test_run_simcheck_small_workload_passes():
    out = []
    rc = run_simcheck(file_mb=1, random_ops=32, out=out.append)
    assert rc == 0
    assert any("simcheck OK" in line for line in out)
    assert any("all passed" in line for line in out)


def test_run_simcheck_refuses_an_unsanitized_run(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    with pytest.raises(RuntimeError, match="REPRO_SANITIZE=1"):
        run_simcheck(file_mb=1, random_ops=32)
