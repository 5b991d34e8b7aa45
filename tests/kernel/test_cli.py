"""Smoke tests for the ``python -m repro`` command-line interface."""

import json
import subprocess
import sys

import pytest


def run_cli(*args, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, timeout=timeout,
    )


def test_cli_requires_command():
    result = run_cli()
    assert result.returncode != 0


def test_cli_help():
    result = run_cli("--help")
    assert result.returncode == 0
    assert "iobench" in result.stdout


def test_cli_cpubench():
    result = run_cli("cpubench")
    assert result.returncode == 0
    assert "new:" in result.stdout and "old:" in result.stdout


def test_cli_musbus():
    result = run_cli("musbus", "--users", "2")
    assert result.returncode == 0
    assert "config A" in result.stdout


def test_cli_faultcampaign_smoke():
    result = run_cli("faultcampaign", "--cuts", "3")
    assert result.returncode == 0
    assert "clean_after_repair" in result.stdout
    assert "silent_corruptions" in result.stdout


@pytest.mark.slow
def test_cli_iobench_small():
    result = run_cli("iobench", "--configs", "A", "--file-mb", "2")
    assert result.returncode == 0
    assert "FSR" in result.stdout


def test_cli_faultcampaign_json_stdout_parses():
    """--json with no path writes the document to stdout and every human
    line to stderr, so ``python -m repro ... --json | jq .`` works."""
    result = run_cli("faultcampaign", "--cuts", "2", "--json")
    assert result.returncode == 0
    document = json.loads(result.stdout)  # the whole of stdout is JSON
    assert isinstance(document, dict) and document
    assert "power cuts" in result.stderr  # progress moved to stderr


def test_cli_scrubcampaign_json_stdout_parses():
    result = run_cli("scrubcampaign", "--json")
    assert result.returncode == 0
    document = json.loads(result.stdout)
    assert "digest" in document
    assert "scrubbing" in result.stderr


CAMPAIGNS = {
    "faultcampaign": ("--cuts", "2"),
    "netcampaign": ("--seeds", "2"),
    "memberkill": ("--seeds", "1"),
    "scrubcampaign": (),
    "crashpoints": ("--preset", "smoke", "--max-states", "60"),
}


@pytest.mark.parametrize("command", sorted(CAMPAIGNS))
def test_cli_campaign_json_stdout_is_the_verdict(command):
    result = run_cli(command, *CAMPAIGNS[command], "--seed", "0", "--json",
                     "-")
    assert result.returncode == 0, result.stderr
    document = json.loads(result.stdout)
    assert document["ok"] is True
    assert "OK: " in result.stderr  # the human verdict went to stderr


@pytest.mark.parametrize("argv", [
    ("faultcampaign", "--cuts", "0"),
    ("netcampaign", "--seeds", "0"),
    ("memberkill", "--seeds", "0"),
    ("crashpoints", "--preset", "no-such-preset"),
])
def test_cli_campaign_rejects_bad_flags_with_exit_2(argv):
    result = run_cli(*argv)
    assert result.returncode == 2
    assert result.stderr.startswith(f"{argv[0]}: ")


def test_cli_json_to_path_keeps_stdout_human(tmp_path):
    path = tmp_path / "out.json"
    result = run_cli("faultcampaign", "--cuts", "2", "--json", str(path))
    assert result.returncode == 0
    assert "power cuts" in result.stdout  # human mode unchanged
    json.loads(path.read_text())


def test_cli_bench_json_stdout_parses():
    result = run_cli("bench", "--configs", "A", "--file-mb", "1",
                     "--ops", "32", "--json")
    assert result.returncode == 0
    document = json.loads(result.stdout)
    assert document["schema"] == "repro-bench/v1"
    assert document["results"]["A"]["rates"]["FSR"] > 0
    assert "bench id" in result.stderr


def test_cli_bench_gate_against_self(tmp_path):
    baseline = tmp_path / "BENCH_baseline.json"
    first = run_cli("bench", "--configs", "A", "--file-mb", "1",
                    "--ops", "32", "--json", str(baseline))
    assert first.returncode == 0
    gated = run_cli("bench", "--configs", "A", "--file-mb", "1",
                    "--ops", "32", "--baseline", str(baseline), "--diff")
    assert gated.returncode == 0
    assert "perf gate OK" in gated.stdout
    # A mismatched baseline (different parameters) must fail the gate.
    mismatched = run_cli("bench", "--configs", "A", "--file-mb", "1",
                         "--ops", "16", "--baseline", str(baseline))
    assert mismatched.returncode == 1
    assert "perf gate FAILED" in mismatched.stdout


def test_cli_trace_analyze_verifies_and_exits_zero():
    result = run_cli("trace", "analyze", "--config", "C",
                     "--file-mb", "1", "--ops", "16")
    assert result.returncode == 0
    assert "critical paths:" in result.stdout
    assert "OK: every critical path conserves" in result.stdout


def test_cli_trace_chrome_and_flamegraph_round_trip(tmp_path):
    chrome = tmp_path / "trace.json"
    result = run_cli("trace", "chrome", "--config", "C", "--file-mb", "1",
                     "--ops", "16", "--out", str(chrome))
    assert result.returncode == 0
    document = json.loads(chrome.read_text())
    assert document["otherData"]["schema"] == "repro-chrome/v1"
    assert document["traceEvents"]

    folded = run_cli("trace", "flamegraph", "--config", "C", "--file-mb", "1",
                     "--ops", "16", "--out", "-")
    assert folded.returncode == 0
    assert any(";" in line and line.rsplit(" ", 1)[1].isdigit()
               for line in folded.stdout.splitlines())


def test_cli_trace_ingests_exported_jsonl(tmp_path):
    jsonl = tmp_path / "trace.jsonl"
    jsonl.write_text(
        '{"type": "meta", "schema": "repro-trace/v1", "records": 0,'
        ' "spans": 2}\n'
        '{"type": "span", "id": 1, "parent": null, "name": "read",'
        ' "begin": 0.0, "end": 0.01, "request": 1}\n'
        '{"type": "span", "id": 2, "parent": 1, "name": "queue_wait",'
        ' "begin": 0.001, "end": 0.004}\n')
    result = run_cli("trace", "analyze", "--trace-jsonl", str(jsonl))
    assert result.returncode == 0
    assert "queue_wait" in result.stdout
    # series needs a live run; an offline trace has no metrics registry.
    refused = run_cli("trace", "series", "--trace-jsonl", str(jsonl))
    assert refused.returncode == 2


def test_cli_trace_series_renders_sparklines():
    result = run_cli("trace", "series", "--config", "A", "--file-mb", "1",
                     "--ops", "16", "--namespaces", "vm.freemem",
                     "--interval-ms", "20")
    assert result.returncode == 0
    assert "vm.freemem" in result.stdout
    assert "|" in result.stdout
