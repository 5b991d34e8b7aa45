"""Pins on the trace analyses of a small traced IObench.

Each configuration runs IObench with every phase traced (2 MB file, 64
random ops, seed 1991).  The attribution table (serialized with
``indent=2, sort_keys=True`` plus a newline), the folded flamegraph
stacks, and the critical-path report's ``to_json()`` (serialized the same
way) must hash to the pinned sha256.  A refactor of the sweep that moves
any blamed float, segment, or count fails here.
"""

import hashlib
import json

import pytest

from repro.bench.iobench import IObench
from repro.kernel.config import SystemConfig
from repro.obs.attrib import attribution_table
from repro.obs.critpath import critical_paths
from repro.obs.export import folded_stacks
from repro.units import MB

PINS = {
    "A": {
        "attribution":
            "4de5bdf8e30aec79c8b19858ce7eeddeb63691abb95972d5ad1be07e7f03237a",
        "folded":
            "22fc66d4d9f38f4ad001f2e97982302ead97fedc13ab8f643961ebc4d4533d13",
        "critreport":
            "cd723958ff1c5f1ed8ea5bceaddc29e4a15bcab58a148e15293e41c308ea5039",
    },
    "C": {
        "attribution":
            "6f94209688ad07c75102c16be495cd3a4316c6be62a9187fa2c88ef9212c61f9",
        "folded":
            "cca5a7947f5a1ba65b7bbb50aea4e6b349db22825055839f6599d04eecc7d3af",
        "critreport":
            "9ca34e032086b1ce1f4a1c374e56437898eb1c847cd379f8d7d55a5d6a9b55d1",
    },
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _canonical(document):
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("config", sorted(PINS))
def test_trace_analyses_are_pinned(config):
    bench = IObench(SystemConfig.by_name(config), file_size=2 * MB,
                    random_ops=64, seed=1991, trace_phase="*")
    bench.run()
    tracer = bench.system.tracer
    report = critical_paths(tracer)
    assert report.open_roots == 0 and report.open_spans == 0
    got = {
        "attribution": _sha256(_canonical(attribution_table(tracer))),
        "folded": _sha256(folded_stacks(tracer, report)),
        "critreport": _sha256(_canonical(report.to_json())),
    }
    assert got == PINS[config]
