"""Pins on every campaign's canonical JSON document.

Each campaign runs at a small size and its ``to_json()`` document,
serialized the way the CLI writes it (``indent=2, sort_keys=True`` plus a
newline), must hash to the pinned sha256.  A refactor of the campaign
harness that moves any seeded outcome, record, or verdict fails here.
"""

import hashlib
import json

import pytest

from repro.faults import (
    CrashCampaign, CrashpointExplorer, MirrorKillCampaign, NetCampaign,
)
from repro.integrity import ScrubCampaign

PINS = {
    "faultcampaign": (
        lambda: CrashCampaign(cuts=3, seed=0),
        "2ad38c008e3571ecb7c5361ad5bfc06115eedf8cef6f6d3ceb0c558cf101bba0"),
    "netcampaign": (
        lambda: NetCampaign(seeds=2, base_seed=0),
        "589f07f229dc761f3d318035b724a195e3e6d6549e8fab169e7bde8d512b9524"),
    "memberkill": (
        lambda: MirrorKillCampaign(seeds=1, base_seed=0),
        "e8ec56acbe1c37c7ff9be2581c76641253dc32923ad334fb0ab0d8fadce539b5"),
    "scrubcampaign": (
        lambda: ScrubCampaign(seed=0),
        "df99dc26b0439aedd7d47bc5a4900d8feb1a396a72f45aee6e063e0c1791eba2"),
    "crashpoints": (
        lambda: CrashpointExplorer("smoke", seed=0, max_states=60),
        "7953aa416f9356febdf6b54e2ca9ee5fc14e4b7ec3d2b214b8da76e1464cb643"),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_campaign_document_is_pinned(name):
    build, pin = PINS[name]
    result = build().run()
    assert result.ok, str(result)
    text = json.dumps(result.to_json(), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == pin
