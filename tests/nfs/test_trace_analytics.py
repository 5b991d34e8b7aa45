"""End-to-end trace analytics over NFS: rpc attribution and server tracks."""

import pytest

from repro.disk import DiskGeometry
from repro.kernel import Proc, SystemConfig
from repro.nfs import build_world
from repro.obs.attrib import attribution_table
from repro.obs.critpath import critical_paths, verify_conservation
from repro.obs.export import chrome_trace
from repro.units import KB


@pytest.fixture(scope="module")
def traced_world():
    server_cfg = SystemConfig.config_a().with_(
        geometry=DiskGeometry.uniform(cylinders=200, heads=4,
                                      sectors_per_track=32))
    client, server, mount = build_world(server_config=server_cfg)
    client.tracer.enabled = True
    server.tracer.enabled = True
    proc = Proc(client, mount=mount)

    def write_phase():
        fd = yield from proc.open("/f", create=True)
        for _ in range(4):
            yield from proc.write(fd, bytes(8 * KB))
        yield from proc.fsync(fd)
        yield from proc.close(fd)

    def read_phase():
        fd = yield from proc.open("/f")
        while (yield from proc.read(fd, 8 * KB)):
            pass
        yield from proc.close(fd)

    client.run(write_phase(), name="nfs-write")
    # Drop the client's cached pages so the reads actually hit the wire.
    vn = client.run(mount.namei("/f"), name="lookup")
    for page in client.pagecache.vnode_pages(vn):
        if not page.locked and not page.dirty:
            client.pagecache.destroy(page)
    client.run(read_phase(), name="nfs-read")
    client.tracer.enabled = False
    server.tracer.enabled = False
    return client, server


def test_rpc_lands_in_attribution_table(traced_world):
    client, _ = traced_world
    table = attribution_table(client.tracer)
    assert "read" in table and "write" in table
    rpc_time = sum(row["categories"]["rpc"] for row in table.values())
    assert rpc_time > 0.0


def test_rpc_lands_on_the_critical_path(traced_world):
    client, _ = traced_world
    report = critical_paths(client.tracer)
    assert report.paths
    assert verify_conservation(report) == []
    rpc_segments = [seg for path in report.paths
                    for seg in path.segments if seg.category == "rpc"]
    assert rpc_segments, "no critical-path segment blamed the wire"
    kinds = {path.root.name for path in report.paths
             for seg in path.segments if seg.category == "rpc"}
    # Uncached reads block on READ RPCs; the async writes ride the fsync's
    # COMMIT/WRITE RPCs — both wait chains must show on the paths.
    assert "read" in kinds
    assert "fsync" in kinds or "write" in kinds


def test_nfs_server_spans_get_their_own_chrome_track(traced_world):
    _, server = traced_world
    doc = chrome_trace(server.tracer)
    tracks = {e["args"]["name"]: e["tid"] for e in doc["traceEvents"]
              if e["ph"] == "M" and e["name"] == "thread_name"}
    assert "nfs_server" in tracks
    server_events = [e for e in doc["traceEvents"]
                     if e.get("ph") == "X" and e["name"] == "nfs_server"]
    assert server_events
    assert all(e["tid"] == tracks["nfs_server"] for e in server_events)
    assert {e["args"]["op"] for e in server_events} >= {"read", "write"}
