"""Word-wide bitmap arithmetic against a per-bit reference.

``CylinderGroup.free_counts`` recounts a group's free blocks and fragments
with int shifts and ``bit_count``; mkfs builds its bitmaps as whole ints.
Both must agree bit for bit with the obvious one-fragment-at-a-time loop,
for every ``frag`` the format allows, every bit offset the data area can
start at, a short last group, and arbitrary bitmap contents.
"""

import random

import pytest

from repro.disk import DiskGeometry, DiskStore
from repro.kernel import Proc, System, SystemConfig
from repro.ufs import FsParams, fsck, mkfs
from repro.ufs.ondisk import (
    CG_MAGIC, ROOT_INO, SUPERBLOCK_MAGIC, CylinderGroup, Superblock,
)
from repro.units import KB

FSIZES = {1: 8 * KB, 2: 4 * KB, 4: 2 * KB, 8: 1 * KB}  # frag -> fsize


def reference_counts(cg, sb):
    """The per-fragment recount the word-wide method replaces."""
    base = sb.cgbase(cg.cgx)
    data_start = sb.cg_data_frag(cg.cgx) - base
    end = sb.cg_end_frag(cg.cgx) - base
    nbfree = nffree = 0
    for block_rel in range(data_start, end - sb.frag + 1, sb.frag):
        free_here = sum(cg.frag_is_free(block_rel + i) for i in range(sb.frag))
        if free_here == sb.frag:
            nbfree += 1
        else:
            nffree += free_here
    return nbfree, nffree


def reference_group(sb, cgx):
    """mkfs's initial group, built one ``set_frag``/``set_inode`` at a time:
    all data free, then group 0 gives up inodes 0-1 and the root's inode
    and first data block."""
    cg = CylinderGroup(
        CG_MAGIC, cgx, sb.cg_end_frag(cgx) - sb.cgbase(cgx), 0, 0, 0, 0, 0, 0,
        bytearray((sb.fpg + 7) // 8), bytearray((sb.ipg + 7) // 8),
    )
    data_start = sb.cg_data_frag(cgx) - sb.cgbase(cgx)
    for rel in range(cg.ndblk):
        cg.set_frag(rel, rel >= data_start)
    for rel in range(sb.ipg):
        cg.set_inode(rel, True)
    cg.nifree = sb.ipg
    if cgx == 0:
        for rel in (0, 1, ROOT_INO):
            cg.set_inode(rel, False)
        for i in range(sb.frag):
            cg.set_frag(data_start + i, False)
        cg.nifree -= 3
        cg.ndir = 1
    cg.nbfree, cg.nffree = reference_counts(cg, sb)
    return cg


def layout(frag, ipg, short=0, fpg=1024, ncg=4):
    """A superblock whose data areas start ``ipg * 128 / bsize`` blocks
    into each group; ``short`` fragments are cut off the last group."""
    return Superblock(
        magic=SUPERBLOCK_MAGIC, bsize=8 * KB, fsize=FSIZES[frag], nsect=32,
        ntrak=4, ncyl=200, cpg=16, fpg=fpg, ipg=ipg, ncg=ncg, minfree=10,
        maxcontig=1, rotdelay_ms=0.0, rps=60, total_frags=ncg * fpg - short,
    )


@pytest.mark.parametrize("frag", [1, 2, 4, 8])
@pytest.mark.parametrize("ipg", [64 * k for k in range(1, 9)])
def test_free_counts_match_per_bit_reference(frag, ipg):
    # With frag 1, ipg = 64k puts group 0's data start at bit 3 + k and the
    # others' at 1 + k: every offset within a byte is covered.
    rng = random.Random(frag * 1000 + ipg)
    for short in (0, 5, 300):
        sb = layout(frag, ipg, short=short)
        for cgx in range(sb.ncg):
            for density in (0.0, 0.5, 0.9, 1.0):
                bitmap = bytearray(
                    sum((rng.random() < density) << b for b in range(8))
                    for _ in range((sb.fpg + 7) // 8))
                cg = CylinderGroup(CG_MAGIC, cgx, 0, 0, 0, 0, 0, 0, 0,
                                   bitmap, bytearray((ipg + 7) // 8))
                assert cg.free_counts(sb) == reference_counts(cg, sb), (
                    frag, ipg, short, cgx, density)


def test_free_counts_of_a_group_with_no_data_area():
    sb = layout(8, 64 * 8, fpg=88)  # boot, sb, header, 8 inode blocks
    cg = CylinderGroup(CG_MAGIC, 0, 0, 0, 0, 0, 0, 0, 0,
                       bytearray(b"\xff" * 11), bytearray(64))
    assert cg.free_counts(sb) == reference_counts(cg, sb) == (0, 0)


@pytest.mark.parametrize("frag", [1, 2, 4, 8])
def test_mkfs_groups_match_per_bit_reference_and_fsck_clean(frag):
    geom = DiskGeometry.uniform(cylinders=100, heads=4, sectors_per_track=32)
    store = DiskStore(geom.total_sectors)
    sb = mkfs(store, geom, FsParams(fsize=FSIZES[frag]))
    assert sb.frag == frag
    for cgx in range(sb.ncg):
        header = store.read(sb.fsb_to_sector(sb.cg_header_frag(cgx)),
                            sb.bsize // 512)
        assert CylinderGroup.unpack(header, sb) == reference_group(sb, cgx)
    assert fsck(store).clean


@pytest.mark.parametrize("frag", [1, 2, 4, 8])
def test_deep_checkpoint_passes_for_every_frag(frag):
    cfg = SystemConfig.config_a().with_(
        geometry=DiskGeometry.uniform(cylinders=200, heads=4,
                                      sectors_per_track=32),
        fs_params=FsParams.clustered(56 * KB, fsize=FSIZES[frag]))
    system = System.booted(cfg)
    system.sanitizer.enabled = True
    proc = Proc(system)

    def work():
        yield from proc.mkdir("/d")
        for i, nbytes in enumerate((700, 5 * KB, 20 * KB + 300, 100 * KB)):
            fd = yield from proc.creat(f"/d/f{i}")
            yield from proc.write(fd, bytes([i + 1]) * nbytes)
            yield from proc.close(fd)

    system.run(work())
    system.sync()
    assert system.mount.sb.frag == frag
    system.sanitizer.checkpoint("test", idle=True, deep=True)
    assert fsck(system.store).clean
