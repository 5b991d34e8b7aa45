"""Tests for fsck: it must find the corruptions it claims to find."""

import pytest

from repro.disk import DiskGeometry, DiskStore
from repro.ufs import FsParams, fsck, mkfs
from repro.ufs.ondisk import DINODE_SIZE, Dinode, IFREG, ROOT_INO


@pytest.fixture
def fresh():
    geom = DiskGeometry.uniform(cylinders=100, heads=4, sectors_per_track=32)
    store = DiskStore(geom.total_sectors)
    sb = mkfs(store, geom, FsParams(cpg=16))
    return store, sb


def read_dinode(store, sb, ino):
    frag, off = sb.inode_location(ino)
    block = store.read(frag * 2, 16)
    return Dinode.unpack(block[off:off + DINODE_SIZE]), frag, off


def write_dinode(store, sb, ino, din):
    frag, off = sb.inode_location(ino)
    block = bytearray(store.read(frag * 2, 16))
    block[off:off + DINODE_SIZE] = din.pack()
    store.write(frag * 2, bytes(block))


def test_fresh_fs_is_clean(fresh):
    store, _ = fresh
    assert fsck(store).clean


def test_detects_wrong_nlink(fresh):
    store, sb = fresh
    root, _, _ = read_dinode(store, sb, ROOT_INO)
    root.nlink = 7
    write_dinode(store, sb, ROOT_INO, root)
    report = fsck(store)
    assert any("nlink" in f for f in report.findings)


def test_detects_double_claimed_fragment(fresh):
    store, sb = fresh
    root, _, _ = read_dinode(store, sb, ROOT_INO)
    # Create a bogus file inode claiming the root directory's block.
    bogus = Dinode(mode=IFREG | 0o644, nlink=0, size=sb.bsize,
                   direct=(root.direct[0],) + (0,) * 11, blocks=sb.frag)
    write_dinode(store, sb, 5, bogus)
    report = fsck(store)
    assert any("claimed by inodes" in f for f in report.findings)


def test_detects_block_leak(fresh):
    store, sb = fresh
    # Mark a data fragment allocated in the bitmap without any claimant.
    from repro.ufs.ondisk import CylinderGroup

    header = sb.cg_header_frag(0)
    cg = CylinderGroup.unpack(store.read(header * 2, 16), sb)
    victim = sb.cg_data_frag(0) - sb.cgbase(0) + sb.frag  # after root block
    for i in range(sb.frag):
        cg.set_frag(victim + i, False)
    cg.nbfree -= 1
    store.write(header * 2, cg.pack(sb))
    report = fsck(store)
    assert any("leak" in f for f in report.findings)


def test_detects_bitmap_free_but_claimed(fresh):
    store, sb = fresh
    from repro.ufs.ondisk import CylinderGroup

    header = sb.cg_header_frag(0)
    cg = CylinderGroup.unpack(store.read(header * 2, 16), sb)
    rel = sb.cg_data_frag(0) - sb.cgbase(0)  # the root block
    for i in range(sb.frag):
        cg.set_frag(rel + i, True)
    cg.nbfree += 1
    store.write(header * 2, cg.pack(sb))
    report = fsck(store)
    assert any("free in bitmap but claimed" in f for f in report.findings)


def test_detects_bad_counter_totals(fresh):
    store, sb = fresh
    sb.cs_nbfree += 5
    store.write(16, sb.pack())
    report = fsck(store)
    assert any("superblock nbfree" in f for f in report.findings)


def test_detects_entry_to_unallocated_inode(fresh):
    store, sb = fresh
    root, _, _ = read_dinode(store, sb, ROOT_INO)
    dirblock = bytearray(store.read(root.direct[0] * 2, 16))
    # Point '..' slot area at a new bogus entry: overwrite '..' name area
    # with an entry for an unallocated inode by editing the second dirent.
    from repro.ufs.ondisk import pack_dirent, DIRBLKSIZ

    dirblock[12:DIRBLKSIZ] = pack_dirent(99, "ghost", DIRBLKSIZ - 12)
    store.write(root.direct[0] * 2, bytes(dirblock))
    report = fsck(store)
    assert any("unallocated" in f for f in report.findings)


def test_detects_blocks_count_mismatch(fresh):
    store, sb = fresh
    root, _, _ = read_dinode(store, sb, ROOT_INO)
    root.blocks = 99
    write_dinode(store, sb, ROOT_INO, root)
    report = fsck(store)
    assert any("di_blocks" in f for f in report.findings)


def test_detects_out_of_range_pointer(fresh):
    store, sb = fresh
    bogus = Dinode(mode=IFREG | 0o644, nlink=0, size=sb.bsize,
                   direct=(sb.total_frags + 100,) + (0,) * 11,
                   blocks=sb.frag)
    write_dinode(store, sb, 5, bogus)
    report = fsck(store)
    assert any("out of range" in f for f in report.findings)


def test_report_str_format(fresh):
    store, _ = fresh
    text = str(fsck(store))
    assert "CLEAN" in text


# -- bitmap findings: the per-bit fallback when a group's masks disagree ------

def _group(store, sb, cgx):
    from repro.ufs.ondisk import CylinderGroup

    return CylinderGroup.unpack(
        store.read(sb.cg_header_frag(cgx) * 2, 16), sb)


def rewrite_group(store, sb, cgx, mutate):
    cg = _group(store, sb, cgx)
    mutate(cg)
    store.write(sb.cg_header_frag(cgx) * 2, cg.pack(sb))


def test_inode_free_in_bitmap_but_allocated_on_disk(fresh):
    store, sb = fresh

    def free_root(cg):
        cg.set_inode(ROOT_INO, True)
        cg.nifree += 1

    rewrite_group(store, sb, 0, free_root)
    sb.cs_nifree += 1
    store.write(16, sb.pack())
    assert fsck(store).findings == [
        f"inode {ROOT_INO} free in bitmap but allocated on disk"]


def test_inode_leaked_in_bitmap(fresh):
    store, sb = fresh

    def leak(cg):
        cg.set_inode(7, False)
        cg.set_inode(3, False)
        cg.nifree -= 2

    rewrite_group(store, sb, 1, leak)
    sb.cs_nifree -= 2
    store.write(16, sb.pack())
    assert fsck(store).findings == [
        f"inode {sb.ipg + 3} leaked in bitmap",
        f"inode {sb.ipg + 7} leaked in bitmap",
    ]


def test_fragment_findings_come_in_fragment_order(fresh):
    store, sb = fresh
    data = sb.cg_data_frag(0)  # the root directory's block
    rel = data - sb.cgbase(0)
    hit = [rel + 5 * sb.frag + 1, rel + 3, rel + 2 * sb.frag + 6]

    def damage(cg):
        for r in hit:
            cg.set_frag(r, not cg.frag_is_free(r))

    nbfree = _group(store, sb, 0).nbfree
    rewrite_group(store, sb, 0, damage)
    assert fsck(store).findings == [
        f"fragment {data + 3} free in bitmap but claimed by inode {ROOT_INO}",
        f"fragment {data + 2 * sb.frag + 6} allocated in bitmap but "
        "unclaimed (leak)",
        f"fragment {data + 5 * sb.frag + 1} allocated in bitmap but "
        "unclaimed (leak)",
        f"group 0: nbfree {nbfree} but bitmap shows {nbfree - 2}",
        f"group 0: nffree 0 but bitmap shows {1 + 2 * (sb.frag - 1)}",
    ]
