"""Golden-vector tests pinning the on-disk ABI (docs/ONDISK_FORMAT.md).

These tests freeze the byte-level encodings.  If one fails, either the
format changed (update the spec, bump the version, regenerate vectors
deliberately) or an encoding regressed.  Vectors are asserted by SHA-256
to keep the file readable.
"""

import hashlib

from repro.ondisk.directory import DirBlock
from repro.ondisk.inode import FileType, OnDiskInode, make_mode
from repro.ondisk.layout import BLOCK_SIZE
from repro.ondisk.superblock import STATE_DIRTY, Superblock
from repro.util import checksum32


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestFieldOffsets:
    """Spot-check documented offsets directly against packed bytes."""

    def test_superblock_offsets(self):
        sb = Superblock(
            block_size=BLOCK_SIZE,
            block_count=0x11223344,
            blocks_per_group=1024,
            inodes_per_group=256,
            journal_blocks=64,
            free_blocks=0xAABBCCDD,
            free_inodes=0x55667788,
            root_ino=2,
            mount_state=STATE_DIRTY,
            mount_count=7,
            write_generation=0x0102030405060708,
        )
        raw = sb.pack()
        assert raw[0:4] == bytes.fromhex("4EF5D05A")  # magic LE
        assert raw[12:16] == bytes.fromhex("44332211")  # block_count LE
        assert raw[32:36] == bytes.fromhex("DDCCBBAA")  # free_blocks
        assert raw[44:48] == (2).to_bytes(4, "little")  # mount_state dirty
        assert raw[52:60] == bytes.fromhex("0807060504030201")  # generation
        assert int.from_bytes(raw[60:64], "little") == checksum32(raw[:60])
        assert raw[64:] == b"\x00" * (BLOCK_SIZE - 64)

    def test_inode_offsets(self):
        inode = OnDiskInode(
            mode=make_mode(FileType.REGULAR, 0o640),
            uid=0x1111,
            gid=0x2222,
            nlink=3,
            size=0x0000000012345678,
            atime=10,
            mtime=20,
            ctime=30,
        )
        inode.direct[0] = 0xAAAA
        inode.direct[11] = 0xBBBB
        inode.indirect = 0xCCCC
        inode.double_indirect = 0xDDDD
        raw = inode.pack()
        assert int.from_bytes(raw[0:4], "little") == (1 << 12) | 0o640
        assert int.from_bytes(raw[20:28], "little") == 0x12345678  # size at 20
        assert int.from_bytes(raw[56:60], "little") == 0xAAAA  # direct[0]
        assert int.from_bytes(raw[100:104], "little") == 0xBBBB  # direct[11]
        assert int.from_bytes(raw[104:108], "little") == 0xCCCC  # indirect
        assert int.from_bytes(raw[108:112], "little") == 0xDDDD  # double
        assert int.from_bytes(raw[112:116], "little") == checksum32(raw[:112])

    def test_dirent_layout(self):
        block = DirBlock()
        block.insert(0x0105, "abc", FileType.DIRECTORY)
        raw = block.to_block()
        assert int.from_bytes(raw[0:4], "little") == 0x0105
        # The entry claims the whole free record it landed in; the slack
        # stays inside its rec_len (ext2 discipline; see the spec §5).
        assert int.from_bytes(raw[4:6], "little") == BLOCK_SIZE
        assert raw[6] == 3  # name_len
        assert raw[7] == int(FileType.DIRECTORY)
        assert raw[8:11] == b"abc"
        # A second insert carves the slack: the first record shrinks to
        # its minimal 12-byte footprint.
        block.insert(0x0106, "zz", FileType.REGULAR)
        raw = block.to_block()
        assert int.from_bytes(raw[4:6], "little") == 12
        assert int.from_bytes(raw[12:16], "little") == 0x0106
        assert int.from_bytes(raw[16:18], "little") == BLOCK_SIZE - 12


class TestGoldenVectors:
    """Whole-structure hashes: any byte change anywhere trips these."""

    def test_superblock_vector(self):
        sb = Superblock(
            block_size=BLOCK_SIZE,
            block_count=4096,
            blocks_per_group=1024,
            inodes_per_group=256,
            journal_blocks=64,
            free_blocks=3958,
            free_inodes=1022,
            root_ino=2,
        )
        assert sha(sb.pack()) == "689510a4f724b4caa5ed8bc8024300ccc00015e2483de4ca62f4ae04b57a56c7"

    def test_inode_vector(self):
        inode = OnDiskInode(mode=make_mode(FileType.DIRECTORY, 0o755), nlink=2, size=4096, atime=1, mtime=1, ctime=1)
        inode.direct[0] = 130
        assert sha(inode.pack()) == "e6deacfe6a693667399d8a1be17e5d12ee524d491bca3ab5e2abd3e04721163f"

    def test_dirblock_vector(self):
        block = DirBlock()
        block.insert(2, ".", FileType.DIRECTORY)
        block.insert(2, "..", FileType.DIRECTORY)
        assert sha(block.to_block()) == "816efdac1c8da10ba9f0c792e0163a7b59d6fedf38fe7eccd4d22e56daf2b4c8"

    def test_mkfs_image_vector(self):
        """The entire mkfs output on a fixed geometry is reproducible."""
        from repro.blockdev.device import MemoryBlockDevice
        from repro.ondisk.mkfs import mkfs

        device = MemoryBlockDevice(block_count=2048)
        mkfs(device)
        assert sha(bytes(device.snapshot())) == "1da1f78b0607975572d2ec9fd5ede56d8cb7d683f58f3aefd8606526572ade1a"


def _regenerate():  # pragma: no cover — developer helper
    """Print current hashes (run manually when the format changes)."""
    from repro.blockdev.device import MemoryBlockDevice
    from repro.ondisk.mkfs import mkfs

    sb = Superblock(
        block_size=BLOCK_SIZE, block_count=4096, blocks_per_group=1024,
        inodes_per_group=256, journal_blocks=64, free_blocks=3958,
        free_inodes=1022, root_ino=2,
    )
    print("sb:", sha(sb.pack()))
    inode = OnDiskInode(mode=make_mode(FileType.DIRECTORY, 0o755), nlink=2, size=4096, atime=1, mtime=1, ctime=1)
    inode.direct[0] = 130
    print("inode:", sha(inode.pack()))
    block = DirBlock()
    block.insert(2, ".", FileType.DIRECTORY)
    block.insert(2, "..", FileType.DIRECTORY)
    print("dirblock:", sha(block.to_block()))
    device = MemoryBlockDevice(block_count=2048)
    mkfs(device)
    print("image:", sha(bytes(device.snapshot())))


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
