"""Physical metadata journal (JBD2-flavoured).

The journal occupies a fixed region at the front of group 0.  Block 0 of
the region is a journal superblock; transactions are laid out sequentially
after it::

    [ JSB ][ D | data... | C ][ D | data... | C ] ...

* **descriptor** (D): magic, sequence number, tag count, then the home
  block number of each following data block, then a CRC;
* **data**: the new contents of each journaled (metadata) block;
* **commit** (C): magic, sequence number, a CRC over the transaction's
  data blocks, and its own header CRC.

A transaction is *committed* iff its commit block is present, sequenced,
and both checksums verify.  Replay scans from the journal superblock's
starting sequence, applies every committed transaction in order to the
home locations, and stops at the first hole — which yields the prefix
semantics the journal-atomicity property test (DESIGN §5.5) asserts.

There is no wraparound: when the region cannot fit the next transaction,
the journal *manager* (base side) checkpoints dirty metadata and calls
:func:`reset_journal`, which bumps the starting sequence and rewinds the
write position.  That is a simplification of JBD2's circular log, but it
preserves the property RAE relies on: the on-disk state reachable by
replay is always a transaction-consistent prefix.

The journal is metadata-only (ordered mode): file data blocks are written
in place before the transaction that references them commits.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.blockdev.device import BlockDevice
from repro.ondisk.layout import BLOCK_SIZE, DiskLayout
from repro.util import checksum32

JOURNAL_MAGIC = 0x10DE_10AD
JSB_MAGIC = 0x1051_B10C

_BLOCKTYPE_DESCRIPTOR = 1
_BLOCKTYPE_COMMIT = 2

_JSB_FORMAT = "<IIQI"  # magic, version, start_seq, crc
_DESC_HEADER = "<IIQII"  # magic, blocktype, seq, ntags, flags  (crc after tags)
_COMMIT_FORMAT = "<IIQII"  # magic, blocktype, seq, data_crc, header_crc

#: Descriptor flag: this transaction is a non-final chunk of a larger
#: atomic commit group; replay must not apply the group until a final
#: (flag-less) member arrives.
FLAG_MORE_CHUNKS = 1

_DESC_HEADER_SIZE = struct.calcsize(_DESC_HEADER)
MAX_TAGS = (BLOCK_SIZE - _DESC_HEADER_SIZE - 4) // 4


@dataclass
class JournalTxn:
    """One committed transaction: home-block number -> new contents."""

    seq: int
    writes: dict[int, bytes] = field(default_factory=dict)

    def apply(self, device: BlockDevice) -> None:
        """Write every journaled block to its home location."""
        for block, data in self.writes.items():
            device.write_block(block, data)


def _pack_jsb(start_seq: int) -> bytes:
    body = struct.pack(_JSB_FORMAT, JSB_MAGIC, 1, start_seq, 0)
    crc = checksum32(body[:-4])
    body = body[:-4] + struct.pack("<I", crc)
    return body + b"\x00" * (BLOCK_SIZE - len(body))


def _unpack_jsb(block: bytes) -> int:
    """Return the starting sequence, or raise ValueError."""
    magic, version, start_seq, stored_crc = struct.unpack_from(_JSB_FORMAT, block)
    if magic != JSB_MAGIC:
        raise ValueError(f"bad journal superblock magic 0x{magic:08x}")
    if version != 1:
        raise ValueError(f"unsupported journal version {version}")
    size = struct.calcsize(_JSB_FORMAT)
    if checksum32(block[: size - 4]) != stored_crc:
        raise ValueError("journal superblock checksum mismatch")
    return start_seq


def reset_journal(device: BlockDevice, layout: DiskLayout, start_seq: int = 1) -> None:
    """(Re)initialize the journal region: fresh superblock, no transactions.

    Old transaction blocks are left in place — a stale descriptor after the
    reset point cannot replay because its sequence predates ``start_seq``.
    """
    device.write_block(layout.journal_start, _pack_jsb(start_seq))


class JournalWriter:
    """Appends transactions to the journal region.

    The writer owns the region's write cursor and sequence counter.  It is
    used by the base's journal manager only — the shadow never journals
    (it never writes at all).
    """

    def __init__(self, device: BlockDevice, layout: DiskLayout):
        self.device = device
        self.layout = layout
        start_seq = _unpack_jsb(device.read_block(layout.journal_start))
        self.next_seq = start_seq
        self._cursor = layout.journal_start + 1
        self._end = layout.journal_start + layout.journal_blocks

    @property
    def free_blocks(self) -> int:
        """Journal blocks still available before a reset is required."""
        return self._end - self._cursor

    def blocks_needed(self, nwrites: int) -> int:
        """Journal footprint of a transaction with ``nwrites`` blocks."""
        if nwrites > MAX_TAGS:
            raise ValueError(f"transaction of {nwrites} blocks exceeds MAX_TAGS {MAX_TAGS}")
        return 1 + nwrites + 1  # descriptor + data + commit

    def can_fit(self, nwrites: int) -> bool:
        return self.blocks_needed(nwrites) <= self.free_blocks

    def append(self, writes: dict[int, bytes], more: bool = False) -> int:
        """Write one transaction; returns its sequence number.

        The commit block is written *after* the descriptor and data and is
        followed by a device flush, giving the usual write-ahead ordering.
        The caller must have verified :meth:`can_fit`.

        ``more`` marks this transaction as a non-final chunk of an atomic
        commit group: replay withholds the whole group until a final
        (``more=False``) member commits, so a crash between chunks can
        never surface a partially-applied commit.
        """
        if not writes:
            raise ValueError("empty transaction")
        if not self.can_fit(len(writes)):
            raise ValueError(
                f"transaction of {len(writes)} blocks does not fit "
                f"({self.free_blocks} journal blocks free); checkpoint first"
            )
        for block, data in writes.items():
            if len(data) != BLOCK_SIZE:
                raise ValueError(f"journaled block {block} has {len(data)} bytes")
            if self.layout.journal_start <= block < self._end:
                raise ValueError(f"refusing to journal a write into the journal region (block {block})")

        seq = self.next_seq
        targets = sorted(writes)  # deterministic on-journal order

        flags = FLAG_MORE_CHUNKS if more else 0
        descriptor = struct.pack(_DESC_HEADER, JOURNAL_MAGIC, _BLOCKTYPE_DESCRIPTOR, seq, len(targets), flags)
        descriptor += struct.pack(f"<{len(targets)}I", *targets)
        descriptor += struct.pack("<I", checksum32(descriptor))
        descriptor += b"\x00" * (BLOCK_SIZE - len(descriptor))
        self.device.write_block(self._cursor, descriptor)
        self._cursor += 1

        data_crc = 0
        for block in targets:
            self.device.write_block(self._cursor, writes[block])
            data_crc = checksum32(writes[block], checksum32(struct.pack("<I", data_crc)))
            self._cursor += 1

        commit = struct.pack(_COMMIT_FORMAT, JOURNAL_MAGIC, _BLOCKTYPE_COMMIT, seq, data_crc, 0)
        crc = checksum32(commit[:-4])
        commit = commit[:-4] + struct.pack("<I", crc)
        commit += b"\x00" * (BLOCK_SIZE - len(commit))
        # Barrier before the commit record: descriptor+data must be durable
        # before the commit block can claim the transaction happened.
        self.device.flush()
        self.device.write_block(self._cursor, commit)
        self._cursor += 1
        self.device.flush()

        self.next_seq += 1
        return seq

    def reset(self) -> None:
        """Checkpoint boundary: rewind the region under a fresh sequence."""
        reset_journal(self.device, self.layout, start_seq=self.next_seq)
        self.device.flush()
        self._cursor = self.layout.journal_start + 1


def replay_journal(device: BlockDevice, layout: DiskLayout, apply: bool = True) -> list[JournalTxn]:
    """Scan the journal and (optionally) apply committed transactions.

    Returns the committed transactions found, in order.  Scanning stops at
    the first block that is not a valid, correctly-sequenced descriptor, or
    at an unverifiable commit — everything after a torn transaction is
    ignored, giving prefix semantics.
    """
    start_seq = _unpack_jsb(device.read_block(layout.journal_start))
    txns: list[JournalTxn] = []
    pending_group: list[JournalTxn] = []  # chunks awaiting their final member
    cursor = layout.journal_start + 1
    end = layout.journal_start + layout.journal_blocks
    expected_seq = start_seq

    while cursor < end:
        raw = device.read_block(cursor)
        try:
            magic, blocktype, seq, ntags, flags = struct.unpack_from(_DESC_HEADER, raw)
        except struct.error:
            break
        if magic != JOURNAL_MAGIC or blocktype != _BLOCKTYPE_DESCRIPTOR or seq != expected_seq:
            break
        if not 0 < ntags <= MAX_TAGS:
            break
        desc_len = _DESC_HEADER_SIZE + 4 * ntags
        stored_crc = struct.unpack_from("<I", raw, desc_len)[0]
        if checksum32(raw[:desc_len]) != stored_crc:
            break
        targets = list(struct.unpack_from(f"<{ntags}I", raw, _DESC_HEADER_SIZE))
        if cursor + 1 + ntags >= end:
            break

        writes: dict[int, bytes] = {}
        data_crc = 0
        for i, target in enumerate(targets):
            data = device.read_block(cursor + 1 + i)
            writes[target] = data
            data_crc = checksum32(data, checksum32(struct.pack("<I", data_crc)))

        commit_raw = device.read_block(cursor + 1 + ntags)
        try:
            cmagic, cbt, cseq, stored_data_crc, commit_crc = struct.unpack_from(_COMMIT_FORMAT, commit_raw)
        except struct.error:
            break
        commit_size = struct.calcsize(_COMMIT_FORMAT)
        if (
            cmagic != JOURNAL_MAGIC
            or cbt != _BLOCKTYPE_COMMIT
            or cseq != expected_seq
            or stored_data_crc != data_crc
            or checksum32(commit_raw[: commit_size - 4]) != commit_crc
        ):
            break

        pending_group.append(JournalTxn(seq=expected_seq, writes=writes))
        if not flags & FLAG_MORE_CHUNKS:
            # Final chunk: the whole group becomes visible atomically.
            for txn in pending_group:
                txns.append(txn)
                if apply:
                    txn.apply(device)
            pending_group = []
        cursor += 1 + ntags + 1
        expected_seq += 1

    # A trailing pending_group (crash between chunks) is discarded whole.
    if apply and txns:
        device.flush()
    return txns
