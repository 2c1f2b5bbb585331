"""The base's journaling manager (ordered mode) with validate-on-sync.

Sits between the filesystem's commit path and the on-disk journal format:

1. the filesystem hands it the transaction — every dirty metadata block
   (inode-table blocks, bitmaps, directory blocks, indirect blocks, the
   superblock), *after* file data has already been written in place
   (ordered mode: data before metadata commit);
2. **validate-on-sync** runs: the fault model (§3.1) assumes "errors are
   detected before being persisted to disk, which can be achieved by
   techniques like validating upon sync" — the validator parses and
   cross-checks the transaction's blocks, raising
   :class:`InvariantViolation` *before* anything touches the journal, so
   a corrupted update never becomes durable;
3. the transaction is appended (chunked if it exceeds journal capacity —
   a fidelity concession over JBD2's circular log, documented in
   DESIGN.md), then home-location writes go out through the buffer
   cache, then the journal is reset once it runs low.

Because home writes happen immediately after the journal commit, the
journal's only replay obligation is the window between append and home
write-back — exactly the window a contained reboot or crash lands in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.blockdev.cache import BufferCache
from repro.blockdev.device import BlockDevice
from repro.errors import InvariantViolation
from repro.ondisk.journal import JournalWriter, replay_journal
from repro.ondisk.layout import DiskLayout

# (Multi-chunk commits form an atomic replay group — see
# repro.ondisk.journal.FLAG_MORE_CHUNKS — so a whole commit must fit the
# journal region; the default geometry sizes the journal accordingly.)

Validator = Callable[[dict[int, bytes]], list[str]]


@dataclass
class JournalStats:
    commits: int = 0
    chunks: int = 0
    blocks_journaled: int = 0
    resets: int = 0
    validation_failures: int = 0


class JournalManager:
    def __init__(
        self,
        device: BlockDevice,
        layout: DiskLayout,
        validator: Validator | None = None,
    ):
        self.device = device
        self.layout = layout
        self.writer = JournalWriter(device, layout)
        self.validator = validator
        self.stats = JournalStats()

    @property
    def max_chunk(self) -> int:
        """Blocks per journal transaction (one chunk of a commit group).

        Bounded by the descriptor's tag budget (``MAX_TAGS``) and, for
        small journals, by the region itself (JSB + descriptor + commit
        overhead).  A commit larger than this becomes a multi-chunk
        atomic group — possible only when the region exceeds the tag
        budget, which is why chunking exists at all.
        """
        from repro.ondisk.journal import MAX_TAGS

        return min(MAX_TAGS, self.layout.journal_blocks - 3)

    def commit(self, txn: dict[int, bytes], cache: BufferCache) -> None:
        """Validate, journal, and write home one metadata transaction.

        ``cache`` is the buffer cache holding the dirty home blocks; after
        the journal append succeeds, the corresponding cache blocks are
        written back so on-disk state catches up immediately.
        """
        if not txn:
            return
        if self.validator is not None:
            problems = self.validator(txn)
            if problems:
                self.stats.validation_failures += 1
                raise InvariantViolation(
                    "validate-on-sync rejected the transaction: " + "; ".join(problems[:5]),
                    check="validate-on-sync",
                )

        blocks = sorted(txn)
        chunk_starts = list(range(0, len(blocks), self.max_chunk))
        if len(chunk_starts) > 1:
            # A multi-chunk commit must fit the journal in one piece: its
            # chunks form an atomic replay group, and a mid-group reset
            # would discard already-appended members.
            needed = sum(
                self.writer.blocks_needed(min(self.max_chunk, len(blocks) - start))
                for start in chunk_starts
            )
            if needed > self.writer.free_blocks:
                self.writer.reset()
                self.stats.resets += 1
            if needed > self.writer.free_blocks:
                raise InvariantViolation(
                    f"commit of {len(blocks)} metadata blocks exceeds the journal "
                    f"({self.writer.free_blocks} blocks free after reset)",
                    check="journal-capacity",
                )
        for index, start in enumerate(chunk_starts):
            chunk = blocks[start : start + self.max_chunk]
            if not self.writer.can_fit(len(chunk)):
                if index > 0:
                    # Unreachable given the group pre-check above, but a
                    # reset mid-group would orphan the appended members —
                    # never do it silently.
                    raise InvariantViolation(
                        "journal exhausted mid commit-group", check="journal-capacity"
                    )
                self.writer.reset()
                self.stats.resets += 1
            more = index < len(chunk_starts) - 1
            self.writer.append({b: txn[b] for b in chunk}, more=more)
            self.stats.chunks += 1
            self.stats.blocks_journaled += len(chunk)
        self.stats.commits += 1

        # Home writes: the journaled copy is durable, so the home locations
        # may now be updated in any order.  The append loop above ran at
        # least once (`if not txn: return` guards the empty case), so every
        # block below already sits behind a flushed commit record.
        for block in blocks:
            cache.writeback(block)
        self.device.flush()
        # The journal region is reclaimed lazily: the next commit that does
        # not fit triggers a reset, which is safe because home writes always
        # complete before commit() returns.

    @staticmethod
    def recover(device: BlockDevice, layout: DiskLayout) -> int:
        """Mount-time / contained-reboot journal replay; returns #txns."""
        return len(replay_journal(device, layout, apply=True))
