"""Small shared utilities: checksums, logical time, deterministic RNG,
crash-safe JSON writes.

Nothing here depends on any other repro module.
"""

from __future__ import annotations

import json
import os
import random
import zlib
from pathlib import Path


# ``checksum32(data[, running])``: the 32-bit checksum used by on-disk
# structures, CRC-32 via zlib.  The real ext4 uses crc32c; plain crc32
# has the same role here — detect silent corruption of metadata blocks —
# and is available without C extensions.  ``running`` (positional) is the
# checksum of what precedes ``data``: ``checksum32(b, checksum32(a)) ==
# checksum32(a + b)`` without the concatenation.  zlib's function itself,
# unwrapped: it already returns the unsigned 32-bit value, and every
# inode read and write computes one.
checksum32 = zlib.crc32


class LogicalClock:
    """A monotonically increasing integer clock.

    Filesystem timestamps in the reproduction are logical, not wall-clock:
    determinism is what makes the base/shadow equivalence checks exact.
    The clock ticks once per stamp by default.
    """

    def __init__(self, start: int = 1):
        self._now = start

    def now(self) -> int:
        """Return the current time without advancing."""
        return self._now

    def tick(self) -> int:
        """Advance the clock and return the new time."""
        self._now += 1
        return self._now


def atomic_write_json(path: str | Path, payload, *, sort_keys: bool = True) -> str:
    """Write ``payload`` as indented JSON to ``path`` atomically.

    The payload is serialized *before* the target is touched, staged in a
    sibling ``.tmp`` file, and :func:`os.replace`d into place — so a crash,
    a full disk, or an unserializable payload can never truncate an
    existing file: readers see either the previous complete file or the
    new one.  The temp file is removed on any failure.

    Every JSON artifact the repo writes (registry snapshots, forensic and
    sweep reproducer bundles) goes through here; ``sort_keys=False`` is for
    payloads that carry their own canonical ordering.
    """
    text = json.dumps(payload, indent=2, sort_keys=sort_keys) + "\n"
    target = str(path)
    tmp = f"{target}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return target


def make_rng(seed: int) -> random.Random:
    """A seeded ``random.Random`` — the only RNG source in the repo.

    Workload generators and fault schedules all derive from explicit seeds
    so that every experiment is replayable.
    """
    return random.Random(seed)
