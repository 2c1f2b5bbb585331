"""The page cache.

File data lives here between a ``write`` and its write-back, keyed by
``(ino, logical_block)``.  Three properties matter to RAE:

* **the gap** — dirty pages are application-visible state that is not yet
  on disk, which is exactly what the op log protects;
* **survival across contained reboot** — §2.3: "The data pages are shared
  between the base and the shadow because only applications can detect
  their corruption."  Contained reboot discards every *metadata* cache
  but calls :meth:`PageCache.detach`/:meth:`attach` to hand the live LRU
  mapping (and its per-inode index) to the rebooted base as it is — no
  copy, no re-insert, so LRU order survives;
* **read-ahead** — a sequential-read heuristic that exists purely as a
  base-side performance feature, to make the Figure 2 contrast honest.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from operator import attrgetter

from repro.ondisk.layout import BLOCK_SIZE


@dataclass
class Page:
    ino: int
    logical: int
    data: bytearray
    dirty: bool = False


_page_order = attrgetter("ino", "logical")


@dataclass
class DetachedPages:
    """A page cache's contents on their way across a contained reboot:
    the live LRU mapping and its per-inode index, handed over as they are."""

    pages: OrderedDict[tuple[int, int], Page]
    by_ino: dict[int, set[int]]


@dataclass
class PageCacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    readahead_loads: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PageCache:
    """LRU page cache with dirty tracking and a read-ahead window.

    The cache itself never touches the device: the filesystem supplies
    data on miss and consumes dirty pages at write-back.  This keeps all
    allocation policy (delayed allocation!) out of the cache.

    Cached pages are also indexed per inode (the shape of the kernel's
    per-inode ``address_space``), so dropping one file's pages — unlink,
    truncate, the recovery hand-off — costs that file's pages, not the
    whole cache.
    """

    def __init__(self, capacity_pages: int = 4096, readahead_window: int = 4):
        if capacity_pages <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity_pages
        self.readahead_window = readahead_window
        self._pages: OrderedDict[tuple[int, int], Page] = OrderedDict()
        self._by_ino: dict[int, set[int]] = {}  # ino -> its cached logical blocks
        self._last_read: dict[int, int] = {}  # ino -> last logical read (for read-ahead)
        self.stats = PageCacheStats()

    def __len__(self) -> int:
        return len(self._pages)

    def lookup(self, ino: int, logical: int) -> Page | None:
        key = (ino, logical)
        page = self._pages.get(key)
        if page is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._pages.move_to_end(key)
        return page

    def install(self, ino: int, logical: int, data: bytes, dirty: bool) -> Page:
        """Insert (or overwrite) a page."""
        if len(data) != BLOCK_SIZE:
            raise ValueError(f"page must be {BLOCK_SIZE} bytes, got {len(data)}")
        key = (ino, logical)
        page = self._pages.get(key)
        if page is None:
            page = Page(ino=ino, logical=logical, data=bytearray(data), dirty=dirty)
            self._pages[key] = page
            self._by_ino.setdefault(ino, set()).add(logical)
        else:
            page.data[:] = data
            page.dirty = page.dirty or dirty
        self._pages.move_to_end(key)
        self._evict_excess()
        return page

    def readahead_plan(self, ino: int, logical: int, file_blocks: int) -> list[int]:
        """Logical blocks to prefetch given a read at ``logical``.

        Sequential pattern (this read follows the previous one) extends
        the window; random access returns nothing.  The filesystem loads
        the planned blocks and installs them via :meth:`install`.
        """
        previous = self._last_read.get(ino)
        self._last_read[ino] = logical
        if previous is None or logical != previous + 1:
            return []
        plan = []
        for ahead in range(1, self.readahead_window + 1):
            candidate = logical + ahead
            if candidate >= file_blocks:
                break
            if (ino, candidate) not in self._pages:
                plan.append(candidate)
        self.stats.readahead_loads += len(plan)
        return plan

    def dirty_pages(self) -> list[Page]:
        """Dirty pages in (ino, logical) order — deterministic write-back.
        Only the dirty pages are sorted: the cost follows what the commit
        writes, not what the cache holds."""
        dirty = [page for page in self._pages.values() if page.dirty]
        dirty.sort(key=_page_order)
        return dirty

    def dirty_count(self) -> int:
        return sum(1 for page in self._pages.values() if page.dirty)

    def mark_clean(self, ino: int, logical: int) -> None:
        page = self._pages.get((ino, logical))
        if page is not None:
            page.dirty = False

    def drop_ino(self, ino: int, from_logical: int = 0) -> None:
        """Drop pages of one file at/after ``from_logical`` (truncate, unlink)."""
        victims = [logical for logical in self._by_ino.get(ino, ()) if logical >= from_logical]
        for logical in victims:
            self._remove(ino, logical)
        self._last_read.pop(ino, None)

    def drop_inos(self, inos: set[int]) -> None:
        """Drop every page of the given files (hand-off)."""
        for ino in inos:
            for logical in self._by_ino.pop(ino, ()):
                del self._pages[(ino, logical)]
            self._last_read.pop(ino, None)

    def detach(self) -> DetachedPages:
        """Contained reboot: hand the live mapping and its index out,
        leaving this cache empty."""
        detached = DetachedPages(self._pages, self._by_ino)
        self._pages = OrderedDict()
        self._by_ino = {}
        self._last_read = {}
        return detached

    def attach(self, detached: DetachedPages) -> None:
        """Adopt pages preserved across a contained reboot as they are:
        same objects, same LRU order, no copy."""
        if self._pages:
            raise ValueError("attach() adopts into an empty page cache only")
        self._pages = detached.pages
        self._by_ino = detached.by_ino
        self._evict_excess()

    def drop_all(self) -> None:
        self._pages.clear()
        self._by_ino.clear()
        self._last_read.clear()

    def _remove(self, ino: int, logical: int) -> None:
        del self._pages[(ino, logical)]
        logicals = self._by_ino[ino]
        logicals.discard(logical)
        if not logicals:
            del self._by_ino[ino]

    def _evict_excess(self) -> None:
        while len(self._pages) > self.capacity:
            victim = None
            for key, page in self._pages.items():
                if not page.dirty:
                    victim = key
                    break
            if victim is None:
                return  # all dirty; stay over capacity until write-back
            self._remove(*victim)
            self.stats.evictions += 1
