"""Tests for the base's cache components: dentry, inode, page caches."""

import random

import pytest

from repro.basefs.dentry_cache import DentryCache
from repro.basefs.inode_cache import InodeCache
from repro.basefs.page_cache import PageCache
from repro.ondisk.inode import FileType, OnDiskInode, make_mode
from repro.ondisk.layout import BLOCK_SIZE
from tests.reference_ondisk import reference_dirty_pages


def recounted_index(cache: PageCache) -> dict[int, set[int]]:
    """The per-inode index recomputed from the cached keys: the oracle
    the maintained ``PageCache._by_ino`` is held to."""
    index: dict[int, set[int]] = {}
    for ino, logical in cache._pages:
        index.setdefault(ino, set()).add(logical)
    return index


class TestDentryCache:
    def test_positive_lookup(self):
        cache = DentryCache()
        cache.insert(2, "a", 10)
        assert cache.lookup(2, "a") == 10
        assert cache.stats.hits == 1

    def test_negative_lookup(self):
        cache = DentryCache()
        cache.insert_negative(2, "ghost")
        assert cache.lookup(2, "ghost") == DentryCache.NEGATIVE
        assert cache.stats.negative_hits == 1

    def test_miss_returns_none(self):
        cache = DentryCache()
        assert cache.lookup(2, "nothing") is None
        assert cache.stats.misses == 1

    def test_insert_rejects_negative_via_positive_api(self):
        cache = DentryCache()
        with pytest.raises(ValueError):
            cache.insert(2, "a", 0)

    def test_invalidate_specific(self):
        cache = DentryCache()
        cache.insert(2, "a", 10)
        cache.invalidate(2, "a")
        assert cache.lookup(2, "a") is None
        assert cache.stats.invalidations == 1

    def test_invalidate_dir_sweeps(self):
        cache = DentryCache()
        cache.insert(2, "a", 10)
        cache.insert(2, "b", 11)
        cache.insert(3, "c", 12)
        cache.invalidate_dir(2)
        assert cache.lookup(2, "a") is None
        assert cache.lookup(3, "c") == 12

    def test_invalidate_ino_sweeps_targets(self):
        cache = DentryCache()
        cache.insert(2, "a", 10)
        cache.insert(3, "hard", 10)
        cache.invalidate_ino(10)
        assert cache.lookup(2, "a") is None
        assert cache.lookup(3, "hard") is None

    def test_lru_eviction(self):
        cache = DentryCache(capacity=2)
        cache.insert(2, "a", 10)
        cache.insert(2, "b", 11)
        cache.lookup(2, "a")  # a is now MRU
        cache.insert(2, "c", 12)
        assert cache.lookup(2, "b") is None
        assert cache.lookup(2, "a") == 10


class TestInodeCache:
    def make_inode(self):
        return OnDiskInode(mode=make_mode(FileType.REGULAR), nlink=1)

    def test_insert_get(self):
        cache = InodeCache()
        slot = cache.insert(5, self.make_inode())
        assert cache.get(5) is slot
        assert cache.stats.hits == 1

    def test_double_insert_rejected(self):
        cache = InodeCache()
        cache.insert(5, self.make_inode())
        with pytest.raises(ValueError):
            cache.insert(5, self.make_inode())

    def test_dirty_tracking_ordered(self):
        cache = InodeCache()
        cache.insert(9, self.make_inode())
        cache.insert(4, self.make_inode())
        cache.mark_dirty(9)
        cache.mark_dirty(4)
        assert [slot.ino for slot in cache.dirty_inodes()] == [4, 9]
        cache.clean(4)
        assert [slot.ino for slot in cache.dirty_inodes()] == [9]

    def test_pins_prevent_eviction(self):
        cache = InodeCache(capacity=2)
        cache.insert(1, self.make_inode())
        cache.pin(1)
        cache.insert(2, self.make_inode())
        cache.insert(3, self.make_inode())  # would evict LRU=1, but pinned
        assert 1 in cache and 2 not in cache

    def test_dirty_never_evicted(self):
        cache = InodeCache(capacity=1)
        cache.insert(1, self.make_inode(), dirty=True)
        cache.insert(2, self.make_inode(), dirty=True)
        assert 1 in cache and 2 in cache  # over capacity rather than lose dirty

    def test_unpin_validation(self):
        cache = InodeCache()
        cache.insert(1, self.make_inode())
        with pytest.raises(ValueError):
            cache.unpin(1)
        with pytest.raises(KeyError):
            cache.pin(99)

    def test_drop_all(self):
        cache = InodeCache()
        cache.insert(1, self.make_inode(), dirty=True)
        cache.drop_all()
        assert len(cache) == 0


class TestPageCache:
    def page(self, tag: int) -> bytes:
        return bytes([tag]) * BLOCK_SIZE

    def test_install_lookup(self):
        cache = PageCache()
        cache.install(5, 0, self.page(1), dirty=True)
        page = cache.lookup(5, 0)
        assert page is not None and page.dirty

    def test_dirty_pages_sorted(self):
        cache = PageCache()
        cache.install(5, 1, self.page(1), dirty=True)
        cache.install(4, 0, self.page(2), dirty=True)
        cache.install(5, 0, self.page(3), dirty=False)
        assert [(p.ino, p.logical) for p in cache.dirty_pages()] == [(4, 0), (5, 1)]

    def test_overwrite_keeps_dirty(self):
        cache = PageCache()
        cache.install(1, 0, self.page(1), dirty=True)
        cache.install(1, 0, self.page(2), dirty=False)
        assert cache.lookup(1, 0).dirty  # dirty is sticky until mark_clean

    def test_mark_clean(self):
        cache = PageCache()
        cache.install(1, 0, self.page(1), dirty=True)
        cache.mark_clean(1, 0)
        assert cache.dirty_count() == 0

    def test_eviction_spares_dirty(self):
        cache = PageCache(capacity_pages=2)
        cache.install(1, 0, self.page(1), dirty=True)
        cache.install(1, 1, self.page(2), dirty=False)
        cache.install(1, 2, self.page(3), dirty=False)
        assert cache.lookup(1, 0) is not None  # dirty survived
        assert len(cache) == 2

    def test_drop_ino_range(self):
        cache = PageCache()
        for logical in range(4):
            cache.install(7, logical, self.page(logical), dirty=True)
        cache.drop_ino(7, from_logical=2)
        assert cache.lookup(7, 1) is not None
        assert cache.lookup(7, 2) is None

    def test_drop_inos_is_drop_ino_per_file(self):
        rng = random.Random(5)
        one_pass, per_file = PageCache(), PageCache()
        for _ in range(300):
            ino, logical = rng.randrange(1, 12), rng.randrange(30)
            for cache in (one_pass, per_file):
                cache.install(ino, logical, self.page(logical), dirty=logical % 3 == 0)
                cache.readahead_plan(ino, logical, file_blocks=30)
        victims = {2, 3, 5, 7, 11, 99}
        one_pass.drop_inos(victims)
        for ino in sorted(victims):
            per_file.drop_ino(ino)
        assert list(one_pass._pages) == list(per_file._pages)
        assert one_pass._last_read == per_file._last_read

    def test_readahead_sequential_only(self):
        cache = PageCache(readahead_window=2)
        assert cache.readahead_plan(1, 0, file_blocks=10) == []  # first access
        assert cache.readahead_plan(1, 1, file_blocks=10) == [2, 3]  # sequential
        assert cache.readahead_plan(1, 7, file_blocks=10) == []  # random jump

    def test_readahead_clamped_at_eof(self):
        cache = PageCache(readahead_window=4)
        cache.readahead_plan(1, 0, file_blocks=3)
        assert cache.readahead_plan(1, 1, file_blocks=3) == [2]

    def test_detach_attach_roundtrip(self):
        cache = PageCache()
        cache.install(1, 0, self.page(1), dirty=True)
        pages = cache.detach()
        assert len(cache) == 0
        cache.attach(pages)
        assert cache.lookup(1, 0) is not None

    def test_attach_keeps_page_identity_and_lru_order(self):
        """A contained reboot hands the mapping over as it is: the new
        cache holds the same page objects in the same LRU order, so its
        first eviction takes the page the old cache would have taken."""
        rng = random.Random(3)
        old = PageCache(capacity_pages=64)
        for _ in range(200):
            ino, logical = rng.randrange(1, 6), rng.randrange(30)
            if rng.random() < 0.7:
                old.install(ino, logical, self.page(logical), dirty=False)
            else:
                old.lookup(ino, logical)
        before = [(key, id(page)) for key, page in old._pages.items()]
        assert before != sorted(before)  # LRU order is not key order
        new = PageCache(capacity_pages=64)
        new.attach(old.detach())
        assert [(key, id(page)) for key, page in new._pages.items()] == before
        assert len(old) == 0 and old._by_ino == {}
        assert new._by_ino == recounted_index(new)
        lru_key = before[0][0]
        new.install(99, 0, self.page(9), dirty=False)  # at capacity: evicts one page
        assert lru_key not in new._pages and len(new) == 64

    def test_attach_requires_an_empty_cache(self):
        donor, busy = PageCache(), PageCache()
        donor.install(1, 0, self.page(1), dirty=False)
        busy.install(2, 0, self.page(2), dirty=False)
        with pytest.raises(ValueError):
            busy.attach(donor.detach())

    @pytest.mark.parametrize("seed", range(6))
    def test_dirty_pages_match_the_sort_everything_reference(self, seed):
        """Same page objects in the same order as sorting every cached
        key, across installs, overwrites, cleaning, eviction, drops and a
        contained reboot's detach/attach; and after every step the
        per-inode index is the one a recount of the cached keys gives."""
        rng = random.Random(seed)
        cache = PageCache(capacity_pages=rng.choice([16, 64, 4096]))
        for _step in range(400):
            ino, logical = rng.randrange(1, 9), rng.randrange(40)
            action = rng.choices(
                ["install", "lookup", "mark_clean", "drop_ino", "drop_inos", "drop_all", "reboot"],
                weights=[60, 15, 15, 4, 2, 1, 4],
            )[0]
            if action == "install":
                cache.install(ino, logical, self.page(rng.randrange(256)), dirty=rng.random() < 0.5)
            elif action == "lookup":
                cache.lookup(ino, logical)
            elif action == "mark_clean":
                cache.mark_clean(ino, logical)
            elif action == "drop_ino":
                cache.drop_ino(ino, from_logical=rng.choice([0, logical]))
            elif action == "drop_inos":
                cache.drop_inos({ino, rng.randrange(1, 9)})
            elif action == "drop_all":
                cache.drop_all()
            else:  # contained reboot: the rebooted base's fresh cache adopts the pages
                fresh = PageCache(capacity_pages=cache.capacity)
                fresh.attach(cache.detach())
                cache = fresh
            dirty = cache.dirty_pages()
            expected = reference_dirty_pages(cache)
            assert [id(page) for page in dirty] == [id(page) for page in expected]
            assert cache._by_ino == recounted_index(cache), (seed, _step, action)

    def test_rejects_bad_page_size(self):
        cache = PageCache()
        with pytest.raises(ValueError):
            cache.install(1, 0, b"small", dirty=False)
