"""Page-granular storage backend and its one resident-page ledger.

Every read and write goes through fixed-size pages so that storage traffic
can be counted exactly. A page starts with a 16-byte header:

    byte  0      reserved (zero)
    bytes 1-2    record count, little-endian uint16
    bytes 3-15   reserved (zero)

The remaining bytes are the record region. Records are fixed width per file
and never span pages, so every page parses on its own.

`PageStore` and the layout helpers here are the only code that reads or
writes pages or knows their layout. The store: `read_pages` returns a
batch of page images as one uint8 array, `read_records` the counted
records of a batch of pages as one array, `read_spans` the record slots
and counts of the pages covering ascending spans of a fixed-width vector
(CSR rows, state rows, aux tables and edge-log entries all read through
it), `read_vector` a whole vector as the one span [0, n), `append` appends
a page image, `append_records` fixed-width records, and `write_back`
overwrites pages. The helpers: `pack_pages` packs records into whole pages
and `page_images` builds pages from their record regions and counts (a
state commit); `fill_page` copies records into a page in place (the
multi-log's top pages); `record_counts` reads the counts of an array of
images, and `page_records` parses the counted records of a list of pages,
for `read_records` and the multi-log's resident tails. A count that
overflows its page is corrupt.

The index helpers serve the engine's set operations over vertex ids,
interval ids and packed `row << 32 | nbr` keys: `ranges` concatenates
index ranges, `cover` gives the distinct ids a set of ranges covers,
`run_starts` marks where runs of equal values start, `sorted_unique` gives
the distinct values ascending, and `member` tests membership in an
ascending set. The last two sort and search where numpy's plain
`np.unique`, `np.union1d` and `np.isin` take a hash path that is many
times slower on these arrays.

The stores of one `StoreRegistry` share one ledger of resident pages under
one memory budget. The other holders of memory report what they hold
through `StoreRegistry.hold`, and the ledger's room is the budget less
those holds and less its resident pages: a store keeps a copy of a page
after the page's first read or append while there is room, and serves
later reads of it from memory. Admission never evicts; a budget set lower
(`StoreRegistry.set_budget`) or a hold that grows does, when the resident
pages no longer fit: it gives back the newest-admitted pages first, across
all stores. The engine scans the same pages every superstep, and under a
cyclic scan a fixed resident set gets as many hits per pass as it holds
pages, where LRU keeps nothing useful; so the pages admitted first, that
fixed set, are the last to go.

Appends are write-behind: while the ledger has room, `append` admits the
new page dirty and writes nothing, and with no room it writes the page at
once. `write_back` updates a resident page in memory and marks it dirty.
A dirty page is written, once and in page order within its store, when it
is given back, released, closed or dropped, unless a drop deletes the file.
So an appended page costs at most one storage write, and a log page
consumed before its file is deleted costs none; until it is written the
file may lack it. The budget is 0 unless set, so outside an engine run no
page is resident and every append is written at once.

`read_page`, `append_page` and `write_page` are the counted storage
accesses (the per-layer tracer wraps them and counts each call as one
page); a resident hit skips them and is counted apart, and a deferred
append reaches storage through `write_page`, so coalesced reads and page
checksums have one place to go.
"""

from __future__ import annotations

import os
import struct
from bisect import bisect_left
from itertools import chain

import numpy as np

from .errors import AddressError, ContractViolation, CorruptPageError, MissingStoreError

PAGE_HEADER = 16
DEFAULT_PAGE_SIZE = 16384

# the record count field of the page header
PAGE_COUNT = struct.Struct("<xH")


def page_capacity(page_size: int, record_width: int) -> int:
    """Records of the given width that fit in one page's record region."""
    return (page_size - PAGE_HEADER) // record_width


def pack_pages(raw, width: int, page_size: int) -> np.ndarray:
    """Pack fixed-width records (a bytes-like of whole records) into page
    images with one array copy: every page full but the last, each with its
    record count in the header. Returns uint8[pages, page_size]."""
    cap = page_capacity(page_size, width)
    data = np.frombuffer(raw, np.uint8)
    full, rest = divmod(len(data) // width, cap)
    pages = np.zeros((full + (rest > 0), page_size), np.uint8)
    pages[:full, PAGE_HEADER : PAGE_HEADER + cap * width] = data[: full * cap * width].reshape(full, cap * width)
    pages[:, 1], pages[:, 2] = cap & 0xFF, cap >> 8
    if rest:
        pages[full, PAGE_HEADER : PAGE_HEADER + rest * width] = data[full * cap * width : (full * cap + rest) * width]
        PAGE_COUNT.pack_into(pages[full], 0, rest)
    return pages


def page_images(regions, counts, page_size: int) -> list[bytes]:
    """Page images, one bytes object each: page i with record count
    counts[i], record region regions[i] (a bytes-like at most a region
    long) and zeros after it."""
    pad = bytes(PAGE_HEADER - PAGE_COUNT.size)
    return [b"".join((PAGE_COUNT.pack(c), pad, r, bytes(page_size - PAGE_HEADER - len(r)))) for r, c in zip(regions, counts)]


def fill_page(page: bytearray, fill: int, raw, width: int) -> int:
    """Copy the whole records raw into the page image page after its first
    fill records, in place, and set its record count; returns the count."""
    off = PAGE_HEADER + fill * width
    page[off : off + len(raw)] = raw
    fill += len(raw) // width
    PAGE_COUNT.pack_into(page, 0, fill)
    return fill


def page_records(pages: list, dtype, where: str, ids) -> np.ndarray:
    """The counted records of the page images pages (a list of page
    buffers), concatenated in order as one read-only array. A count that
    overflows its page is corrupt; the error names page ids[i] of where."""
    dtype = np.dtype(dtype)
    nbytes = [(p[1] | p[2] << 8) * dtype.itemsize for p in pages]
    over = [i for i, (p, n) in enumerate(zip(pages, nbytes)) if n > len(p) - PAGE_HEADER]
    if over:
        raise CorruptPageError(f"{where}: the record count of page {ids[over[0]]} overflows it")
    return np.frombuffer(b"".join([memoryview(p)[PAGE_HEADER : PAGE_HEADER + n] for p, n in zip(pages, nbytes)]), dtype)


def ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenation of the index ranges [starts[i], starts[i] + lens[i])."""
    ends = np.cumsum(lens)
    return np.arange(int(ends[-1]) if len(ends) else 0) + np.repeat(starts - (ends - lens), lens)


def cover(first: np.ndarray, end: np.ndarray) -> np.ndarray:
    """The distinct ids of the ranges [first[i], end[i]), ascending: those
    where more ranges have started than ended."""
    n = int(end.max(initial=0)) + 1
    return np.flatnonzero(np.cumsum(np.bincount(first, minlength=n) - np.bincount(end, minlength=n)))


def run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the positions where a run of equal values starts."""
    first = np.ones(len(values), bool)
    first[1:] = values[1:] != values[:-1]
    return first


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending: np.unique by sorting, not by numpy's
    hash path."""
    values = np.sort(values)
    return values[run_starts(values)]


def member(values, sorted_set: np.ndarray) -> np.ndarray:
    """Mask of the values found in the ascending sorted_set: np.isin by one
    binary search, not by numpy's hash path."""
    if len(sorted_set) == 0:
        return np.zeros(np.shape(values), bool)
    at = np.minimum(np.searchsorted(sorted_set, values), len(sorted_set) - 1)
    return sorted_set[at] == values


def record_counts(images: np.ndarray) -> np.ndarray:
    """The header record count of each page image (rows of uint8)."""
    return images[:, 1].astype(np.int64) | images[:, 2].astype(np.int64) << 8


class PageStore:
    """A flat file of concatenated pages with read, write and hit counters.

    The file is unbuffered and every storage access moves one page in one
    positional call (os.pread/os.pwrite), so no call seeks. The store's
    resident pages are its share of the registry's one ledger (see the
    module doc); a store opened without a registry keeps none. It holds
    them as immutable page images, its frames, in admission order, each with
    the registry's admission number, so what a shrinking budget takes back
    is always a suffix of them. A page is newer in memory than in the file,
    or missing from it, only while it is dirty: appended by `append` or
    updated by `write_back`, and not yet given back.
    """

    def __init__(self, path: str, page_size: int = DEFAULT_PAGE_SIZE, create: bool = True, registry=None):
        self.path = path
        self.page_size = page_size
        self.pages_read = 0
        self.pages_written = 0
        self.pages_hit = 0
        self._registry = registry
        try:
            self._f = open(path, "w+b" if create else "r+b", buffering=0)
        except FileNotFoundError:
            raise MissingStoreError(f"{path}: no such page file") from None
        self._fd = self._f.fileno()
        size = os.fstat(self._fd).st_size
        if size % page_size != 0:
            self._f.close()
            raise CorruptPageError(f"{path}: length {size} is not a page multiple")
        self._npages = size // page_size
        # per page, with room for appends: its index in _frames, or -1 when
        # it is not resident, and whether that frame is newer than the file
        self._slot = np.full(self._npages + 64, -1, np.int64)
        self._dirty = np.zeros(len(self._slot), bool)
        self._frames: list[bytes] = []
        self._admitted: list[int] = []

    @property
    def num_pages(self) -> int:
        return self._npages

    @property
    def resident_bytes(self) -> int:
        return len(self._frames) * self.page_size

    def _room(self) -> int:
        """Pages the ledger may still admit."""
        reg = self._registry
        return (reg.budget - reg.held - reg.resident) // self.page_size if reg is not None else 0

    def read_page(self, page_id: int) -> bytes:
        """One counted storage read; it bypasses the ledger."""
        if page_id < 0 or page_id >= self._npages:
            raise AddressError(
                f"{self.path}: page {page_id} out of range (store has {self._npages})"
            )
        data = os.pread(self._fd, self.page_size, page_id * self.page_size)
        if len(data) != self.page_size:
            raise CorruptPageError(f"{self.path}: short read at page {page_id}")
        self.pages_read += 1
        return data

    def read_pages(self, ids) -> np.ndarray:
        """Images of the pages ids (a sequence), in order, as one read-only
        uint8[len(ids), page_size] that no later write changes (see
        `_fetch`)."""
        # one bytes object per page, then one join: no batch allocates a
        # large buffer more than once, which costs page faults in a short run
        return np.frombuffer(b"".join(self._fetch(ids)), np.uint8).reshape(-1, self.page_size)

    def _fetch(self, ids) -> list[bytes]:
        """Images of the pages ids, in order, one bytes object each. A
        resident page is a hit; any other is one counted read_page call, and
        is admitted to the ledger while it has room."""
        ids = np.asarray(ids, np.int64).reshape(-1)
        if len(ids) and (ids.min() < 0 or ids.max() >= self._npages):
            bad = ids[(ids < 0) | (ids >= self._npages)][0]
            raise AddressError(f"{self.path}: page {bad} out of range (store has {self._npages})")
        slot = self._slot[ids]
        frames = self._frames
        parts = [frames[s] if s >= 0 else self.read_page(p) for p, s in zip(ids.tolist(), slot.tolist())]
        miss = np.flatnonzero(slot < 0)
        self.pages_hit += len(ids) - len(miss)
        room = self._room()
        if room > 0:
            # the first copy of each missed page, in the order read
            take = miss[np.sort(np.unique(ids[miss], return_index=True)[1])[:room]]
            self._admit(ids[take], [parts[i] for i in take.tolist()])
        return parts

    def _admit(self, ids, images: list[bytes]) -> None:
        """Keep the images of the pages ids (one id, or an array of distinct
        ones), none of them resident, as the ledger's newest admissions."""
        reg, n, row = self._registry, len(images), len(self._frames)
        # an append admits one page, which a scalar store keeps O(1)
        self._slot[ids] = row if n == 1 else np.arange(row, row + n)
        self._frames += images
        self._admitted += range(reg.admissions, reg.admissions + n)
        reg.admissions += n
        reg.resident += n * self.page_size
        reg.resident_peak = max(reg.resident_peak, reg.resident)

    def read_records(self, ids, dtype) -> np.ndarray:
        """The counted records of the pages ids, concatenated in order, as
        one read-only array, parsed by `page_records`."""
        return page_records(self._fetch(ids), dtype, self.path, ids)

    def read_spans(self, starts: np.ndarray, ends: np.ndarray, dtype):
        """The pages covering the entry spans [starts[i], ends[i]) of a vector
        of dtype records, page_capacity to a page; starts and ends are each
        ascending, and spans may overlap or be empty.

        Reads each covering page once, in ascending order. A span past the
        last page is an address error, and a page whose record count does
        not reach its last wanted entry is corrupt.
        Returns (pages, counts, slots, at): the page ids, their record
        counts, their record slots as a read-only [pages, capacity] view of
        the images read, which copies nothing, and each span's offset into the
        slots taken row after row, so span i is slots.reshape(-1)[at[i]:
        at[i] + ends[i] - starts[i]] and its first entry slots[divmod(at[i],
        capacity)].
        """
        dtype = np.dtype(dtype)
        cap = page_capacity(self.page_size, dtype.itemsize)
        first = starts // cap
        end = np.where(ends > starts, (ends - 1) // cap + 1, first)
        if end.max(initial=0) > self._npages:
            raise AddressError(f"{self.path}: entry {ends.max() - 1} wanted from a store of {self._npages} pages")
        pages = cover(first, end)
        images = self.read_pages(pages)
        # the last span starting below a page's end wants the most of it
        base = pages * cap
        wanted = np.minimum(ends[np.searchsorted(starts, base + cap) - 1] - base, cap)
        counts = record_counts(images)
        short = np.flatnonzero(wanted > counts)
        if len(short):
            i = short[0]
            raise CorruptPageError(f"{self.path}: page {pages[i]} holds {counts[i]} entries, entry {wanted[i] - 1} wanted")
        slots = images[:, PAGE_HEADER : PAGE_HEADER + cap * dtype.itemsize].view(dtype)
        at = (np.searchsorted(pages, first) - first) * cap + starts
        return pages, counts, slots, at

    def read_vector(self, n: int, dtype) -> np.ndarray:
        """The whole vector of n dtype records as one writable array, read as
        the one span [0, n) through `read_spans`, so a page holding fewer
        records than its share is corrupt. The file must hold the vector as
        `pack_pages` lays it out and nothing more: a page count other than
        the vector's, or a page count of records past its share, is corrupt
        too."""
        dtype = np.dtype(dtype)
        cap = page_capacity(self.page_size, dtype.itemsize)
        need = -(-n // cap)
        if self._npages != need:
            raise CorruptPageError(f"{self.path}: {self._npages} pages for {n} records, not {need}")
        _, counts, slots, _ = self.read_spans(np.zeros(1, np.int64), np.full(1, n, np.int64), dtype)
        over = np.flatnonzero(counts > np.minimum(n - np.arange(need) * cap, cap))
        if len(over):
            raise CorruptPageError(f"{self.path}: the record count of page {over[0]} overflows the {n}-record vector")
        return slots.copy().reshape(-1)[:n]

    def append(self, data) -> int:
        """Append one page image, write-behind: while the ledger has room
        the page is admitted dirty and not written, so it reaches storage
        once, when it is given back, or never if its file is deleted first;
        with no room it is one counted append_page. Returns its ordinal."""
        if self._room() <= 0:
            return self.append_page(data)
        if len(data) != self.page_size:
            raise ContractViolation(f"append needs exactly {self.page_size} bytes, got {len(data)}")
        ordinal = self._extend()
        self._admit(ordinal, [bytes(data)])
        self._dirty[ordinal] = True
        return ordinal

    def append_page(self, data) -> int:
        """Append one page image: one counted storage write, which `append`
        makes when the ledger has no room for the page."""
        if len(data) != self.page_size:
            raise ContractViolation(
                f"append_page needs exactly {self.page_size} bytes, got {len(data)}"
            )
        self._put(self._npages, data)
        self.pages_written += 1
        return self._extend()

    def _extend(self) -> int:
        """Add one page to the store's end; returns its ordinal."""
        ordinal = self._npages
        self._npages += 1
        if ordinal == len(self._slot):
            self._slot = np.append(self._slot, np.full(ordinal, -1))
            self._dirty = np.append(self._dirty, np.zeros(ordinal, bool))
        return ordinal

    def append_records(self, raw: bytes, width: int) -> list[int]:
        """Pack fixed-width records into full pages (the last one partial)
        and append them through `append`; returns the page ordinals."""
        return [self.append(page) for page in pack_pages(raw, width, self.page_size)]

    def write_back(self, page_id: int, data) -> None:
        """Overwrite page page_id with the image data: a resident page is
        updated in memory and marked dirty, any other is written at once
        through write_page. So no page is written more often than by writing
        every one through."""
        if not (0 <= page_id < self._npages and self._slot[page_id] >= 0):
            self.write_page(page_id, data)
            return
        if len(data) != self.page_size:
            raise ContractViolation(f"write_back needs exactly {self.page_size} bytes, got {len(data)}")
        self._frames[self._slot[page_id]] = bytes(data)
        self._dirty[page_id] = True

    def write_page(self, page_id: int, data) -> None:
        """Overwrite an existing page in place: one counted storage write. A
        resident copy takes the same image and is no longer dirty, so the
        ledger never serves or flushes an image older than the file's."""
        if len(data) != self.page_size:
            raise ContractViolation(
                f"write_page needs exactly {self.page_size} bytes, got {len(data)}"
            )
        if page_id < 0 or page_id >= self._npages:
            raise AddressError(f"{self.path}: page {page_id} out of range")
        self._put(page_id, data)
        self.pages_written += 1
        if self._slot[page_id] >= 0:
            self._frames[self._slot[page_id]] = bytes(data)
            self._dirty[page_id] = False

    def _put(self, page_id: int, data) -> None:
        if os.pwrite(self._fd, data, page_id * self.page_size) != self.page_size:
            raise OSError(f"{self.path}: short write at page {page_id}")

    def admitted(self) -> list[int]:
        """The admission numbers of the resident pages, ascending."""
        return self._admitted

    def release(self, flush: bool = True, keep: int = 0) -> int:
        """Give the resident pages after the first keep admitted back to the
        ledger, after writing the dirty ones in page order, unless flush is
        False (the file is about to be deleted). Returns how many went."""
        if keep >= len(self._frames):
            return 0
        pages = np.flatnonzero(self._slot[: self._npages] >= keep)
        if flush:
            for page_id in pages[self._dirty[pages]].tolist():
                self.write_page(page_id, self._frames[self._slot[page_id]])
        if self._registry is not None:
            self._registry.resident -= len(pages) * self.page_size
        self._slot[pages] = -1
        self._dirty[pages] = False
        del self._frames[keep:], self._admitted[keep:]
        return len(pages)

    def close(self) -> None:
        """Release the resident pages, writing the dirty ones, and close the
        file."""
        self.release()
        self._f.close()


class StoreRegistry:
    """Opens PageStores tagged with a traffic class (csr/log/edgelog/state)
    and keeps their one resident-page ledger under one memory budget.

    `budget` is every byte the run may hold in memory. The other holders
    (the sort, the multi-log, the pending structural ops, the edge log's
    write buffer) report what they hold through `hold`, and `held` is the
    sum of `holds`; the ledger's room is the budget less `held` and less
    the `resident` bytes of its pages. `resident_peak` is the most resident
    since the budget was set or `restart_peak` was called, `evicted` the
    pages per class that a shrinking budget or a growing hold gave back,
    and `admissions` counts the admissions so far, which numbers them.

    The engine diffs counts() snapshots at superstep boundaries to split
    page counts per class without resetting the per-store counters.
    """

    CLASSES = ("csr", "log", "edgelog", "state")

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE):
        self.page_size = page_size
        self.budget = 0
        self.holds: dict[str, int] = {}
        self.resident = 0
        self.resident_peak = 0
        self.admissions = 0
        self.evicted = {c: 0 for c in self.CLASSES}
        self._stores: dict[str, list[PageStore]] = {c: [] for c in self.CLASSES}
        # reads, writes and hits of the dropped stores, per class
        self._retired = {c: (0, 0, 0) for c in self.CLASSES}

    @property
    def held(self) -> int:
        """Bytes the holders hold, outside the ledger."""
        return sum(self.holds.values())

    def open(self, path: str, klass: str, create: bool = True) -> PageStore:
        store = PageStore(path, self.page_size, create=create, registry=self)
        self._stores[klass].append(store)
        return store

    def drop(self, store: PageStore, klass: str, unlink: bool = False) -> None:
        """Close a store, writing its dirty pages unless unlink deletes its
        file; its traffic stays in the totals."""
        self._stores[klass].remove(store)
        store.release(flush=not unlink)
        self._retired[klass] = tuple(a + b for a, b in zip(self._retired[klass], _counts(store)))
        store.close()
        if unlink:
            os.unlink(store.path)

    def counts(self) -> dict[str, tuple[int, int, int]]:
        """Per class: pages read from storage, pages written to it, and
        page reads served from the ledger."""
        return {
            klass: tuple(map(sum, zip(self._retired[klass], *map(_counts, stores))))
            for klass, stores in self._stores.items()
        }

    def totals(self) -> dict[str, tuple[int, int]]:
        """Pages read and written per class, from storage."""
        return {klass: (r, w) for klass, (r, w, _) in self.counts().items()}

    def set_budget(self, nbytes: int) -> None:
        """Set the budget to nbytes and give back what no longer fits (see
        `_give_back`); the resident peak restarts from what stays. A budget
        of 0 turns the ledger off: every hold is forgotten and every page
        given back."""
        self.budget = nbytes
        if nbytes == 0:
            self.holds = {}
        self._give_back()
        self.resident_peak = self.resident

    def hold(self, holder: str, nbytes: int) -> None:
        """Record that holder now holds nbytes of the budget, outside the
        ledger, and give back the pages that no longer fit (see
        `_give_back`). A hold after which the resident pages still fit
        touches no store, and one that shrinks admits nothing by itself.
        While the budget is 0 a hold does nothing."""
        if nbytes < 0:
            raise ContractViolation(f"{holder} holds {nbytes} bytes")
        if self.budget == 0:
            return
        self.holds[holder] = nbytes
        self._give_back()

    def restart_peak(self) -> None:
        """Restart resident_peak from the bytes resident now."""
        self.resident_peak = self.resident

    def _give_back(self) -> None:
        """While the resident pages exceed the budget less the holds, give
        back the newest-admitted ones, across all stores: a dirty one is
        written, a clean one dropped."""
        excess = -(-(self.resident + self.held - self.budget) // self.page_size)
        if excess <= 0 or self.resident == 0:
            return
        # every admission number at or past the excess-th newest goes; each
        # store's list is ascending, so only its last excess can be among them
        tails = (s.admitted()[-excess:] for stores in self._stores.values() for s in stores)
        newest = np.fromiter(chain.from_iterable(tails), np.int64)
        excess = min(excess, len(newest))
        cut = int(np.partition(newest, len(newest) - excess)[len(newest) - excess])
        for klass, stores in self._stores.items():
            for s in stores:
                self.evicted[klass] += s.release(keep=bisect_left(s.admitted(), cut))

    def close_all(self) -> None:
        for stores in self._stores.values():
            for s in stores:
                s.close()


def _counts(store: PageStore) -> tuple[int, int, int]:
    return store.pages_read, store.pages_written, store.pages_hit
