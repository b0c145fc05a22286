"""Page-granular storage backend and its one resident-page ledger.

Every read and write goes through fixed-size pages so that storage traffic
can be counted exactly. A page starts with a 16-byte header:

    byte  0      reserved (zero)
    bytes 1-2    record count, little-endian uint16
    bytes 3-15   reserved (zero)

The remaining bytes are the record region. Records are fixed width per file
and never span pages, so every page parses on its own.

`PageStore` and the layout helpers here are the only code that reads or
writes pages or knows their layout. The store: `read_spans` gives the ids,
record counts and arena rows (see below) of the pages covering ascending
spans of a fixed-width vector (CSR rows, state rows, aux tables and
edge-log entries all read through it) and copies no page, and
`StoreRegistry.gather` then copies exactly the entries a caller wants out
of those rows; `read_pages` returns a batch of page images as one uint8
array, `read_vector` a whole vector as one array (a state vector, a CSR
vector or a multi-log file, each laid out as `pack_pages` lays records
out), `append` appends a page image, `append_records` fixed-width
records, `write_back` overwrites a page from an image, and
`write_back_rows` writes back, in one call, the pages that a caller of
`read_spans` changed in place in their arena rows (the state and aux
commits of `state`). The helpers: `pack_pages` packs records
into whole pages; `fill_page` copies records into a page in place (the
multi-log's top pages); `record_counts` reads the counts of an array of
images, and `page_records` parses the counted records of a list of page
buffers, the multi-log's resident tails. A count that overflows its page
is corrupt.

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
those holds and less its resident pages: a store keeps a page after the
page's first read or append while there is room, and serves later reads of
it from memory. Admission never evicts; a budget set lower
(`StoreRegistry.set_budget`) or a hold that grows does, when the resident
pages no longer fit: it gives back the newest-admitted pages first, across
all stores. The engine scans the same pages every superstep, and under a
cyclic scan a fixed resident set gets as many hits per pass as it holds
pages, where LRU keeps nothing useful; so the pages admitted first, that
fixed set, are the last to go.

Every page in memory is one row of the registry's frame arena, a single
uint8[rows, page_size] array: a resident page's row for as long as it stays
resident, and a transient row for a page `read_spans` read but the ledger
had no room for. `read_spans` pins the rows it hands out until
`StoreRegistry.unpin`, which the engine calls when a batch ends: a pinned
row that is given back, or transient, goes back to the free list only
then, so what a batch was handed never changes under it and no page is
read twice for it. The readers that copy pages out (`read_pages` and
`read_vector`) pin nothing, and a missed page the ledger has no room for
never enters the arena on their path. The arena's rows are mapped
untouched, and it grows by remapping, which moves the rows it holds
without copying them.

Appends are write-behind: while the ledger has room, `append` admits the
new page dirty and writes nothing, and with no room it writes the page at
once. `write_back` updates a resident page in memory and marks it dirty,
and `write_back_rows` only marks it dirty, its row already changed.
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

import mmap
import os
import struct

import numpy as np

from .errors import AddressError, ContractViolation, CorruptPageError, MissingStoreError

PAGE_HEADER = 16
DEFAULT_PAGE_SIZE = 16384

# the record count field of the page header
PAGE_COUNT = struct.Struct("<xH")

# a read that wants fewer than one in DENSE_SLOTS of the record slots of
# the pages it covers gathers its entries from their arena rows one by one;
# a denser one copies the rows' slots whole and indexes the copy, which is
# faster from about one slot in 16 of a 4 KiB page up
DENSE_SLOTS = 8


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


def fill_page(page: bytearray, fill: int, raw, width: int) -> int:
    """Copy the whole records raw into the page image page after its first
    fill records, in place, and set its record count; returns the count."""
    off = PAGE_HEADER + fill * width
    page[off : off + len(raw)] = raw
    fill += len(raw) // width
    PAGE_COUNT.pack_into(page, 0, fill)
    return fill


def page_records(pages: list, dtype, where: str) -> np.ndarray:
    """The counted records of the page images pages (a list of page
    buffers: bytes, bytearrays, memoryviews or uint8 rows), concatenated in
    order as one read-only array. A count that overflows its page is
    corrupt; the error names where and the page's index in pages."""
    dtype = np.dtype(dtype)
    nbytes = [PAGE_COUNT.unpack_from(p)[0] * dtype.itemsize for p in pages]
    over = [i for i, (p, n) in enumerate(zip(pages, nbytes)) if n > len(p) - PAGE_HEADER]
    if over:
        raise CorruptPageError(f"{where}: the record count of page {over[0]} overflows it")
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
    resident pages are its share of its registry's one ledger (see the
    module doc); a store opened without a registry gets one of its own,
    whose budget is 0, so it keeps none. Each resident page is a row of the
    registry's frame arena, `_slot` maps a page to it, and the registry
    numbers the rows' admissions, so what a shrinking budget takes back is
    always the newest of them. `read_spans` hands out the arena rows of
    the pages it covers, resident or transient, pinned until the batch
    ends, and copies none; `read_pages` and `read_vector` copy out of the
    rows of resident pages and out of the bytes read for the others, which
    never enter the arena. A page is newer in memory than in the file, or
    missing from it, only while it is dirty: appended by `append` or
    updated by `write_back` or `write_back_rows`, and not yet given back.
    """

    def __init__(self, path: str, page_size: int = DEFAULT_PAGE_SIZE, create: bool = True, registry=None):
        self.path = path
        self.page_size = page_size
        self.pages_read = 0
        self.pages_written = 0
        self.pages_hit = 0
        self.registry = registry if registry is not None else StoreRegistry(page_size)
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
        # per page, with room for appends: its arena row, or -1 when it is
        # not resident, and whether that row is newer than the file
        self._slot = np.full(self._npages + 64, -1, np.int64)
        self._dirty = np.zeros(len(self._slot), bool)
        self._resident = 0

    @property
    def num_pages(self) -> int:
        return self._npages

    @property
    def resident_bytes(self) -> int:
        return self._resident * self.page_size

    def _room(self) -> int:
        """Pages the ledger may still admit."""
        reg = self.registry
        return (reg.budget - reg.held - reg.resident) // self.page_size

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

    def _fetch(self, ids) -> tuple[np.ndarray, np.ndarray, list[bytes]]:
        """The pages ids (a sequence), in order: a resident page is a hit;
        any other is one counted read_page call, and its first copy is
        admitted to the ledger while it has room. Returns (hit, rows,
        images): each page's arena row before the call and after it (-1
        when it has none), and what read_page returned for each miss, in
        order."""
        ids = np.asarray(ids, np.int64).reshape(-1)
        if len(ids) and (ids.min() < 0 or ids.max() >= self._npages):
            bad = ids[(ids < 0) | (ids >= self._npages)][0]
            raise AddressError(f"{self.path}: page {bad} out of range (store has {self._npages})")
        hit = self._slot[ids]
        miss = np.flatnonzero(hit < 0)
        self.pages_hit += len(ids) - len(miss)
        if len(miss) == 0:
            return hit, hit, []
        images = [self.read_page(p) for p in ids[miss].tolist()]
        room = self._room()
        if room > 0:
            # the first copy of each missed page, in the order read
            first = np.sort(np.unique(ids[miss], return_index=True)[1])[:room]
            rows = self.registry._take(len(first))
            self.registry._copy_in([images[i] for i in first.tolist()], rows)
            self._admit(ids[miss[first]], rows, len(rows))
        return hit, self._slot[ids], images

    def _admit(self, ids, rows, n: int) -> None:
        """Make the n arena rows rows, which hold the images of the distinct
        pages ids, none of them resident, the ledger's newest admissions."""
        reg = self.registry
        self._slot[ids] = rows
        self._resident += n
        # an append admits one page, which scalar indices keep O(1)
        reg._admitted[rows] = reg.admissions if n == 1 else np.arange(reg.admissions, reg.admissions + n)
        for row in rows.tolist() if isinstance(rows, np.ndarray) else (rows,):
            reg._owner[row] = self
        reg._page[rows] = ids
        reg.admissions += n
        reg.resident += n * self.page_size
        reg.resident_peak = max(reg.resident_peak, reg.resident)

    def _images(self, ids) -> list:
        """The images of the pages ids, in order, through `_fetch`: a view
        of its arena row for a hit, the bytes read for a miss, so a page the
        ledger has no room for is never copied into the arena. The caller
        copies out of them at once."""
        hit, _, images = self._fetch(ids)
        if (hit < 0).all():
            return images
        missed, size = iter(images), self.page_size
        arena = memoryview(self.registry._mm)
        return [arena[row * size : (row + 1) * size] if row >= 0 else next(missed) for row in hit.tolist()]

    def read_pages(self, ids) -> np.ndarray:
        """Images of the pages ids (a sequence), in order, as one read-only
        uint8[len(ids), page_size] that no later write changes."""
        return np.frombuffer(b"".join(self._images(ids)), np.uint8).reshape(-1, self.page_size)

    def read_spans(self, starts: np.ndarray, ends: np.ndarray, dtype):
        """The pages covering the entry spans [starts[i], ends[i]) of a vector
        of dtype records, page_capacity to a page; starts and ends are each
        ascending, and spans may overlap or be empty.

        Reads each covering page once, in ascending order, and copies none
        that is resident: every page is an arena row, a missed one the ledger
        has no room for a transient row, and each row stays pinned until
        `StoreRegistry.unpin` (see the module doc). A span past the last
        page is an address error, and a page whose record count does not
        reach its last wanted entry is corrupt.
        Returns (pages, counts, rows, at): the page ids, their record
        counts, their arena rows, and each span's offset into the pages'
        record slots taken row after row, so span i is the entries at[i] to
        at[i] + ends[i] - starts[i] there, which `StoreRegistry.gather`
        copies out.
        """
        dtype = np.dtype(dtype)
        cap = page_capacity(self.page_size, dtype.itemsize)
        first = starts // cap
        end = np.where(ends > starts, (ends - 1) // cap + 1, first)
        if end.max(initial=0) > self._npages:
            raise AddressError(f"{self.path}: entry {ends.max() - 1} wanted from a store of {self._npages} pages")
        pages = cover(first, end)
        hit, rows, images = self._fetch(pages)
        reg = self.registry
        # the misses the ledger had no room for (pages are distinct, so each
        # miss has one image)
        miss = np.flatnonzero(hit < 0)
        left = np.flatnonzero(rows[miss] < 0)
        if len(left):
            rows[miss[left]] = reg._take(len(left))
            reg._copy_in([images[i] for i in left.tolist()], rows[miss[left]])
        reg._pinned[rows] = True
        counts = reg._counts(rows)
        # the last span starting below a page's end wants the most of it
        base = pages * cap
        wanted = np.minimum(ends[np.searchsorted(starts, base + cap) - 1] - base, cap)
        short = np.flatnonzero(wanted > counts)
        if len(short):
            i = short[0]
            raise CorruptPageError(f"{self.path}: page {pages[i]} holds {counts[i]} entries, entry {wanted[i] - 1} wanted")
        at = (np.searchsorted(pages, first) - first) * cap + starts
        return pages, counts, rows, at

    def read_vector(self, n: int, dtype) -> np.ndarray:
        """The whole vector of n dtype records as one writable array, each
        page read once, so a page holding fewer records than its share is
        corrupt. The file must hold the vector as
        `pack_pages` lays it out and nothing more: a page count other than
        the vector's, or a page count of records past its share, is corrupt
        too."""
        dtype = np.dtype(dtype)
        cap = page_capacity(self.page_size, dtype.itemsize)
        need = -(-n // cap)
        if self._npages != need:
            raise CorruptPageError(f"{self.path}: {self._npages} pages for {n} records, not {need}")
        images = self._images(range(need))
        share = np.minimum(n - np.arange(need) * cap, cap)
        counts = np.array([PAGE_COUNT.unpack_from(p)[0] for p in images], np.int64)
        short = np.flatnonzero(share > counts)
        if len(short):
            i = short[0]
            raise CorruptPageError(f"{self.path}: page {i} holds {counts[i]} entries, entry {share[i] - 1} wanted")
        over = np.flatnonzero(counts > share)
        if len(over):
            raise CorruptPageError(f"{self.path}: the record count of page {over[0]} overflows the {n}-record vector")
        width = dtype.itemsize
        out = bytearray().join([memoryview(p)[PAGE_HEADER : PAGE_HEADER + s * width] for p, s in zip(images, share.tolist())])
        return np.frombuffer(out, dtype)

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
        reg, size = self.registry, self.page_size
        row = reg._free.pop() if reg._free else int(reg._take(1)[0])
        reg._mm[row * size : (row + 1) * size] = data
        self._admit(ordinal, row, 1)
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

    def _extend(self, n: int = 1) -> int:
        """Add n pages to the store's end; returns the first one's ordinal."""
        first = self._npages
        self._npages += n
        if self._npages > len(self._slot):
            more = max(len(self._slot), self._npages - len(self._slot))
            self._slot = np.append(self._slot, np.full(more, -1))
            self._dirty = np.append(self._dirty, np.zeros(more, bool))
        return first

    def append_records(self, raw: bytes, width: int) -> list[int]:
        """Pack fixed-width records into full pages (the last one partial)
        and append them as `append` would one by one: the pages the ledger
        has room for, the first ones, are admitted dirty in one block copy,
        and the others are written through append_page. Returns the ids of
        the pages appended."""
        pages = pack_pages(raw, width, self.page_size)
        k = min(max(self._room(), 0), len(pages))
        first = self._extend(k)
        if k:
            rows = self.registry._take(k)
            self.registry.arena[rows] = pages[:k]
            self._admit(np.arange(first, first + k), rows, k)
            self._dirty[first : first + k] = True
        return list(range(first, first + k)) + [self.append_page(page) for page in pages[k:]]

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
        self.registry._copy_in([data], self._slot[page_id : page_id + 1])
        self._dirty[page_id] = True

    def write_back_rows(self, pages: np.ndarray, rows: np.ndarray) -> None:
        """Write back the distinct pages pages from the arena rows rows,
        which `read_spans` handed out for them and the caller changed in
        place: a page whose resident row is still its row is only marked
        dirty, and any other row's image goes through `write_back`."""
        kept = self._slot[pages] == rows
        self._dirty[pages[kept]] = True
        for page_id, row in zip(pages[~kept].tolist(), rows[~kept].tolist()):
            self.write_back(page_id, self.registry.arena[row])

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
            self.registry._copy_in([data], self._slot[page_id : page_id + 1])
            self._dirty[page_id] = False

    def _put(self, page_id: int, data) -> None:
        if os.pwrite(self._fd, data, page_id * self.page_size) != self.page_size:
            raise OSError(f"{self.path}: short write at page {page_id}")

    def release(self, pages: np.ndarray | None = None, flush: bool = True) -> int:
        """Give the resident pages pages (ascending; by default every one)
        back to the ledger, after writing the dirty ones in page order,
        unless flush is False (the file is about to be deleted). Returns
        how many went."""
        if pages is None:
            if self._resident == 0:
                return 0
            pages = np.flatnonzero(self._slot[: self._npages] >= 0)
        rows = self._slot[pages]
        if flush:
            dirty = self._dirty[pages]
            for page_id, row in zip(pages[dirty].tolist(), rows[dirty].tolist()):
                # no longer resident, so write_page copies nothing back into the row
                self._slot[page_id] = -1
                self.write_page(page_id, self.registry.arena[row])
        self._slot[pages] = -1
        self._dirty[pages] = False
        self._resident -= len(pages)
        self.registry._release(rows)
        return len(pages)

    def close(self) -> None:
        """Release the resident pages, writing the dirty ones, and close the
        file."""
        self.release()
        self._f.close()


class StoreRegistry:
    """Opens PageStores tagged with a traffic class (csr/log/edgelog/state)
    and keeps their one resident-page ledger under one memory budget, in
    one frame arena.

    `budget` is every byte the run may hold in memory. The other holders
    (the sort, the multi-log, the pending structural ops, the edge log's
    write buffer) report what they hold through `hold`, and `held` is the
    sum of `holds`; the ledger's room is the budget less `held` and less
    the `resident` bytes of its pages. `resident_peak` is the most resident
    since the budget was set or `restart_peak` was called, `evicted` the
    pages per class that a shrinking budget or a growing hold gave back,
    and `admissions` counts the admissions so far, which numbers them.

    `arena` is uint8[rows, page_size]: row r holds a page image while it is
    resident (its admission number `_admitted[r]` is then >= 0, and
    `_owner[r]` and `_page[r]` name the page) or pinned (handed out by
    `read_spans` since the last `unpin`), and is free otherwise. A free
    row is taken last-freed first, and an untouched one lowest first, so
    the rows a run touches stay as few as it holds at once. `gather`
    copies entries out of rows, `scatter` writes entries into them in
    place, and `gather_pages` copies whole record regions. A budget of 0
    with nothing pinned unmaps the arena; until a page is kept or read
    through `read_spans`, none is mapped.

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
        self._unmap()

    def _unmap(self) -> None:
        """Drop the arena and every row's state: no row is in use."""
        self._mm = None
        self.arena = np.zeros((0, self.page_size), np.uint8)
        # rows below _used have been handed out and are free only when on
        # _free (the last freed on top); the rows past it are untouched
        self._used = 0
        self._free: list[int] = []
        # per row below _used, at least
        self._admitted = np.zeros(0, np.int64)
        self._owner: list = []
        self._page = np.zeros(0, np.int64)
        self._pinned = np.zeros(0, bool)

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
        given back, and with no row pinned the arena is unmapped."""
        self.budget = nbytes
        if nbytes == 0:
            self.holds = {}
        self._give_back()
        self.resident_peak = self.resident
        if nbytes == 0 and not self._pinned.any():
            self._unmap()

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

    def unpin(self) -> None:
        """End a batch: the rows `read_spans` handed out since the last
        unpin are no longer pinned, and those that are not resident (given
        back meanwhile, or transient) return to the free list."""
        rows = np.flatnonzero(self._pinned)
        self._pinned[rows] = False
        self._free += rows[self._admitted[rows] < 0].tolist()

    def _give_back(self) -> None:
        """While the resident pages exceed the budget less the holds, give
        back the newest-admitted ones, across all stores: a dirty one is
        written, a clean one dropped."""
        excess = -(-(self.resident + self.held - self.budget) // self.page_size)
        if excess <= 0 or self.resident == 0:
            return
        live = np.flatnonzero(self._admitted >= 0)
        excess = min(excess, len(live))
        newest = live[np.argpartition(self._admitted[live], len(live) - excess)[len(live) - excess :]]
        pages: dict[PageStore, list[int]] = {}
        for row, page_id in zip(newest.tolist(), self._page[newest].tolist()):
            pages.setdefault(self._owner[row], []).append(page_id)
        for klass, stores in self._stores.items():
            for s in stores:
                if s in pages:
                    self.evicted[klass] += s.release(np.sort(np.array(pages[s], np.int64)))

    def _take(self, n: int) -> np.ndarray:
        """n free arena rows: the last freed first, then untouched ones,
        lowest first; the arena grows when it has too few."""
        k = min(n, len(self._free))
        rows = self._free[len(self._free) - k :]
        del self._free[len(self._free) - k :]
        if k < n:
            first, self._used = self._used, self._used + n - k
            if self._used > len(self.arena):
                self._grow(self._used)
            if self._used > len(self._admitted):
                more = max(len(self._admitted), self._used - len(self._admitted))
                self._admitted = np.append(self._admitted, np.full(more, -1, np.int64))
                self._owner += [None] * more
                self._page = np.append(self._page, np.zeros(more, np.int64))
                self._pinned = np.append(self._pinned, np.zeros(more, bool))
            rows += range(first, self._used)
        return np.array(rows, np.int64)

    def _grow(self, need: int) -> None:
        """Map the arena to at least need rows, at least doubling it, and at
        first two budgets' worth of rows. The new rows are mapped untouched,
        and the rows held are moved by remapping, not copied; only while a
        view of the arena is still alive is it mapped afresh and its rows
        copied, since a mapping with views cannot move."""
        old, size = len(self.arena), self.page_size
        new = max(2 * old, need, 2 * (self.budget // size))
        arena, self.arena = self.arena, None
        if self._mm is None:
            self._mm = mmap.mmap(-1, new * size, flags=mmap.MAP_PRIVATE)
        else:
            try:
                del arena
                self._mm.resize(new * size)
            except BufferError:
                mm = mmap.mmap(-1, new * size, flags=mmap.MAP_PRIVATE)
                mm[: old * size] = self._mm
                self._mm = mm
        self.arena = np.frombuffer(self._mm, np.uint8).reshape(new, size)

    def _copy_in(self, images: list, rows: np.ndarray) -> None:
        """Copy the page images (bytes-likes of one page each) into the
        arena rows rows."""
        size, mm = self.page_size, self._mm
        for image, row in zip(images, rows.tolist()):
            mm[row * size : (row + 1) * size] = image

    def _release(self, rows: np.ndarray) -> None:
        """The pages in the arena rows rows are no longer resident: the rows
        not pinned are free at once, the others at `unpin`."""
        self._admitted[rows] = -1
        for row in rows.tolist():
            self._owner[row] = None
        self.resident -= len(rows) * self.page_size
        self._free += rows[~self._pinned[rows]].tolist()

    def _counts(self, rows: np.ndarray) -> np.ndarray:
        """The header record count of the page in each arena row."""
        return self.arena[:, 1:3].view("<u2")[rows, 0].astype(np.int64)

    def _slots(self, dtype: np.dtype) -> np.ndarray:
        """Every arena row's record slots as [rows, capacity] of dtype, a
        view; a structured dtype is viewed as opaque void items, which move
        whole."""
        cap = page_capacity(self.page_size, dtype.itemsize)
        slots = self.arena[:, PAGE_HEADER : PAGE_HEADER + cap * dtype.itemsize]
        return slots.view(np.dtype((np.void, dtype.itemsize)) if dtype.names else dtype)

    def gather(self, rows: np.ndarray, at: np.ndarray, dtype) -> np.ndarray:
        """The dtype entries at the positions at of the record slots of the
        pages in the arena rows rows, taken row after row (page_capacity to
        a row), as one new array: one fancy index (row, slot), or, when at
        least one slot in DENSE_SLOTS is wanted, one copy of the rows' slots
        and one index into it."""
        dtype = np.dtype(dtype)
        cap = page_capacity(self.page_size, dtype.itemsize)
        if len(at) * DENSE_SLOTS >= len(rows) * cap:
            return self._slots(dtype)[rows].reshape(-1)[at].view(dtype)
        row, slot = np.divmod(at, cap)
        return self._slots(dtype)[rows[row], slot].view(dtype)

    def scatter(self, rows: np.ndarray, at: np.ndarray, values: np.ndarray) -> None:
        """Write the entries values into the positions at of the record
        slots of the pages in the arena rows rows (each distinct), in place;
        the inverse of `gather`, dense or not."""
        cap = page_capacity(self.page_size, values.dtype.itemsize)
        slots = self._slots(values.dtype)
        if len(at) * DENSE_SLOTS >= len(rows) * cap:
            block = slots[rows]
            block.reshape(-1)[at] = values.view(slots.dtype)
            slots[rows] = block
            return
        row, slot = np.divmod(at, cap)
        slots[rows[row], slot] = values.view(slots.dtype)

    def gather_pages(self, rows: np.ndarray, dtype) -> np.ndarray:
        """Every record slot of the pages in the arena rows rows, as one new
        writable [len(rows), page_capacity] array of dtype."""
        dtype = np.dtype(dtype)
        return self._slots(dtype)[rows].view(dtype)

    def close_all(self) -> None:
        for stores in self._stores.values():
            for s in stores:
                s.close()


def _counts(store: PageStore) -> tuple[int, int, int]:
    return store.pages_read, store.pages_written, store.pages_hit
