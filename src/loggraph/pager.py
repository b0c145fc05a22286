"""Page-granular storage backend.

Every read and write goes through fixed-size pages so that storage traffic
can be counted exactly. A page starts with a 16-byte header:

    byte  0      reserved (zero)
    bytes 1-2    record count, little-endian uint16
    bytes 3-15   reserved (zero)

The remaining bytes are the record region. Records are fixed width per file
and never span pages, so every page parses on its own.

`PageStore` is the only code that reads pages or packs records into them:
`read_page` returns one page's bytes, `read_pages` a batch of page images
as one uint8 array, `read_records` the counted records of a batch of pages
as one array (a count that overflows its page is corrupt), `read_spans` the
pages covering ascending spans of a fixed-width vector (CSR rowPtr and
colIdx rows, vertex state rows and in-neighbour tables all read through it),
`read_vector` a whole vector as the one span [0, n), and `append_records`
appends fixed-width records packed by `pack_pages`, the one whole-page
packer, which the multi-log shares. A batch still reads each page through
one `read_page` call, the unit the per-class counters (and the per-layer
tracer, which wraps it) count, so coalesced reads and page checksums have
one place to go.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import AddressError, ContractViolation, CorruptPageError, MissingStoreError

PAGE_HEADER = 16
DEFAULT_PAGE_SIZE = 16384

# the record count field of the page header
PAGE_COUNT = struct.Struct("<xH")


def page_capacity(page_size: int, record_width: int) -> int:
    """Records of the given width that fit in one page's record region."""
    return (page_size - PAGE_HEADER) // record_width


def pack_page(page_size: int, payload: bytes, count: int) -> bytes:
    """Assemble a full page image from a record-region payload."""
    if len(payload) > page_size - PAGE_HEADER:
        raise ContractViolation(f"payload of {len(payload)} bytes exceeds record region")
    buf = bytearray(page_size)
    PAGE_COUNT.pack_into(buf, 0, count)
    buf[PAGE_HEADER : PAGE_HEADER + len(payload)] = payload
    return bytes(buf)


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


def ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenation of the index ranges [starts[i], starts[i] + lens[i])."""
    ends = np.cumsum(lens)
    return np.arange(int(ends[-1]) if len(ends) else 0) + np.repeat(starts - (ends - lens), lens)


def cover(first: np.ndarray, end: np.ndarray) -> np.ndarray:
    """The distinct ids of the ranges [first[i], end[i]), ascending: those
    where more ranges have started than ended."""
    n = int(end.max(initial=0)) + 1
    return np.flatnonzero(np.cumsum(np.bincount(first, minlength=n) - np.bincount(end, minlength=n)))


def record_counts(images: np.ndarray) -> np.ndarray:
    """The header record count of each page image (rows of uint8)."""
    return images[:, 1].astype(np.int64) | images[:, 2].astype(np.int64) << 8


class PageStore:
    """A flat file of concatenated pages with read/write counters.

    The file is unbuffered and every page moves in one positional call
    (os.pread/os.pwrite), so a written page is in the file at once and no
    call seeks. There is no cache here on purpose: every read_page call is
    a counted storage access.
    """

    def __init__(self, path: str, page_size: int = DEFAULT_PAGE_SIZE, create: bool = True):
        self.path = path
        self.page_size = page_size
        self.pages_read = 0
        self.pages_written = 0
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

    @property
    def num_pages(self) -> int:
        return self._npages

    def read_page(self, page_id: int) -> bytes:
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
        """Images of the pages ids (a sequence), in order, as a read-only
        uint8[len(ids), page_size]; one counted read_page call per page."""
        raw = b"".join([self.read_page(p) for p in ids])
        return np.frombuffer(raw, np.uint8).reshape(-1, self.page_size)

    def read_records(self, ids, dtype) -> np.ndarray:
        """The counted records of the pages ids, concatenated in order, as
        one read-only array. A count that overflows its page is corrupt."""
        dtype = np.dtype(dtype)
        images = self.read_pages(ids)
        nbytes = record_counts(images) * dtype.itemsize
        over = np.flatnonzero(nbytes > self.page_size - PAGE_HEADER)
        if len(over):
            raise CorruptPageError(f"{self.path}: the record count of page {ids[over[0]]} overflows it")
        flat = memoryview(images.reshape(-1))
        starts = range(PAGE_HEADER, flat.nbytes, self.page_size)
        return np.frombuffer(b"".join([flat[a : a + n] for a, n in zip(starts, nbytes.tolist())]), dtype)

    def read_spans(self, starts: np.ndarray, ends: np.ndarray, dtype):
        """The pages covering the entry spans [starts[i], ends[i]) of a vector
        of dtype records, page_capacity to a page; starts and ends are each
        ascending, and spans may overlap or be empty.

        Reads each covering page once, in ascending order. A span past the
        last page is an address error, and a page whose record count does
        not reach its last wanted entry is corrupt.
        Returns (pages, images, slots, at): the page ids, their images as
        read, one writable flat copy of their record slots (capacity per
        page) and each span's offset into it, so span i is
        slots[at[i]:at[i] + ends[i] - starts[i]].
        """
        dtype = np.dtype(dtype)
        cap = page_capacity(self.page_size, dtype.itemsize)
        first = starts // cap
        end = np.where(ends > starts, (ends - 1) // cap + 1, first)
        if end.max(initial=0) > self._npages:
            raise AddressError(f"{self.path}: entry {ends.max() - 1} wanted from a store of {self._npages} pages")
        pages = cover(first, end)
        images = self.read_pages(pages.tolist())
        # the last span starting below a page's end wants the most of it
        base = pages * cap
        wanted = np.minimum(ends[np.searchsorted(starts, base + cap) - 1] - base, cap)
        counts = record_counts(images)
        short = np.flatnonzero(wanted > counts)
        if len(short):
            i = short[0]
            raise CorruptPageError(f"{self.path}: page {pages[i]} holds {counts[i]} entries, entry {wanted[i] - 1} wanted")
        slots = images[:, PAGE_HEADER : PAGE_HEADER + cap * dtype.itemsize].copy().view(dtype).reshape(-1)
        at = (np.searchsorted(pages, first) - first) * cap + starts
        return pages, images, slots, at

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
        _, images, slots, _ = self.read_spans(np.zeros(1, np.int64), np.full(1, n, np.int64), dtype)
        over = np.flatnonzero(record_counts(images) > np.minimum(n - np.arange(need) * cap, cap))
        if len(over):
            raise CorruptPageError(f"{self.path}: the record count of page {over[0]} overflows the {n}-record vector")
        return slots[:n]

    def append_page(self, data: bytes) -> int:
        if len(data) != self.page_size:
            raise ContractViolation(
                f"append_page needs exactly {self.page_size} bytes, got {len(data)}"
            )
        ordinal = self._npages
        self._put(ordinal, data)
        self._npages += 1
        self.pages_written += 1
        return ordinal

    def append_records(self, raw: bytes, width: int) -> list[int]:
        """Pack fixed-width records into full pages (the last one partial)
        and append them; returns the page ordinals."""
        return [self.append_page(page) for page in pack_pages(raw, width, self.page_size)]

    def write_page(self, page_id: int, data: bytes) -> None:
        """Overwrite an existing page in place (state vectors need this)."""
        if len(data) != self.page_size:
            raise ContractViolation(
                f"write_page needs exactly {self.page_size} bytes, got {len(data)}"
            )
        if page_id < 0 or page_id >= self._npages:
            raise AddressError(f"{self.path}: page {page_id} out of range")
        self._put(page_id, data)
        self.pages_written += 1

    def _put(self, page_id: int, data: bytes) -> None:
        if os.pwrite(self._fd, data, page_id * self.page_size) != self.page_size:
            raise OSError(f"{self.path}: short write at page {page_id}")

    def close(self) -> None:
        self._f.close()


class StoreRegistry:
    """Opens PageStores tagged with a traffic class (csr/log/edgelog/state).

    The engine diffs totals() snapshots at superstep boundaries to split page
    counts per class without resetting the per-store counters.
    """

    CLASSES = ("csr", "log", "edgelog", "state")

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE):
        self.page_size = page_size
        self._stores: dict[str, list[PageStore]] = {c: [] for c in self.CLASSES}
        self._retired_reads: dict[str, int] = {}
        self._retired_writes: dict[str, int] = {}

    def open(self, path: str, klass: str, create: bool = True) -> PageStore:
        store = PageStore(path, self.page_size, create=create)
        self._stores[klass].append(store)
        return store

    def drop(self, store: PageStore, klass: str, unlink: bool = False) -> None:
        self._stores[klass].remove(store)
        # keep the dropped store's traffic in the totals
        self._retired_reads[klass] = self._retired_reads.get(klass, 0) + store.pages_read
        self._retired_writes[klass] = self._retired_writes.get(klass, 0) + store.pages_written
        store.close()
        if unlink:
            os.unlink(store.path)

    def totals(self) -> dict[str, tuple[int, int]]:
        out = {}
        for klass, stores in self._stores.items():
            r = sum(s.pages_read for s in stores) + self._retired_reads.get(klass, 0)
            w = sum(s.pages_written for s in stores) + self._retired_writes.get(klass, 0)
            out[klass] = (r, w)
        return out

    def close_all(self) -> None:
        for stores in self._stores.values():
            for s in stores:
                s.close()
