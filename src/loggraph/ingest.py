"""Edge-list ingestion: SNAP-style text to a converted graph directory."""

from __future__ import annotations

import hashlib
import os

import numpy as np

from . import csr
from .errors import ConfigError, IngestError
from .pager import StoreRegistry, sorted_unique


def parse_edge_list(path: str):
    """Parse whitespace-separated `src dst [weight]` lines, `#` comments.

    Returns (src, dst) as numpy arrays of the original ids. A weight column
    is validated (numeric, on every line once it appears) and then dropped:
    edges carry no values.
    """
    srcs, dsts = [], []
    saw_weight = False
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise IngestError(f"expected 2 or 3 columns, got {len(parts)}", lineno)
            try:
                srcs.append(int(parts[0]))
                dsts.append(int(parts[1]))
            except ValueError:
                raise IngestError(f"non-numeric vertex id in {parts[:2]}", lineno) from None
            if len(parts) == 3:
                try:
                    float(parts[2])
                except ValueError:
                    raise IngestError(f"non-numeric weight {parts[2]!r}", lineno) from None
                saw_weight = True
            elif saw_weight:
                raise IngestError("missing weight column", lineno)
    return np.array(srcs, np.int64), np.array(dsts, np.int64)


def relabel_dense(src: np.ndarray, dst: np.ndarray):
    """Map arbitrary ids to dense 0..n-1 (ascending by original id)."""
    ids = sorted_unique(np.concatenate([src, dst]))
    return np.searchsorted(ids, src), np.searchsorted(ids, dst), ids


def convert(
    input_path: str,
    out_dir: str,
    sort_budget: int,
    page_size: int,
    record_size: int = 16,
    undirected: bool = False,
    registry: StoreRegistry | None = None,
) -> csr.GraphDir:
    """Build a partitioned CSR graph directory from an edge-list file.

    Writes the graph files (see `convert_arrays`) and mapping.tsv (dense id
    -> original id). With undirected=True every edge is materialized in
    both directions (self-loops stay single).
    """
    src, dst = parse_edge_list(input_path)
    src, dst, original_ids = relabel_dense(src, dst)
    if undirected:
        keep = src != dst
        src, dst = np.concatenate([src, dst[keep]]), np.concatenate([dst, src[keep]])
    with open(input_path, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    graph = convert_arrays(
        src, dst, len(original_ids), out_dir, sort_budget, page_size, record_size, registry, dataset_hash=digest
    )
    with open(os.path.join(out_dir, "mapping.tsv"), "w") as f:
        for dense, orig in enumerate(original_ids):
            f.write(f"{dense}\t{int(orig)}\n")
    return graph


def convert_arrays(
    src: np.ndarray,
    dst: np.ndarray,
    num_vertices: int,
    out_dir: str,
    sort_budget: int,
    page_size: int,
    record_size: int = 16,
    registry: StoreRegistry | None = None,
    dataset_hash: str = "",
) -> csr.GraphDir:
    """Convert in-memory dense-id edge arrays: the interval files, their
    colIdx entries at the narrowest id width that holds every id
    (`csr.id_dtype`), the in-degrees and meta.json, which records that
    width and which nothing writes again; record_size only sizes the
    intervals. `convert` reaches it once the ids are dense. A page that
    holds no rowPtr offset, or a record_size below 1, is a `ConfigError`,
    and an id outside [0, num_vertices) an `IngestError`, before any file
    is written."""
    csr.check_page_size(page_size)
    if record_size < 1:
        raise ConfigError(f"record_size {record_size} is below 1 byte: it sizes intervals by bytes per in-edge")
    src = np.asarray(src, np.int64)
    dst = np.asarray(dst, np.int64)
    n = num_vertices
    if len(src) and (src.min() < 0 or src.max() >= n or dst.min() < 0 or dst.max() >= n):
        bad = src[(src < 0) | (src >= n)]
        bad = bad if len(bad) else dst[(dst < 0) | (dst >= n)]
        raise IngestError(f"vertex id {int(bad[0])} outside [0, {n})")
    in_deg = np.bincount(dst, minlength=n).astype(np.int64)
    meta = csr.GraphMeta(
        num_vertices=num_vertices,
        interval_bounds=csr.partition_vertices(in_deg, record_size, sort_budget),
        page_size=page_size,
        colidx_width=csr.id_dtype(num_vertices).itemsize,
        dataset_hash=dataset_hash or f"inline-{len(src)}-{num_vertices}",
    )
    os.makedirs(out_dir, exist_ok=True)
    registry = registry or StoreRegistry(page_size)
    csr.build_partitions(src, dst, meta, registry, out_dir)
    csr.write_in_degrees(out_dir, in_deg)
    meta.save(out_dir)
    return csr.GraphDir(out_dir, registry)
