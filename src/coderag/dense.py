"""Embedding-based retrieval over knowledge items.

Vectors are L2-normalized at index time so cosine equals dot product.
The scan is exact brute force; knowledge bases here are repo-sized.
Items that embed to the zero vector are stored as zeros and never
retrieved.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

import numpy as np

from .errors import EmbedderUnavailable, EmbeddingDimensionMismatch, IndexFormatError
from .fanout import call_each
from .kb import CodeKnowledgeBase
from .topj import top_j

DENSE_FILE_NAME = "dense.vec"
FORMAT_VERSION = 1
_MAGIC = b"CRDV"


class EmbedderClient(Protocol):
    """Deterministic text encoder; all vectors share one dimension.

    Must allow concurrent calls: ``coderag evaluate`` runs tasks on
    several threads.  A client that sets ``waits_on_io`` has the index
    embeds overlapped on the fan-out pool (:mod:`coderag.fanout`).
    """

    def embed(self, text: str) -> list[float]: ...

    def dimension(self) -> int: ...


@dataclass
class DenseIndex:
    item_ids: list[str]
    # float64 holding float32-rounded values, the precision of dense.vec;
    # shape (len(item_ids), dim), rows unit or zero.  Scoring runs in float64.
    vectors: np.ndarray
    dim: int

    def __post_init__(self) -> None:
        norms = np.linalg.norm(self.vectors, axis=1)
        active = norms > 0.0
        if not np.all((np.abs(norms - 1.0) <= 1e-6) | ~active):
            raise ValueError("stored vectors must be unit-normalized or zero")
        self._active_pos = np.flatnonzero(active)


def _normalize(raw: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(raw))
    if norm == 0.0:
        return np.zeros_like(raw, dtype=np.float32)
    return (raw / norm).astype(np.float32)


def build_dense_index(kb: CodeKnowledgeBase, embedder: EmbedderClient) -> DenseIndex:
    """Embed every item's text (functions at function level, variables at
    their line level — both are exactly the item's text slice).

    An embedder failure aborts the build; the raised error carries, in
    ``items_embedded``, the position of the first item that failed.  The
    embeds overlap when the embedder waits on I/O
    (:func:`coderag.fanout.call_each`); each writes only its own row.
    """
    dim = embedder.dimension()
    items = kb.items
    rows = np.zeros((len(items), dim), dtype=np.float64)

    def embed_row(pos: int) -> None:
        try:
            raw = np.asarray(embedder.embed(items[pos].text), dtype=np.float64)
        except EmbedderUnavailable as exc:
            exc.items_embedded = pos  # type: ignore[attr-defined]
            exc.total_items = len(items)  # type: ignore[attr-defined]
            raise
        if raw.shape != (dim,):
            raise ValueError(
                f"embedder returned shape {raw.shape} for item {items[pos].id}, "
                f"expected ({dim},)"
            )
        rows[pos] = _normalize(raw)

    call_each(embedder, embed_row, range(len(items)))
    return DenseIndex(item_ids=[item.id for item in items], vectors=rows, dim=dim)


def dense_retrieve(
    index: DenseIndex, query_text: str, embedder: EmbedderClient, j: int
) -> list[tuple[str, float]]:
    """Top-j items by cosine (dot of unit vectors); no score floor is applied.

    Ties break by ascending item id.  A query that embeds to the zero
    vector has no direction and retrieves nothing; one whose dimension is
    not the index's raises ``EmbeddingDimensionMismatch``.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    raw = np.asarray(embedder.embed(query_text), dtype=np.float64)
    if raw.shape != (index.dim,):
        raise EmbeddingDimensionMismatch(index.dim, raw.size)
    q = _normalize(raw).astype(np.float64)
    if not q.any():
        return []
    scores = index.vectors @ q
    active = index._active_pos
    return top_j(index.item_ids, active, scores[active], j)


def save_dense_index(index: DenseIndex, out_dir: str | Path) -> None:
    """Binary layout: magic, u32 header (dim, count, version), row-major
    float32 LE matrix, u32 id-table length, JSON id table (UTF-8)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    matrix = np.ascontiguousarray(index.vectors, dtype="<f4")
    id_table = json.dumps(index.item_ids, ensure_ascii=False).encode("utf-8")
    with open(out / DENSE_FILE_NAME, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", index.dim, len(index.item_ids), FORMAT_VERSION))
        fh.write(matrix.tobytes())
        fh.write(struct.pack("<I", len(id_table)))
        fh.write(id_table)


def load_dense_index(kb_dir: str | Path) -> DenseIndex:
    path = Path(kb_dir) / DENSE_FILE_NAME
    blob = path.read_bytes()
    if blob[:4] != _MAGIC:
        raise IndexFormatError(path, "is not a dense vector file")
    try:
        dim, count, version = struct.unpack_from("<III", blob, 4)
        if version != FORMAT_VERSION:
            raise IndexFormatError(
                path, f"has dense index version {version}, expected {FORMAT_VERSION}"
            )
        offset = 4 + 12
        vectors = np.frombuffer(blob, dtype="<f4", count=count * dim, offset=offset)
        offset += vectors.nbytes
        (table_len,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        item_ids = json.loads(blob[offset : offset + table_len].decode("utf-8"))
        if len(item_ids) != count:
            raise IndexFormatError(path, "is truncated or inconsistent")
        matrix = vectors.reshape(count, dim).astype(np.float64)
        return DenseIndex(item_ids=item_ids, vectors=matrix, dim=dim)
    except (struct.error, ValueError) as exc:
        # Short reads from a truncated file, an undecodable id table, or
        # stored rows that are not unit vectors.
        raise IndexFormatError(path, f"is truncated or corrupt ({exc})") from exc
