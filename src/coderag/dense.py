"""Embedding-based retrieval over knowledge items.

Vectors are L2-normalized at index time so cosine equals dot product.
The scan is exact brute force; knowledge bases here are repo-sized.
Items that embed to the zero vector are stored as zeros and never
retrieved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .errors import EmbedderUnavailable, EmbeddingDimensionMismatch
from .fanout import call_each
from .kb import CodeKnowledgeBase
from .topj import top_j


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
    # float64 holding float32-rounded values, the precision it is saved in;
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
