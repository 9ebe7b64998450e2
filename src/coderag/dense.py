"""Embedding-based retrieval over knowledge items.

Vectors are L2-normalized at index time so cosine equals dot product.
The scan is exact brute force; knowledge bases here are repo-sized.
Items that embed to the zero vector are stored as zeros and never
retrieved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clients import EmbedderClient
from .errors import EmbedderUnavailable, EmbeddingDimensionMismatch
from .fanout import call_each
from .kb import CodeKnowledgeBase
from .topj import top_j


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

    An embedder failure aborts the build with an
    :class:`EmbedderUnavailable` naming the first item that failed.  The
    embeds overlap when the embedder waits on I/O
    (:func:`coderag.fanout.call_each`); each writes only its own row.
    """
    dim = embedder.dimension()
    items = kb.items
    rows = np.zeros((len(items), dim), dtype=np.float64)

    def embed_row(pos: int) -> None:
        item = items[pos]
        try:
            raw = np.asarray(embedder.embed(item.text), dtype=np.float64)
        except EmbedderUnavailable as exc:
            raise EmbedderUnavailable(
                f"embedding item {pos} of {len(items)} "
                f"({item.file_path}:{item.line_span[0]}) failed: {exc}"
            ) from exc
        if raw.shape != (dim,):
            raise ValueError(
                f"embedder returned shape {raw.shape} for item {item.id}, "
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
