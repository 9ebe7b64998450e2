"""TF-IDF inverted index over knowledge items with cosine scoring.

Weighting: tf = raw count, idf = ln(N/df) + 1, similarity = cosine.
Postings are CSR arrays: the postings of term ``t`` are
``post_pos[term_ptr[t]:term_ptr[t+1]]`` (item positions, ascending) and
the matching ``post_tf`` counts.  All float accumulation runs in
ascending term-id order (``np.bincount`` adds its weights in input
order), so scores are bit-identical to a dense vector computation of the
same formula.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .kb import CodeKnowledgeBase
from .lexing import subtokens
from .topj import top_j


@dataclass
class SparseIndex:
    item_ids: list[str]  # position -> knowledge item id
    vocabulary: dict[str, int]  # term -> term id (ids follow sorted term order)
    df: list[int]  # term id -> document frequency
    term_ptr: np.ndarray  # int64, term id -> start of its postings; len = terms + 1
    post_pos: np.ndarray  # int32 item positions, ascending within each term
    post_tf: np.ndarray  # int32 term counts, parallel to post_pos
    idf: list[float]
    item_norms: list[float]

    def __post_init__(self) -> None:
        self._norms = np.asarray(self.item_norms, dtype=np.float64)


def _term_counts(text: str) -> Counter[str]:
    """Counts in first-occurrence order, which fixes the postings order."""
    return Counter(subtokens(text))


def index_from_postings(
    item_ids: list[str],
    vocabulary: dict[str, int],
    term_ptr: np.ndarray,
    post_pos: np.ndarray,
    post_tf: np.ndarray,
) -> SparseIndex:
    """The index over these postings; idf and item norms are derived."""
    n = len(item_ids)
    df_arr = np.diff(term_ptr)
    df = df_arr.tolist()
    idf = [math.log(n / d) + 1.0 for d in df]
    # Postings run in ascending term-id order, so each item's squared
    # norm accumulates in the brute-force oracle's iteration order.
    w = post_tf * np.repeat(np.asarray(idf, dtype=np.float64), df_arr)
    norms_sq = np.bincount(post_pos, weights=w * w, minlength=n)
    return SparseIndex(
        item_ids=item_ids,
        vocabulary=vocabulary,
        df=df,
        term_ptr=term_ptr,
        post_pos=post_pos,
        post_tf=post_tf,
        idf=idf,
        item_norms=np.sqrt(norms_sq).tolist(),
    )


def build_sparse_index(kb: CodeKnowledgeBase) -> SparseIndex:
    """Index every knowledge item; vocabulary order is deterministic (sorted)."""
    item_ids = [item.id for item in kb.items]
    # Terms get ids in first-seen order while the items stream past, so no
    # item's counts outlive it; the ids are renumbered in sorted order below.
    seen: dict[str, int] = {}
    seen_tids = array("i")
    tfs = array("i")
    lengths: list[int] = []
    for item in kb.items:
        counts = _term_counts(item.text)
        seen_tids.extend([seen.setdefault(term, len(seen)) for term in counts])
        tfs.extend(counts.values())
        lengths.append(len(counts))

    terms = sorted(seen)
    vocabulary = {term: tid for tid, term in enumerate(terms)}
    renumber = np.array([vocabulary[term] for term in seen], dtype=np.int32)
    tid_arr = renumber[np.frombuffer(seen_tids, dtype=np.int32)]
    # Items were visited in position order; a stable sort by term id keeps
    # the positions ascending within each term.
    order = np.argsort(tid_arr, kind="stable")
    pos_arr = np.repeat(np.arange(len(item_ids), dtype=np.int32), lengths)
    term_ptr = np.zeros(len(terms) + 1, dtype=np.int64)
    np.cumsum(np.bincount(tid_arr, minlength=len(terms)), out=term_ptr[1:])
    return index_from_postings(
        item_ids,
        vocabulary,
        term_ptr,
        pos_arr[order],
        np.frombuffer(tfs, dtype=np.int32)[order],
    )


def sparse_retrieve(
    index: SparseIndex, query_text: str, j: int
) -> list[tuple[str, float]]:
    """Top-j items by TF-IDF cosine; zero-score items are excluded.

    Ties break by ascending item id.  Query terms outside the index
    vocabulary contribute nothing (they have no defined idf).
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    query_counts = _term_counts(query_text)
    known = sorted(
        (index.vocabulary[t], tf) for t, tf in query_counts.items() if t in index.vocabulary
    )
    if not known:
        return []

    q_norm_sq = 0.0
    pos_parts, weight_parts = [], []
    for tid, q_tf in known:
        qw = q_tf * index.idf[tid]
        q_norm_sq += qw * qw
        span = slice(index.term_ptr[tid], index.term_ptr[tid + 1])
        pos_parts.append(index.post_pos[span])
        weight_parts.append(qw * (index.post_tf[span] * index.idf[tid]))
    q_norm = math.sqrt(q_norm_sq)
    # Parts are in ascending term-id order, which bincount keeps per item.
    dots = np.bincount(
        np.concatenate(pos_parts),
        weights=np.concatenate(weight_parts),
        minlength=len(index.item_ids),
    )

    hit = np.flatnonzero(dots)
    scores = dots[hit] / (q_norm * index._norms[hit])
    return top_j(index.item_ids, hit, scores, j)
