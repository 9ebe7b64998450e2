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

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import IndexFormatError
from .kb import CodeKnowledgeBase
from .lexing import subtokens
from .topj import top_j

SPARSE_FILE_NAME = "sparse.idx"
FORMAT_VERSION = 2
_MAGIC = b"CRSI"


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

    @property
    def item_count(self) -> int:
        return len(self.item_ids)


def _term_counts(text: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for token in subtokens(text):
        counts[token] = counts.get(token, 0) + 1
    return counts


def _finalize(
    item_ids: list[str],
    vocabulary: dict[str, int],
    term_ptr: np.ndarray,
    post_pos: np.ndarray,
    post_tf: np.ndarray,
) -> SparseIndex:
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
    per_item_counts = [_term_counts(item.text) for item in kb.items]

    terms = sorted({term for counts in per_item_counts for term in counts})
    vocabulary = {term: tid for tid, term in enumerate(terms)}
    tids: list[int] = []
    tfs: list[int] = []
    for counts in per_item_counts:
        tids.extend(map(vocabulary.__getitem__, counts))
        tfs.extend(counts.values())
    lengths = [len(counts) for counts in per_item_counts]
    tid_arr = np.asarray(tids, dtype=np.int64)
    # Items were visited in position order; a stable sort by term id keeps
    # the positions ascending within each term.
    order = np.argsort(tid_arr, kind="stable")
    pos_arr = np.repeat(np.arange(len(item_ids), dtype=np.int32), lengths)
    term_ptr = np.zeros(len(terms) + 1, dtype=np.int64)
    np.cumsum(np.bincount(tid_arr, minlength=len(terms)), out=term_ptr[1:])
    return _finalize(
        item_ids,
        vocabulary,
        term_ptr,
        pos_arr[order],
        np.asarray(tfs, dtype=np.int32)[order],
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
        minlength=index.item_count,
    )

    hit = np.flatnonzero(dots)
    scores = dots[hit] / (q_norm * index._norms[hit])
    return top_j(index.item_ids, hit, scores, j)


def save_sparse_index(index: SparseIndex, out_dir: str | Path) -> None:
    """Binary layout (all little-endian): magic, u32 header (version, item
    count, term count, postings count), i64 ``term_ptr``, i32 ``post_pos``,
    i32 ``post_tf``, then two tables, each a u32 byte length and UTF-8
    JSON: the terms in term-id order, then the item ids.  Document
    frequencies are ``diff(term_ptr)`` and are not stored twice."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    terms = sorted(index.vocabulary, key=index.vocabulary.get)
    header = struct.pack(
        "<IIII", FORMAT_VERSION, len(index.item_ids), len(terms), len(index.post_pos)
    )
    with open(out / SPARSE_FILE_NAME, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(header)
        fh.write(np.ascontiguousarray(index.term_ptr, dtype="<i8").tobytes())
        fh.write(np.ascontiguousarray(index.post_pos, dtype="<i4").tobytes())
        fh.write(np.ascontiguousarray(index.post_tf, dtype="<i4").tobytes())
        for table in (terms, index.item_ids):
            blob = json.dumps(table, ensure_ascii=False).encode("utf-8")
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)


def load_sparse_index(kb_dir: str | Path) -> SparseIndex:
    path = Path(kb_dir) / SPARSE_FILE_NAME
    blob = path.read_bytes()
    if blob[:4] != _MAGIC:
        if blob[:1] == b"{":
            raise IndexFormatError(
                path, "is a version-1 (JSON) sparse index, which this version no longer reads"
            )
        raise IndexFormatError(path, "is not a sparse index file")
    try:
        version, n_items, n_terms, n_postings = struct.unpack_from("<IIII", blob, 4)
        if version != FORMAT_VERSION:
            raise IndexFormatError(
                path, f"has sparse index version {version}, expected {FORMAT_VERSION}"
            )
        offset = 4 + 16
        arrays = []
        for dtype, count in (("<i8", n_terms + 1), ("<i4", n_postings), ("<i4", n_postings)):
            raw = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
            arrays.append(raw.astype(raw.dtype.newbyteorder("=")))
            offset += raw.nbytes
        tables = []
        for _ in range(2):
            (length,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            tables.append(json.loads(blob[offset : offset + length].decode("utf-8")))
            offset += length
        terms, item_ids = tables
        if len(terms) != n_terms or len(item_ids) != n_items:
            raise IndexFormatError(path, "is truncated or inconsistent")
        term_ptr, post_pos, post_tf = arrays
        vocabulary = {term: tid for tid, term in enumerate(terms)}
        return _finalize(item_ids, vocabulary, term_ptr, post_pos, post_tf)
    except (struct.error, ValueError) as exc:
        # Short reads from a truncated file, undecodable tables, arrays
        # that do not fit together.
        raise IndexFormatError(path, f"is truncated or corrupt ({exc})") from exc
