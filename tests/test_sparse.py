"""TF-IDF index against a brute-force dense-vector oracle (same formula)."""

from __future__ import annotations

import json
import math
import random

import pytest

from coderag import store
from coderag.clients import StubEmbedder
from coderag.dense import build_dense_index
from coderag.errors import CodeRagError, IndexFormatError
from coderag.kb import CodeKnowledgeBase, CodeKnowledgeItem, ItemKind
from coderag.lexing import subtokens
from coderag.sparse import build_sparse_index, sparse_retrieve

from .test_store import SPARSE_DAMAGES, assert_damaged_file_asks_for_reindex


def kb_from_texts(texts: list[str], ids: list[str] | None = None) -> CodeKnowledgeBase:
    items = [
        CodeKnowledgeItem(
            id=ids[i] if ids else f"item{i:03d}",
            kind=ItemKind.FUNCTION,
            qualified_name=f"f{i}",
            file_path="corpus.py",
            line_span=(i + 1, i + 1),
            text=text,
        )
        for i, text in enumerate(texts)
    ]
    return CodeKnowledgeBase(
        items=items, repo_root="/corpus", file_manifest={"corpus.py": "0"}
    )


def oracle_retrieve(texts: list[str], query: str, j: int) -> list[tuple[str, float]]:
    """Brute force: full TF-IDF vectors per item, cosine over every term id,
    identical floating-point formula (tf * (ln(N/df)+1), dot / (|q||d|))."""
    n = len(texts)
    counts = [{} for _ in texts]
    for i, text in enumerate(texts):
        for tok in subtokens(text):
            counts[i][tok] = counts[i].get(tok, 0) + 1
    terms = sorted({t for c in counts for t in c})
    df = {t: sum(1 for c in counts if t in c) for t in terms}
    idf = {t: math.log(n / df[t]) + 1.0 for t in terms}

    def vector(count_map):
        return [count_map.get(t, 0) * idf[t] for t in terms]

    def norm(vec):
        s = 0.0
        for v in vec:
            s += v * v
        return math.sqrt(s)

    q_counts = {}
    for tok in subtokens(query):
        if tok in idf:
            q_counts[tok] = q_counts.get(tok, 0) + 1
    if not q_counts:
        return []
    qv = vector(q_counts)
    qn = norm(qv)
    scored = []
    for i, c in enumerate(counts):
        dv = vector(c)
        dot = 0.0
        for a, b in zip(qv, dv):
            dot += a * b
        if dot != 0.0:
            scored.append((f"item{i:03d}", dot / (qn * norm(dv))))
    scored.sort(key=lambda p: (-p[1], p[0]))
    return scored[:j]


def test_document_frequencies_by_hand():
    index = build_sparse_index(kb_from_texts(["a b", "b c"]))
    df = {term: index.df[tid] for term, tid in index.vocabulary.items()}
    assert df == {"a": 1, "b": 2, "c": 1}


def test_single_item_idf_is_one():
    index = build_sparse_index(kb_from_texts(["a b"]))
    assert all(v == pytest.approx(1.0) for v in index.idf)  # ln(1/1)+1


def test_empty_text_item_indexed_but_never_retrieved():
    index = build_sparse_index(kb_from_texts(["a b", ""]))
    assert index.item_norms[1] == 0.0
    hits = sparse_retrieve(index, "a b", j=5)
    assert [h[0] for h in hits] == ["item000"]


def test_query_a_ranks_overlap_only():
    texts = ["a b", "b c"]
    index = build_sparse_index(kb_from_texts(texts))
    hits = sparse_retrieve(index, "a", j=2)
    expected = oracle_retrieve(texts, "a", 2)
    assert hits == expected  # exact float equality, same formula
    assert [h[0] for h in hits] == ["item000"]  # item 1 shares no term


def test_no_overlap_returns_empty():
    index = build_sparse_index(kb_from_texts(["a b", "b c"]))
    assert sparse_retrieve(index, "zzz", j=3) == []


def test_identical_query_scores_one_and_ranks_first():
    texts = ["alpha beta gamma", "beta delta", "gamma alpha"]
    index = build_sparse_index(kb_from_texts(texts))
    hits = sparse_retrieve(index, "alpha beta gamma", j=3)
    assert hits[0][0] == "item000"
    assert hits[0][1] == pytest.approx(1.0, abs=1e-12)


VOCAB = ["parse", "config", "read", "write", "sensor", "motor", "rate", "util", "load", "path"]


def random_corpus(rng: random.Random, max_items: int = 50) -> list[str]:
    n = rng.randint(1, max_items)
    return [
        " ".join(rng.choices(VOCAB, k=rng.randint(0, 8))) for _ in range(n)
    ]


def test_oracle_equivalence_randomized():
    rng = random.Random(2024)
    for trial in range(100):
        texts = random_corpus(rng)
        index = build_sparse_index(kb_from_texts(texts))
        query = " ".join(rng.choices(VOCAB + ["missing"], k=rng.randint(1, 6)))
        j = rng.randint(1, 10)
        assert sparse_retrieve(index, query, j) == oracle_retrieve(texts, query, j), (
            f"trial {trial}: corpus={texts!r} query={query!r} j={j}"
        )


def test_score_bounds():
    rng = random.Random(99)
    for _ in range(20):
        texts = random_corpus(rng, max_items=20)
        index = build_sparse_index(kb_from_texts(texts))
        for _, score in sparse_retrieve(index, " ".join(rng.choices(VOCAB, k=4)), j=20):
            assert 0.0 < score <= 1.0 + 1e-12


def test_unrelated_item_preserves_order_for_fixed_index():
    # With the idf table frozen, an item that matches no query term never
    # enters the accumulator, so adding one changes nothing.  (A rebuild
    # recomputes idf over a larger N, which may legitimately reorder
    # near-ties; the property is stated for a fixed index.)
    import dataclasses

    rng = random.Random(5)
    for _ in range(20):
        texts = random_corpus(rng, max_items=15)
        query = " ".join(rng.choices(VOCAB, k=4))
        index = build_sparse_index(kb_from_texts(texts))
        grown = dataclasses.replace(
            index,
            item_ids=index.item_ids + ["unrelated"],
            item_norms=index.item_norms + [0.0],
        )
        assert sparse_retrieve(grown, query, 16) == sparse_retrieve(index, query, 15)


def save_index(kb: CodeKnowledgeBase, sparse, out) -> None:
    """Save ``sparse`` with ``kb`` and a dense index, as ``coderag index`` does."""
    store.save(out, kb, sparse, build_dense_index(kb, StubEmbedder(dim=4)))


def test_round_trip(tmp_path):
    texts = ["parse config path", "sensor read rate", ""]
    kb = kb_from_texts(texts)
    index = build_sparse_index(kb)
    save_index(kb, index, tmp_path)
    _, loaded, _ = store.load(tmp_path)
    assert loaded.vocabulary == index.vocabulary
    assert loaded.idf == index.idf
    assert loaded.item_norms == index.item_norms
    assert sparse_retrieve(loaded, "parse rate", 3) == sparse_retrieve(index, "parse rate", 3)
    # persisted bytes are stable
    save_index(kb, loaded, tmp_path / "again")
    assert (tmp_path / "sparse.idx").read_bytes() == (tmp_path / "again" / "sparse.idx").read_bytes()


def test_j_must_be_positive():
    index = build_sparse_index(kb_from_texts(["a"]))
    with pytest.raises(ValueError):
        sparse_retrieve(index, "a", 0)


def test_tie_at_the_cut_matches_oracle():
    # 30 identical items tie at score 1.0 and straddle rank j; others score lower.
    rng = random.Random(8)
    texts = ["parse config"] * 30 + ["parse"] * 10 + ["config read"] * 10
    rng.shuffle(texts)
    index = build_sparse_index(kb_from_texts(texts))
    for j in (1, 7, 15, 30, 31, 45):
        assert sparse_retrieve(index, "parse config", j) == oracle_retrieve(
            texts, "parse config", j
        )


def test_tie_at_the_cut_breaks_by_id_not_position():
    ids = [f"id{i:02d}" for i in range(40)][::-1]  # position order is id order reversed
    index = build_sparse_index(kb_from_texts(["parse config"] * 40, ids))
    hits = sparse_retrieve(index, "parse", 5)
    assert [h[0] for h in hits] == ["id00", "id01", "id02", "id03", "id04"]


@pytest.mark.parametrize("seed", [11, 12])
def test_oracle_equivalence_large_corpus(seed):
    # Enough items that the candidate count far exceeds j, so the partition
    # step (not just the final sort) decides the result.
    rng = random.Random(seed)
    texts = [" ".join(rng.choices(VOCAB, k=rng.randint(0, 6))) for _ in range(2500)]
    index = build_sparse_index(kb_from_texts(texts))
    for _ in range(6):
        query = " ".join(rng.choices(VOCAB + ["missing"], k=rng.randint(1, 6)))
        j = rng.randint(1, 15)
        assert sparse_retrieve(index, query, j) == oracle_retrieve(texts, query, j), (
            f"query={query!r} j={j}"
        )


def test_binary_layout_header(tmp_path):
    kb = kb_from_texts(["a b", "b c", ""])
    save_index(kb, build_sparse_index(kb), tmp_path)
    blob = (tmp_path / "sparse.idx").read_bytes()
    assert blob[:4] == b"CRSI"
    # version, items, terms, postings
    assert [int.from_bytes(blob[i : i + 4], "little") for i in range(4, 20, 4)] == [3, 3, 3, 4]
    assert blob[20:52] == store.fingerprint(kb)


def test_version_1_json_index_asks_for_reindex(tmp_path):
    kb = kb_from_texts(["a"])
    save_index(kb, build_sparse_index(kb), tmp_path)
    payload = {"version": 1, "item_ids": ["item000"], "terms": ["a"], "df": [1],
               "postings": [[[0, 1]]]}
    (tmp_path / "sparse.idx").write_text(json.dumps(payload) + "\n", encoding="utf-8")
    with pytest.raises(IndexFormatError, match="coderag index") as exc_info:
        store.load(tmp_path)
    assert isinstance(exc_info.value, CodeRagError)
    assert "version-1" in str(exc_info.value)


@pytest.mark.parametrize("damage", SPARSE_DAMAGES)
def test_damaged_file_asks_for_reindex(tmp_path, damage):
    assert_damaged_file_asks_for_reindex(tmp_path, "sparse.idx", damage)
