"""Dense retrieval against an exhaustive per-item cosine oracle."""

from __future__ import annotations

import random

import numpy as np
import pytest

from coderag import store
from coderag.clients import StubEmbedder
from coderag.dense import build_dense_index, dense_retrieve
from coderag.errors import CodeRagError, EmbedderUnavailable, EmbeddingDimensionMismatch
from coderag.sparse import build_sparse_index

from .test_sparse import kb_from_texts
from .test_store import DENSE_DAMAGES, assert_damaged_file_asks_for_reindex


class FakeEmbedder:
    """Maps texts to preset vectors; unknown texts embed to zero."""

    def __init__(self, mapping: dict[str, list[float]], dim: int):
        self._mapping = mapping
        self._dim = dim

    def dimension(self) -> int:
        return self._dim

    def embed(self, text: str) -> list[float]:
        return list(self._mapping.get(text, [0.0] * self._dim))


def oracle_rank(index, query_vec: np.ndarray, j: int) -> list[tuple[str, float]]:
    """Exhaustive cosine over all stored (unit) vectors, plain Python dot."""
    q = np.asarray(query_vec, dtype=np.float64)
    qn = float(np.sqrt(sum(float(v) * float(v) for v in q)))
    if qn == 0.0:
        return []
    q = q / qn
    scored = []
    for pos, item_id in enumerate(index.item_ids):
        row = index.vectors[pos].astype(np.float64)
        if not row.any():
            continue
        dot = 0.0
        for a, b in zip(row, q):
            dot += float(a) * float(b)
        scored.append((item_id, dot))
    scored.sort(key=lambda p: (-p[1], p[0]))
    return scored[:j]


def test_two_items_unit_norm():
    kb = kb_from_texts(["def f(): parse(path)", "RATE = 2"])
    index = build_dense_index(kb, StubEmbedder())
    norms = np.linalg.norm(index.vectors, axis=1)
    assert norms == pytest.approx([1.0, 1.0], abs=1e-6)


def test_stub_embedder_rebuild_identical():
    kb = kb_from_texts(["alpha beta", "gamma delta", "alpha gamma"])
    a = build_dense_index(kb, StubEmbedder(dim=64, seed=0))
    b = build_dense_index(kb, StubEmbedder(dim=64, seed=0))
    assert a.vectors.tobytes() == b.vectors.tobytes()


def test_zero_vector_item_stored_and_excluded():
    kb = kb_from_texts(["alpha beta", ""])  # empty text embeds to zero
    index = build_dense_index(kb, StubEmbedder())
    assert not index.vectors[1].any()
    hits = dense_retrieve(index, "alpha", StubEmbedder(), j=5)
    assert [h[0] for h in hits] == ["item000"]


def test_query_equal_to_item_vector_scores_one():
    mapping = {"t0": [1.0, 0.0, 0.0], "t1": [0.0, 1.0, 0.0], "q": [1.0, 0.0, 0.0]}
    embedder = FakeEmbedder(mapping, dim=3)
    index = build_dense_index(kb_from_texts(["t0", "t1"]), embedder)
    hits = dense_retrieve(index, "q", embedder, j=2)
    assert hits[0][0] == "item000"
    assert hits[0][1] == pytest.approx(1.0, abs=1e-6)


def test_orthogonal_items_returned_with_zero_score():
    mapping = {"t0": [1.0, 0.0], "t1": [0.0, 1.0], "q": [1.0, 0.0]}
    embedder = FakeEmbedder(mapping, dim=2)
    index = build_dense_index(kb_from_texts(["t0", "t1"]), embedder)
    hits = dense_retrieve(index, "q", embedder, j=2)
    assert len(hits) == 2  # no score floor
    assert hits[1] == ("item001", pytest.approx(0.0, abs=1e-9))


def test_five_hand_set_vectors_match_brute_force():
    mapping = {
        "t0": [2.0, 0.0, 0.0],
        "t1": [1.0, 1.0, 0.0],
        "t2": [0.0, 3.0, 1.0],
        "t3": [-1.0, 0.5, 0.0],
        "t4": [0.3, 0.3, 0.3],
        "q": [1.0, 1.0, 0.2],
    }
    embedder = FakeEmbedder(mapping, dim=3)
    index = build_dense_index(kb_from_texts(["t0", "t1", "t2", "t3", "t4"]), embedder)
    hits = dense_retrieve(index, "q", embedder, j=5)
    raw = np.asarray(mapping["q"], dtype=np.float64)
    expected = oracle_rank(index, raw, 5)
    assert [h[0] for h in hits] == [e[0] for e in expected]
    assert [h[1] for h in hits] == pytest.approx([e[1] for e in expected])


def test_oracle_equivalence_randomized():
    rng = random.Random(31)
    vocab = ["parse", "config", "read", "sensor", "motor", "rate", "load", "path"]
    embedder = StubEmbedder(dim=16, seed=3)
    for trial in range(100):
        texts = [
            " ".join(rng.choices(vocab, k=rng.randint(0, 6)))
            for _ in range(rng.randint(1, 50))
        ]
        index = build_dense_index(kb_from_texts(texts), embedder)
        query = " ".join(rng.choices(vocab, k=rng.randint(1, 5)))
        j = rng.randint(1, 12)
        hits = dense_retrieve(index, query, embedder, j)
        expected = oracle_rank(index, np.asarray(embedder.embed(query)), j)
        assert [h[0] for h in hits] == [e[0] for e in expected], f"trial {trial}"
        assert [h[1] for h in hits] == pytest.approx([e[1] for e in expected])


def test_scale_invariance():
    base = StubEmbedder(dim=16, seed=3)

    class Scaled:
        def __init__(self, factor):
            self.factor = factor

        def dimension(self):
            return base.dimension()

        def embed(self, text):
            return [self.factor * v for v in base.embed(text)]

    texts = ["parse config", "sensor rate", "motor load"]
    kb = kb_from_texts(texts)
    plain = dense_retrieve(build_dense_index(kb, base), "parse rate", base, 3)
    scaled_up = dense_retrieve(build_dense_index(kb, Scaled(37.5)), "parse rate", Scaled(0.01), 3)
    assert [h[0] for h in plain] == [h[0] for h in scaled_up]
    assert [h[1] for h in plain] == pytest.approx([h[1] for h in scaled_up])


def test_round_trip(tmp_path):
    kb = kb_from_texts(["alpha beta", "", "gamma"])
    embedder = StubEmbedder(dim=8, seed=1)
    index = build_dense_index(kb, embedder)
    store.save(tmp_path, kb, build_sparse_index(kb), index)
    _, _, loaded = store.load(tmp_path)
    assert loaded.dim == index.dim
    assert loaded.item_ids == index.item_ids
    assert loaded.vectors.tobytes() == index.vectors.tobytes()
    assert dense_retrieve(loaded, "alpha", embedder, 3) == dense_retrieve(index, "alpha", embedder, 3)


def test_embedder_failure_aborts_build_with_progress():
    class DiesOnThird:
        def __init__(self):
            self.calls = 0

        def dimension(self):
            return 4

        def embed(self, text):
            self.calls += 1
            if self.calls > 2:
                raise EmbedderUnavailable("down")
            return [1.0, 0.0, 0.0, 0.0]

    with pytest.raises(EmbedderUnavailable) as exc_info:
        build_dense_index(kb_from_texts(["a", "b", "c", "d"]), DiesOnThird())
    assert exc_info.value.items_embedded == 2
    assert exc_info.value.total_items == 4


def test_zero_query_returns_empty():
    embedder = StubEmbedder(dim=8)
    index = build_dense_index(kb_from_texts(["alpha"]), embedder)
    assert dense_retrieve(index, "", embedder, 3) == []


def test_tie_at_the_cut_matches_oracle():
    # Identical texts embed to identical vectors, so 30 items tie for first
    # and straddle rank j.
    rng = random.Random(8)
    texts = ["parse config"] * 30 + ["parse"] * 10 + ["config read"] * 10
    rng.shuffle(texts)
    embedder = StubEmbedder(dim=16, seed=3)
    index = build_dense_index(kb_from_texts(texts), embedder)
    for j in (1, 7, 15, 30, 31, 45):
        hits = dense_retrieve(index, "parse config", embedder, j)
        expected = oracle_rank(index, np.asarray(embedder.embed("parse config")), j)
        assert [h[0] for h in hits] == [e[0] for e in expected], f"j={j}"
        assert [h[1] for h in hits] == pytest.approx([e[1] for e in expected])


def test_tie_at_the_cut_breaks_by_id_not_position():
    ids = [f"id{i:02d}" for i in range(40)][::-1]  # position order is id order reversed
    embedder = StubEmbedder(dim=16, seed=3)
    index = build_dense_index(kb_from_texts(["parse config"] * 40, ids), embedder)
    hits = dense_retrieve(index, "parse config", embedder, 5)
    assert [h[0] for h in hits] == ["id00", "id01", "id02", "id03", "id04"]


@pytest.mark.parametrize("seed", [11, 12])
def test_oracle_equivalence_large_corpus(seed):
    rng = random.Random(seed)
    vocab = ["parse", "config", "read", "sensor", "motor", "rate", "load", "path"]
    embedder = StubEmbedder(dim=16, seed=3)
    texts = [" ".join(rng.choices(vocab, k=rng.randint(0, 6))) for _ in range(2500)]
    index = build_dense_index(kb_from_texts(texts), embedder)
    for _ in range(4):
        query = " ".join(rng.choices(vocab, k=rng.randint(1, 5)))
        j = rng.randint(1, 15)
        hits = dense_retrieve(index, query, embedder, j)
        expected = oracle_rank(index, np.asarray(embedder.embed(query)), j)
        assert [h[0] for h in hits] == [e[0] for e in expected], f"query={query!r} j={j}"
        assert [h[1] for h in hits] == pytest.approx([e[1] for e in expected])


def test_query_dimension_mismatch_is_typed():
    index = build_dense_index(kb_from_texts(["alpha beta"]), StubEmbedder(dim=64))
    with pytest.raises(EmbeddingDimensionMismatch) as exc_info:
        dense_retrieve(index, "alpha", StubEmbedder(dim=32), 3)
    err = exc_info.value
    assert isinstance(err, CodeRagError)
    assert (err.index_dim, err.query_dim) == (64, 32)
    assert "64" in str(err) and "32" in str(err)


@pytest.mark.parametrize("damage", DENSE_DAMAGES)
def test_damaged_file_asks_for_reindex(tmp_path, damage):
    assert_damaged_file_asks_for_reindex(tmp_path, "dense.vec", damage)
