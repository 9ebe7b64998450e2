"""Stub clients: pinned embeddings, the overlap picker against an
uncached reference, and their memo tables under concurrent use."""

from __future__ import annotations

import hashlib
import random
import struct
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coderag.clients import OverlapPicker, StubEmbedder, _token_set, _token_slot
from coderag.lexing import _split_word

from .subtokens_oracle import oracle_subtokens

# Vectors computed by the unmemoized embedder (one sha256 per token).
GOLDEN_VECTORS = [
    (8, 0, "parse_config", [1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0]),
    (8, 3, "HTTPServer.handle(request) utf8 42", [1.0, -2.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0]),
    (
        16,
        0,
        "def totalCount(x):\n    return x + 1  # über naïve_Überfall",
        [0.0, 1.0, 1.0, 0.0, 0.0, -1.0, 0.0, 0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, -1.0],
    ),
    (4, 7, "", [0.0, 0.0, 0.0, 0.0]),
    (5, 1, "a a a B b", [0.0, 0.0, -3.0, -2.0, 0.0]),
]
GOLDEN_64_TEXT = (
    "class HTTPServer:\n    def handle_request(self, rawBytes, utf8Name):\n"
    "        return parse_config(rawBytes) + 42  # déjà vu\n"
)
GOLDEN_64_SHA256 = "0935f48c76323702da02dd31319a5e25b091ae281c5bbc7329a73c0722059bfc"


@pytest.mark.parametrize("dim,seed,text,expected", GOLDEN_VECTORS)
def test_stub_embedder_golden_vectors(dim, seed, text, expected):
    embedder = StubEmbedder(dim=dim, seed=seed)
    assert embedder.embed(text) == expected
    assert embedder.embed(text) == expected  # again, from the memo


def test_stub_embedder_golden_64_dim_vector():
    vec = StubEmbedder(dim=64, seed=0).embed(GOLDEN_64_TEXT)
    assert hashlib.sha256(struct.pack("<64d", *vec)).hexdigest() == GOLDEN_64_SHA256


def test_token_memo_keeps_seed_and_dim_apart():
    text = "alpha beta gamma delta"
    a = StubEmbedder(dim=16, seed=0).embed(text)
    assert StubEmbedder(dim=16, seed=1).embed(text) != a
    assert len(StubEmbedder(dim=17, seed=0).embed(text)) == 17
    assert StubEmbedder(dim=16, seed=0).embed(text) == a


def reference_pick(query_text: str, window: list[str]) -> int:
    """The picker's rule, re-splitting every text on every call."""
    query_tokens = set(oracle_subtokens(query_text))
    scores = [len(set(oracle_subtokens(text)) & query_tokens) for text in window]
    return scores.index(max(scores))


_WORDS = ["parse", "Config", "load_data", "HTTPServer", "x1", "42", "value", "é", "_"]
_texts = st.lists(st.sampled_from(_WORDS), max_size=8).map(" ".join)


@settings(max_examples=200, deadline=None)
@given(_texts, st.lists(_texts, min_size=1, max_size=5))
def test_overlap_picker_equals_uncached_reference(query, window):
    picker = OverlapPicker()
    assert picker.pick(query, window) == reference_pick(query, window)
    assert picker.pick(query, window) == reference_pick(query, window)


def _random_text(rng: random.Random) -> str:
    stems = ["get", "Set", "item", "Cache", "node", "HTTP", "v2", "ß"]
    tails = ["", "_x", "Y", "7"]
    return " ".join(rng.choice(stems) + rng.choice(tails) for _ in range(rng.randint(0, 12)))


def test_concurrent_embed_and_pick_equal_serial():
    rng = random.Random(11)
    texts = [_random_text(rng) for _ in range(400)]
    windows = [(rng.choice(texts), rng.sample(texts, 3)) for _ in range(400)]
    embedder, picker = StubEmbedder(dim=32, seed=4), OverlapPicker()

    def work(shard: int) -> tuple[list, list]:
        return (
            [embedder.embed(t) for t in texts[shard::4]],
            [picker.pick(q, w) for q, w in windows[shard::4]],
        )

    for memo in (_split_word, _token_slot, _token_set):
        memo.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the memo lookups too
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            concurrent = [f.result(timeout=60) for f in [pool.submit(work, s) for s in range(4)]]
    finally:
        sys.setswitchinterval(interval)
    for memo in (_split_word, _token_slot, _token_set):
        memo.cache_clear()
    serial = [work(shard) for shard in range(4)]
    assert concurrent == serial
    assert serial[0][1] == [reference_pick(q, w) for q, w in windows[0::4]]


@pytest.mark.parametrize("memo", [_split_word, _token_slot, _token_set])
def test_memo_tables_are_bounded(memo):
    maxsize = memo.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 1 << 16
