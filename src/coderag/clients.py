"""Deterministic in-process model clients.

These stubs satisfy the probe/embedder/picker/generator contracts without
any model: scoring is identifier overlap, embeddings are seeded token-hash
projections.  They make the whole pipeline runnable and reproducible at
desk scale; remote clients live in :mod:`coderag.wire`.
"""

from __future__ import annotations

import functools
import hashlib
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .lexing import identifier_set, subtokens

if TYPE_CHECKING:
    from .dense import EmbedderClient
    from .pipeline import GeneratorClient
    from .querybuild import ProbeClient
    from .rerank import PickerClient

_APPROX_TOKEN_RE = re.compile(r"\w+|[^\w\s]")

# Bounded memo tables of the stub clients.  ``functools.lru_cache`` is
# safe to call from several threads; a race can only compute one entry
# twice, with the same result.
# Token slots: CPython 3.11's standard library has 45,556 distinct
# subtokens and hits 96.9% at 4,096 entries (98.7% at 32,768).  Texts: a
# task reads its query and at most 2j + 1 snippets (32 at the defaults),
# so 256 holds the texts of FANOUT_WIDTH concurrent tasks twice over.
TOKEN_SLOT_CACHE_SIZE = 1 << 12  # (seed, dim, token) -> (bucket, sign)
PICK_TOKENS_CACHE_SIZE = 256  # text -> subtoken set


@dataclass
class PipelineClients:
    """The four models one completion talks to."""

    probe: ProbeClient
    embedder: EmbedderClient
    picker: PickerClient
    generator: GeneratorClient


def approx_token_count(text: str) -> int:
    """Whitespace+punctuation token estimate for clients with no tokenizer."""
    return len(_APPROX_TOKEN_RE.findall(text))


class StubProbe:
    """Identifier-overlap probe: confidence is minus the number of distinct
    identifiers in the prompt (always <= 0).  A probe prompt is a chunk
    followed by the target chunk, so the more identifiers the chunk shares
    with the target, the higher it scores.  The generation step count is
    accepted for interface compatibility and ignored.
    """

    def greedy_score(self, prompt: str, m: int) -> float:
        return -float(len(identifier_set(prompt)))


class StubEmbedder:
    """Signed token-hash bag projection with a fixed seed.

    Hashing goes through sha256 so vectors are stable across processes;
    texts with no tokens embed to the zero vector.
    """

    def __init__(self, dim: int = 64, seed: int = 0):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self._dim = dim
        self._seed = seed

    def dimension(self) -> int:
        return self._dim

    def embed(self, text: str) -> list[float]:
        vec = [0.0] * self._dim
        seed, dim = self._seed, self._dim
        for token in subtokens(text):
            bucket, sign = _token_slot(seed, dim, token)
            vec[bucket] += sign
        return vec


@functools.lru_cache(maxsize=TOKEN_SLOT_CACHE_SIZE)
def _token_slot(seed: int, dim: int, token: str) -> tuple[int, float]:
    """The vector component one token adds to, and its sign."""
    digest = hashlib.sha256(f"{seed}:{token}".encode("utf-8")).digest()
    bucket = int.from_bytes(digest[:4], "big") % dim
    return bucket, 1.0 if digest[4] & 1 == 0 else -1.0


@functools.lru_cache(maxsize=PICK_TOKENS_CACHE_SIZE)
def _token_set(text: str) -> frozenset[str]:
    return frozenset(subtokens(text))


class OverlapPicker:
    """Picks the snippet sharing the most subtokens with the query; ties
    go to the earliest window position.  Subtokens rather than whole
    identifiers so a half-typed name still matches its completion."""

    def pick(self, query_text: str, window: Sequence[str]) -> int:
        query_tokens = _token_set(query_text)
        best_idx = 0
        best_score = -1
        for idx, text in enumerate(window):
            score = len(_token_set(text) & query_tokens)
            if score > best_score:
                best_idx, best_score = idx, score
        return best_idx


class EchoGenerator:
    """Deterministic generator: echoes the prompt's final (cursor) line."""

    def generate(self, prompt: str, config) -> str:
        return prompt.rsplit("\n", 1)[-1]

    def count_tokens(self, text: str) -> int:
        return approx_token_count(text)
