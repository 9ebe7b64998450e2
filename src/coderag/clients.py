"""Deterministic in-process model clients.

These stubs satisfy the probe/embedder/picker/generator contracts without
any model: scoring is identifier overlap, embeddings are seeded token-hash
projections.  They make the whole pipeline runnable and reproducible at
desk scale; remote clients live in :mod:`coderag.wire`.
"""

from __future__ import annotations

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
    identifiers in the prompt that the target does not share (always <= 0,
    higher means more overlap).  The generation step count is accepted for
    interface compatibility and ignored.
    """

    def __init__(self, target_text: str = ""):
        self._target_ids = identifier_set(target_text)

    def greedy_score(self, prompt: str, m: int) -> float:
        return -float(len(identifier_set(prompt) - self._target_ids))


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
        for token in subtokens(text):
            digest = hashlib.sha256(f"{self._seed}:{token}".encode("utf-8")).digest()
            bucket = int.from_bytes(digest[:4], "big") % self._dim
            sign = 1.0 if digest[4] & 1 == 0 else -1.0
            vec[bucket] += sign
        return vec


class OverlapPicker:
    """Picks the snippet sharing the most subtokens with the query; ties
    go to the earliest window position.  Subtokens rather than whole
    identifiers so a half-typed name still matches its completion."""

    def pick(self, query_text: str, window: Sequence[str]) -> int:
        query_tokens = set(subtokens(query_text))
        best_idx = 0
        best_score = -1
        for idx, text in enumerate(window):
            score = len(set(subtokens(text)) & query_tokens)
            if score > best_score:
                best_idx, best_score = idx, score
        return best_idx


class EchoGenerator:
    """Deterministic generator: returns a fixed completion, or echoes the
    prompt's final (cursor) line when none is configured."""

    def __init__(self, fixed_completion: str | None = None):
        self._fixed = fixed_completion

    def generate(self, prompt: str, config) -> str:
        if self._fixed is not None:
            return self._fixed
        return prompt.rsplit("\n", 1)[-1]

    def count_tokens(self, text: str) -> int:
        return approx_token_count(text)
