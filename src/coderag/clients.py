"""The model-client contract, the client bundle and the stub clients.

One protocol per model: the probe that scores chunks to build the query,
the dense path's embedder, the rerank picker and the code generator;
:class:`PipelineClients` holds one of each.  Every client is
deterministic at temperature 0 and allows concurrent calls (``coderag
evaluate`` runs 4 task threads).  A client whose calls block on I/O sets
``waits_on_io``, and then its independent calls overlap on the fan-out
pool (:mod:`coderag.fanout`); any other client is called from one thread
at a time within a task.

The stubs need no model: scoring is identifier overlap, embeddings are
seeded token-hash projections.  They make the pipeline runnable and
reproducible at desk scale; the HTTP clients live in :mod:`coderag.wire`.
"""

from __future__ import annotations

import functools
import hashlib
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence

from .errors import InvalidPickReply
from .lexing import identifier_set, subtokens

if TYPE_CHECKING:
    from .config import RunConfig

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


class ProbeClient(Protocol):
    """Sum over m greedy steps of the maximum vocabulary log-probability.
    An outage raises ``ProbeUnavailable``."""

    def greedy_score(self, prompt: str, m: int) -> float: ...


class EmbedderClient(Protocol):
    """Text encoder; all vectors share one dimension.  An outage raises
    ``EmbedderUnavailable``."""

    def embed(self, text: str) -> list[float]: ...

    def dimension(self) -> int: ...


class PickerClient(Protocol):
    """``pick`` returns the 0-based position of the most helpful snippet
    in ``window``.  A bad reply (:func:`checked_pick`) is retried once by
    the tournament, which then falls back to window position 0, and is no
    vote in distillation.  An outage raises ``PickerUnavailable``."""

    def pick(self, query_text: str, window: Sequence[str]) -> int: ...


class GeneratorClient(Protocol):
    """Completion model; ``config`` supplies ``max_new_tokens`` and
    ``temperature``.  An optional ``count_tokens`` counts prompt tokens,
    else prompt assembly uses an approximate count with a safety margin."""

    def generate(self, prompt: str, config: RunConfig) -> str: ...


def checked_pick(picker: PickerClient, query_text: str, window: Sequence[str]) -> int | None:
    """The picker's reply if it is a position in ``window``, else ``None``
    (for an :class:`InvalidPickReply` too); ``PickerUnavailable`` propagates."""
    try:
        reply = picker.pick(query_text, window)
    except InvalidPickReply:
        return None
    return reply if isinstance(reply, int) and 0 <= reply < len(window) else None


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
