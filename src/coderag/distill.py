"""Consistency-filtered training data for distilling the picker.

For every retrieval list and every candidate-set size, three random
subsets are drawn; each subset is voted on five times by the picker and
emitted as a training sample only when one snippet collects at least four
of the five votes.
"""

from __future__ import annotations

import json
import logging
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .clients import PickerClient, checked_pick
from .errors import PickerUnavailable
from .evaluation import read_json_lines

DEFAULT_SAMPLE_SIZES = (2, 3, 4, 5, 6, 7)
SUBSETS_PER_SIZE = 3
VOTES_PER_SUBSET = 5
CONSENSUS_THRESHOLD = 4

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Snippet:
    item_id: str
    text: str


@dataclass(frozen=True)
class DistillationSample:
    query_text: str
    snippets: tuple[Snippet, ...]  # window order shown to the picker
    chosen_id: str
    votes: tuple[str, ...]  # the five picked item ids

    def verify(self) -> bool:
        """Re-check the consensus rule from the stored votes."""
        if len(self.votes) != VOTES_PER_SUBSET:
            return False
        if all(s.item_id != self.chosen_id for s in self.snippets):
            return False
        return Counter(self.votes)[self.chosen_id] >= CONSENSUS_THRESHOLD


def vote_on_subset(
    query_text: str,
    subset: Sequence[Snippet],
    picker: PickerClient,
) -> DistillationSample | None:
    """Five picks over one candidate window; a sample on >= 4/5 consensus.

    Every vote sees the same window order.  An invalid reply
    (:func:`coderag.clients.checked_pick`) is no vote, and a sample needs
    five, so the subset then yields no sample and is not asked again.
    """
    window = [s.text for s in subset]
    votes: list[str] = []
    for _ in range(VOTES_PER_SUBSET):
        idx = checked_pick(picker, query_text, window)
        if idx is None:
            return None
        votes.append(subset[idx].item_id)
    top_id, count = Counter(votes).most_common(1)[0]
    if count < CONSENSUS_THRESHOLD:
        return None
    return DistillationSample(
        query_text=query_text,
        snippets=tuple(subset),
        chosen_id=top_id,
        votes=tuple(votes),
    )


def build_distillation_data(
    queries_with_lists: Iterable[tuple[str, Sequence[Snippet]]],
    picker: PickerClient,
    sample_sizes: Sequence[int] = DEFAULT_SAMPLE_SIZES,
    rng_seed: int = 0,
) -> list[DistillationSample]:
    """Generate samples for every (query, candidate list) pair.

    For each size i, three subsets of i snippets are drawn without
    replacement (subsets may coincide across draws); lists shorter than i
    skip that size.  Identical seed, inputs and picker reproduce identical
    output.  PickerUnavailable aborts with the samples produced so far
    attached to the exception.
    """
    rng = random.Random(rng_seed)
    samples: list[DistillationSample] = []
    for query_text, candidates in queries_with_lists:
        candidates = list(candidates)
        for size in sorted(sample_sizes):
            if size < 1:
                raise ValueError("sample sizes must be >= 1")
            if len(candidates) < size:
                log.info(
                    "skipping size %d for query with %d candidates", size, len(candidates)
                )
                continue
            for _ in range(SUBSETS_PER_SIZE):
                subset = rng.sample(candidates, size)
                try:
                    sample = vote_on_subset(query_text, subset, picker)
                except PickerUnavailable as exc:
                    exc.partial_samples = samples  # type: ignore[attr-defined]
                    raise
                if sample is not None:
                    samples.append(sample)
    return samples


def sample_record(sample: DistillationSample) -> dict:
    return {
        "query": sample.query_text,
        "snippets": [{"id": s.item_id, "text": s.text} for s in sample.snippets],
        "chosen_id": sample.chosen_id,
        "votes": list(sample.votes),
    }


def save_samples(samples: Sequence[DistillationSample], out_path: str | Path) -> None:
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        for sample in samples:
            fh.write(json.dumps(sample_record(sample), ensure_ascii=False))
            fh.write("\n")


def query_list_from_json(rec: object) -> tuple[str, list[Snippet]]:
    """One decoded {query, candidates: [{id, text}]} record.

    ``query`` may be the query text itself or an object with a
    ``combined_text`` field (the pipeline's artifact dump shape).  A
    record of another shape raises ``ValueError``.
    """
    if not isinstance(rec, dict):
        raise ValueError(f"a record must be a JSON object, got {type(rec).__name__}")
    query = rec.get("query")
    if isinstance(query, dict):
        query = query.get("combined_text")
    if not isinstance(query, str):
        raise ValueError("query must be a string or an object with a string combined_text")
    candidates = rec.get("candidates")
    if not isinstance(candidates, list):
        raise ValueError(f"candidates must be a list, got {type(candidates).__name__}")
    for k, c in enumerate(candidates):
        if not isinstance(c, dict) or not all(isinstance(c.get(f), str) for f in ("id", "text")):
            raise ValueError(f"candidate {k} must be an object with a string id and text")
    return query, [Snippet(c["id"], c["text"]) for c in candidates]


def load_query_lists(in_path: str | Path) -> list[tuple[str, list[Snippet]]]:
    """Read line-delimited JSON records (:func:`query_list_from_json`)
    through :func:`coderag.evaluation.read_json_lines`."""
    return read_json_lines(in_path, query_list_from_json)
