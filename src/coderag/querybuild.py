"""Retrieval-query construction by log-probability probing.

The unfinished file ends at the cursor.  It is cut into fixed-size line
chunks; the last chunk is the target.  Each chunk before it is
prepended to the target and scored by the probe model's summed per-step
maximum log-probability over m greedy steps.  The top-g chunks (in
original file order) plus the target chunk form the query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .clients import ProbeClient
from .errors import EmptyFile, ProbeUnavailable
from .fanout import call_each


@dataclass(frozen=True)
class ChunkScore:
    chunk_index: int
    confidence: float


@dataclass(frozen=True)
class RetrievalQuery:
    selected_chunks: tuple[str, ...]  # in original file order
    target_chunk: str
    combined_text: str


def chunk_file(file_text: str, f: int) -> list[str]:
    """Partition the file into chunks of f lines (the last may be shorter).

    The last chunk holds the cursor line and is the target.
    """
    if f < 1:
        raise ValueError("chunk length f must be >= 1")
    if not file_text:
        raise EmptyFile("cannot chunk an empty file")
    lines = file_text.replace("\r\n", "\n").split("\n")
    if len(lines) > 1 and lines[-1] == "":
        # A single trailing newline does not create an extra (empty) line.
        lines.pop()
    return ["\n".join(lines[start : start + f]) for start in range(0, len(lines), f)]


def probe_prompt(chunk_text: str, target_text: str) -> str:
    return chunk_text + "\n" + target_text


def score_chunks(
    context: Sequence[str], target_text: str, probe: ProbeClient, m: int
) -> list[ChunkScore]:
    """One confidence score per chunk before the target, in file order.

    The probe calls are independent and overlap when the probe waits on
    I/O (:func:`coderag.fanout.call_each`).  A failure raises
    :class:`ProbeUnavailable` naming the lowest failing chunk.
    """
    if not context:
        raise ValueError("scoring needs at least one chunk before the target")

    def score(index: int) -> float:
        try:
            return probe.greedy_score(probe_prompt(context[index], target_text), m)
        except Exception as exc:
            raise ProbeUnavailable(f"probe failed on chunk {index}: {exc}") from exc

    confidences = call_each(probe, score, range(len(context)))
    return [ChunkScore(chunk_index=i, confidence=c) for i, c in enumerate(confidences)]


def select_top_chunks(scores: list[ChunkScore], g: int) -> list[int]:
    """Indices of the g highest-confidence chunks, ties to the lower index,
    returned in ascending (file) order."""
    ranked = sorted(scores, key=lambda s: (-s.confidence, s.chunk_index))
    return sorted(s.chunk_index for s in ranked[: max(g, 0)])


def construct_query(
    file_text: str, f: int, m: int, g: int, probe: ProbeClient | None = None
) -> RetrievalQuery:
    """Build the retrieval query for the unfinished file.

    With a single chunk (or g == 0) no probing happens and the query is
    just the target chunk.
    """
    if g < 0:
        raise ValueError("g must be >= 0")
    *context, target = chunk_file(file_text, f)
    if not context or g == 0:
        return RetrievalQuery(selected_chunks=(), target_chunk=target, combined_text=target)
    if probe is None:
        raise ValueError("a probe client is required when there are chunks to score")

    chosen = select_top_chunks(score_chunks(context, target, probe, m), g)
    selected = tuple(context[i] for i in chosen)
    return RetrievalQuery(
        selected_chunks=selected,
        target_chunk=target,
        combined_text="\n".join(selected + (target,)),
    )
