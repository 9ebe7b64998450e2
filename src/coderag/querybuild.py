"""Retrieval-query construction by log-probability probing.

The unfinished file is cut into fixed-size line chunks; each non-target
chunk is prepended to the target chunk and scored by the probe model's
summed per-step maximum log-probability over m greedy steps.  The top-g
chunks (in original file order) plus the target chunk form the query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from .errors import EmptyFile, ProbeUnavailable


class ProbeClient(Protocol):
    """Greedy scorer: generates m tokens at temperature 0 and returns the
    sum over steps of the maximum vocabulary log-probability.  Must be
    deterministic per (prompt, m).  ``thread_safe`` declares whether
    concurrent calls are allowed; callers serialize when it is False.
    """

    thread_safe: bool

    def greedy_score(self, prompt: str, m: int) -> float: ...


@dataclass(frozen=True)
class Chunk:
    index: int
    line_span: tuple[int, int]  # 1-based inclusive
    text: str


@dataclass(frozen=True)
class ChunkScore:
    chunk_index: int
    confidence: float


@dataclass(frozen=True)
class RetrievalQuery:
    selected_chunks: tuple[str, ...]  # in original file order
    target_chunk: str
    combined_text: str


def _split_lines(file_text: str) -> list[str]:
    return file_text.replace("\r\n", "\n").split("\n")


def chunk_file(
    file_text: str, f: int, cursor_line: int | None = None
) -> tuple[list[Chunk], int]:
    """Partition the file into chunks of f lines (last may be shorter).

    Returns the chunks and the index of the chunk containing the cursor
    line (defaults to the last line).
    """
    if f < 1:
        raise ValueError("chunk length f must be >= 1")
    if not file_text:
        raise EmptyFile("cannot chunk an empty file")
    lines = _split_lines(file_text)
    if lines and lines[-1] == "" and len(lines) > 1:
        # A single trailing newline does not create an extra (empty) line.
        lines = lines[:-1]
    if cursor_line is None:
        cursor_line = len(lines)
    if not 1 <= cursor_line <= len(lines):
        raise ValueError(f"cursor line {cursor_line} outside file of {len(lines)} lines")

    chunks = [
        Chunk(
            index=start // f,
            line_span=(start + 1, min(start + f, len(lines))),
            text="\n".join(lines[start : start + f]),
        )
        for start in range(0, len(lines), f)
    ]
    return chunks, (cursor_line - 1) // f


def target_chunk_text(chunks: list[Chunk], target_index: int, cursor_line: int) -> str:
    """Target chunk truncated at the cursor line; completion must not see
    lines past the cursor."""
    chunk = chunks[target_index]
    start, end = chunk.line_span
    keep = min(cursor_line, end) - start + 1
    return "\n".join(chunk.text.split("\n")[:keep])


def probe_prompt(chunk_text: str, target_text: str) -> str:
    return chunk_text + "\n" + target_text


def score_chunks(
    chunks: list[Chunk],
    target_index: int,
    probe: ProbeClient,
    m: int,
    target_text: str | None = None,
) -> list[ChunkScore]:
    """One confidence score per non-target chunk, in chunk order."""
    if len(chunks) < 2:
        raise ValueError("scoring needs at least 2 chunks")
    if target_text is None:
        target_text = chunks[target_index].text
    scores: list[ChunkScore] = []
    for chunk in chunks:
        if chunk.index == target_index:
            continue
        try:
            confidence = probe.greedy_score(probe_prompt(chunk.text, target_text), m)
        except ProbeUnavailable:
            raise
        except Exception as exc:
            raise ProbeUnavailable(f"probe failed on chunk {chunk.index}: {exc}") from exc
        scores.append(ChunkScore(chunk_index=chunk.index, confidence=confidence))
    return scores


def select_top_chunks(scores: list[ChunkScore], g: int) -> list[int]:
    """Indices of the g highest-confidence chunks, ties to the lower index,
    returned in ascending (file) order."""
    ranked = sorted(scores, key=lambda s: (-s.confidence, s.chunk_index))
    return sorted(s.chunk_index for s in ranked[: max(g, 0)])


def construct_query(
    file_text: str,
    cursor_line: int | None,
    f: int,
    m: int,
    g: int,
    probe: ProbeClient | None = None,
) -> RetrievalQuery:
    """Build the retrieval query for the unfinished file.

    With a single chunk (or g == 0) no probing happens and the query is
    just the target chunk.
    """
    if g < 0:
        raise ValueError("g must be >= 0")
    chunks, target_index = chunk_file(file_text, f, cursor_line)
    if cursor_line is None:
        cursor_line = chunks[-1].line_span[1]
    target_text = target_chunk_text(chunks, target_index, cursor_line)

    if len(chunks) < 2 or g == 0:
        return RetrievalQuery(
            selected_chunks=(), target_chunk=target_text, combined_text=target_text
        )
    if probe is None:
        raise ValueError("a probe client is required when there are chunks to score")

    scores = score_chunks(chunks, target_index, probe, m, target_text)
    chosen = select_top_chunks(scores, g)
    selected = tuple(chunks[i].text for i in chosen)
    combined = "\n".join(list(selected) + [target_text])
    return RetrievalQuery(
        selected_chunks=selected, target_chunk=target_text, combined_text=combined
    )
