"""The merged three-path candidate list of n = 2j+1 results.

Merge order is dataflow (0 or 1 hit), then sparse ranks 1..j, then dense
ranks 1..j; duplicates keep their earliest occurrence.  Path scores are
path-local and not cross-comparable; the reranker is the arbiter of the
final order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence


class RetrievalPath(str, Enum):
    """The retrieval paths, declared in merge order."""

    DATAFLOW = "dataflow"
    SPARSE = "sparse"
    DENSE = "dense"


ALL_PATHS = tuple(p.value for p in RetrievalPath)


# Slotted: up to 2j+1 per task, and a caller may keep every task's result.
@dataclass(frozen=True, slots=True)
class RetrievalCandidate:
    item_id: str
    path: RetrievalPath
    path_rank: int  # 1-based rank within its path
    path_score: float  # path-local, not cross-comparable


@dataclass
class RetrievalList:
    candidates: list[RetrievalCandidate] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.candidates)

    def item_ids(self) -> list[str]:
        return [c.item_id for c in self.candidates]


def merge_paths(
    dataflow_hits: Sequence[tuple[str, float]],
    sparse_hits: Sequence[tuple[str, float]],
    dense_hits: Sequence[tuple[str, float]],
    j: int,
) -> RetrievalList:
    """Deterministic join: dataflow ++ sparse ++ dense, first occurrence wins."""
    merged: list[RetrievalCandidate] = []
    seen: set[str] = set()
    buckets = (
        (RetrievalPath.DATAFLOW, dataflow_hits[:1]),
        (RetrievalPath.SPARSE, sparse_hits[:j]),
        (RetrievalPath.DENSE, dense_hits[:j]),
    )
    for path, hits in buckets:
        for rank, (item_id, score) in enumerate(hits, start=1):
            if item_id in seen:
                continue
            seen.add(item_id)
            merged.append(RetrievalCandidate(item_id, path, rank, score))
    return RetrievalList(candidates=merged[: 2 * j + 1])

