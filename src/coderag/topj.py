"""Exact top-j selection shared by the sparse and dense paths."""

from __future__ import annotations

import numpy as np


def top_j(
    item_ids: list[str], positions: np.ndarray, scores: np.ndarray, j: int
) -> list[tuple[str, float]]:
    """The j best ``(item id, score)`` pairs, ordered by (-score, item id).

    ``scores[i]`` is the score of the item at position ``positions[i]``.
    A partition finds the j-th best score; only the candidates scoring at
    least that much are sorted, so items tied at the cut are still chosen
    by ascending id.
    """
    if len(scores) > j:
        cut = len(scores) - j
        keep = scores >= np.partition(scores, cut)[cut]
        positions, scores = positions[keep], scores[keep]
    ranked = sorted(
        zip(scores.tolist(), positions.tolist()),
        key=lambda pair: (-pair[0], item_ids[pair[1]]),
    )
    return [(item_ids[pos], score) for score, pos in ranked[:j]]
