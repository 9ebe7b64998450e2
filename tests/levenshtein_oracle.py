"""Reference edit distance shared by the metric tests."""

from __future__ import annotations


def dp_levenshtein(a: str, b: str) -> int:
    """Reference oracle: the complete (len+1) x (len+1) DP table."""
    rows, cols = len(a) + 1, len(b) + 1
    table = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        table[i][0] = i
    for j in range(cols):
        table[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + cost,
            )
    return table[len(a)][len(b)]
