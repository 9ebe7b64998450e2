"""Chunking, probe scoring, and query construction against a sort oracle."""

from __future__ import annotations

import random

import pytest

from coderag.clients import StubProbe
from coderag.errors import EmptyFile, ProbeUnavailable
from coderag.querybuild import (
    ChunkScore,
    chunk_file,
    construct_query,
    probe_prompt,
    score_chunks,
    select_top_chunks,
)


class MapProbe:
    """Deterministic probe backed by an explicit prompt -> score table."""

    def __init__(self, table: dict[str, float]):
        self.table = table
        self.calls = 0

    def greedy_score(self, prompt: str, m: int) -> float:
        self.calls += 1
        return self.table[prompt]


def lines(n: int) -> str:
    return "\n".join(f"v{i} = {i}" for i in range(1, n + 1))


# --- chunk_file -------------------------------------------------------------


def test_chunk_seven_lines_f3():
    assert chunk_file(lines(7), f=3) == [lines(3), "v4 = 4\nv5 = 5\nv6 = 6", "v7 = 7"]


def test_chunk_single_chunk_file():
    assert chunk_file(lines(3), f=3) == [lines(3)]


def test_chunk_f1():
    assert chunk_file(lines(4), f=1) == [f"v{i} = {i}" for i in range(1, 5)]


def test_chunks_partition_the_file():
    text = lines(11)
    assert "\n".join(chunk_file(text, f=4)) == text


def test_chunk_empty_file():
    with pytest.raises(EmptyFile):
        chunk_file("", f=3)


def test_crlf_normalized():
    assert chunk_file("a = 1\r\nb = 2\r\n", f=3) == ["a = 1\nb = 2"]


# --- score_chunks -----------------------------------------------------------

# Fixture (f=2, 6 lines): identifiers per chunk are
#   chunk0 {alpha, beta}, chunk1 {gamma, delta},
#   target {main, print, alpha, beta}
# so the probe prompts (chunk + target) hold 4 and 6 distinct identifiers,
# and the overlap probe gives chunk0 -> -4.0 and chunk1 -> -6.0.
FIXTURE = (
    "alpha = 1\n"
    "beta = alpha + 2\n"
    "gamma = 5\n"
    "delta = gamma * 2\n"
    "def main():\n"
    "    print(alpha, beta)"
)


def test_stub_probe_scores_by_hand():
    *context, target = chunk_file(FIXTURE, f=2)
    scores = score_chunks(context, target, StubProbe(), m=8)
    assert scores == [ChunkScore(0, -4.0), ChunkScore(1, -6.0)]


def test_score_chunks_skips_target():
    *context, target = chunk_file(lines(9), f=3)
    scores = score_chunks(context, target, StubProbe(), m=4)
    assert [s.chunk_index for s in scores] == [0, 1]


def test_equal_chunks_tie_to_lower_index():
    *context, target = chunk_file("a = 1\na = 1\nb = 2", f=1)
    scores = score_chunks(context, target, StubProbe(), m=4)
    assert scores[0].confidence == scores[1].confidence
    assert select_top_chunks(scores, 1) == [0]


def test_probe_failure_is_wrapped():
    class Exploding:
        def greedy_score(self, prompt, m):
            raise RuntimeError("socket closed")

    *context, target = chunk_file(lines(6), f=3)
    with pytest.raises(ProbeUnavailable):
        score_chunks(context, target, Exploding(), m=2)


# --- construct_query --------------------------------------------------------


def test_single_chunk_query_is_target_only():
    query = construct_query(lines(2), f=3, m=8, g=1, probe=StubProbe())
    assert query.selected_chunks == ()
    assert query.combined_text == query.target_chunk == lines(2)


def test_fixture_selects_overlapping_chunk():
    chunks = chunk_file(FIXTURE, f=2)
    query = construct_query(FIXTURE, f=2, m=8, g=1, probe=StubProbe())
    assert query.selected_chunks == (chunks[0],)
    assert query.combined_text == chunks[0] + "\n" + chunks[-1]


def test_g_larger_than_available_selects_all_in_order():
    query = construct_query(lines(9), f=3, m=8, g=10, probe=StubProbe())
    chunks = chunk_file(lines(9), f=3)
    assert query.selected_chunks == (chunks[0], chunks[1])


def test_g_zero_makes_no_probe_calls():
    probe = MapProbe({})
    query = construct_query(lines(9), f=3, m=8, g=0, probe=probe)
    assert probe.calls == 0
    assert query.selected_chunks == ()


def test_determinism():
    a = construct_query(FIXTURE, f=2, m=8, g=1, probe=StubProbe())
    b = construct_query(FIXTURE, f=2, m=8, g=1, probe=StubProbe())
    assert a == b


# --- argmax stability against a brute-force sort oracle ---------------------


def test_argmax_stability_random_configs():
    rng = random.Random(77)
    for trial in range(200):
        n_lines = rng.randint(2, 30)
        f = rng.randint(1, 6)
        cursor = rng.randint(1, n_lines)
        text = lines(cursor)  # the prefix ends at the cursor
        *context, target = chunk_file(text, f)
        if not context:
            continue
        g = rng.randint(0, len(context) + 1)

        # injective confidences per prompt
        scores = rng.sample(range(-1000, 0), k=len(context))
        table = {probe_prompt(c, target): float(s) for c, s in zip(context, scores)}
        probe = MapProbe(table)
        query = construct_query(text, f=f, m=4, g=g, probe=probe)

        ranked = sorted(
            range(len(context)), key=lambda i: (-table[probe_prompt(context[i], target)], i)
        )
        expected = [context[i] for i in sorted(ranked[:g])]
        assert list(query.selected_chunks) == expected, f"trial {trial}"
        assert query.target_chunk.endswith(f"v{cursor} = {cursor}")
        # the target chunk is never selected (line texts are unique here)
        assert target not in query.selected_chunks
        # order preservation: selected chunks appear in file order
        positions = [text.find(t) for t in query.selected_chunks]
        assert positions == sorted(positions)
