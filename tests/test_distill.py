"""Distillation-data generation: loop arithmetic, consensus rule, statistics."""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import pytest

from coderag.distill import (
    DistillationSample,
    Snippet,
    build_distillation_data,
    load_query_lists,
    sample_record,
    save_samples,
    vote_on_subset,
)
from coderag.errors import InvalidPickReply, PickerUnavailable


class ArgmaxPicker:
    """Deterministic: fixed preference by snippet text."""

    def __init__(self, scores: dict[str, float]):
        self.scores = scores

    def pick(self, query_text, window):
        return max(range(len(window)), key=lambda i: self.scores[window[i]])


class UniformPicker:
    """Independent uniform choice per call, from its own seeded stream."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def pick(self, query_text, window):
        return self.rng.randrange(len(window))


def snippets(n: int, tag: str = "s") -> list[Snippet]:
    return [Snippet(f"{tag}{i}", f"text {tag}{i}") for i in range(n)]


def exact_consensus_probability(window: int, votes: int, threshold: int) -> float:
    """Oracle: exact multinomial enumeration of iid uniform votes."""
    hits = 0
    for pattern in itertools.product(range(window), repeat=votes):
        if max(Counter(pattern).values()) >= threshold:
            hits += 1
    return hits / window ** votes


def test_exact_probability_value():
    # 5 categories, 5 votes, mode >= 4: 5 * (C(5,4) * 4 + 1) / 5^5
    assert exact_consensus_probability(5, 5, 4) == pytest.approx(105 / 3125)


def test_deterministic_picker_emits_every_subset():
    scores = {f"text s{i}": float(-i) for i in range(10)}
    pairs = [(f"q{k}", snippets(10)) for k in range(4)]
    sizes = (2, 3, 4, 5, 6, 7)
    samples = build_distillation_data(pairs, ArgmaxPicker(scores), sizes, rng_seed=1)
    assert len(samples) == len(pairs) * len(sizes) * 3
    for sample in samples:
        assert sample.verify()
        assert Counter(sample.votes)[sample.chosen_id] == 5  # 5/5 with argmax


def test_short_lists_skip_oversized_draws():
    scores = {f"text s{i}": float(i) for i in range(4)}
    pairs = [("q", snippets(4))]
    samples = build_distillation_data(pairs, ArgmaxPicker(scores), (2, 3, 4, 5, 6, 7), rng_seed=0)
    assert len(samples) == 3 * 3  # sizes 5, 6, 7 skipped


def test_subsets_are_sampled_without_replacement():
    scores = {f"text s{i}": float(i) for i in range(8)}
    captured: list[list[str]] = []

    class Spy(ArgmaxPicker):
        def pick(self, query_text, window):
            captured.append(list(window))
            return super().pick(query_text, window)

    build_distillation_data([("q", snippets(8))], Spy(scores), (5,), rng_seed=3)
    for window in captured:
        assert len(window) == len(set(window)) == 5


def test_reproducible_output_bytes(tmp_path):
    scores = {f"text s{i}": float(-i) for i in range(9)}
    pairs = [(f"q{k}", snippets(9)) for k in range(3)]
    out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_samples(build_distillation_data(pairs, ArgmaxPicker(scores), (3, 5), 42), out_a)
    save_samples(build_distillation_data(pairs, ArgmaxPicker(scores), (3, 5), 42), out_b)
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_bytes() != b""


def test_different_seed_changes_subsets(tmp_path):
    scores = {f"text s{i}": float(-i) for i in range(9)}
    pairs = [("q", snippets(9))]
    a = build_distillation_data(pairs, ArgmaxPicker(scores), (4,), rng_seed=0)
    b = build_distillation_data(pairs, ArgmaxPicker(scores), (4,), rng_seed=99)
    assert [s.snippets for s in a] != [s.snippets for s in b]


def test_vote_on_subset_no_consensus_returns_none():
    class Cycler:
        def __init__(self):
            self.i = -1

        def pick(self, query_text, window):
            self.i += 1
            return self.i % len(window)

    assert vote_on_subset("q", snippets(5), Cycler()) is None


@pytest.mark.parametrize("reply", ["raise", 99, -1, "0"])
def test_invalid_replies_are_not_votes(reply):
    class Invalid:
        def pick(self, query_text, window):
            if reply == "raise":
                raise InvalidPickReply("noise")
            return reply

    pairs = [(f"q{k}", snippets(6)) for k in range(3)]
    assert build_distillation_data(pairs, Invalid(), rng_seed=0) == []


def test_one_invalid_reply_leaves_no_sample():
    class LastReplyInvalid:
        calls = 0

        def pick(self, query_text, window):
            self.calls += 1
            return 99 if self.calls == 5 else 1

    # Four valid votes for s1; the fifth reply is not a vote for s0.
    assert vote_on_subset("q", snippets(3), LastReplyInvalid()) is None


def test_emitted_record_shape():
    sample = DistillationSample(
        query_text="q",
        snippets=tuple(snippets(2)),
        chosen_id="s0",
        votes=("s0", "s0", "s0", "s0", "s1"),
    )
    assert sample.verify()
    record = sample_record(sample)
    assert record["chosen_id"] == "s0"
    assert record["snippets"][0] == {"id": "s0", "text": "text s0"}


def test_tampered_sample_fails_verify():
    sample = DistillationSample(
        query_text="q",
        snippets=tuple(snippets(2)),
        chosen_id="s1",
        votes=("s0", "s0", "s0", "s0", "s1"),
    )
    assert not sample.verify()


def test_picker_unavailable_aborts_with_partial_output():
    scores = {f"text s{i}": float(i) for i in range(6)}

    class DiesLater(ArgmaxPicker):
        def __init__(self, scores, die_after):
            super().__init__(scores)
            self.remaining = die_after

        def pick(self, query_text, window):
            if self.remaining == 0:
                raise PickerUnavailable("gone")
            self.remaining -= 1
            return super().pick(query_text, window)

    pairs = [(f"q{k}", snippets(6)) for k in range(3)]
    with pytest.raises(PickerUnavailable) as exc_info:
        build_distillation_data(pairs, DiesLater(scores, die_after=16), (2,), rng_seed=0)
    partial = exc_info.value.partial_samples
    assert 0 < len(partial) == 16 // 5


def test_uniform_picker_emission_rate_within_3_sigma():
    p = exact_consensus_probability(5, 5, 4)
    pairs = [(f"q{k}", snippets(6, tag=f"k{k}_")) for k in range(700)]
    samples = build_distillation_data(pairs, UniformPicker(seed=1234), (5,), rng_seed=7)
    trials = len(pairs) * 3
    rate = len(samples) / trials
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(rate - p) <= 3 * sigma, (rate, p, sigma)


def test_load_query_lists_accepts_both_query_shapes(tmp_path):
    lines = [
        '{"query": "plain text", "candidates": [{"id": "a", "text": "ta"}]}',
        '{"query": {"combined_text": "from dump"}, "candidates": [{"id": "b", "text": "tb"}]}',
    ]
    path = tmp_path / "lists.jsonl"
    path.write_text("\n".join(lines) + "\n")
    pairs = load_query_lists(path)
    assert pairs[0] == ("plain text", [Snippet("a", "ta")])
    assert pairs[1][0] == "from dump"
