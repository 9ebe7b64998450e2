"""Tournament reranking against brute-force order oracles and call bounds."""

from __future__ import annotations

import math
import random

import pytest

from coderag.errors import InvalidPickReply, PickerUnavailable
from coderag.kb import CodeKnowledgeBase, CodeKnowledgeItem, ItemKind
from coderag.rerank import (
    TRUNCATION_MARKER,
    analytic_call_bound,
    heap_rerank,
    make_windows,
    rerank,
    truncate_snippet,
)
from coderag.retrieve import RetrievalCandidate, RetrievalList, RetrievalPath


class OrderPicker:
    """Picker induced by a strict total order: text -> score argmax."""

    def __init__(self, scores: dict[str, float]):
        self.scores = scores
        self.calls = 0

    def pick(self, query_text, window):
        self.calls += 1
        return max(range(len(window)), key=lambda i: self.scores[window[i]])


def run_case(n: int, u: int, w: int, rng: random.Random):
    ids = [f"i{k:02d}" for k in range(n)]
    texts = [f"snippet {k:02d}" for k in range(n)]
    scores = dict(zip(texts, rng.sample(range(1000), n)))
    picker = OrderPicker(scores)
    outcome = heap_rerank(ids, texts, "q", picker, u=u, w=w)
    ranked = sorted(ids, key=lambda i: -scores[texts[ids.index(i)]])
    assert outcome.ordered_items == ranked[: min(u, n)], (n, u, w)
    bound = analytic_call_bound(n, u, w)
    assert outcome.picker_calls <= bound, (n, u, w, outcome.picker_calls, bound)
    assert outcome.picker_calls == len(outcome.trace)
    return outcome


# --- make_windows ------------------------------------------------------------


def test_windows_31_items_w3_has_15_leaves():
    windows = make_windows(list(range(31)), 3)
    assert len(windows) == 15 == math.ceil((31 - 1) / (3 - 1))
    assert windows[-1] == [28, 29, 30]


def test_windows_five_items():
    assert make_windows([0, 1, 2, 3, 4], 3) == [[0, 1, 2], [2, 3, 4]]


def test_windows_short_tail():
    assert make_windows([0, 1], 3) == [[0, 1]]


def test_windows_single_item():
    assert make_windows(["only"], 4) == [["only"]]


def test_adjacent_windows_share_exactly_one_item():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randint(2, 60)
        w = rng.randint(2, 6)
        windows = make_windows(list(range(n)), w)
        covered = {x for win in windows for x in win}
        assert covered == set(range(n))
        for left, right in zip(windows, windows[1:]):
            assert len(set(left) & set(right)) == 1
            assert len(right) >= 2  # the tail never shrinks to the shared item


def test_window_size_must_be_at_least_two():
    with pytest.raises(ValueError):
        make_windows([1, 2], 1)


# --- heap_rerank correctness -------------------------------------------------


def test_oracle_equivalence_structured_sweep():
    rng = random.Random(11)
    for n in range(1, 41):
        for u in {1, 5, 10, n}:
            for w in (2, 3, 4):
                run_case(n, u, w, rng)


def test_full_permutation_when_u_equals_n():
    rng = random.Random(3)
    for n in (1, 2, 7, 13, 31):
        outcome = run_case(n, n, 3, rng)
        assert len(outcome.ordered_items) == n
        assert len(set(outcome.ordered_items)) == n


def test_single_item_costs_at_most_one_call():
    picker = OrderPicker({"one": 1})
    outcome = heap_rerank(["a"], ["one"], "q", picker, u=3, w=3)
    assert outcome.ordered_items == ["a"]
    assert outcome.picker_calls <= 1


def test_u_one_returns_tournament_winner():
    rng = random.Random(9)
    outcome = run_case(17, 1, 3, rng)
    assert len(outcome.ordered_items) == 1


def test_empty_input():
    outcome = heap_rerank([], [], "q", OrderPicker({}), u=4, w=3)
    assert outcome.ordered_items == [] and outcome.picker_calls == 0


def test_n31_u10_w3_call_budget():
    rng = random.Random(2)
    bound = analytic_call_bound(31, 10, 3)
    assert bound == 59  # 15 leaf + 8 internal + 9 replays * 4
    for _ in range(25):
        outcome = run_case(31, 10, 3, rng)
        assert outcome.picker_calls <= 60
        assert len(outcome.ordered_items) == 10


def test_duplicate_items_rejected():
    with pytest.raises(ValueError):
        heap_rerank(["a", "a"], ["x", "y"], "q", OrderPicker({}), u=1, w=3)


# --- robustness ---------------------------------------------------------------


class GarbagePicker:
    """Always answers out of range; the engine must retry then fall back."""

    def __init__(self):
        self.calls = 0

    def pick(self, query_text, window):
        self.calls += 1
        return 99


class FlakyPicker:
    """First reply invalid, retry parses; exercises the single-retry path."""

    def __init__(self):
        self.calls = 0

    def pick(self, query_text, window):
        self.calls += 1
        if self.calls % 2 == 1:
            raise InvalidPickReply("noise")
        return 0


def test_garbage_picker_falls_back_to_position_zero():
    picker = GarbagePicker()
    outcome = heap_rerank(["a", "b", "c"], ["ta", "tb", "tc"], "q", picker, u=2, w=3)
    assert outcome.ordered_items == ["a", "b"]  # window position 0 each round
    assert all(ev.fallback for ev in outcome.trace)
    assert picker.calls == 2 * len(outcome.trace)  # one retry per decision


def test_flaky_picker_retries_once_then_succeeds():
    picker = FlakyPicker()
    outcome = heap_rerank(["a", "b", "c"], ["ta", "tb", "tc"], "q", picker, u=1, w=3)
    assert outcome.ordered_items == ["a"]
    assert not any(ev.fallback for ev in outcome.trace)


def test_unreachable_picker_degrades_to_input_order():
    class Dead:
        def pick(self, query_text, window):
            raise PickerUnavailable("connection refused")

    outcome = heap_rerank(["a", "b", "c", "d"], ["1", "2", "3", "4"], "q", Dead(), u=2, w=2)
    assert outcome.degraded
    assert outcome.ordered_items == ["a", "b"]


def test_picker_outage_keeps_the_calls_made_before_it():
    class DiesOnSixthCall(OrderPicker):
        def pick(self, query_text, window):
            if self.calls == 5:
                self.calls += 1
                raise PickerUnavailable("connection refused")
            return super().pick(query_text, window)

    n, u, w = 31, 10, 3
    ids = [f"i{k:02d}" for k in range(n)]
    texts = [f"s{k:02d}" for k in range(n)]
    scores = {t: 1000 - k for k, t in enumerate(texts)}
    full = heap_rerank(ids, texts, "q", OrderPicker(scores), u, w)
    picker = DiesOnSixthCall(scores)
    outcome = heap_rerank(ids, texts, "q", picker, u, w)
    assert outcome.degraded and outcome.ordered_items == ids[:u]
    assert outcome.picker_calls == picker.calls == 6
    assert outcome.trace == full.trace[:5]


# --- rerank over a retrieval list ---------------------------------------------


def _kb_and_list(texts: list[str]) -> tuple[CodeKnowledgeBase, RetrievalList]:
    items = [
        CodeKnowledgeItem(
            id=f"k{i}",
            kind=ItemKind.FUNCTION,
            qualified_name=f"f{i}",
            file_path="m.py",
            line_span=(i + 1, i + 1),
            text=text,
        )
        for i, text in enumerate(texts)
    ]
    kb = CodeKnowledgeBase(items=items, repo_root="/r", file_manifest={"m.py": "0"})
    candidates = [
        RetrievalCandidate(item.id, RetrievalPath.SPARSE, i + 1, 1.0 - i / 10)
        for i, item in enumerate(items)
    ]
    return kb, RetrievalList(candidates=candidates)


def test_rerank_resolves_texts_and_truncates():
    long_text = "x" * 5000
    kb, rlist = _kb_and_list(["short snippet", long_text])
    seen: list[list[str]] = []

    class SpyPicker:
        def pick(self, query_text, window):
            seen.append(list(window))
            return 0

    outcome = rerank(rlist, "q", kb, SpyPicker(), u=2, w=3)
    assert outcome.ordered_items
    joined = "\n".join(t for win in seen for t in win)
    assert TRUNCATION_MARKER in joined
    assert all(len(t) <= 1200 + len(TRUNCATION_MARKER) for win in seen for t in win)


def test_truncate_snippet_keeps_head():
    text = "head\n" + "y" * 3000
    cut = truncate_snippet(text, budget=100)
    assert cut.startswith("head\n")
    assert cut.endswith(TRUNCATION_MARKER)


def test_rerank_empty_list():
    kb, rlist = _kb_and_list(["a"])
    rlist.candidates = []
    outcome = rerank(rlist, "q", kb, OrderPicker({}), u=3, w=3)
    assert outcome.ordered_items == []
