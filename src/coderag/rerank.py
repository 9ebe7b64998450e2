"""BestFit reranking: a picker chooses the single most helpful snippet per
window, organized as a tournament over one-overlap windows.

Tournament shape: the leaf layer is :func:`make_windows` (adjacent windows
share exactly one item); leaf winners advance into disjoint groups of the
same width until one remains.  A leaf pick skips any member currently
advancing from an adjacent leaf, so every winner is unique and extracting
the champion replays a single root-to-leaf path.  Picker calls are
therefore bounded by :func:`analytic_call_bound`, which the tests assert
is never exceeded.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Sequence, TypeVar

from .clients import PickerClient, checked_pick
from .errors import PickerUnavailable
from .fanout import call_each
from .kb import CodeKnowledgeBase
from .retrieve import RetrievalList

SNIPPET_CHAR_BUDGET = 1200
TRUNCATION_MARKER = "\n# ... truncated ..."

T = TypeVar("T")


# Slotted: about 50 per task, and a caller may keep every task's result.
@dataclass(frozen=True, slots=True)
class PickEvent:
    window_ids: tuple[str, ...]
    chosen_id: str
    fallback: bool = False


@dataclass
class RerankOutcome:
    ordered_items: list[str]
    picker_calls: int
    trace: list[PickEvent] = field(default_factory=list)
    degraded: bool = False


def make_windows(items: Sequence[T], w: int) -> list[list[T]]:
    """Equal-sized windows where adjacent windows share exactly one item.

    Window k covers positions [k*(w-1), k*(w-1)+w); the last window may be
    shorter but never consists of the shared item alone.
    """
    if w < 2:
        raise ValueError("window size must be >= 2")
    if not items:
        raise ValueError("cannot window an empty list")
    n = len(items)
    if n == 1:
        return [[items[0]]]
    count = math.ceil((n - 1) / (w - 1))
    return [list(items[k * (w - 1) : k * (w - 1) + w]) for k in range(count)]


def analytic_call_bound(n: int, u: int, w: int) -> int:
    """Worst-case picker calls for this tournament shape.

    One call per leaf plus one per internal group builds the tree; each
    of the remaining min(u, n) - 1 extractions replays one leaf and one
    group per internal layer.
    """
    if n <= 1:
        return 0
    leaves = math.ceil((n - 1) / (w - 1))
    layer_counts = []
    size = leaves
    while size > 1:
        size = math.ceil(size / w)
        layer_counts.append(size)
    initial = leaves + sum(layer_counts)
    per_extraction = 1 + len(layer_counts)
    return initial + max(0, min(u, n) - 1) * per_extraction


class _Tournament:
    def __init__(
        self,
        item_ids: Sequence[str],
        texts: Sequence[str],
        query_text: str,
        picker: PickerClient,
        w: int,
    ):
        self.ids = list(item_ids)
        self.texts = list(texts)
        self.query_text = query_text
        self.picker = picker
        self.w = w
        self.picker_calls = 0  # counted as each call is made, failing ones too
        self._calls_lock = threading.Lock()  # internal layers call from pool threads
        self.trace: list[PickEvent] = []

        positions = list(range(len(self.ids)))
        self.members: list[list[int]] = make_windows(positions, w)
        self.home: dict[int, list[int]] = {}
        for leaf, window in enumerate(self.members):
            for pos in window:
                self.home.setdefault(pos, []).append(leaf)

        # levels[0] holds the leaf winners, levels[k] the winners of layer
        # k's groups; the root is levels[-1][0].
        self.levels: list[list[int | None]] = [[None] * len(self.members)]

    def build(self) -> None:
        """Pick every leaf, then every internal layer up to the root."""
        leaves = self.levels[0]
        for leaf in range(len(leaves)):
            leaves[leaf] = self._pick_leaf(leaf)
        while len(self.levels[-1]) > 1:
            below = self.levels[-1]
            parents = range(math.ceil(len(below) / self.w))
            self.levels.append(self._pick_layer([self._group(below, p) for p in parents]))

    def root(self) -> int | None:
        return self.levels[-1][0]

    def remove(self, pos: int) -> None:
        """Remove an extracted item and replay its root-to-leaf path."""
        leaves = self.levels[0]
        winner_leaf = None
        for leaf in self.home[pos]:
            self.members[leaf].remove(pos)
            if leaves[leaf] == pos:
                winner_leaf = leaf
        assert winner_leaf is not None, "extracted item was not a leaf winner"
        leaves[winner_leaf] = self._pick_leaf(winner_leaf)
        child = winner_leaf
        for below, level in zip(self.levels, self.levels[1:]):
            parent = child // self.w
            level[parent] = self._pick_group(self._group(below, parent))
            child = parent

    def _group(self, below: list[int | None], parent: int) -> list[int]:
        """The live winners that advance from ``below`` into group ``parent``."""
        return [v for v in below[parent * self.w : (parent + 1) * self.w] if v is not None]

    def _pick_leaf(self, leaf: int) -> int | None:
        """Pick within a leaf window, skipping members that are currently
        advancing from an adjacent window (keeps winners unique)."""
        leaves = self.levels[0]
        taken = {leaves[adj] for adj in (leaf - 1, leaf + 1) if 0 <= adj < len(leaves)}
        candidates = [p for p in self.members[leaf] if p not in taken]
        return self._pick_group(candidates)

    def _pick_group(self, candidates: list[int]) -> int | None:
        if len(candidates) < 2:
            return candidates[0] if candidates else None
        return self._record(self._decide(candidates))

    def _pick_layer(self, groups: list[list[int]]) -> list[int | None]:
        """The winner of each group.  The groups are independent, so their
        picker calls may overlap; trace events are recorded on this
        thread, in group order, exactly as if the groups ran one by one."""
        contested = [group for group in groups if len(group) > 1]
        decisions = iter(call_each(self.picker, self._decide, contested))
        return [
            self._record(next(decisions)) if len(group) > 1 else self._pick_group(group)
            for group in groups
        ]

    def _record(self, decision: tuple[int, PickEvent]) -> int:
        winner, event = decision
        self.trace.append(event)
        return winner

    def _decide(self, candidates: list[int]) -> tuple[int, PickEvent]:
        """(winner, trace event) for one window.  Reads no state that picks
        change, so windows may be decided at once."""
        window_texts = [self.texts[p] for p in candidates]
        window_ids = tuple(self.ids[p] for p in candidates)
        for _ in range(2):
            with self._calls_lock:
                self.picker_calls += 1
            reply = checked_pick(self.picker, self.query_text, window_texts)
            if reply is not None:
                winner = candidates[reply]
                return winner, PickEvent(window_ids, self.ids[winner])
        # Two invalid replies: deterministic fallback to window position 0.
        return candidates[0], PickEvent(window_ids, self.ids[candidates[0]], fallback=True)


def heap_rerank(
    item_ids: Sequence[str],
    texts: Sequence[str],
    query_text: str,
    picker: PickerClient,
    u: int,
    w: int,
) -> RerankOutcome:
    """Extract the top-u items in preference order via the tournament.

    If the picker is unreachable, falls back to the first u items of the
    input order and flags the outcome as degraded; ``picker_calls`` and
    ``trace`` still hold the calls made and the events recorded before.
    """
    if u < 1:
        raise ValueError("u must be >= 1")
    if len(item_ids) != len(texts):
        raise ValueError("item_ids and texts must align")
    if len(set(item_ids)) != len(item_ids):
        raise ValueError("items must be distinct")
    if not item_ids:
        return RerankOutcome(ordered_items=[], picker_calls=0)

    u_eff = min(u, len(item_ids))
    arena = _Tournament(item_ids, texts, query_text, picker, w)
    try:
        arena.build()
        ordered: list[int] = []
        while len(ordered) < u_eff:
            champion = arena.root()
            if champion is None:
                break
            ordered.append(champion)
            if len(ordered) < u_eff:
                arena.remove(champion)
        return RerankOutcome(
            ordered_items=[arena.ids[pos] for pos in ordered],
            picker_calls=arena.picker_calls,
            trace=arena.trace,
        )
    except PickerUnavailable:
        return RerankOutcome(
            ordered_items=list(item_ids[:u_eff]),
            picker_calls=arena.picker_calls,
            trace=arena.trace,
            degraded=True,
        )


def truncate_snippet(text: str, budget: int = SNIPPET_CHAR_BUDGET) -> str:
    """Respect the picker's context limit: keep the head, drop the tail."""
    if len(text) <= budget:
        return text
    return text[:budget] + TRUNCATION_MARKER


def rerank(
    retrieval_list: RetrievalList,
    query_text: str,
    kb: CodeKnowledgeBase,
    picker: PickerClient,
    u: int,
    w: int,
) -> RerankOutcome:
    """Rerank a retrieval list for ``query_text``, resolving candidate
    texts from the KB."""
    if not retrieval_list.candidates:
        return RerankOutcome(ordered_items=[], picker_calls=0)
    ids = retrieval_list.item_ids()
    texts = [truncate_snippet(kb.get(item_id).text) for item_id in ids]
    return heap_rerank(ids, texts, query_text, picker, u, w)
