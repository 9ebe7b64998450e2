"""Overlapped model calls equal serial ones: same outputs, counts, trace
order and first failure; in-process clients never reach the pool."""

from __future__ import annotations

import random
import sys
import threading
import time
from contextlib import contextmanager

import pytest

from coderag import fanout
from coderag.clients import EchoGenerator, OverlapPicker, StubEmbedder, StubProbe
from coderag.dense import build_dense_index
from coderag.errors import EmbedderUnavailable, InvalidPickReply, PickerUnavailable
from coderag.errors import ProbeUnavailable
from coderag.fanout import FANOUT_WIDTH, call_each
from coderag.pipeline import CompletionTask, PipelineClients, RepoIndex, complete
from coderag.querybuild import chunk_file, construct_query, probe_prompt
from coderag.rerank import analytic_call_bound, heap_rerank, make_windows

from .conftest import MINI_PREFIX
from .test_rerank import OrderPicker
from .test_sparse import kb_from_texts


class SlowClient:
    """Declares that it waits on I/O and sleeps a seeded random time per
    call, so overlapped calls finish out of order.  Tracks the calls
    running at once."""

    waits_on_io = True

    def __init__(self, seed: int = 0, max_delay: float = 0.002):
        self._rng = random.Random(seed)
        self._max_delay = max_delay
        self._lock = threading.Lock()
        self.calls = 0
        self.active = 0
        self.peak = 0

    @contextmanager
    def _latency(self, delay: float | None = None):
        with self._lock:
            if delay is None:
                delay = self._rng.uniform(0.0, self._max_delay)
            self.calls += 1
            self.active += 1
            self.peak = max(self.peak, self.active)
        try:
            time.sleep(delay)
            yield
        finally:
            with self._lock:
                self.active -= 1


class SlowProbe(SlowClient):
    """``StubProbe`` scores; prompts in ``fail`` raise after their delay."""

    def __init__(self, fail: dict[str, float] | None = None, **kw):
        super().__init__(**kw)
        self._stub = StubProbe()
        self._fail = fail or {}

    def greedy_score(self, prompt, m):
        with self._latency(self._fail.get(prompt)):
            if prompt in self._fail:
                raise ProbeUnavailable("connection reset")
            return self._stub.greedy_score(prompt, m)


class SlowEmbedder(SlowClient):
    """``StubEmbedder`` vectors; texts in ``fail`` raise after their delay."""

    def __init__(self, fail: dict[str, float] | None = None, **kw):
        super().__init__(**kw)
        self._stub = StubEmbedder(dim=16, seed=2)
        self._fail = fail or {}

    def dimension(self):
        return self._stub.dimension()

    def embed(self, text):
        with self._latency(self._fail.get(text)):
            if text in self._fail:
                raise EmbedderUnavailable("connection reset")
            return self._stub.embed(text)


class SlowPicker(SlowClient):
    """Argmax of a score table.  With ``bad_replies``, two kinds of bad
    reply are decided by the window alone: a window holding a text whose
    score is divisible by 5 answers invalidly on its first attempt (a
    retry), one holding a text divisible by 7 always answers out of range
    (a fallback).  A window in ``dead`` raises ``PickerUnavailable``."""

    def __init__(self, scores: dict[str, int], bad_replies=False, dead=(), **kw):
        super().__init__(**kw)
        self.scores = scores
        self.bad_replies = bad_replies
        self.dead = {tuple(window) for window in dead}
        self._attempts: dict[tuple[str, ...], int] = {}

    def pick(self, query_text, window):
        key = tuple(window)
        with self._latency():
            if key in self.dead:
                raise PickerUnavailable("connection refused")
            with self._lock:
                attempt = self._attempts[key] = self._attempts.get(key, 0) + 1
            if self.bad_replies and any(self.scores[t] % 7 == 0 for t in window):
                return 99
            if self.bad_replies and attempt % 2 == 1 and any(
                self.scores[t] % 5 == 0 for t in window
            ):
                raise InvalidPickReply("noise")
            return max(range(len(window)), key=lambda i: self.scores[window[i]])


def serial(client):
    client.waits_on_io = False
    return client


def numbered_lines(n: int) -> str:
    return "\n".join(f"v{i} = w{i % 7} + {i}" for i in range(1, n + 1))


# --- call_each ----------------------------------------------------------------


def test_call_each_keeps_input_order():
    client = SlowClient(seed=1)

    def call(k):
        with client._latency():
            return k * k

    assert call_each(client, call, range(50)) == [k * k for k in range(50)]
    assert 1 < client.peak <= FANOUT_WIDTH


def test_first_failure_in_input_order_wins_and_no_call_outlives_it():
    client = SlowClient()
    started: list[int] = []

    def call(k):
        started.append(k)
        # The lower failing call is slow, the higher one fails at once.
        with client._latency(0.05 if k == 2 else 0.0):
            if k in (2, 3):
                raise RuntimeError(f"call {k}")
            return k

    with pytest.raises(RuntimeError, match="call 2"):
        call_each(client, call, range(200))
    assert client.active == 0
    assert len(started) < 200  # calls not yet started were cancelled


# --- determinism against serial execution -------------------------------------


def test_construct_query_equals_serial():
    rng = random.Random(5)
    overlapped = False
    for trial in range(8):
        text = numbered_lines(rng.randint(10, 60))
        f, g = rng.randint(1, 4), rng.randint(1, 4)
        probe = SlowProbe(seed=trial)
        fanned = construct_query(text, f=f, m=4, g=g, probe=probe)
        assert fanned == construct_query(text, f=f, m=4, g=g, probe=serial(SlowProbe()))
        assert probe.calls == len(chunk_file(text, f)) - 1
        assert probe.peak <= FANOUT_WIDTH
        overlapped |= probe.peak > 1
    assert overlapped


def test_heap_rerank_equals_serial_with_retries_and_fallbacks():
    rng = random.Random(7)
    retried = fell_back = overlapped = False
    for trial in range(24):
        bad = trial % 2 == 1
        n, u, w = rng.randint(2, 31), rng.randint(1, 10), rng.randint(2, 4)
        ids = [f"i{k:02d}" for k in range(n)]
        texts = [f"s{k:02d}" for k in range(n)]
        scores = dict(zip(texts, rng.sample(range(1, 1000), n)))
        picker = SlowPicker(scores, bad_replies=bad, seed=trial)
        fanned = heap_rerank(ids, texts, "q", picker, u, w)
        expected = heap_rerank(ids, texts, "q", serial(SlowPicker(scores, bad)), u, w)
        assert fanned.ordered_items == expected.ordered_items
        assert fanned.picker_calls == expected.picker_calls == picker.calls
        assert fanned.trace == expected.trace
        # One event per decision; a decision costs two calls when retried.
        bound = analytic_call_bound(n, u, w)
        assert len(fanned.trace) <= bound
        if not bad:
            assert fanned.picker_calls <= bound
        fallbacks = sum(ev.fallback for ev in fanned.trace)
        retried |= fanned.picker_calls - len(fanned.trace) - fallbacks > 0
        fell_back |= fallbacks > 0
        overlapped |= picker.peak > 1
    assert retried and fell_back and overlapped


def test_build_dense_index_equals_serial():
    texts = [f"w{k % 13} w{k % 7} name{k}" for k in range(300)]
    kb = kb_from_texts(texts)
    embedder = SlowEmbedder(seed=3, max_delay=0.0005)
    fanned = build_dense_index(kb, embedder)
    expected = build_dense_index(kb, serial(SlowEmbedder()))
    assert fanned.item_ids == expected.item_ids
    assert fanned.vectors.tobytes() == expected.vectors.tobytes()
    assert embedder.calls == len(texts)
    assert 1 < embedder.peak <= FANOUT_WIDTH


# --- the first failure in input order wins ------------------------------------


def test_probe_failure_names_the_lowest_failing_chunk():
    text = numbered_lines(30)
    *context, target = chunk_file(text, 3)
    fail = {probe_prompt(context[3], target): 0.05, probe_prompt(context[6], target): 0.0}
    probe = SlowProbe(fail=fail)
    with pytest.raises(ProbeUnavailable, match="chunk 3:"):
        construct_query(text, f=3, m=4, g=1, probe=probe)
    assert probe.active == 0


def test_embedder_failure_reports_the_lowest_failing_position():
    texts = [f"item {k}" for k in range(100)]
    embedder = SlowEmbedder(fail={"item 37": 0.05, "item 40": 0.0, "item 90": 0.0})
    with pytest.raises(EmbedderUnavailable, match=r"^embedding item 37 of 100 \(corpus.py:38\)"):
        build_dense_index(kb_from_texts(texts), embedder)
    assert embedder.active == 0


def test_picker_outage_in_one_internal_group_degrades_the_rerank():
    n, u, w = 31, 10, 3
    ids = [f"i{k:02d}" for k in range(n)]
    texts = [f"s{k:02d}" for k in range(n)]
    scores = {t: 1000 - k for k, t in enumerate(texts)}  # no retries, no fallbacks
    leaves = len(make_windows(ids, w))  # each leaf window costs one call here
    trace = heap_rerank(ids, texts, "q", serial(SlowPicker(scores)), u, w).trace
    group = trace[leaves + 2].window_ids  # the third group of the first internal layer
    picker = SlowPicker(scores, dead=[[texts[ids.index(i)] for i in group]])
    outcome = heap_rerank(ids, texts, "q", picker, u, w)
    assert outcome.degraded
    assert outcome.ordered_items == ids[:u]
    assert picker.active == 0
    # Every call made is counted, the failing one included; the leaf
    # layer's events, recorded before the outage, are kept.
    assert outcome.picker_calls == picker.calls > leaves
    assert outcome.trace == trace[:leaves]


def test_picker_calls_are_counted_exactly_under_thread_switches():
    # More pool threads than cores, switching as often as the interpreter
    # allows: an unlocked count would lose updates.
    n, u, w = 120, 12, 2
    ids = [f"i{k:03d}" for k in range(n)]
    scores = dict(zip(ids, random.Random(5).sample(range(10_000), n)))
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    overlapped = False
    try:
        for seed in range(3):
            picker = SlowPicker(scores, seed=seed, max_delay=0.0005)
            outcome = heap_rerank(ids, ids, "q", picker, u, w)
            assert outcome.picker_calls == picker.calls
            overlapped |= picker.peak > 1
    finally:
        sys.setswitchinterval(old)
    assert overlapped


# --- in-process clients never use the pool ------------------------------------


class _NoPool:
    def submit(self, *args, **kwargs):
        raise AssertionError("an in-process client reached the fan-out pool")


def test_in_process_clients_never_submit_to_the_pool(monkeypatch, mini_repo):
    monkeypatch.setattr(fanout, "_POOL", _NoPool())
    clients = PipelineClients(StubProbe(), StubEmbedder(), OverlapPicker(), EchoGenerator())
    index = RepoIndex.build(mini_repo, clients.embedder)
    prefix = "\n".join([numbered_lines(20), MINI_PREFIX])
    task = CompletionTask("t", str(mini_repo), "main.py", prefix, prefix.count("\n") + 1)
    assert complete(task, index, clients).rerank_outcome.picker_calls > 0
    rng = random.Random(1)
    ids = [f"i{k:02d}" for k in range(31)]
    scores = dict(zip(ids, rng.sample(range(1000), 31)))
    assert len(heap_rerank(ids, ids, "q", OrderPicker(scores), 10, 3).ordered_items) == 10
