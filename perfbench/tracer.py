"""Span tracer that lives outside the program under test.

Spans are recorded around public calls into each layer by replacing
module attributes (the names ``coderag.pipeline`` and ``coderag.kb``
look up at call time) and by wrapping the model clients in proxies.
Nothing under ``src/`` is edited.

Every span of one op shares the op's id.  Spans stay in memory and are
written out once, when the run ends.  A layer's self time is the part of
its span that no child span covers; the op's root span keeps the
remainder, reported as ``pipeline.other``, so that per op the self times
add up to the op's traced duration exactly (in nanoseconds, as exact
fractions when client calls overlap on worker threads).

Call counts are kept even when tracing is off, because the end-to-end
metric ``model_calls_per_op`` is read from the client proxies.
"""

from __future__ import annotations

import importlib
import inspect
import json
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ROOT_SPAN = "op"

# (module, attribute path, span name).  Every target must exist; a
# missing one raises HookMissing rather than silently losing a layer.
SPAN_HOOKS = (
    ("coderag.pipeline", "construct_query", "querybuild"),
    ("coderag.pipeline", "build_dataflow_graph", "dataflow"),
    ("coderag.pipeline", "dataflow_retrieve", "dataflow"),
    ("coderag.pipeline", "sparse_retrieve", "sparse"),
    ("coderag.pipeline", "dense_retrieve", "dense"),
    ("coderag.pipeline", "merge_paths", "retrieve"),
    ("coderag.pipeline", "rerank", "rerank"),
    ("coderag.pipeline", "assemble_prompt", "pipeline.prompt"),
    ("coderag.pipeline", "RepoIndex.build", "index.build"),
    ("coderag.pipeline", "RepoIndex.save", "index.save"),
    ("coderag.pipeline", "RepoIndex.load", "index.load"),
    ("coderag.pipeline", "build_knowledge_base", "kb.build"),
    ("coderag.pipeline", "build_sparse_index", "sparse.build"),
    ("coderag.pipeline", "build_dense_index", "dense.build"),
    ("coderag.kb", "parse_file", "kb.parse_file"),
    ("coderag.kb", "extract_items", "kb.extract"),
    ("coderag.evaluation", "score_pair", "evaluation"),
    ("coderag.wire", "post_request", "wire.call"),
)

# Client method wrapped by each proxy, and the span it records.
CLIENT_METHODS = {
    "probe": ("greedy_score", "clients.probe"),
    "embedder": ("embed", "clients.embed"),
    "picker": ("pick", "clients.pick"),
    "generator": ("generate", "clients.generate"),
}
MODEL_CALL_SPANS = tuple(span for _, span in CLIENT_METHODS.values())


class HookMissing(RuntimeError):
    """A hook target no longer exists in the program under test."""


@dataclass
class Span:
    op: str
    name: str
    parent: int  # index into Tracer.spans, -1 for a root
    start_ns: int
    end_ns: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass
class OpTrace:
    """What one op left in the tracer."""

    op: str
    calls: Counter = field(default_factory=Counter)  # span name -> calls
    failures: Counter = field(default_factory=Counter)  # span name -> raised
    extra: dict = field(default_factory=dict)  # e.g. injected model time


class Tracer:
    """Counts calls per op always; records spans only when ``enabled``.

    Safe for clients that call from worker threads: counts and span
    records are taken under a lock, each thread keeps its own span stack,
    and a span opened on a thread with an empty stack gets the innermost
    span open on the thread that began the op as its parent.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.current = OpTrace("setup")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, op: str) -> None:
        self.current = OpTrace(op)
        self._main_stack = self._stack()
        if self.enabled:
            self._open(ROOT_SPAN)

    def end(self) -> OpTrace:
        if self.enabled:
            stack = self._stack()
            self.spans[stack.pop()].end_ns = time.perf_counter_ns()
            if stack:
                raise RuntimeError(f"spans left open in op {self.current.op}")
        done = self.current
        self.current = OpTrace("setup")
        return done

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.current.extra[key] = self.current.extra.get(key, 0.0) + value

    def call(self, name: str, fn, *args, **kwargs):
        with self._lock:
            self.current.calls[name] += 1
        idx = self._open(name) if self.enabled else -1
        try:
            return fn(*args, **kwargs)
        except Exception:
            with self._lock:
                self.current.failures[name] += 1
            raise
        finally:
            if idx >= 0:
                self.spans[self._stack().pop()].end_ns = time.perf_counter_ns()

    def _open(self, name: str) -> int:
        stack = self._stack()
        parent_stack = stack or self._main_stack
        parent = parent_stack[-1] if parent_stack else -1
        with self._lock:
            self.spans.append(Span(self.current.op, name, parent, time.perf_counter_ns()))
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def self_times(self) -> dict[str, dict[str, Fraction]]:
        """Per op: span name -> self time in ns (the root as ``pipeline.other``).

        Each instant of an op is attributed to the innermost spans open
        at that instant, split evenly when several run at once (worker
        threads), so a span's self time is the part of its interval that
        no child covers.  Raises if an op's self times do not add up to
        its root span's duration.
        """
        by_op: dict[str, list[int]] = {}
        for i, span in enumerate(self.spans):
            if span.end_ns == 0:
                raise RuntimeError(f"span {span.name} in op {span.op} never ended")
            by_op.setdefault(span.op, []).append(i)
        out: dict[str, dict[str, Fraction]] = {}
        for op, members in by_op.items():
            selfs = self._sweep(members)
            out[op] = selfs
            roots = [i for i in members if self.spans[i].name == ROOT_SPAN]
            if roots and sum(selfs.values()) != self.spans[roots[0]].duration_ns:
                raise RuntimeError(f"self times of op {op} do not add up to its duration")
        return out

    def _sweep(self, members: list[int]) -> dict[str, Fraction]:
        events = sorted(
            [(self.spans[i].start_ns, 1, i) for i in members]
            + [(self.spans[i].end_ns, 0, i) for i in members]
        )
        open_children: Counter = Counter()
        leaves: set[int] = set()
        selfs: dict[str, Fraction] = {}
        last = events[0][0]
        for t, is_start, i in events:
            if leaves and t > last:
                share = t - last if len(leaves) == 1 else Fraction(t - last, len(leaves))
                for leaf in leaves:
                    name = self.spans[leaf].name
                    name = "pipeline.other" if name == ROOT_SPAN else name
                    selfs[name] = selfs.get(name, 0) + share
            last = t
            parent = self.spans[i].parent
            if is_start:
                leaves.add(i)
                if parent >= 0:
                    open_children[parent] += 1
                    leaves.discard(parent)
            else:
                leaves.discard(i)
                if parent >= 0:
                    open_children[parent] -= 1
                    if open_children[parent] == 0 and self.spans[parent].end_ns > t:
                        leaves.add(parent)
        return selfs

    def inclusive(self) -> dict[str, Counter]:
        """Per op: span name -> summed duration in ns of its outermost
        spans (a span nested in one of the same name is not added again).
        Calls running at once on worker threads each add their own time."""
        out: dict[str, Counter] = {}
        for span in self.spans:
            parent = span.parent
            while parent >= 0 and self.spans[parent].name != span.name:
                parent = self.spans[parent].parent
            if parent < 0:
                out.setdefault(span.op, Counter())[span.name] += span.duration_ns
        return out

    def durations_ns(self, names: tuple[str, ...]) -> list[int]:
        return [s.duration_ns for s in self.spans if s.name in names]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.__dict__) + "\n")


def _resolve(module_name: str, attr_path: str):
    """(owner object, attribute name, raw attribute) or HookMissing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise HookMissing(f"hook module {module_name} cannot be imported: {exc}") from exc
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            raise HookMissing(f"hook target {module_name}.{attr_path} no longer exists")
    try:
        raw = inspect.getattr_static(owner, attr)
    except AttributeError:
        raise HookMissing(f"hook target {module_name}.{attr_path} no longer exists") from None
    return owner, attr, raw


def _traced(tracer: Tracer, name: str, fn, observe=None):
    """``fn`` under a span; ``observe(tracer, bound_args, result)`` may
    record counts from the call's arguments and result."""
    signature = inspect.signature(fn) if observe else None

    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, *args, **kwargs)
        if observe:
            observe(tracer, signature.bind(*args, **kwargs).arguments, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


class Hooks:
    """Installs span hooks and restores the original attributes on exit.

    ``observers`` maps a span name to a callback that derives counts from
    the arguments and result of each traced call (see :func:`_traced`).
    """

    def __init__(self, tracer: Tracer, observers=None):
        self.tracer = tracer
        self.observers = observers or {}
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Hooks":
        targets = [_resolve(module, path) for module, path, _ in SPAN_HOOKS]
        for (owner, attr, raw), (_, _, name) in zip(targets, SPAN_HOOKS):
            self._saved.append((owner, attr, raw))
            observe = self.observers.get(name)
            if isinstance(raw, classmethod):
                fn = _traced(self.tracer, name, raw.__func__, observe)
                setattr(owner, attr, classmethod(fn))
            else:
                setattr(owner, attr, _traced(self.tracer, name, raw, observe))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()


class _ClientProxy:
    """Forwards everything to the wrapped client; the one model method is
    counted (and traced when the tracer is enabled)."""

    def __init__(self, inner, kind: str, tracer: Tracer):
        method, span = CLIENT_METHODS[kind]
        self._inner = inner
        fn = getattr(inner, method)
        setattr(self, method, lambda *a, **k: tracer.call(span, fn, *a, **k))

    def __getattr__(self, name):
        return getattr(self._inner, name)


def proxy_clients(clients, tracer: Tracer):
    """A ``PipelineClients`` whose four clients count their model calls."""
    from coderag.pipeline import PipelineClients

    return PipelineClients(
        **{kind: _ClientProxy(getattr(clients, kind), kind, tracer) for kind in CLIENT_METHODS}
    )


class ProxiedCliClients:
    """Makes ``coderag.cli`` build proxied clients, so model calls made by
    ``coderag index`` count too."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved = None

    def __enter__(self) -> "ProxiedCliClients":
        owner, attr, raw = _resolve("coderag.cli", "make_clients")
        self._saved = (owner, attr, raw)
        setattr(owner, attr, lambda cfg: proxy_clients(raw(cfg), self.tracer))
        return self

    def __exit__(self, *exc) -> None:
        owner, attr, raw = self._saved
        setattr(owner, attr, raw)
