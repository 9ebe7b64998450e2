"""End-to-end completion: query -> retrieve -> rerank -> prompt -> generate.

Every intermediate artifact (query, retrieval list, rerank outcome, prompt)
is captured per task for auditing, and per-stage wall times are recorded
for the timing report.  With deterministic clients the whole chain is
deterministic.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from . import store
from .clients import EmbedderClient, GeneratorClient, PipelineClients, approx_token_count
from .config import RunConfig
from .dataflow import build_dataflow_graph, dataflow_retrieve
from .dense import DenseIndex, build_dense_index, dense_retrieve
from .errors import BudgetImpossible, GraphUnavailable, PipelineStageError
from .kb import CodeKnowledgeBase, build_knowledge_base
from .querybuild import RetrievalQuery, construct_query
from .rerank import RerankOutcome, rerank
from .retrieve import RetrievalList, RetrievalPath, merge_paths
from .sparse import SparseIndex, build_sparse_index, sparse_retrieve

APPROX_COUNT_MARGIN = 0.9  # shrink the budget 10% when counting is approximate

SNIPPET_HEADER = "# file: {path}"


@dataclass(frozen=True)
class CompletionTask:
    """One completion case: everything before the cursor plus, when
    evaluating, the reference completion.  ``cursor_line`` records the
    prefix's last line (1-based); the pipeline never reads it."""

    task_id: str
    repo_root: str
    file_path: str
    prefix: str
    cursor_line: int
    ground_truth: str | None = None

    def __post_init__(self) -> None:
        if not self.prefix:
            raise ValueError(f"task {self.task_id}: prefix must be non-empty")


@dataclass
class RepoIndex:
    """The read-only structures shared by all tasks of one repository."""

    kb: CodeKnowledgeBase
    sparse: SparseIndex
    dense: DenseIndex

    @classmethod
    def build(cls, repo_root: str | Path, embedder: EmbedderClient) -> "RepoIndex":
        kb = build_knowledge_base(repo_root)
        return cls(
            kb=kb,
            sparse=build_sparse_index(kb),
            dense=build_dense_index(kb, embedder),
        )

    def save(self, out_dir: str | Path) -> None:
        store.save(out_dir, self.kb, self.sparse, self.dense)

    @classmethod
    def load(cls, kb_dir: str | Path) -> "RepoIndex":
        """Raises ``IndexFormatError`` for a damaged or mismatched index file."""
        return cls(*store.load(kb_dir))


def token_counter(generator: GeneratorClient) -> tuple[Callable[[str], int], bool]:
    """The generator's own tokenizer when exposed, else the approximation.

    Returns (counter, exact).
    """
    count = getattr(generator, "count_tokens", None)
    if callable(count):
        return count, True
    return approx_token_count, False


def assemble_prompt(
    snippets: Sequence[tuple[str, str]],
    prefix: str,
    budget: int,
    generator: GeneratorClient,
    reserve: int,
) -> str:
    """Join snippet blocks and the prefix under the input-token budget.

    Snippets arrive in rerank order (rank 1 first) and appear in that
    order; each block carries its file path as a comment header.  Over
    budget, snippets are dropped lowest-rank first, then prefix lines from
    the top — never the cursor line, which is the last.  With no snippets
    the prompt is exactly the prefix.

    The fewest leading lines to drop are found by binary search.  That
    equals dropping one line at a time whenever the count does not grow
    as leading lines are removed, which holds for the approximate counter
    because it is additive across lines.
    """
    count, exact = token_counter(generator)
    effective = budget - reserve
    if not exact:
        effective = math.floor(effective * APPROX_COUNT_MARGIN)
    if effective < 1:
        raise BudgetImpossible(f"budget {budget} leaves no room after the reserve")

    def compose(blocks: Sequence[str], tail: str) -> str:
        if not blocks:
            return tail
        return "\n\n".join(blocks) + "\n\n" + tail

    blocks = [
        SNIPPET_HEADER.format(path=path) + "\n" + text for path, text in snippets
    ]
    kept = list(blocks)
    while kept and count(compose(kept, prefix)) > effective:
        kept.pop()  # lowest rank first

    prompt = compose(kept, prefix)
    if count(prompt) <= effective:
        return prompt

    # No snippet is left; drop the fewest leading prefix lines that fit.
    prefix_lines = prefix.split("\n")

    def tail(drop: int) -> str:
        return "\n".join(prefix_lines[drop:])

    lo, hi = 1, len(prefix_lines) - 1  # dropping none is over budget
    if hi < lo or count(tail(hi)) > effective:
        raise BudgetImpossible(
            f"the cursor line alone exceeds the available budget of {effective} tokens"
        )
    while lo < hi:
        mid = (lo + hi) // 2
        if count(tail(mid)) <= effective:
            hi = mid
        else:
            lo = mid + 1
    return tail(hi)


@dataclass
class CompletionResult:
    generated: str
    query: RetrievalQuery
    retrieval_list: RetrievalList
    rerank_outcome: RerankOutcome
    prompt: str
    timings: dict[str, float] = field(default_factory=dict)


class _Stage:
    """Tags failures with their stage and records wall time.  Only an
    ``Exception`` is wrapped: ``KeyboardInterrupt`` and ``SystemExit``
    pass through unchanged."""

    def __init__(self, name: str, timings: dict[str, float]):
        self.name = name
        self.timings = timings

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.timings[self.name] = time.perf_counter() - self._start
        if isinstance(exc, Exception) and not isinstance(exc, PipelineStageError):
            raise PipelineStageError(self.name, exc) from exc
        return False


def complete(
    task: CompletionTask,
    index: RepoIndex,
    clients: PipelineClients,
    config: RunConfig = RunConfig(),
) -> CompletionResult:
    """Run the full chain for one task.

    ``config.paths`` names the enabled retrieval paths; disabling one
    shrinks the retrieval list accordingly.  An empty retrieval list
    degrades to a zero-shot prompt (the prefix alone); all other stage
    failures propagate tagged with their stage.
    """
    paths, j = config.paths, config.j
    timings: dict[str, float] = {}

    with _Stage("query_construction", timings):
        query = construct_query(task.prefix, config.f, config.m, config.g, probe=clients.probe)

    dataflow_hits: list[tuple[str, float]] = []
    with _Stage("dataflow", timings):
        if RetrievalPath.DATAFLOW in paths:
            try:
                graph = build_dataflow_graph(task.prefix)
                dataflow_hits = dataflow_retrieve(graph, index.kb)
            except GraphUnavailable:
                dataflow_hits = []

    sparse_hits: list[tuple[str, float]] = []
    with _Stage("sparse", timings):
        if RetrievalPath.SPARSE in paths:
            sparse_hits = sparse_retrieve(index.sparse, query.combined_text, j)

    dense_hits: list[tuple[str, float]] = []
    with _Stage("dense", timings):
        if RetrievalPath.DENSE in paths:
            dense_hits = dense_retrieve(index.dense, query.combined_text, clients.embedder, j)

    retrieval_list = merge_paths(dataflow_hits, sparse_hits, dense_hits, j)

    with _Stage("rerank", timings):
        outcome = rerank(
            retrieval_list, query.combined_text, index.kb, clients.picker, config.u, config.w
        )

    with _Stage("prompt_assembly", timings):
        snippets = [
            (index.kb.get(item_id).file_path, index.kb.get(item_id).text)
            for item_id in outcome.ordered_items
        ]
        prompt = assemble_prompt(
            snippets,
            task.prefix,
            budget=config.max_input_tokens,
            generator=clients.generator,
            reserve=config.max_new_tokens,
        )

    with _Stage("generate", timings):
        generated = clients.generator.generate(prompt, config)

    return CompletionResult(
        generated=generated,
        query=query,
        retrieval_list=retrieval_list,
        rerank_outcome=outcome,
        prompt=prompt,
        timings=timings,
    )


def _score_jsonable(score: float):
    return score if math.isfinite(score) else "inf"


def result_artifacts(result: CompletionResult, effective_config: dict) -> dict:
    """JSON-serializable artifact dump for one completed task."""
    return {
        "config": effective_config,
        "query": {
            "selected_chunks": list(result.query.selected_chunks),
            "target_chunk": result.query.target_chunk,
            "combined_text": result.query.combined_text,
        },
        "retrieval_list": [
            {
                "id": c.item_id,
                "path": c.path.value,
                "path_rank": c.path_rank,
                "path_score": _score_jsonable(c.path_score),
            }
            for c in result.retrieval_list.candidates
        ],
        "rerank_outcome": {
            "ordered_items": list(result.rerank_outcome.ordered_items),
            "picker_calls": result.rerank_outcome.picker_calls,
            "degraded": result.rerank_outcome.degraded,
            "trace": [
                {
                    "window": list(ev.window_ids),
                    "chosen": ev.chosen_id,
                    "fallback": ev.fallback,
                }
                for ev in result.rerank_outcome.trace
            ],
        },
        "prompt": result.prompt,
        "generated": result.generated,
        "timings": result.timings,
    }


def dump_artifacts(
    result: CompletionResult, task: CompletionTask, dump_dir: str | Path, effective_config: dict
) -> Path:
    out = Path(dump_dir)
    out.mkdir(parents=True, exist_ok=True)
    safe_id = "".join(c if c.isalnum() or c in "-_." else "_" for c in task.task_id)
    path = out / f"{safe_id}.json"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(result_artifacts(result, effective_config), fh, ensure_ascii=False, indent=2)
        fh.write("\n")
    return path
