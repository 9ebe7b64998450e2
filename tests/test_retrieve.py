"""Three-path merge arithmetic, dedup and end-to-end retrieval determinism."""

from __future__ import annotations

from coderag.clients import EchoGenerator, OverlapPicker, StubEmbedder, StubProbe
from coderag.config import RunConfig
from coderag.pipeline import CompletionTask, PipelineClients, RepoIndex, complete
from coderag.retrieve import RetrievalPath, merge_paths

from .conftest import MINI_PREFIX


def test_merge_disjoint_full_paths():
    merged = merge_paths(
        dataflow_hits=[("d0", float("inf"))],
        sparse_hits=[("s1", 0.9), ("s2", 0.8)],
        dense_hits=[("v1", 0.7), ("v2", 0.6)],
        j=2,
    )
    assert [c.item_id for c in merged.candidates] == ["d0", "s1", "s2", "v1", "v2"]
    assert [c.path for c in merged.candidates] == [
        RetrievalPath.DATAFLOW,
        RetrievalPath.SPARSE,
        RetrievalPath.SPARSE,
        RetrievalPath.DENSE,
        RetrievalPath.DENSE,
    ]
    assert [c.path_rank for c in merged.candidates] == [1, 1, 2, 1, 2]
    assert len(merged) == 2 * 2 + 1


def test_merge_dedup_keeps_earliest_provenance():
    merged = merge_paths(
        dataflow_hits=[],
        sparse_hits=[("x", 0.9)],
        dense_hits=[("x", 0.99), ("y", 0.5)],
        j=3,
    )
    assert [(c.item_id, c.path) for c in merged.candidates] == [
        ("x", RetrievalPath.SPARSE),
        ("y", RetrievalPath.DENSE),
    ]


def test_merge_empty_paths():
    merged = merge_paths([], [], [], j=5)
    assert merged.candidates == []


def test_merge_caps_at_2j_plus_1():
    sparse = [(f"s{i}", 1.0 - i / 100) for i in range(10)]
    dense = [(f"v{i}", 1.0 - i / 100) for i in range(10)]
    merged = merge_paths([("d", float("inf"))], sparse, dense, j=3)
    assert len(merged) == 7  # 2*3+1


def test_retrieve_all_is_deterministic(mini_repo):
    # Independent index builds and runs yield the same merged retrieval list.
    task = CompletionTask(
        task_id="mini-1", repo_root=str(mini_repo), file_path="main.py",
        prefix=MINI_PREFIX, cursor_line=5, ground_truth="",
    )
    lists = []
    for _ in range(2):
        index = RepoIndex.build(mini_repo, StubEmbedder())
        clients = PipelineClients(StubProbe(), StubEmbedder(), OverlapPicker(), EchoGenerator())
        lists.append(complete(task, index, clients, RunConfig(j=4, u=8)).retrieval_list.candidates)
    assert lists[0]
    assert lists[0] == lists[1]
