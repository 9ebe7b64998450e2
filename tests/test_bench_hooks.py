"""The names the benchmark hooks and observes still exist.

``perfbench`` replaces module attributes of the program and reads some
call arguments by name; a rename there otherwise shows up only when the
benchmark runs.  These tests import the benchmark's own modules and
resolve its hooks without changing them.
"""

from __future__ import annotations

import inspect

import pytest

from perfbench import tracer, workloads

import coderag.pipeline
import coderag.wire
from coderag.clients import EchoGenerator, OverlapPicker, StubEmbedder, StubProbe
from coderag.pipeline import CompletionTask, PipelineClients, RepoIndex
from coderag.retrieve import RetrievalPath
from coderag.wire import (
    WireEmbedderClient,
    WireGeneratorClient,
    WirePickerClient,
    WireProbeClient,
)

from .conftest import MINI_PREFIX, REPO10_FILES, write_repo
from .test_wire import StubServer

OBSERVED_ARGUMENTS = {
    coderag.pipeline.merge_paths: ("j", "dataflow_hits", "sparse_hits", "dense_hits"),
    coderag.pipeline.assemble_prompt: ("snippets",),
    coderag.wire.post_request: ("payload",),
}


@pytest.mark.parametrize("module,attr,span", tracer.SPAN_HOOKS)
def test_span_hook_target_resolves(module, attr, span):
    tracer._resolve(module, attr)


def test_cli_client_factory_resolves():
    tracer._resolve("coderag.cli", "make_clients")


@pytest.mark.parametrize("fn", list(OBSERVED_ARGUMENTS), ids=lambda fn: fn.__name__)
def test_observed_arguments_are_parameters(fn):
    assert set(OBSERVED_ARGUMENTS[fn]) <= set(inspect.signature(fn).parameters)


def test_task_and_client_names_still_work():
    task = CompletionTask(
        task_id="t", repo_root="/r", file_path="f.py", prefix="a\nb", cursor_line=2
    )
    assert task.cursor_line == 2
    assert RetrievalPath.DATAFLOW == "dataflow"
    clients = PipelineClients(
        probe=StubProbe(), embedder=StubEmbedder(), picker=OverlapPicker(),
        generator=EchoGenerator(),
    )
    assert isinstance(tracer.proxy_clients(clients, tracer.Tracer(enabled=False)), PipelineClients)


def test_traced_completion_fires_pipeline_hooks(mini_repo):
    trace = tracer.Tracer(enabled=True)
    clients = tracer.proxy_clients(
        PipelineClients(StubProbe(), StubEmbedder(), OverlapPicker(), EchoGenerator()), trace
    )
    task = CompletionTask(
        task_id="mini-1", repo_root=str(mini_repo), file_path="main.py",
        prefix=MINI_PREFIX, cursor_line=MINI_PREFIX.count("\n") + 1,
    )
    with tracer.Hooks(trace, workloads.OBSERVERS):
        index = RepoIndex.build(mini_repo, clients.embedder)
        trace.begin("op-0")
        coderag.pipeline.complete(task, index, clients)
        op = trace.end()
    per_op_spans = {
        "querybuild", "dataflow", "sparse", "dense", "retrieve", "rerank", "pipeline.prompt",
    }
    assert per_op_spans <= set(op.calls)
    assert {"retrieve.dedup_drops", "pipeline.snippets_dropped"} <= set(op.extra)


def test_traced_wire_completion_adds_up_with_calls_on_worker_threads(tmp_path):
    repo = write_repo(tmp_path / "repo", REPO10_FILES)
    prefix = "\n".join(
        ["from pkg.config import parse_config"]
        + [f"rate_{i} = DEFAULTS['rate'] * {i}" for i in range(18)]
        + ["cfg = parse_con"]
    )
    task = CompletionTask("wire-1", str(repo), "main.py", prefix, prefix.count("\n") + 1)
    server = StubServer()
    try:
        ep = server.endpoint
        trace = tracer.Tracer(enabled=True)
        clients = tracer.proxy_clients(
            PipelineClients(
                WireProbeClient(ep), WireEmbedderClient(ep), WirePickerClient(ep),
                WireGeneratorClient(ep),
            ),
            trace,
        )
        with tracer.Hooks(trace, workloads.OBSERVERS):
            index = RepoIndex.build(repo, clients.embedder)
            trace.begin("op-0")
            result = coderag.pipeline.complete(task, index, clients)
            op = trace.end()
    finally:
        server.close()

    probes = sorted(
        (s for s in trace.spans if s.op == "op-0" and s.name == "clients.probe"),
        key=lambda s: s.start_ns,
    )
    assert len(probes) == op.calls["clients.probe"] == 6  # 20 lines in chunks of 3
    assert any(b.start_ns < a.end_ns for a, b in zip(probes, probes[1:]))  # overlapped
    root = next(s for s in trace.spans if s.op == "op-0" and s.name == tracer.ROOT_SPAN)
    assert sum(trace.self_times()["op-0"].values()) == root.duration_ns
    assert op.calls["clients.pick"] == result.rerank_outcome.picker_calls > 0
