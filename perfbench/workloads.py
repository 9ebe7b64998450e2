"""The three workloads: inputs, set-up, the op, per-op checks, metrics.

Each workload is a closed loop with a single client: the next op starts
only when the previous one has returned.  Ops run in whole passes over a
fixed list of ``tasks`` inputs, so every per-op count (model calls,
picker calls, recall) is the same whatever the number of passes, and a
run always holds at least one pass.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from coderag import cli, evaluation, pipeline
from coderag.clients import EchoGenerator, OverlapPicker, StubEmbedder, StubProbe
from coderag.config import RunConfig, make_clients
from coderag.pipeline import CompletionTask, PipelineClients, RepoIndex
from coderag.rerank import analytic_call_bound
from coderag.retrieve import RetrievalPath

from . import fakelm, synth
from .tracer import MODEL_CALL_SPANS, SPAN_HOOKS, Hooks, Tracer, proxy_clients
from .tracer import ProxiedCliClients

CONFIG = RunConfig()  # the engine's defaults; ops call complete() without overrides
WARMUP_OPS = 5
SPIN_ROUNDS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    files: int
    funcs_per_file: int
    methods_per_class: int
    tasks: int  # ops per pass
    setup_repeats: int  # setup_s is the median of this many set-ups
    wire: bool = False
    edit: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "stub-large",
            why="2,000 files / 30k items with in-process stub models: sparse, dense and "
            "dataflow CPU cost dominates, model calls are free",
            files=2000, funcs_per_file=6, methods_per_class=5, tasks=300, setup_repeats=3,
        ),
        Workload(
            "wire-small",
            why="200 files / 3k items, all four clients over HTTP to a fake LM in another "
            "process: probing, the rerank tournament and wire transport dominate",
            files=200, funcs_per_file=6, methods_per_class=5, tasks=100, setup_repeats=3,
            wire=True,
        ),
        Workload(
            "edit-reindex",
            why="200 small files: each op rewrites one file, re-runs `coderag index`, "
            "reloads and completes a task calling the new function (write path beside reads)",
            files=200, funcs_per_file=2, methods_per_class=0, tasks=100, setup_repeats=5,
            edit=True,
        ),
    )
}


def spin_ms() -> float:
    """A fixed pure-Python reference loop, to tell host drift from a
    regression."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return (time.perf_counter() - start) * 1000.0


class UncountedEcho:
    """``EchoGenerator`` without a tokenizer, like ``WireGeneratorClient``:
    prompt assembly then budgets with the approximate counter, as it does
    on the wire."""

    def __init__(self) -> None:
        self._echo = EchoGenerator()

    def generate(self, prompt: str, config) -> str:
        return self._echo.generate(prompt, config)


class FakeLM:
    """The fake LM server process; stopped and waited for on exit."""

    def __enter__(self) -> "FakeLM":
        script = Path(fakelm.__file__)
        self.proc = subprocess.Popen(
            [sys.executable, str(script)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "PORT":
            self.__exit__()
            raise RuntimeError(f"fake LM server did not start: {line!r}")
        self.endpoint = f"http://127.0.0.1:{line[1]}/"
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@dataclass
class OpRecord:
    """What the checks and metrics need from one op."""

    task_index: int
    result: pipeline.CompletionResult
    gold: str | None  # gold item id, None when the new function is missing
    score: evaluation.TaskScore
    manifest_ok: bool = True


class Run:
    """One workload run in this process: set-up, warm-up, timed loop."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.w = workload
        self.seed = seed
        self.repo = workdir / "repo"
        self.index_dir = workdir / "index"
        self.index: RepoIndex | None = None
        self.gold: dict[str, str] = {}

    # ---- inputs and set-up --------------------------------------------
    def make_inputs(self) -> None:
        w = self.w
        functions, words = synth.write_repo(
            self.repo, w.files, self.seed, w.funcs_per_file, w.methods_per_class
        )
        if w.edit:
            self.edits = synth.make_edits(
                functions, words, w.tasks, self.seed, w.methods_per_class
            )
            self.tasks = [e.task for e in self.edits]
        else:
            self.tasks = synth.make_tasks(functions, w.tasks, self.seed)
        self.ctasks = [
            CompletionTask(
                task_id=t.task_id,
                repo_root=str(self.repo),
                file_path=t.file_path,
                prefix=t.prefix,
                cursor_line=t.prefix.count("\n") + 1,
                ground_truth=t.ground_truth,
            )
            for t in self.tasks
        ]

    def setup_once(self, clients: PipelineClients) -> RepoIndex:
        if self.w.edit:
            self._cli_index()
            return RepoIndex.load(self.index_dir)
        return RepoIndex.build(self.repo, clients.embedder)

    def _cli_index(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["index", str(self.repo), "--out", str(self.index_dir)])
        if code != 0:
            raise RuntimeError(f"coderag index exited with {code}")

    # ---- the op --------------------------------------------------------
    def op(self, i: int, clients: PipelineClients) -> OpRecord:
        task, ctask = self.tasks[i], self.ctasks[i]
        if self.w.edit:
            edit = self.edits[i]
            (self.repo / edit.function.file_path).write_bytes(edit.source)
            self._cli_index()
            self.index = RepoIndex.load(self.index_dir)
        result = pipeline.complete(ctask, self.index, clients)
        score = evaluation.score_pair(task.task_id, result.generated, task.ground_truth)
        if not self.w.edit:
            return OpRecord(i, result, self.gold.get(task.target), score)
        edit = self.edits[i]
        new = [
            item for item in self.index.kb.items
            if item.qualified_name == edit.function.name
            and item.file_path == edit.function.file_path
        ]
        digest = hashlib.sha256(edit.source).hexdigest()
        manifest_ok = self.index.kb.file_manifest.get(edit.function.file_path) == digest
        return OpRecord(i, result, new[0].id if len(new) == 1 else None, score, manifest_ok)


def check_op(rec: OpRecord, calls, clients: PipelineClients, reference) -> list[str]:
    """Every failed check of one op, as messages."""
    problems: list[str] = []
    result = rec.result
    ids = result.retrieval_list.item_ids()
    n = len(ids)
    outcome = result.rerank_outcome
    if len(set(ids)) != n or n > 2 * CONFIG.j + 1:
        problems.append(f"retrieval list has {n} ids, {len(set(ids))} distinct")
    if outcome.picker_calls > analytic_call_bound(n, CONFIG.u, CONFIG.w):
        problems.append(f"{outcome.picker_calls} picker calls exceed the analytic bound")
    if calls["clients.pick"] != outcome.picker_calls:
        problems.append("picker calls seen at the client differ from the rerank count")
    if not set(outcome.ordered_items) <= set(ids):
        problems.append("ordered items not all in the retrieval list")
    if len(outcome.ordered_items) != min(CONFIG.u, n):
        problems.append(f"{len(outcome.ordered_items)} ordered items, want {min(CONFIG.u, n)}")
    count, _ = pipeline.token_counter(clients.generator)
    if count(result.prompt) > CONFIG.max_input_tokens - CONFIG.max_new_tokens:
        problems.append("prompt exceeds the input budget")
    if not 0.0 <= rec.score.es <= 1.0:
        problems.append("edit similarity outside [0, 1]")
    if rec.gold is None:
        problems.append("gold function missing from the knowledge base")
    if not rec.manifest_ok:
        problems.append("manifest hash of the edited file does not match its bytes")
    if reference is not None:
        want = reference[rec.task_index]
        got = (ids, list(outcome.ordered_items), result.prompt, result.generated)
        if got != want:
            problems.append("wire output differs from the in-process stub reference")
    return problems


def reference_outputs(run: Run) -> list[tuple]:
    """In-process stub run of every task on the same index (wire-small)."""
    ref_clients = PipelineClients(
        probe=StubProbe(),
        embedder=StubEmbedder(dim=fakelm.EMBED_DIM),
        picker=OverlapPicker(),
        generator=UncountedEcho(),
    )
    out = []
    for ctask in run.ctasks:
        result = pipeline.complete(ctask, run.index, ref_clients)
        out.append(
            (result.retrieval_list.item_ids(), list(result.rerank_outcome.ordered_items),
             result.prompt, result.generated)
        )
    return out


# ---- observers for traced runs ------------------------------------------
def _observe_merge(tracer: Tracer, args: dict, result) -> None:
    j = args["j"]
    offered = (
        len(args["dataflow_hits"][:1]) + len(args["sparse_hits"][:j]) + len(args["dense_hits"][:j])
    )
    tracer.add("retrieve.dedup_drops", offered - len(result))


def _observe_prompt(tracer: Tracer, args: dict, prompt: str) -> None:
    blocks = [
        pipeline.SNIPPET_HEADER.format(path=path) + "\n" + text for path, text in args["snippets"]
    ]
    kept = 0
    for k in range(len(blocks), 0, -1):
        if prompt.startswith("\n\n".join(blocks[:k]) + "\n\n"):
            kept = k
            break
    tracer.add("pipeline.snippets_dropped", len(blocks) - kept)


def _observe_wire(tracer: Tracer, args: dict, reply) -> None:
    tracer.add("wire.injected_ns", fakelm.injected_delay_s(args["payload"]) * 1e9)


OBSERVERS = {
    "retrieve": _observe_merge,
    "pipeline.prompt": _observe_prompt,
    "wire.call": _observe_wire,
}


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path,
                 trace_out: Path | None = None) -> dict:
    """Run one workload; returns counts, metrics and the host reference."""
    spins = [spin_ms() for _ in range(SPIN_ROUNDS)]
    tracer = Tracer(enabled=False)
    run = Run(w, seed, workdir)
    run.make_inputs()
    with contextlib.ExitStack() as stack:
        stack.enter_context(ProxiedCliClients(tracer))
        if w.wire:
            lm = stack.enter_context(FakeLM())
            base = make_clients(
                RunConfig(probe_endpoint=lm.endpoint, embed_endpoint=lm.endpoint,
                          pick_endpoint=lm.endpoint, generate_endpoint=lm.endpoint)
            )
        else:
            base = make_clients(CONFIG)
        clients = proxy_clients(base, tracer)

        # Set-up: timed several times, median reported.  A traced run sets
        # up once, under the hooks, and also saves and reloads the index
        # so that index.save/load are measured on every workload.
        setup_times = []
        hooks = Hooks(tracer, OBSERVERS)
        if trace:
            tracer.enabled = True
            with hooks:
                run.index = run.setup_once(clients)
                if not w.edit:
                    run.index.save(run.index_dir)
                    run.index = RepoIndex.load(run.index_dir)
            tracer.enabled = False
        else:
            for _ in range(w.setup_repeats):
                run.index = None
                gc.collect()
                start = time.perf_counter()
                run.index = run.setup_once(clients)
                setup_times.append(time.perf_counter() - start)
        run.gold = {item.qualified_name: item.id for item in run.index.kb.items}
        reference = reference_outputs(run) if w.wire else None

        # Warm-up over the first tasks; excluded from every metric.  Its
        # latencies are the untraced baseline for trace.overhead_ratio.
        warm = []
        for i in range(min(WARMUP_OPS, w.tasks)):
            tracer.begin(f"warmup{i}")
            start = time.perf_counter_ns()
            run.op(i, clients)
            warm.append(time.perf_counter_ns() - start)
            tracer.end()

        gc.collect()
        latencies: list[int] = []
        records: list[tuple[OpRecord | Exception, object]] = []
        if trace:
            tracer.enabled = True
            stack.enter_context(hooks)
        loop_start = time.perf_counter()
        passes = 0
        while True:
            for i in range(w.tasks):
                tracer.begin(f"op{len(latencies)}")
                start = time.perf_counter_ns()
                try:
                    rec = run.op(i, clients)
                except Exception as exc:  # counted as a failed op
                    rec = exc
                latencies.append(time.perf_counter_ns() - start)
                records.append((rec, tracer.end()))
            passes += 1
            elapsed = time.perf_counter() - loop_start
            if elapsed + elapsed / passes / 2 >= seconds:
                break
        loop_wall = time.perf_counter() - loop_start
        tracer.enabled = False
    spins += [spin_ms() for _ in range(SPIN_ROUNDS)]

    failures: list[str] = []
    failed_ops = 0
    for rec, calls in records:
        if isinstance(rec, Exception):
            problems = [f"op raised {type(rec).__name__}: {rec}"]
        else:
            problems = check_op(rec, calls.calls, clients, reference)
            problems = [f"{run.tasks[rec.task_index].task_id}: {p}" for p in problems]
        failed_ops += bool(problems)
        failures.extend(problems)
    ok = [(rec, calls) for rec, calls in records if not isinstance(rec, Exception)]
    ops = len(records)
    out = {
        "attempted": ops,
        "failed": failed_ops,
        "failures": failures[:20],
        "passes": passes,
        "setup_times": setup_times,
        "host.spin_ms": statistics.median(spins),
    }
    lat_ms = [v / 1e6 for v in latencies]
    if not trace:
        out["metrics"] = {
            "setup_s": (statistics.median(setup_times), "s"),
            "latency_ms_p50": (statistics.median(lat_ms), "ms"),
            "latency_ms_p90": (statistics.quantiles(lat_ms, n=10, method="inclusive")[8], "ms"),
            "ops_per_s": (ops / loop_wall, "1/s"),
            "context_recall": (
                sum(1 for rec, _ in ok if rec.gold in rec.result.rerank_outcome.ordered_items)
                / ops, "ratio",
            ),
            "model_calls_per_op": (
                sum(c.calls[s] for _, c in records for s in MODEL_CALL_SPANS) / ops, "count",
            ),
            "rss_peak_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "error_rate": (failed_ops / ops, "ratio"),
        }
        return out

    if trace_out is not None:
        tracer.write(trace_out)
    out["metrics"] = layer_metrics(w, tracer, records, ok, lat_ms, warm)
    return out


def layer_metrics(w: Workload, tracer: Tracer, records, ok, lat_ms, warm) -> dict:
    """Per-layer metrics from the spans and counts of a traced run."""
    selfs = tracer.self_times()
    incl = tracer.inclusive()
    op_names = [calls.op for _, calls in records]
    ops = len(op_names)

    seen = set().union(*(incl.get(op, {}) for op in op_names), incl.get("setup", {}))
    expected = {name for _, _, name in SPAN_HOOKS} - (set() if w.wire else {"wire.call"})
    missing = sorted(expected - seen)
    if missing:
        raise RuntimeError(f"hooked layers never called on {w.name}: {missing}")

    def self_ms(name: str) -> float:
        return float(sum(selfs[op].get(name, 0) for op in op_names)) / ops / 1e6

    def incl_ms(name: str) -> float:
        return sum(incl[op][name] for op in op_names) / ops / 1e6

    def per_op(key: str) -> float:
        return sum(c.calls.get(key, 0) for _, c in records) / ops

    def extra(key: str) -> float:
        return sum(c.extra.get(key, 0.0) for _, c in records)

    def per_call_ms(name: str) -> float:
        spans = tracer.durations_ns((name,))
        return statistics.mean(spans) / 1e6

    op_set = set(op_names)
    client_spans = [
        s.duration_ns for s in tracer.spans if s.op in op_set and s.name in MODEL_CALL_SPANS
    ]
    model_calls = len(client_spans)
    setup = incl.get("setup", {})
    bound_ratio = max(
        rec.result.rerank_outcome.picker_calls
        / max(1, analytic_call_bound(len(rec.result.retrieval_list), CONFIG.u, CONFIG.w))
        for rec, _ in ok
    )
    first = min(len(warm), ops)
    traced_p50 = statistics.median(lat_ms[:first])
    untraced_p50 = statistics.median(warm[:first]) / 1e6
    failed_calls = sum(
        c.failures[s] for _, c in records for s in MODEL_CALL_SPANS + ("wire.call",)
    )
    return {
        "kb.build_s": (setup["kb.build"] / 1e9, "s"),
        "sparse.build_s": (setup["sparse.build"] / 1e9, "s"),
        "dense.build_s": (setup["dense.build"] / 1e9, "s"),
        "kb.files_parsed_per_op": (per_op("kb.parse_file"), "count"),
        "index.save_ms_per_call": (per_call_ms("index.save"), "ms"),
        "index.load_ms_per_call": (per_call_ms("index.load"), "ms"),
        "querybuild.self_ms_per_op": (self_ms("querybuild"), "ms"),
        "querybuild.probe_calls_per_op": (per_op("clients.probe"), "count"),
        "dataflow.self_ms_per_op": (self_ms("dataflow"), "ms"),
        "sparse.self_ms_per_op": (self_ms("sparse"), "ms"),
        "dense.self_ms_per_op": (self_ms("dense"), "ms"),
        "dataflow.hit_ratio": (
            sum(
                1 for rec, _ in ok
                if any(c.path == RetrievalPath.DATAFLOW for c in rec.result.retrieval_list.candidates)
            ) / ops,
            "ratio",
        ),
        "retrieve.self_ms_per_op": (self_ms("retrieve"), "ms"),
        "retrieve.dedup_drops_per_op": (extra("retrieve.dedup_drops") / ops, "count"),
        "rerank.self_ms_per_op": (self_ms("rerank"), "ms"),
        "rerank.picker_calls_per_op": (
            sum(rec.result.rerank_outcome.picker_calls for rec, _ in ok) / ops, "count",
        ),
        "rerank.bound_ratio": (bound_ratio, "ratio"),
        "pipeline.prompt_ms_per_op": (self_ms("pipeline.prompt"), "ms"),
        "pipeline.snippets_dropped_per_op": (extra("pipeline.snippets_dropped") / ops, "count"),
        "pipeline.other_ms_per_op": (self_ms("pipeline.other"), "ms"),
        "clients.probe_ms_per_op": (incl_ms("clients.probe"), "ms"),
        "clients.embed_ms_per_op": (incl_ms("clients.embed"), "ms"),
        "clients.pick_ms_per_op": (incl_ms("clients.pick"), "ms"),
        "clients.generate_ms_per_op": (incl_ms("clients.generate"), "ms"),
        "clients.call_ms_p50": (statistics.median(client_spans) / 1e6, "ms"),
        "clients.overhead_ms_per_call": (
            (sum(client_spans) - extra("wire.injected_ns")) / model_calls / 1e6, "ms",
        ),
        "clients.failed_calls": (failed_calls, "count"),
        "evaluation.self_ms_per_op": (self_ms("evaluation"), "ms"),
        "trace.overhead_ratio": (traced_p50 / untraced_p50, "ratio"),
    }
