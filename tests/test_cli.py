"""CLI subcommands: artifacts, exit codes, ablation, reports, timings."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import pytest

from coderag.cli import main
from coderag.config import RunConfig, load_config, make_clients
from coderag.clients import EchoGenerator, OverlapPicker, StubEmbedder, StubProbe
from coderag.evaluation import task_from_record
from coderag.pipeline import CompletionResult, RepoIndex, complete
from coderag.querybuild import RetrievalQuery
from coderag.rerank import PickEvent, RerankOutcome
from coderag.retrieve import RetrievalCandidate, RetrievalList

from .conftest import MINI_PREFIX, MINI_REPO_FILES, write_repo

ARTIFACTS = ("kb.jsonl", "manifest.json", "sparse.idx", "dense.vec")


def file_hashes(directory: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
        for name in ARTIFACTS
    }


def run_cli(*argv: str) -> int:
    return main(list(argv))


@pytest.fixture
def indexed_mini(tmp_path):
    repo = write_repo(tmp_path / "mini", MINI_REPO_FILES)
    out = tmp_path / "idx"
    assert run_cli("index", str(repo), "--out", str(out)) == 0
    return repo, out


def write_task(path: Path, repo: Path, prefix: str = MINI_PREFIX) -> Path:
    task = {
        "task_id": "cli-1",
        "repo": str(repo),
        "file": "main.py",
        "prefix": prefix,
        "ground_truth": "    cfg = parse_config(path)",
    }
    path.write_text(json.dumps(task) + "\n")
    return path


def write_dataset(path: Path, repo: Path, count: int = 3) -> Path:
    lines = []
    for i in range(count):
        lines.append(json.dumps({
            "task_id": f"d{i}",
            "repo": str(repo),
            "file": "main.py",
            "prefix": MINI_PREFIX,
            "ground_truth": "    cfg = parse_conf",
        }))
    path.write_text("\n".join(lines) + "\n")
    return path


def test_index_counts_and_artifacts(tmp_path, capsys):
    repo = write_repo(tmp_path / "mini", MINI_REPO_FILES)
    out = tmp_path / "idx"
    assert run_cli("index", str(repo), "--out", str(out)) == 0
    stdout = capsys.readouterr().out
    assert "Function: 2" in stdout
    assert "GlobalVariable: 1" in stdout
    assert "ClassVariable: 1" in stdout
    assert "ClassFunction: 1" in stdout
    for name in ARTIFACTS:
        assert (out / name).exists()


def test_index_rerun_is_byte_identical(tmp_path):
    repo = write_repo(tmp_path / "mini", MINI_REPO_FILES)
    out1, out2 = tmp_path / "i1", tmp_path / "i2"
    assert run_cli("index", str(repo), "--out", str(out1)) == 0
    assert run_cli("index", str(repo), "--out", str(out2)) == 0
    assert file_hashes(out1) == file_hashes(out2)


def test_index_after_an_mtime_change_is_byte_identical(tmp_path):
    repo = write_repo(tmp_path / "mini", MINI_REPO_FILES)
    out1, out2 = tmp_path / "i1", tmp_path / "i2"
    assert run_cli("index", str(repo), "--out", str(out1)) == 0
    os.utime(repo / "util.py", (0, 2_000_000_000))  # a later mtime, the same bytes
    assert run_cli("index", str(repo), "--out", str(out2)) == 0
    assert file_hashes(out1) == file_hashes(out2)


def test_index_skips_a_file_too_deep_to_parse(tmp_path, capsys):
    repo = write_repo(tmp_path / "deep", {
        "deep.py": "x = " + "+".join(["a"] * 3000) + "\n",
        "ok.py": "def keep_me(a):\n    return a\n",
    })
    out = tmp_path / "idx"
    assert run_cli("index", str(repo), "--out", str(out)) == 0
    kb = RepoIndex.load(out).kb
    assert [item.qualified_name for item in kb.items] == ["keep_me"]
    assert [failure.file_path for failure in kb.parse_errors] == ["deep.py"]


def test_index_keeps_assignments_that_share_a_line(tmp_path):
    repo = write_repo(tmp_path / "repo", {
        "consts.py": "A = 1; B = 2\n\n\ndef use():\n    return A + B\n",
        "models.py": "class C:\n    x = 5; y = 6\n\n    def m(self):\n        return self.x\n",
    })
    out = tmp_path / "idx"
    assert run_cli("index", str(repo), "--out", str(out)) == 0
    kb = RepoIndex.load(out).kb
    assert [item.qualified_name for item in kb.items] == ["A", "use", "C.x", "C.m"]


def test_index_empty_dir_exits_2(tmp_path, capsys):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert run_cli("index", str(empty), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == f"error: no source files under {empty}\n"


def test_complete_deterministic_output(indexed_mini, tmp_path, capsys):
    repo, idx = indexed_mini
    task = write_task(tmp_path / "task.json", repo)
    outputs = set()
    for _ in range(2):
        assert run_cli("complete", "--task", str(task), "--kb-dir", str(idx)) == 0
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1


def test_complete_dump_and_ablation(indexed_mini, tmp_path):
    repo, idx = indexed_mini
    task = write_task(tmp_path / "task.json", repo)
    dump = tmp_path / "dump"
    assert run_cli(
        "complete", "--task", str(task), "--kb-dir", str(idx),
        "--dump-dir", str(dump), "--paths", "sparse",
    ) == 0
    (artifact_path,) = dump.glob("*.json")
    artifact = json.loads(artifact_path.read_text())
    assert artifact["config"]["paths"] == ["sparse"]
    candidates = artifact["retrieval_list"]["candidates"]
    assert candidates, "sparse path must retrieve something"
    assert {c["path"] for c in candidates} == {"sparse"}
    assert artifact["prompt"].endswith("cfg = parse_conf")


def test_complete_all_path_variants(indexed_mini, tmp_path):
    # the ablation shapes: each configured subset yields exactly that provenance
    repo, idx = indexed_mini
    task = write_task(tmp_path / "task.json", repo)
    variants = {
        "sparse": {"sparse"},
        "dense": {"dense"},
        "dataflow,sparse": {"sparse"},  # this prefix has no dataflow hit
        "dataflow,sparse,dense": {"sparse", "dense"},
    }
    for paths, expected in variants.items():
        dump = tmp_path / f"dump_{paths.replace(',', '_')}"
        assert run_cli(
            "complete", "--task", str(task), "--kb-dir", str(idx),
            "--dump-dir", str(dump), "--paths", paths,
        ) == 0
        (artifact_path,) = dump.glob("*.json")
        artifact = json.loads(artifact_path.read_text())
        assert {c["path"] for c in artifact["retrieval_list"]["candidates"]} == expected, paths


def test_complete_missing_index_exits_2(indexed_mini, tmp_path, capsys):
    repo, _ = indexed_mini
    task = write_task(tmp_path / "task.json", repo)
    for kb_dir in (tmp_path / "missing", task):  # no such path; a file
        assert run_cli("complete", "--task", str(task), "--kb-dir", str(kb_dir)) == 2
        assert "coderag index" in capsys.readouterr().err, kb_dir


# Each is a path of the wrong kind: a directory for a file, a file for a directory.
WRONG_KIND_PATHS = {
    "complete --task <dir>": lambda repo, idx, tmp: [
        "complete", "--task", str(tmp), "--kb-dir", str(idx)],
    "index --out <file>": lambda repo, idx, tmp: [
        "index", str(repo), "--out", str(repo / "main.py")],
    "evaluate --report <dir>": lambda repo, idx, tmp: [
        "evaluate", "--dataset", str(write_dataset(tmp / "tasks.jsonl", repo)),
        "--kb-dir", str(idx), "--report", str(tmp)],
}


@pytest.mark.parametrize("case", sorted(WRONG_KIND_PATHS))
def test_path_of_the_wrong_kind_exits_2(indexed_mini, tmp_path, capsys, monkeypatch, case):
    repo, idx = indexed_mini
    calls = []
    monkeypatch.setattr(RepoIndex, "build", lambda *args: calls.append(("build", args)))
    monkeypatch.setattr("coderag.cli.complete", lambda *args: calls.append(("complete", args)))
    assert run_cli(*WRONG_KIND_PATHS[case](repo, idx, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err
    assert calls == []  # refused before any index is built or task completed


def test_complete_version_1_sparse_index_asks_for_reindex(indexed_mini, tmp_path, capsys):
    repo, idx = indexed_mini
    (idx / "sparse.idx").write_text('{"version": 1, "item_ids": [], "terms": []}\n')
    task = write_task(tmp_path / "task.json", repo)
    assert run_cli("complete", "--task", str(task), "--kb-dir", str(idx)) == 2
    err = capsys.readouterr().err
    assert "is not a sparse.idx file" in err and "re-run `coderag index`" in err


@pytest.mark.parametrize(("name", "source"), [
    pytest.param(name, source, id=name if source == "truncated" else f"{name} {source}")
    for source in ("truncated", "from another build")
    for name in ("dense.vec", "sparse.idx")
])
def test_complete_truncated_index_asks_for_reindex(indexed_mini, tmp_path, capsys, name, source):
    repo, idx = indexed_mini
    if source == "truncated":
        (idx / name).write_bytes((idx / name).read_bytes()[:10])
    else:  # as many items as the mini repository, other ids
        other = write_repo(tmp_path / "other", {f"pkg/{p}": t for p, t in MINI_REPO_FILES.items()})
        assert run_cli("index", str(other), "--out", str(tmp_path / "other_idx")) == 0
        (idx / name).write_bytes((tmp_path / "other_idx" / name).read_bytes())
    task = write_task(tmp_path / "task.json", repo)
    assert run_cli("complete", "--task", str(task), "--kb-dir", str(idx)) == 2
    err = capsys.readouterr().err
    assert str(idx / name) in err and "re-run `coderag index`" in err


@pytest.mark.parametrize("name", ["kb.jsonl", "manifest.json"])
def test_complete_damaged_kb_asks_for_reindex(indexed_mini, tmp_path, capsys, name):
    repo, idx = indexed_mini
    (idx / name).write_bytes((idx / name).read_bytes()[:30])
    task = write_task(tmp_path / "task.json", repo)
    assert run_cli("complete", "--task", str(task), "--kb-dir", str(idx)) == 2
    err = capsys.readouterr().err
    assert str(idx / name) in err and "re-run `coderag index`" in err
    assert "bad input" not in err


def test_complete_embed_dim_mismatch_names_both_dims(indexed_mini, tmp_path, capsys):
    repo, idx = indexed_mini  # indexed with the default --embed-dim 64
    task = write_task(tmp_path / "task.json", repo)
    code = run_cli("complete", "--task", str(task), "--kb-dir", str(idx), "--embed-dim", "32")
    assert code == 1
    err = capsys.readouterr().err
    assert "dimension 32" in err and "dimension 64" in err
    assert "matmul" not in err


def test_complete_dataflow_dot(indexed_mini, tmp_path):
    repo, idx = indexed_mini
    task = write_task(tmp_path / "task.json", repo)
    dot = tmp_path / "graph.dot"
    assert run_cli(
        "complete", "--task", str(task), "--kb-dir", str(idx), "--dataflow-dot", str(dot)
    ) == 0
    assert dot.read_text().startswith("digraph dataflow {")


def test_cli_and_library_share_one_config(indexed_mini, tmp_path, capsys):
    repo, idx = indexed_mini
    task_path = write_task(tmp_path / "task.json", repo)
    dump = tmp_path / "dump"
    assert run_cli(
        "complete", "--task", str(task_path), "--kb-dir", str(idx),
        "--j", "4", "--u", "8", "--paths", "sparse", "--dump-dir", str(dump),
    ) == 0
    printed = capsys.readouterr().out
    (artifact_path,) = dump.glob("*.json")
    artifact = json.loads(artifact_path.read_text())

    cfg = RunConfig(j=4, u=8, paths=("sparse",))
    task = task_from_record(json.loads(task_path.read_text()))
    result = complete(task, RepoIndex.load(idx), make_clients(cfg), cfg)
    candidates = artifact["retrieval_list"]["candidates"]
    assert [c["item_id"] for c in candidates] == result.retrieval_list.item_ids()
    assert artifact["prompt"] == result.prompt
    assert artifact["generated"] == result.generated
    assert printed == result.generated + "\n"
    assert artifact["config"] == cfg.to_dict()


def strict_json(text: str):
    """``json.loads`` that refuses ``NaN``, ``Infinity`` and ``-Infinity``."""

    def refuse(constant):
        raise ValueError(f"{constant} is not standard JSON")

    return json.loads(text, parse_constant=refuse)


def field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def test_every_json_file_written_is_standard_json(indexed_mini, tmp_path):
    repo, idx = indexed_mini
    # the cursor line has a dataflow hit, util.load_defaults
    prefix = "import util\ncfg = parse_config(PATH)\ns = util.load_defaults("
    task = write_task(tmp_path / "task.json", repo, prefix=prefix)
    dump = tmp_path / "dump"
    assert run_cli(
        "complete", "--task", str(task), "--kb-dir", str(idx), "--dump-dir", str(dump)
    ) == 0
    (artifact_path,) = dump.glob("*.json")
    record = strict_json(artifact_path.read_text())
    # the record's keys are the dataclasses' field names, nested too
    assert set(record) == field_names(CompletionResult) | {"config"}
    assert set(record["query"]) == field_names(RetrievalQuery)
    assert set(record["retrieval_list"]) == field_names(RetrievalList)
    candidates = record["retrieval_list"]["candidates"]
    assert "dataflow" in {c["path"] for c in candidates}
    assert all(set(c) == field_names(RetrievalCandidate) for c in candidates)
    assert set(record["rerank_outcome"]) == field_names(RerankOutcome)
    assert record["rerank_outcome"]["trace"]
    assert all(set(e) == field_names(PickEvent) for e in record["rerank_outcome"]["trace"])

    report = tmp_path / "report.json"
    dataset = write_dataset(tmp_path / "tasks.jsonl", repo)
    assert run_cli(
        "evaluate", "--dataset", str(dataset), "--kb-dir", str(idx), "--report", str(report)
    ) == 0
    strict_json(report.read_text())
    strict_json((idx / "manifest.json").read_text())
    for line in (idx / "kb.jsonl").read_text().splitlines():
        strict_json(line)

    lists = tmp_path / "lists.jsonl"
    candidate_list = [{"id": c["item_id"], "text": c["item_id"]} for c in candidates]
    lists.write_text(json.dumps({"query": prefix, "candidates": candidate_list}) + "\n")
    samples = tmp_path / "samples.jsonl"
    assert run_cli("distill", "--in", str(lists), "--out", str(samples)) == 0
    lines = samples.read_text().splitlines()
    assert lines
    for line in lines:
        strict_json(line)


def test_evaluate_writes_report(indexed_mini, tmp_path, capsys):
    repo, idx = indexed_mini
    dataset = write_dataset(tmp_path / "tasks.jsonl", repo)
    report_path = tmp_path / "report.json"
    assert run_cli(
        "evaluate", "--dataset", str(dataset), "--report", str(report_path),
        "--kb-dir", str(idx),
    ) == 0
    stdout = capsys.readouterr().out
    assert "EM" in stdout and "ID-F1" in stdout
    report = json.loads(report_path.read_text())
    assert len(report["per_task"]) == 3
    # the echo generator returns the cursor line, which equals this
    # dataset's ground truth, so every metric is perfect
    assert report["em"] == 1.0 and report["es"] == 1.0


def test_evaluate_builds_index_per_repo(tmp_path, capsys):
    repo = write_repo(tmp_path / "mini", MINI_REPO_FILES)
    dataset = write_dataset(tmp_path / "tasks.jsonl", repo, count=2)
    assert run_cli("evaluate", "--dataset", str(dataset)) == 0
    assert "EM" in capsys.readouterr().out


def test_evaluate_scores_tasks_that_share_an_id_by_position(indexed_mini, tmp_path, capsys):
    repo, idx = indexed_mini
    # No ids, so the ReccEval adapter gives both tasks the id "?".  The
    # echo generator returns each prefix's last line, its ground truth.
    dataset = tmp_path / "tasks.jsonl"
    dataset.write_text("".join(
        json.dumps({"repo": str(repo), "file": "main.py", "input": prefix, "gt": last})
        + "\n"
        for prefix, last in [
            (MINI_PREFIX, "    cfg = parse_conf"),
            ("import util\n\n\ndef load():\n    n = load_ut", "    n = load_ut"),
        ]
    ))
    report_path = tmp_path / "report.json"
    assert run_cli(
        "evaluate", "--dataset", str(dataset), "--adapter", "recceval",
        "--kb-dir", str(idx), "--report", str(report_path),
    ) == 0
    per_task = json.loads(report_path.read_text())["per_task"]
    assert [t["task_id"] for t in per_task] == ["?", "?"]
    assert [(t["em"], t["es"]) for t in per_task] == [(1, 1.0), (1, 1.0)]


def test_evaluate_missing_ground_truth_exits_2_before_any_model_call(
    indexed_mini, tmp_path, capsys, monkeypatch
):
    repo, idx = indexed_mini
    dataset = write_dataset(tmp_path / "tasks.jsonl", repo)
    records = [json.loads(line) for line in dataset.read_text().splitlines()]
    del records[-1]["ground_truth"]
    dataset.write_text("".join(json.dumps(r) + "\n" for r in records))
    calls = []
    monkeypatch.setattr("coderag.cli.complete", lambda *args: calls.append(args))
    code = run_cli("evaluate", "--dataset", str(dataset), "--kb-dir", str(idx))
    assert code == 2
    assert "task d2 has no ground truth" in capsys.readouterr().err
    assert calls == []


def test_jobs_flag_and_config_key_are_gone(indexed_mini, tmp_path, capsys):
    repo, idx = indexed_mini
    dataset = write_dataset(tmp_path / "tasks.jsonl", repo)
    argv = ["evaluate", "--dataset", str(dataset), "--kb-dir", str(idx)]
    assert run_cli(*argv, "--jobs", "2") == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"version": 1, "jobs": 2}))
    assert run_cli(*argv, "--config", str(config)) == 2
    assert "unknown config keys: ['jobs']" in capsys.readouterr().err


def test_distill_cli_round_trip(tmp_path, capsys):
    lists = tmp_path / "lists.jsonl"
    rows = []
    for k in range(2):
        rows.append({
            "query": f"parse config {k}",
            "candidates": [
                {"id": f"c{k}{i}", "text": f"def parse_{i}(): pass"} for i in range(6)
            ],
        })
    lists.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    out = tmp_path / "samples.jsonl"
    assert run_cli("distill", "--in", str(lists), "--out", str(out), "--seed", "5") == 0
    emitted = [json.loads(line) for line in out.read_text().splitlines()]
    # deterministic picker: every (query, size, draw) emits: 2 * |{2..6}| * 3
    assert len(emitted) == 2 * 5 * 3
    for record in emitted:
        votes = record["votes"]
        assert votes.count(record["chosen_id"]) >= 4
    # reproducible byte-for-byte
    out2 = tmp_path / "samples2.jsonl"
    assert run_cli("distill", "--in", str(lists), "--out", str(out2), "--seed", "5", "--sizes", "2,3,4,5,6") == 0
    assert out.read_bytes() == out2.read_bytes()


def test_distill_unreachable_picker_flushes_partial(tmp_path, capsys):
    lists = tmp_path / "lists.jsonl"
    lists.write_text(json.dumps({
        "query": "q",
        "candidates": [{"id": f"c{i}", "text": f"t{i}"} for i in range(3)],
    }) + "\n")
    out = tmp_path / "samples.jsonl"
    code = run_cli(
        "distill", "--in", str(lists), "--out", str(out), "--seed", "1",
        "--pick-endpoint", "http://127.0.0.1:9/",
    )
    assert code == 1
    assert out.exists()  # partial output flushed (empty here)
    assert "picker unavailable" in capsys.readouterr().err


def test_distill_default_sizes_skip_capped(tmp_path):
    lists = tmp_path / "lists.jsonl"
    lists.write_text(json.dumps({
        "query": "q",
        "candidates": [{"id": f"c{i}", "text": f"t{i}"} for i in range(4)],
    }) + "\n")
    out = tmp_path / "samples.jsonl"
    assert run_cli("distill", "--in", str(lists), "--out", str(out), "--seed", "1") == 0
    emitted = out.read_text().splitlines()
    assert len(emitted) == 3 * 3  # sizes 5, 6, 7 skipped for a 4-item list


BAD_QUERY_LISTS = {
    "not an object": ("[1, 2]", "a record must be a JSON object, got list"),
    "no query": (
        {"query": None}, "query must be a string or an object with a string combined_text"
    ),
    "query text not a string": (
        {"query": {"combined_text": 3}},
        "query must be a string or an object with a string combined_text",
    ),
    "candidates not a list": ({"candidates": 5}, "candidates must be a list, got int"),
    "candidate not an object": (
        {"candidates": ["t0"]}, "candidate 0 must be an object with a string id and text"
    ),
    "candidate id not a string": (
        {"candidates": [{"id": "c0", "text": "t0"}, {"id": 1, "text": "t1"}]},
        "candidate 1 must be an object with a string id and text",
    ),
    "not JSON": ("{oops", "Expecting property name"),
}


@pytest.mark.parametrize("record,message", BAD_QUERY_LISTS.values(), ids=list(BAD_QUERY_LISTS))
def test_bad_distill_record_exits_2_naming_its_line(tmp_path, capsys, record, message):
    good = {"query": "q", "candidates": [{"id": f"c{i}", "text": f"t{i}"} for i in range(3)]}
    if isinstance(record, dict):
        record = json.dumps({**good, **record})
    lists = tmp_path / "lists.jsonl"
    lists.write_text(json.dumps(good) + "\n" + record + "\n")
    out = tmp_path / "samples.jsonl"
    assert run_cli("distill", "--in", str(lists), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"{lists} line 2: " in err and message in err
    assert not out.exists()


def test_bench_timings_table(indexed_mini, tmp_path, capsys):
    repo, idx = indexed_mini
    dataset = write_dataset(tmp_path / "tasks.jsonl", repo, count=2)
    assert run_cli(
        "bench-timings", "--dataset", str(dataset), "--kb-dir", str(idx),
        "--paths", "sparse,dataflow",
    ) == 0
    stdout = capsys.readouterr().out
    for stage in ("query_construction", "sparse", "dense", "dataflow", "rerank"):
        assert stage in stdout
    dense_row = next(line for line in stdout.splitlines() if "dense" in line and "query" not in line)
    assert "skipped" in dense_row
    for stage in ("prompt_assembly", "generate"):
        row = next(line for line in stdout.splitlines() if line.split()[:1] == [stage])
        assert "skipped" not in row
        float(row.split()[1])


def test_bench_timings_counts_failed_tasks(indexed_mini, tmp_path, capsys):
    repo, idx = indexed_mini
    dataset = write_dataset(tmp_path / "tasks.jsonl", repo, count=2)
    # a cursor line longer than the whole input budget fails in prompt assembly
    overlong = {
        "task_id": "too-long", "repo": str(repo), "file": "main.py",
        "prefix": "x = [" + ", ".join(["1"] * 3000) + "]", "ground_truth": "",
    }
    with open(dataset, "a") as fh:
        fh.write(json.dumps(overlong) + "\n")
    assert run_cli("bench-timings", "--dataset", str(dataset), "--kb-dir", str(idx)) == 0
    captured = capsys.readouterr()
    stdout = captured.out
    assert "task too-long" in captured.err
    assert "mean seconds per stage over 2 tasks:" in stdout
    assert stdout.rstrip().splitlines()[-1] == "failed tasks: 1/3"
    generate_row = next(line for line in stdout.splitlines() if line.split()[:1] == ["generate"])
    float(generate_row.split()[1])


def test_bench_timings_counts_any_task_exception_as_failed(
    indexed_mini, tmp_path, capsys, monkeypatch
):
    repo, idx = indexed_mini
    dataset = write_dataset(tmp_path / "tasks.jsonl", repo, count=3)
    real_complete = complete

    def flaky(task, *args):
        if task.task_id == "d1":
            raise RuntimeError("model crashed")
        return real_complete(task, *args)

    monkeypatch.setattr("coderag.cli.complete", flaky)
    assert run_cli("bench-timings", "--dataset", str(dataset), "--kb-dir", str(idx)) == 0
    captured = capsys.readouterr()
    assert "error: task d1: model crashed" in captured.err
    assert "mean seconds per stage over 2 tasks:" in captured.out
    assert captured.out.rstrip().splitlines()[-1] == "failed tasks: 1/3"


def test_bench_timings_interrupt_stops_before_the_next_task(indexed_mini, tmp_path, monkeypatch):
    repo, idx = indexed_mini
    dataset = write_dataset(tmp_path / "tasks.jsonl", repo, count=2)
    started = []

    def interrupted(task, *args):
        started.append(task.task_id)
        raise KeyboardInterrupt

    monkeypatch.setattr("coderag.cli.complete", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_cli("bench-timings", "--dataset", str(dataset), "--kb-dir", str(idx))
    assert started == ["d0"]


@pytest.mark.parametrize("command", ["evaluate", "bench-timings"])
def test_empty_dataset_exits_2(indexed_mini, tmp_path, capsys, command):
    _, idx = indexed_mini
    dataset = tmp_path / "tasks.jsonl"
    dataset.write_text("\n")
    assert run_cli(command, "--dataset", str(dataset), "--kb-dir", str(idx)) == 2
    assert capsys.readouterr().err == "error: dataset is empty\n"


BAD_RECORDS = {
    "not an object": ("[1]", "a task must be a JSON object, got list"),
    "prefix not a string": (
        {"prefix": 5}, "task d1: prefix must be a non-empty string, got 5"
    ),
    "ground truth not a string": (
        {"ground_truth": 7}, "task d1: ground_truth must be a string, got 7"
    ),
    "repo not a string": ({"repo": ["r"]}, "task d1: repo must be a string, got ['r']"),
    "cursor line not an integer": (
        {"cursor_line": "3"}, "task d1: cursor_line must be an integer, got '3'"
    ),
    "not JSON": ("{oops", "Expecting property name"),
    "prefix missing": (
        '{"task_id": "d1", "repo": "."}', "task d1: prefix must be a non-empty string, got None"
    ),
    "task id null": ({"task_id": None}, "task_id is missing"),
}


@pytest.mark.parametrize("command", ["evaluate", "bench-timings"])
@pytest.mark.parametrize("record,message", BAD_RECORDS.values(), ids=list(BAD_RECORDS))
def test_bad_dataset_record_exits_2_naming_its_line(
    indexed_mini, tmp_path, capsys, monkeypatch, command, record, message
):
    repo, idx = indexed_mini
    dataset = write_dataset(tmp_path / "tasks.jsonl", repo, count=3)
    lines = dataset.read_text().splitlines()
    if isinstance(record, dict):
        record = json.dumps({**json.loads(lines[1]), **record})
    lines[1] = record
    dataset.write_text("\n".join(lines) + "\n")
    calls = []
    monkeypatch.setattr("coderag.cli.complete", lambda *args: calls.append(args))
    assert run_cli(command, "--dataset", str(dataset), "--kb-dir", str(idx)) == 2
    err = capsys.readouterr().err
    assert f"{dataset} line 2: " in err and message in err
    assert calls == []


def test_complete_task_file_that_is_not_an_object_exits_2(indexed_mini, tmp_path, capsys):
    _, idx = indexed_mini
    task_path = tmp_path / "task.json"
    task_path.write_text("[1]\n")
    assert run_cli("complete", "--task", str(task_path), "--kb-dir", str(idx)) == 2
    assert "a task must be a JSON object, got list" in capsys.readouterr().err


def test_complete_task_file_missing_a_field_exits_2(indexed_mini, tmp_path, capsys):
    _, idx = indexed_mini
    task_path = tmp_path / "task.json"
    task_path.write_text('{"task_id": "t", "repo": "."}\n')
    assert run_cli("complete", "--task", str(task_path), "--kb-dir", str(idx)) == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: bad input: {task_path}: task t: prefix must be a non-empty string, got None\n"
    )


def test_help_shows_defaults(capsys):
    assert main(["complete", "--help"]) == 0
    out = capsys.readouterr().out
    assert "default: 15" in out  # j
    assert "default: 48" in out  # max_new_tokens
    assert "default: 2048" in out  # max_input_tokens


def test_help_has_a_flag_for_every_config_field(capsys):
    assert main(["complete", "--help"]) == 0
    out = capsys.readouterr().out
    for f in dataclasses.fields(RunConfig):
        assert "--" + f.name.replace("_", "-") + " " in out, f.name


def test_usage_error_exit_code():
    assert run_cli("complete") == 2  # missing required flags


# --- config -------------------------------------------------------------------


def test_config_defaults_follow_tuned_values():
    cfg = RunConfig()
    assert (cfg.f, cfg.g, cfg.j, cfg.u) == (3, 1, 15, 10)
    assert (cfg.max_new_tokens, cfg.temperature, cfg.max_input_tokens) == (48, 0.0, 2048)


def test_config_rejects_u_not_less_than_2j_plus_1():
    with pytest.raises(ValueError):
        RunConfig(j=2, u=5)


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(
        json.dumps({"version": 1, "j": 4, "u": 2, "paths": ["sparse"], "temperature": 1})
    )
    cfg = load_config(path)
    assert cfg.j == 4 and cfg.u == 2 and cfg.paths == ("sparse",) and cfg.temperature == 1


def test_config_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"version": 1, "bogus": True}))
    with pytest.raises(ValueError):
        load_config(path)


@pytest.mark.parametrize(
    "raw",
    [{"j": True}, {"j": 4.0}, {"temperature": "0"}, {"paths": ["sparse", 1]},
     {"probe_endpoint": 5}],
)
def test_config_file_rejects_wrong_value_types(tmp_path, raw):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=f"config key '{next(iter(raw))}' must be"):
        load_config(path)


@pytest.mark.parametrize(
    "content,named",
    [
        ([1], "JSON object"),
        ({"j": "4"}, "'j'"),
        ({"paths": 5}, "'paths'"),
    ],
    ids=["top level a list", "j a string", "paths a number"],
)
def test_complete_wrong_shaped_config_is_bad_input(
    indexed_mini, tmp_path, capsys, content, named
):
    repo, idx = indexed_mini
    config = tmp_path / "run.json"
    config.write_text(json.dumps(content))
    task = write_task(tmp_path / "task.json", repo)
    code = run_cli(
        "complete", "--task", str(task), "--kb-dir", str(idx), "--config", str(config)
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad input: ") and named in err


@pytest.mark.parametrize(
    "flags,config",
    [(["--temperature", "nan"], None), (["--temperature", "inf"], None), ([], "NaN")],
    ids=["flag nan", "flag inf", "config NaN"],
)
def test_complete_non_finite_temperature_is_bad_input(
    indexed_mini, tmp_path, capsys, flags, config
):
    # json.dumps would write a bare NaN or Infinity into the wire payload.
    repo, idx = indexed_mini
    if config is not None:
        (tmp_path / "run.json").write_text(f'{{"version": 1, "temperature": {config}}}')
        flags = ["--config", str(tmp_path / "run.json")]
    task = write_task(tmp_path / "task.json", repo)
    code = run_cli("complete", "--task", str(task), "--kb-dir", str(idx), *flags)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad input: ") and "temperature" in err


def test_make_clients_stub_lineup():
    clients = make_clients(RunConfig())
    assert isinstance(clients.probe, StubProbe)
    assert isinstance(clients.embedder, StubEmbedder)
    assert isinstance(clients.picker, OverlapPicker)
    assert isinstance(clients.generator, EchoGenerator)


def test_endpoint_env_fallback(monkeypatch):
    monkeypatch.setenv("CODERAG_LM_ENDPOINT", "http://lm.example/")
    clients = make_clients(RunConfig())
    assert clients.probe.endpoint == "http://lm.example/"
    assert clients.generator.endpoint == "http://lm.example/"


def test_explicit_stub_cannot_be_overridden_by_env(monkeypatch):
    # The env var stands in only for empty endpoints, the defaults; an
    # explicit URL or `stub` always wins over it.
    monkeypatch.setenv("CODERAG_LM_ENDPOINT", "http://lm.example/")
    cfg = RunConfig(probe_endpoint="http://other/", pick_endpoint="stub")
    clients = make_clients(cfg)
    assert clients.probe.endpoint == "http://other/"
    assert isinstance(clients.picker, OverlapPicker)
    assert clients.generator.endpoint == "http://lm.example/"


@pytest.mark.parametrize(
    "endpoint", ["localhost:8000", "http://", "ftp://lm.example/", "http://[::1", "lm.example"]
)
def test_config_rejects_an_endpoint_that_is_not_a_url(endpoint):
    with pytest.raises(ValueError, match="pick_endpoint must be"):
        RunConfig(pick_endpoint=endpoint)


@pytest.mark.parametrize("endpoint", ["stub", "", "http://127.0.0.1:8000/", "https://lm.example"])
def test_config_accepts_the_stub_the_fallback_and_urls(endpoint):
    assert RunConfig(pick_endpoint=endpoint).pick_endpoint == endpoint


def test_endpoint_env_fallback_must_be_a_url(monkeypatch):
    monkeypatch.setenv("CODERAG_LM_ENDPOINT", "localhost:8000")
    with pytest.raises(ValueError, match="CODERAG_LM_ENDPOINT must be"):
        make_clients(RunConfig())


def test_endpoint_without_a_scheme_is_a_usage_error(indexed_mini, tmp_path, capsys):
    # Refused before any model call, not left to degrade every rerank.
    repo, idx = indexed_mini
    task = write_task(tmp_path / "task.json", repo)
    code = run_cli(
        "complete", "--task", str(task), "--kb-dir", str(idx),
        "--pick-endpoint", "localhost:8000",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad input: ") and "pick_endpoint" in err
