"""CLI subcommands: artifacts, exit codes, ablation, reports, timings."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from coderag.cli import main
from coderag.config import RunConfig, load_config, make_clients
from coderag.clients import EchoGenerator, OverlapPicker, StubEmbedder, StubProbe
from coderag.evaluation import task_from_record
from coderag.pipeline import RepoIndex, complete

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
    assert "no source files" in capsys.readouterr().err


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
    assert artifact["retrieval_list"], "sparse path must retrieve something"
    assert {c["path"] for c in artifact["retrieval_list"]} == {"sparse"}
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
        assert {c["path"] for c in artifact["retrieval_list"]} == expected, paths


def test_complete_missing_index_exits_2(indexed_mini, tmp_path, capsys):
    repo, _ = indexed_mini
    task = write_task(tmp_path / "task.json", repo)
    code = run_cli("complete", "--task", str(task), "--kb-dir", str(tmp_path / "missing"))
    assert code == 2
    assert "coderag index" in capsys.readouterr().err


def test_complete_version_1_sparse_index_asks_for_reindex(indexed_mini, tmp_path, capsys):
    repo, idx = indexed_mini
    (idx / "sparse.idx").write_text('{"version": 1, "item_ids": [], "terms": []}\n')
    task = write_task(tmp_path / "task.json", repo)
    assert run_cli("complete", "--task", str(task), "--kb-dir", str(idx)) == 2
    err = capsys.readouterr().err
    assert "version-1" in err and "coderag index" in err


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
    assert [c["id"] for c in artifact["retrieval_list"]] == result.retrieval_list.item_ids()
    assert artifact["prompt"] == result.prompt
    assert artifact["generated"] == result.generated
    assert printed == result.generated + "\n"
    assert artifact["config"] == cfg.to_dict()


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
    # "stub" is the default, so the env var wins only over defaults; an
    # explicit URL always wins over the env var.
    monkeypatch.setenv("CODERAG_LM_ENDPOINT", "http://lm.example/")
    cfg = RunConfig(probe_endpoint="http://other/")
    clients = make_clients(cfg)
    assert clients.probe.endpoint == "http://other/"
