"""Prompt assembly under token budgets and the end-to-end completion chain."""

from __future__ import annotations

import json
import math
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coderag.clients import EchoGenerator, OverlapPicker, StubEmbedder, StubProbe
from coderag.config import RunConfig
from coderag.errors import BudgetImpossible, PipelineStageError
from coderag.pipeline import (
    CompletionTask,
    PipelineClients,
    RepoIndex,
    assemble_prompt,
    complete,
    dump_artifacts,
)
from coderag.retrieve import ALL_PATHS, RetrievalPath

from .conftest import MINI_PREFIX
from .prompt_oracle import linear_assemble_prompt


class WordCountGenerator:
    """count_tokens == whitespace word count; generation echoes a tag."""

    def generate(self, prompt, config):
        return "gen"

    def count_tokens(self, text):
        return len(text.split())


class NoTokenizerGenerator:
    def generate(self, prompt, config):
        return "gen"


SNIPPETS = [("m.py", "aaa bbb"), ("n.py", "ccc ddd"), ("o.py", "eee fff")]
PREFIX = "line_one\nline_two cursor"  # 3 words


def test_zero_snippets_prompt_is_prefix():
    prompt = assemble_prompt([], PREFIX, budget=100, generator=WordCountGenerator(), reserve=0)
    assert prompt == PREFIX


def test_snippets_appear_rank_first_under_budget():
    prompt = assemble_prompt(
        SNIPPETS[:2], PREFIX, budget=100, generator=WordCountGenerator(), reserve=0
    )
    blocks = prompt.split("\n\n")
    assert blocks[0] == "# file: m.py\naaa bbb"  # rank 1 first
    assert blocks[1] == "# file: n.py\nccc ddd"
    assert blocks[2] == PREFIX
    assert prompt.endswith("line_two cursor")


def test_budget_drops_lowest_rank_first():
    # all three blocks need 5 words each + 3 for the prefix = 18; with a
    # budget of 17 exactly one (the rank-3) snippet must go.
    prompt = assemble_prompt(
        SNIPPETS, PREFIX, budget=17, generator=WordCountGenerator(), reserve=0
    )
    assert "aaa bbb" in prompt and "ccc ddd" in prompt
    assert "eee fff" not in prompt
    assert WordCountGenerator().count_tokens(prompt) <= 17


def test_prefix_truncated_from_top_never_cursor_end():
    prefix = "w1 w2\nw3 w4\nw5 cursor_end"
    prompt = assemble_prompt([], prefix, budget=4, generator=WordCountGenerator(), reserve=0)
    assert prompt == "w3 w4\nw5 cursor_end"
    assert prompt.endswith("cursor_end")


def test_budget_impossible_when_cursor_line_alone_overflows():
    with pytest.raises(BudgetImpossible):
        assemble_prompt(
            [], "w1 w2 w3 w4 w5", budget=3, generator=WordCountGenerator(), reserve=0
        )


def test_reserve_subtracts_from_budget():
    # 3-word prefix fits a budget of 10 but not 10 - 8
    with pytest.raises(BudgetImpossible):
        assemble_prompt([], "w1 w2 w3", budget=10, generator=WordCountGenerator(), reserve=8)


def test_missing_tokenizer_applies_margin():
    # approx count of "w1 w2 w3 w4" is 4; budget 4, reserve 0 gives an
    # effective budget of floor(4 * 0.9) = 3, so the top line must drop.
    prompt = assemble_prompt(
        [], "w0\nw1 w2 w3", budget=4, generator=NoTokenizerGenerator(), reserve=0
    )
    assert prompt == "w1 w2 w3"


class CountingGenerator(EchoGenerator):
    """The echo generator's approximate counter, with its calls counted."""

    def __init__(self):
        super().__init__()
        self.count_calls = 0

    def count_tokens(self, text):
        self.count_calls += 1
        return super().count_tokens(text)


_WORD = st.text(alphabet="ab(). ", min_size=0, max_size=8)
_LINES = st.lists(_WORD, min_size=1, max_size=25)


@settings(max_examples=300, deadline=None)
@given(
    prefix_lines=st.one_of(st.lists(_WORD, min_size=1, max_size=1), _LINES),
    snippets=st.lists(st.tuples(st.sampled_from(["m.py", "n.py"]), _WORD), max_size=4),
    budget=st.integers(min_value=1, max_value=80),
    reserve=st.integers(min_value=0, max_value=8),
    generator=st.sampled_from([EchoGenerator(), NoTokenizerGenerator(), WordCountGenerator()]),
)
def test_prompt_trim_matches_linear_oracle(prefix_lines, snippets, budget, reserve, generator):
    prefix = "\n".join(prefix_lines) or "x"

    def run(assemble):
        try:
            return assemble(snippets, prefix, budget=budget, generator=generator, reserve=reserve)
        except BudgetImpossible:
            return BudgetImpossible

    assert run(assemble_prompt) == run(linear_assemble_prompt)


def test_prompt_trim_count_calls_are_logarithmic():
    n = 3000
    prefix = "\n".join(f"value_{i} = compute({i}, step)" for i in range(n))
    generator = CountingGenerator()
    prompt = assemble_prompt([], prefix, budget=2048, generator=generator, reserve=48)
    calls = generator.count_calls
    # the kept lines are the longest tail of the prefix that fits
    kept = prompt.count("\n") + 1
    assert prefix.endswith(prompt)
    assert generator.count_tokens(prompt) <= 2000
    assert generator.count_tokens("\n".join(prefix.split("\n")[-kept - 1 :])) > 2000
    assert calls <= 2 * math.ceil(math.log2(n)) + 4


# --- end-to-end fixture -------------------------------------------------------


def stub_clients() -> PipelineClients:
    return PipelineClients(StubProbe(), StubEmbedder(), OverlapPicker(), EchoGenerator())


def mini_task(mini_repo) -> CompletionTask:
    return CompletionTask(
        task_id="mini-1",
        repo_root=str(mini_repo),
        file_path="main.py",
        prefix=MINI_PREFIX,
        cursor_line=5,
        ground_truth="    cfg = parse_config(path)",
    )


def test_complete_mini_fixture(mini_repo):
    index = RepoIndex.build(mini_repo, StubEmbedder())
    result = complete(mini_task(mini_repo), index, stub_clients())

    names = {index.kb.get(c.item_id).qualified_name for c in result.retrieval_list.candidates}
    assert "parse_config" in names

    top = index.kb.get(result.rerank_outcome.ordered_items[0])
    assert top.qualified_name == "parse_config"

    # the function body appears above the prefix in the prompt
    body_at = result.prompt.find("def parse_config(path):")
    prefix_at = result.prompt.rfind(MINI_PREFIX)
    assert 0 <= body_at < prefix_at
    assert result.prompt.endswith("cfg = parse_conf")

    counter = EchoGenerator().count_tokens
    assert counter(result.prompt) <= 2048
    assert set(result.timings) >= {
        "query_construction", "sparse", "dense", "dataflow", "rerank", "generate",
    }


def test_complete_deterministic_across_runs(mini_repo):
    index = RepoIndex.build(mini_repo, StubEmbedder())
    outputs = set()
    prompts = set()
    for _ in range(3):
        result = complete(mini_task(mini_repo), index, stub_clients())
        outputs.add(result.generated)
        prompts.add(result.prompt)
    assert len(outputs) == 1 and len(prompts) == 1


def test_complete_retrieval_ids_exist_in_kb(mini_repo):
    index = RepoIndex.build(mini_repo, StubEmbedder())
    result = complete(mini_task(mini_repo), index, stub_clients(), RunConfig(j=5, u=4))
    assert result.retrieval_list.candidates
    for c in result.retrieval_list.candidates:
        index.kb.get(c.item_id)  # raises KeyError if absent
    assert len(result.retrieval_list) <= 2 * 5 + 1


def test_complete_rejects_unknown_path(mini_repo):
    index = RepoIndex.build(mini_repo, StubEmbedder())
    for paths in (("fuzzy",), ("Sparse",), ("sparse", "dense", "graph")):
        with pytest.raises(ValueError, match="unknown retrieval paths"):
            complete(mini_task(mini_repo), index, stub_clients(), RunConfig(paths=paths))
    with pytest.raises(ValueError, match="j must be >= 1"):
        complete(mini_task(mini_repo), index, stub_clients(), RunConfig(j=0))


def test_complete_prefix_unparsable_past_cursor(mini_repo):
    index = RepoIndex.build(mini_repo, StubEmbedder())
    task = CompletionTask(
        task_id="mini-2",
        repo_root=str(mini_repo),
        file_path="main.py",
        prefix="import util\nx = util.load_defaults(",
        cursor_line=2,
    )
    result = complete(task, index, stub_clients())
    assert result.prompt.endswith("x = util.load_defaults(")


def test_complete_prefix_too_deep_to_parse_skips_dataflow(mini_repo):
    index = RepoIndex.build(mini_repo, StubEmbedder())
    prefix = "import util\nx = " + "+".join(["a"] * 3000) + "\ny = util.load_defaults("
    task = CompletionTask("mini-deep", str(mini_repo), "main.py", prefix, cursor_line=3)
    result = complete(task, index, stub_clients())
    paths = {c.path for c in result.retrieval_list.candidates}
    assert paths and RetrievalPath.DATAFLOW not in paths
    assert result.prompt.endswith("y = util.load_defaults(")


def test_complete_paths_ablation(mini_repo):
    index = RepoIndex.build(mini_repo, StubEmbedder())
    result = complete(mini_task(mini_repo), index, stub_clients(), RunConfig(paths=("sparse",)))
    assert result.retrieval_list.candidates
    assert {c.path for c in result.retrieval_list.candidates} == {RetrievalPath.SPARSE}


def test_complete_zero_shot_on_empty_retrieval(mini_repo):
    index = RepoIndex.build(mini_repo, StubEmbedder())
    task = CompletionTask(
        task_id="mini-3",
        repo_root=str(mini_repo),
        file_path="other.py",
        prefix="zqx = zqy\nzqx",  # shares no vocabulary with the repo
        cursor_line=2,
    )
    result = complete(task, index, stub_clients(), RunConfig(paths=("sparse",)))
    assert result.retrieval_list.candidates == []
    assert result.prompt == task.prefix


def test_stage_errors_carry_stage_tag(mini_repo):
    index = RepoIndex.build(mini_repo, StubEmbedder())

    class DeadGenerator:
        def generate(self, prompt, config):
            raise RuntimeError("cuda on fire")

        def count_tokens(self, text):
            return len(text.split())

    clients = stub_clients()
    clients.generator = DeadGenerator()
    with pytest.raises(PipelineStageError) as exc_info:
        complete(mini_task(mini_repo), index, clients)
    assert exc_info.value.stage == "generate"


def test_keyboard_interrupt_is_not_a_stage_error(mini_repo):
    index = RepoIndex.build(mini_repo, StubEmbedder())

    class InterruptedProbe:
        def greedy_score(self, prompt, m):
            raise KeyboardInterrupt

    clients = stub_clients()
    clients.probe = InterruptedProbe()
    with pytest.raises(KeyboardInterrupt):
        complete(mini_task(mini_repo), index, clients)


def dumped_record(result, task, dump_dir, config):
    return json.loads(dump_artifacts(result, task, dump_dir, config).read_text())


def test_artifact_dump_is_json_ready(mini_repo, tmp_path):
    index = RepoIndex.build(mini_repo, StubEmbedder())
    task = mini_task(mini_repo)
    result = complete(task, index, stub_clients())
    parsed = dumped_record(result, task, tmp_path, {"j": 15})
    assert parsed == json.loads(json.dumps({"config": {"j": 15}, **asdict(result)}))
    assert parsed["config"] == {"j": 15}
    assert parsed["rerank_outcome"]["ordered_items"] == result.rerank_outcome.ordered_items
    assert parsed["prompt"] == result.prompt


def test_dumped_paths_are_run_config_paths(mini_repo, tmp_path):
    index = RepoIndex.build(mini_repo, StubEmbedder())
    task = mini_task(mini_repo)
    result = complete(task, index, stub_clients())
    record = dumped_record(result, task, tmp_path, {})
    dumped = {c["path"] for c in record["retrieval_list"]["candidates"]}
    assert dumped
    assert RunConfig(paths=tuple(dumped)).paths == tuple(dumped)
    assert dumped <= set(ALL_PATHS)


def test_generation_config_validation():
    with pytest.raises(ValueError):
        RunConfig(max_new_tokens=0)
    for temperature in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="temperature"):
            RunConfig(temperature=temperature)


def test_completion_task_requires_prefix():
    with pytest.raises(ValueError):
        CompletionTask("t", "/r", "f.py", prefix="", cursor_line=1)


def test_repo_index_round_trip(mini_repo, tmp_path):
    index = RepoIndex.build(mini_repo, StubEmbedder())
    index.save(tmp_path)
    loaded = RepoIndex.load(tmp_path)
    assert loaded.kb == index.kb
    assert loaded.dense.vectors.tobytes() == index.dense.vectors.tobytes()
    result_a = complete(mini_task(mini_repo), index, stub_clients())
    result_b = complete(mini_task(mini_repo), loaded, stub_clients())
    assert result_a.prompt == result_b.prompt
