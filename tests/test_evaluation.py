"""Metric operators, their invariants, and the evaluation harness."""

from __future__ import annotations

import json
import random
import re
from collections import Counter
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coderag.evaluation import (
    adapt_cceval_record,
    adapt_recceval_record,
    edit_similarity,
    evaluate,
    exact_match,
    format_report,
    identifier_scores,
    levenshtein,
    load_tasks,
    normalize_completion,
    score_pair,
    task_from_json,
    task_from_record,
)
from coderag.lexing import iter_identifiers
from coderag.pipeline import CompletionTask

from .levenshtein_oracle import dp_levenshtein

short_text = st.text(alphabet="ab c_()=", max_size=24)


# --- levenshtein / edit similarity ----------------------------------------


def test_levenshtein_examples():
    assert levenshtein("", "abc") == 3
    assert levenshtein("abc", "abc") == 0
    assert levenshtein("kitten", "sitting") == dp_levenshtein("kitten", "sitting") == 3


def test_edit_similarity_examples():
    assert edit_similarity("same", "same") == 1.0
    assert edit_similarity("", "abc") == 0.0
    assert edit_similarity("", "") == 1.0
    assert edit_similarity("kitten", "sitting") == pytest.approx(1 - 3 / 7, abs=1e-9)


@given(short_text, short_text)
def test_edit_similarity_bounds(x, y):
    assert 0.0 <= edit_similarity(x, y) <= 1.0


@given(short_text, short_text)
def test_levenshtein_symmetry(x, y):
    assert levenshtein(x, y) == levenshtein(y, x)


@given(short_text, short_text)
def test_levenshtein_identity(x, y):
    assert (levenshtein(x, y) == 0) == (x == y)


@settings(max_examples=60)
@given(short_text, short_text, short_text)
def test_levenshtein_triangle_inequality(x, y, z):
    assert levenshtein(x, z) <= levenshtein(x, y) + levenshtein(y, z)


# Accented, CJK and astral (outside the BMP) characters next to ASCII.
WIDE_ALPHABET = "ab_( é日本\U0001F600\U00010348"


@st.composite
def long_text_pairs(draw):
    """One text longer than a 64-bit word, paired with either an unrelated
    text or a local edit of itself, in either order."""
    x = draw(st.text(alphabet=WIDE_ALPHABET, min_size=65, max_size=140))
    if draw(st.booleans()):
        y = draw(st.text(alphabet=WIDE_ALPHABET, max_size=140))
    else:
        i = draw(st.integers(0, len(x)))
        k = draw(st.integers(i, len(x)))
        y = x[:i] + draw(st.text(alphabet=WIDE_ALPHABET, max_size=8)) + x[k:]
    return (y, x) if draw(st.booleans()) else (x, y)


@settings(max_examples=80, deadline=None)
@given(long_text_pairs())
def test_levenshtein_matches_dp_oracle(pair):
    x, y = pair
    assert levenshtein(x, y) == dp_levenshtein(x, y)


def test_levenshtein_matches_dp_oracle_at_1000_chars():
    rng = random.Random(1000)
    x = "".join(rng.choice(WIDE_ALPHABET) for _ in range(1000))
    unrelated = "".join(rng.choice(WIDE_ALPHABET) for _ in range(990))
    edited = x[:400] + "xyz" + x[450:] + "日本"
    for y in (unrelated, edited):
        assert levenshtein(x, y) == dp_levenshtein(x, y)


def test_levenshtein_unicode_and_edges():
    assert levenshtein("", "") == 0
    assert levenshtein("", "abc") == 3
    assert levenshtein("abc", "") == 3
    assert levenshtein("naïve", "naive") == 1
    assert levenshtein("日本語", "日本") == 1
    assert levenshtein("a\U0001F600b", "ab") == 1


# --- exact match ------------------------------------------------------------


def test_exact_match_examples():
    assert exact_match("a=1", "a=1") == 1
    assert exact_match("a=1", "a = 1") == 0  # internal whitespace significant
    assert exact_match("", "") == 1
    assert exact_match("a=1\n", "a=1") == 1  # one trailing newline stripped
    assert exact_match("a=1\r\n", "a=1") == 1
    assert exact_match("a=1\n\n", "a=1") == 0


@given(short_text, short_text)
def test_exact_match_implies_perfect_scores(x, y):
    if exact_match(x, y) == 1:
        nx, ny = normalize_completion(x), normalize_completion(y)
        assert edit_similarity(nx, ny) == 1.0
        assert identifier_scores(nx, ny) == (1, 1.0)


# --- identifiers ------------------------------------------------------------


def test_extract_identifiers_examples():
    # The identifier metrics score the names that lexing.iter_identifiers finds.
    assert iter_identifiers("cfg = parse_config(path)") == ["cfg", "parse_config", "path"]
    assert iter_identifiers("x = 1 + 2") == ["x"]
    assert iter_identifiers("# comment only") == []
    assert iter_identifiers('name = "quoted words"') == ["name"]
    assert iter_identifiers("for item in items:") == ["item", "items"]


def test_identifier_scores_examples():
    # gen ids [a, b], gt ids [b, c]: precision 1/2, recall 1/2, F1 = 0.5
    assert identifier_scores("a + b", "b + c") == (0, 0.5)
    assert identifier_scores("x(y)", "x(y)") == (1, 1.0)
    assert identifier_scores("1 + 2", "# nothing") == (1, 1.0)
    assert identifier_scores("a", "1") == (0, 0.0)


def test_identifier_em_is_order_sensitive():
    id_em, id_f1 = identifier_scores("a(b)", "b(a)")
    assert id_em == 0
    assert id_f1 == 1.0


@given(short_text, short_text)
def test_identifier_f1_symmetry(x, y):
    assert identifier_scores(x, y)[1] == pytest.approx(identifier_scores(y, x)[1])


# --- evaluate ---------------------------------------------------------------


def _task(i: int, gt: str) -> CompletionTask:
    return CompletionTask(f"t{i}", "/repo", "f.py", "x = 1", 1, ground_truth=gt)


def test_evaluate_mean_arithmetic():
    tasks = [_task(0, "hit"), _task(1, "miss")]
    report = evaluate(tasks, ["hit", "zzzz"])
    assert report.em == pytest.approx(0.5)
    assert report.es == pytest.approx((1.0 + 0.0) / 2)


def test_evaluate_all_exact():
    tasks = [_task(i, f"line{i}") for i in range(4)]
    report = evaluate(tasks, [t.ground_truth for t in tasks])
    assert (report.em, report.es, report.id_em, report.id_f1) == (1.0, 1.0, 1.0, 1.0)
    assert "100.00" in format_report(report)


def test_evaluate_failed_task_scores_zero():
    tasks = [_task(0, "ok"), _task(1, "ok")]
    report = evaluate(tasks, ["ok", RuntimeError("boom")])
    assert report.per_task[1].failed
    assert report.per_task[1].em == 0 and report.per_task[1].es == 0.0
    assert report.em == pytest.approx(0.5)


def test_evaluate_needs_one_output_per_task():
    with pytest.raises(ValueError):
        evaluate([_task(0, "a"), _task(1, "b")], ["a"])


def test_report_dict_pins_keys_and_failure_fields():
    report = evaluate([_task(0, "ok"), _task(1, "ok")], ["ok", RuntimeError("boom")])
    assert asdict(report) == {
        "em": 0.5,
        "es": 0.5,
        "id_em": 0.5,
        "id_f1": 0.5,
        "per_task": [
            {"task_id": "t0", "em": 1, "es": 1.0, "id_em": 1, "id_f1": 1.0,
             "failed": False, "error": ""},
            {"task_id": "t1", "em": 0, "es": 0.0, "id_em": 0, "id_f1": 0.0,
             "failed": True, "error": "boom"},
        ],
    }
    assert list(asdict(report)) == ["em", "es", "id_em", "id_f1", "per_task"]
    assert list(asdict(report)["per_task"][0]) == [
        "task_id", "em", "es", "id_em", "id_f1", "failed", "error"
    ]


class ScratchScorer:
    """Independent reference scorer: its own DP and its own lexer."""

    WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
    PYTHON_WORDS = frozenset(
        "def return if else for while in and or not class import from as pass".split()
    )

    @classmethod
    def idents(cls, code: str) -> list[str]:
        return [w for w in cls.WORD.findall(code) if w not in cls.PYTHON_WORDS]

    @classmethod
    def score(cls, gen: str, gt: str) -> tuple[int, float, int, float]:
        em = int(gen == gt)
        longest = max(len(gen), len(gt))
        es = 1.0 if longest == 0 else 1.0 - dp_levenshtein(gen, gt) / longest
        gi, ti = cls.idents(gen), cls.idents(gt)
        id_em = int(gi == ti)
        if not gi and not ti:
            return em, es, id_em, 1.0
        inter = sum((Counter(gi) & Counter(ti)).values())
        if inter == 0:
            return em, es, id_em, 0.0
        p, r = inter / len(gi), inter / len(ti)
        return em, es, id_em, 2 * p * r / (p + r)


# Plain statements only: no strings, comments or literals, so the scratch
# lexer is a valid oracle for the identifier metrics too.
SCORER_FIXTURE = [
    ("cfg = parse_config(path)", "cfg = parse_config(path)"),
    ("cfg = parse_config(path)", "cfg = parse_conf(path)"),
    ("total += value", "total = total + value"),
    ("return result", "return results"),
    ("self.rate = rate", "self.rate = rate * factor"),
    ("x = a + b", "y = b + a"),
    ("call(alpha, beta)", "call(beta)"),
    ("val = lookup(key)", "values = fetch(key)"),
    ("first = second", "first = second"),
    ("spin(rate)", "stop()"),
]


def test_ten_task_fixture_matches_scratch_scorer():
    tasks = [_task(i, gt) for i, (_, gt) in enumerate(SCORER_FIXTURE)]
    report = evaluate(tasks, [gen for gen, _ in SCORER_FIXTURE])
    expected = [ScratchScorer.score(gen, gt) for gen, gt in SCORER_FIXTURE]
    n = len(expected)
    assert report.em == pytest.approx(sum(e[0] for e in expected) / n)
    assert report.es == pytest.approx(sum(e[1] for e in expected) / n)
    assert report.id_em == pytest.approx(sum(e[2] for e in expected) / n)
    assert report.id_f1 == pytest.approx(sum(e[3] for e in expected) / n)


def test_score_pair_normalizes_line_endings():
    score = score_pair("t", "a=1\r\n", "a=1\n")
    assert score.em == 1 and score.es == 1.0


def test_score_pair_normalizes_once():
    # One trailing newline is stripped, not two: "x\n" and "x" differ.
    score = score_pair("t", "x\n\n", "x")
    assert (score.em, score.es) == (0, 0.5)


@given(st.text(alphabet="x \r\n", max_size=8), st.text(alphabet="x \r\n", max_size=8))
def test_score_pair_exact_match_implies_perfect_scores(generated, ground_truth):
    score = score_pair("t", generated, ground_truth)
    if score.em == 1:
        assert score.es == 1.0
        assert (score.id_em, score.id_f1) == (1, 1.0)


# --- loaders ----------------------------------------------------------------


def test_load_tasks_native(tmp_path):
    records = [
        {"task_id": "a", "repo": "/r", "file": "f.py", "prefix": "x = 1\ny", "ground_truth": "z"},
        {"task_id": "b", "repo": "/r", "file": "g.py", "prefix": "u", "ground_truth": "v",
         "cursor_line": 1},
    ]
    path = tmp_path / "tasks.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    tasks = load_tasks(path)
    assert [t.task_id for t in tasks] == ["a", "b"]
    assert tasks[0].cursor_line == 2  # computed from the prefix
    assert tasks[1].cursor_line == 1


def test_cceval_adapter():
    record = {
        "prompt": "import os\nx = ",
        "groundtruth": "os.path",
        "metadata": {"task_id": "py/1", "repository": "repoA", "file": "m.py"},
    }
    task = adapt_cceval_record(record)
    assert task.task_id == "py/1"
    assert task.repo_root == "repoA"
    assert task.prefix == "import os\nx = "
    assert task.ground_truth == "os.path"


def test_cceval_metadata_must_be_an_object():
    with pytest.raises(ValueError, match="metadata must be an object"):
        task_from_json({"prompt": "x = ", "groundtruth": "1", "metadata": 5}, "cceval")


def test_recceval_adapter():
    record = {"namespace": "pkgX", "input": "a = ", "gt": "load()"}
    task = adapt_recceval_record(record)
    assert task.repo_root == "pkgX"
    assert task.prefix == "a = "
    assert task.ground_truth == "load()"


def test_task_from_record_rejects_empty_prefix():
    with pytest.raises(ValueError):
        task_from_record({"task_id": "x", "repo": "/r", "prefix": ""})
