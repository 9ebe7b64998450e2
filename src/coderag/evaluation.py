"""Benchmark loading and completion metrics.

Code match: exact match and edit similarity
(1 - Levenshtein(x, y) / max(|x|, |y|), character level).  Identifier
match: exact ordered-sequence match and multiset F1 over the identifier
tokens of generated vs. reference code.

Both strings are normalized once (CRLF -> LF, one trailing newline
stripped) before any metric; internal whitespace stays significant.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

from .lexing import iter_identifiers
from .pipeline import CompletionTask

T = TypeVar("T")


def levenshtein(x: str, y: str) -> int:
    """Unit-cost character edit distance (insert/delete/substitute).

    Bit-parallel (Myers 1999; Hyyrö 2003): one column of the DP table is
    held as vertical +1/-1 delta bit vectors over the shorter string, in
    Python ints so there is no word-size limit, and advanced one character
    of the longer string at a time.  ``dist`` tracks the last row.
    """
    if x == y:
        return 0
    if len(x) < len(y):
        x, y = y, x
    if not y:
        return len(x)
    masks: dict[str, int] = {}
    for i, ch in enumerate(y):
        masks[ch] = masks.get(ch, 0) | (1 << i)
    full = (1 << len(y)) - 1
    last = 1 << (len(y) - 1)
    vp, vn, dist = full, 0, len(y)
    for ch in x:
        eq = masks.get(ch, 0)
        d0 = (((eq & vp) + vp) ^ vp) | eq | vn
        hp = vn | ~(d0 | vp)
        hn = d0 & vp
        if hp & last:
            dist += 1
        elif hn & last:
            dist -= 1
        hp = (hp << 1) | 1
        vp = ((hn << 1) | ~(d0 | hp)) & full
        vn = hp & d0
    return dist


def edit_similarity(x: str, y: str) -> float:
    """1 - distance over the longer length; two empty strings score 1.0."""
    longest = max(len(x), len(y))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(x, y) / longest


def normalize_completion(text: str) -> str:
    """CRLF -> LF and strip a single trailing newline."""
    text = text.replace("\r\n", "\n")
    if text.endswith("\n"):
        text = text[:-1]
    return text


def exact_match(x: str, y: str) -> int:
    """1 iff the normalized strings are identical (whitespace-significant)."""
    return int(normalize_completion(x) == normalize_completion(y))


def identifier_scores(gen: str, gt: str) -> tuple[int, float]:
    """(identifier exact match, identifier F1).

    Exact match is order-sensitive sequence equality; F1 uses multiset
    intersection.  Two identifier-free strings match vacuously (1, 1.0).
    """
    gen_ids = iter_identifiers(gen)
    gt_ids = iter_identifiers(gt)
    id_em = int(gen_ids == gt_ids)
    if not gen_ids and not gt_ids:
        return id_em, 1.0
    inter = sum((Counter(gen_ids) & Counter(gt_ids)).values())
    if inter == 0:
        return id_em, 0.0
    precision = inter / len(gen_ids)
    recall = inter / len(gt_ids)
    return id_em, 2 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class TaskScore:
    task_id: str
    em: int
    es: float
    id_em: int
    id_f1: float
    failed: bool = False
    error: str = ""


@dataclass
class MetricsReport:
    em: float
    es: float
    id_em: float
    id_f1: float
    per_task: list[TaskScore] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def score_pair(task_id: str, generated: str, ground_truth: str) -> TaskScore:
    gen = normalize_completion(generated)
    gt = normalize_completion(ground_truth)
    id_em, id_f1 = identifier_scores(gen, gt)
    return TaskScore(
        task_id=task_id,
        em=int(gen == gt),
        es=edit_similarity(gen, gt),
        id_em=id_em,
        id_f1=id_f1,
    )


def require_ground_truth(dataset: Sequence[CompletionTask]) -> None:
    """Raise ``ValueError`` naming the first task with no ground truth."""
    for task in dataset:
        if task.ground_truth is None:
            raise ValueError(f"task {task.task_id} has no ground truth")


def evaluate(
    dataset: Sequence[CompletionTask], outputs: Sequence[str | Exception]
) -> MetricsReport:
    """Score one output per task, in dataset order; aggregates are
    arithmetic means.  An output is the generated text, or the exception
    the task's run raised: that task is flagged failed, keeps the
    exception's text and scores 0 everywhere."""
    if not dataset:
        raise ValueError("dataset is empty")
    require_ground_truth(dataset)
    per_task = [
        TaskScore(task.task_id, 0, 0.0, 0, 0.0, failed=True, error=str(output))
        if isinstance(output, Exception)
        else score_pair(task.task_id, output, task.ground_truth)
        for task, output in zip(dataset, outputs, strict=True)
    ]
    n = len(per_task)
    return MetricsReport(
        em=sum(t.em for t in per_task) / n,
        es=sum(t.es for t in per_task) / n,
        id_em=sum(t.id_em for t in per_task) / n,
        id_f1=sum(t.id_f1 for t in per_task) / n,
        per_task=per_task,
    )


def format_report(report: MetricsReport) -> str:
    """Percentages to two decimals, one metric per line."""
    lines = [
        f"EM     {100 * report.em:6.2f}",
        f"ES     {100 * report.es:6.2f}",
        f"ID-EM  {100 * report.id_em:6.2f}",
        f"ID-F1  {100 * report.id_f1:6.2f}",
    ]
    failed = sum(1 for t in report.per_task if t.failed)
    if failed:
        lines.append(failed_tasks_line(failed, len(report.per_task)))
    return "\n".join(lines)


def failed_tasks_line(failed: int, total: int) -> str:
    """The last line of ``evaluate`` and ``bench-timings`` when tasks failed."""
    return f"failed tasks: {failed}/{total}"


def _task_from_fields(
    task_id: str, repo: str, file_path: str, prefix: str, ground_truth: str | None,
    cursor_line: int | None,
) -> CompletionTask:
    if not isinstance(prefix, str) or not prefix:
        raise ValueError(f"task {task_id}: prefix must be a non-empty string, got {prefix!r}")
    if not isinstance(repo, str):
        raise ValueError(f"task {task_id}: repo must be a string, got {repo!r}")
    if ground_truth is not None and not isinstance(ground_truth, str):
        raise ValueError(f"task {task_id}: ground_truth must be a string, got {ground_truth!r}")
    if cursor_line is not None and type(cursor_line) is not int:
        raise ValueError(f"task {task_id}: cursor_line must be an integer, got {cursor_line!r}")
    if cursor_line is None:
        cursor_line = len(prefix.replace("\r\n", "\n").split("\n"))
    return CompletionTask(
        task_id=task_id,
        repo_root=repo,
        file_path=file_path,
        prefix=prefix,
        cursor_line=cursor_line,
        ground_truth=ground_truth,
    )


def task_from_record(record: dict) -> CompletionTask:
    """Native schema: {task_id, repo, file, prefix, ground_truth, cursor_line}."""
    return _task_from_fields(
        task_id=str(record["task_id"]),
        repo=record["repo"],
        file_path=record.get("file", ""),
        prefix=record["prefix"],
        ground_truth=record.get("ground_truth"),
        cursor_line=record.get("cursor_line"),
    )


def _first_key(record: dict, keys: Iterable[str], default=None):
    for key in keys:
        if key in record:
            return record[key]
    return default


def adapt_cceval_record(record: dict) -> CompletionTask:
    """Map a CrossCodeEval-style release record onto the native schema.

    Mapping: prompt -> prefix, groundtruth -> ground_truth,
    metadata.task_id/repository/file carry the identity fields.  Only the
    left context is used; the right context, if present, is ignored.
    """
    meta = record.get("metadata", {})
    if not isinstance(meta, dict):
        raise ValueError(f"metadata must be an object, got {meta!r}")
    return _task_from_fields(
        task_id=str(_first_key(meta, ("task_id", "id"), _first_key(record, ("task_id",), "?"))),
        repo=_first_key(meta, ("repository", "repo"), record.get("repo", "")),
        file_path=_first_key(meta, ("file", "fpath"), record.get("file", "")),
        prefix=_first_key(record, ("prompt", "prefix", "input")),
        ground_truth=_first_key(record, ("groundtruth", "ground_truth", "gt")),
        cursor_line=record.get("cursor_line"),
    )


def adapt_recceval_record(record: dict) -> CompletionTask:
    """Map a ReccEval-style release record onto the native schema.

    Mapping (best effort across release variants): input/prompt -> prefix,
    gt/groundtruth -> ground_truth, namespace/pkg -> repo.
    """
    return _task_from_fields(
        task_id=str(_first_key(record, ("task_id", "id", "namespace"), "?")),
        repo=_first_key(record, ("repo", "pkg", "project", "namespace"), ""),
        file_path=_first_key(record, ("file", "fpath", "path"), ""),
        prefix=_first_key(record, ("input", "prompt", "prefix")),
        ground_truth=_first_key(record, ("gt", "groundtruth", "ground_truth")),
        cursor_line=record.get("cursor_line"),
    )


ADAPTERS: dict[str, Callable[[dict], CompletionTask]] = {
    "native": task_from_record,
    "cceval": adapt_cceval_record,
    "recceval": adapt_recceval_record,
}


def task_from_json(record: object, adapter: str = "native") -> CompletionTask:
    """One decoded JSON task through the named adapter.  A record that is
    not an object, or a field of the wrong type, raises ``ValueError``."""
    if not isinstance(record, dict):
        raise ValueError(f"a task must be a JSON object, got {type(record).__name__}")
    return ADAPTERS[adapter](record)


def read_json_lines(path: str | Path, parse: Callable[[object], T]) -> list[T]:
    """``parse`` of each non-blank line's JSON value, in file order; a line
    that is not valid JSON or that ``parse`` rejects with ``ValueError``
    raises ``ValueError`` naming the path and the line."""
    out: list[T] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                try:
                    out.append(parse(json.loads(line)))
                except ValueError as exc:  # json.JSONDecodeError included
                    raise ValueError(f"{path} line {lineno}: {exc}") from exc
    return out


def load_tasks(path: str | Path, adapter: str = "native") -> list[CompletionTask]:
    """Read line-delimited JSON tasks through the named adapter
    (:func:`read_json_lines`)."""
    return read_json_lines(path, lambda record: task_from_json(record, adapter))


def save_report(report: MetricsReport, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report.to_dict(), fh, ensure_ascii=False, indent=2)
        fh.write("\n")
