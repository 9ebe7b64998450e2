"""Structured code knowledge base extracted from a repository's syntax trees.

Four element kinds are indexed: top-level functions, module-level
assignments, class-body assignments, and class-body methods.  Nested
functions and nested classes stay inside their enclosing element's text
and are not indexed separately.
"""

from __future__ import annotations

import ast
import contextlib
import datetime as dt
import hashlib
import json
import logging
import os
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Callable

from .errors import EmptyRepository, IndexFormatError, ParseError

log = logging.getLogger(__name__)

KB_FILE_NAME = "kb.jsonl"
MANIFEST_FILE_NAME = "manifest.json"
SOURCE_EXTENSIONS = (".py",)
MAX_FILE_BYTES = 1 << 20  # larger files are skipped with a warning
TOOL_VERSION = "coderag-kb/1"


class ItemKind(str, Enum):
    FUNCTION = "Function"
    GLOBAL_VARIABLE = "GlobalVariable"
    CLASS_VARIABLE = "ClassVariable"
    CLASS_FUNCTION = "ClassFunction"


@dataclass(frozen=True)
class CodeKnowledgeItem:
    """One extracted repository element.

    ``text`` is the verbatim source slice for ``line_span`` (1-based,
    inclusive) with no trailing newline; ``id`` is a stable digest of
    (file_path, line_span, kind).
    """

    id: str
    kind: ItemKind
    qualified_name: str
    file_path: str
    line_span: tuple[int, int]
    text: str


# Preference among items that match one name (the dataflow path's pick).
_KIND_PRIORITY = {
    ItemKind.CLASS_FUNCTION: 0,
    ItemKind.FUNCTION: 1,
    ItemKind.CLASS_VARIABLE: 2,
    ItemKind.GLOBAL_VARIABLE: 3,
}


def name_match_key(item: CodeKnowledgeItem) -> tuple[int, int, str]:
    """Smaller is preferred: kind, then shorter qualified name, then id."""
    return (_KIND_PRIORITY[item.kind], len(item.qualified_name), item.id)


@dataclass(frozen=True)
class ParseFailure:
    file_path: str
    diagnostic: str


@dataclass
class CodeKnowledgeBase:
    items: list[CodeKnowledgeItem]
    repo_root: str
    file_manifest: dict[str, str]
    parse_errors: list[ParseFailure] = field(default_factory=list)
    build_timestamp: str = ""

    def __post_init__(self) -> None:
        self._by_id = {item.id: item for item in self.items}
        if len(self._by_id) != len(self.items):
            raise ValueError("duplicate item ids in knowledge base")
        for item in self.items:
            if item.file_path not in self.file_manifest:
                raise ValueError(f"item file {item.file_path!r} missing from manifest")

    def get(self, item_id: str) -> CodeKnowledgeItem:
        return self._by_id[item_id]

    def best_match(self, name: str) -> CodeKnowledgeItem | None:
        """Preferred item (:func:`name_match_key`) whose qualified name
        equals a dotted ``name``, or whose last segment equals a plain one."""
        by_qualified, by_last_segment = self._name_maps
        return (by_qualified if "." in name else by_last_segment).get(name)

    @cached_property
    def _name_maps(self) -> tuple[dict[str, CodeKnowledgeItem], dict[str, CodeKnowledgeItem]]:
        """Built on the first lookup, so loading an index does not pay for it."""
        by_qualified: dict[str, CodeKnowledgeItem] = {}
        by_last_segment: dict[str, CodeKnowledgeItem] = {}
        for item in sorted(self.items, key=name_match_key):
            by_qualified.setdefault(item.qualified_name, item)
            by_last_segment.setdefault(item.qualified_name.rpartition(".")[2], item)
        return by_qualified, by_last_segment

    def __len__(self) -> int:
        return len(self.items)

    def counts_by_kind(self) -> dict[str, int]:
        counts = {kind.value: 0 for kind in ItemKind}
        for item in self.items:
            counts[item.kind.value] += 1
        return counts


def item_id(file_path: str, line_span: tuple[int, int], kind: ItemKind) -> str:
    key = f"{file_path}|{line_span[0]}|{line_span[1]}|{kind.value}"
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]


def parse_file(source_text: str, file_path: str) -> ast.Module:
    """Parse one source file; raises :class:`ParseError` on failure."""
    try:
        return ast.parse(source_text)
    except (SyntaxError, ValueError) as exc:
        raise ParseError(file_path, str(exc)) from exc


def _slice_lines(lines: list[str], start: int, end: int) -> str:
    return "\n".join(lines[start - 1 : end])


def _def_span(node: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[int, int]:
    start = node.lineno
    if node.decorator_list:
        start = min(start, node.decorator_list[0].lineno)
    return (start, node.end_lineno or node.lineno)


def _assign_targets(node: ast.Assign | ast.AnnAssign) -> list[str]:
    """Simple-name targets of an assignment, in source order."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    names: list[str] = []
    for target in targets:
        if isinstance(target, ast.Name):
            names.append(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            names.extend(el.id for el in target.elts if isinstance(el, ast.Name))
    return names


def _make_item(
    kind: ItemKind,
    qualified_name: str,
    file_path: str,
    lines: list[str],
    span: tuple[int, int],
) -> CodeKnowledgeItem:
    return CodeKnowledgeItem(
        id=item_id(file_path, span, kind),
        kind=kind,
        qualified_name=qualified_name,
        file_path=file_path,
        line_span=span,
        text=_slice_lines(lines, span[0], span[1]),
    )


def extract_items(
    tree: ast.Module, source_text: str, file_path: str
) -> list[CodeKnowledgeItem]:
    """Extract the four element kinds from one parsed file.

    One item per top-level function, per module-level assignment, per
    class-body assignment ("Class.attr") and per class-body method
    ("Class.method").  Assignments without any plain-name target (e.g.
    ``obj.attr = 1``) bind nothing and are skipped.
    """
    lines = source_text.split("\n")
    items: list[CodeKnowledgeItem] = []

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            items.append(
                _make_item(ItemKind.FUNCTION, node.name, file_path, lines, _def_span(node))
            )
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            names = _assign_targets(node)
            if names:
                span = (node.lineno, node.end_lineno or node.lineno)
                items.append(
                    _make_item(ItemKind.GLOBAL_VARIABLE, names[0], file_path, lines, span)
                )
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    items.append(
                        _make_item(
                            ItemKind.CLASS_FUNCTION,
                            f"{node.name}.{member.name}",
                            file_path,
                            lines,
                            _def_span(member),
                        )
                    )
                elif isinstance(member, (ast.Assign, ast.AnnAssign)):
                    names = _assign_targets(member)
                    if names:
                        span = (member.lineno, member.end_lineno or member.lineno)
                        items.append(
                            _make_item(
                                ItemKind.CLASS_VARIABLE,
                                f"{node.name}.{names[0]}",
                                file_path,
                                lines,
                                span,
                            )
                        )
    return items


def _source_files(repo_root: Path) -> list[Path]:
    found: list[Path] = []
    for dirpath, dirnames, filenames in os.walk(repo_root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(SOURCE_EXTENSIONS):
                found.append(Path(dirpath) / name)
    return sorted(found)


def build_knowledge_base(
    repo_root: str | Path, max_file_bytes: int = MAX_FILE_BYTES
) -> CodeKnowledgeBase:
    """Parse every source file under ``repo_root`` and extract all items.

    Unparsable files are recorded in ``parse_errors`` and skipped; item
    order is deterministic (file path, then line span).
    """
    root = Path(repo_root)
    files = _source_files(root)
    if not files:
        raise EmptyRepository(f"no source files under {root}")

    items: list[CodeKnowledgeItem] = []
    manifest: dict[str, str] = {}
    errors: list[ParseFailure] = []
    for path in files:
        rel = path.relative_to(root).as_posix()
        raw = path.read_bytes()
        if len(raw) > max_file_bytes:
            log.warning("skipping %s: %d bytes exceeds limit", rel, len(raw))
            continue
        text = raw.decode("utf-8", errors="replace")
        manifest[rel] = hashlib.sha256(raw).hexdigest()
        try:
            tree = parse_file(text, rel)
        except ParseError as exc:
            errors.append(ParseFailure(rel, exc.diagnostic))
            continue
        items.extend(extract_items(tree, text, rel))

    items.sort(key=lambda it: (it.file_path, it.line_span))
    return CodeKnowledgeBase(
        items=items,
        repo_root=str(root),
        file_manifest=manifest,
        parse_errors=errors,
        build_timestamp=_build_timestamp(root),
    )


def _item_record(item: CodeKnowledgeItem) -> dict:
    return {
        "id": item.id,
        "kind": item.kind.value,
        "qualified_name": item.qualified_name,
        "file_path": item.file_path,
        "line_span": list(item.line_span),
        "text": item.text,
    }


def _build_timestamp(repo_root: Path) -> str:
    """Deterministic build stamp: newest mtime among indexed source files.

    A wall-clock stamp would break the rebuild-identical contract for an
    unchanged repository.
    """
    mtimes = [p.stat().st_mtime for p in _source_files(repo_root)]
    stamp = max(mtimes, default=0.0)
    return dt.datetime.fromtimestamp(int(stamp), tz=dt.timezone.utc).isoformat()


def save_knowledge_base(kb: CodeKnowledgeBase, out_dir: str | Path) -> None:
    """Write ``kb.jsonl`` (one item per line) and ``manifest.json``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / KB_FILE_NAME, "w", encoding="utf-8", newline="\n") as fh:
        for item in kb.items:
            fh.write(json.dumps(_item_record(item), ensure_ascii=False))
            fh.write("\n")
    manifest = {
        "repo_root": kb.repo_root,
        "files": dict(sorted(kb.file_manifest.items())),
        "build_timestamp": kb.build_timestamp,
        "tool_version": TOOL_VERSION,
        "parse_errors": [
            {"file_path": e.file_path, "diagnostic": e.diagnostic} for e in kb.parse_errors
        ],
    }
    with open(out / MANIFEST_FILE_NAME, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, ensure_ascii=False, indent=2)
        fh.write("\n")


@contextlib.contextmanager
def _index_file(path: Path, where: Callable[[], str] = lambda: ""):
    """Open one index file for reading.  A truncated or hand-edited record
    (bad JSON or UTF-8, a bad kind, a missing key, a value of the wrong
    shape) raises :class:`IndexFormatError` naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        problem = f"a record has no {exc} key" if isinstance(exc, KeyError) else str(exc)
        raise IndexFormatError(path, f"is truncated or corrupt{where()} ({problem})") from exc


def load_knowledge_base(kb_dir: str | Path) -> CodeKnowledgeBase:
    kb_dir = Path(kb_dir)
    items: list[CodeKnowledgeItem] = []
    # JSON errors give positions within a line, so name the line.
    with _index_file(
        kb_dir / KB_FILE_NAME, lambda: f" while reading line {len(items) + 1}"
    ) as fh:
        for line in fh:
            rec = json.loads(line)  # other keys, e.g. an old `identifiers`, are ignored
            items.append(
                CodeKnowledgeItem(
                    id=rec["id"],
                    kind=ItemKind(rec["kind"]),
                    qualified_name=rec["qualified_name"],
                    file_path=rec["file_path"],
                    line_span=(rec["line_span"][0], rec["line_span"][1]),
                    text=rec["text"],
                )
            )
    with _index_file(kb_dir / MANIFEST_FILE_NAME) as fh:
        manifest = json.load(fh)
        recorded = dict(
            repo_root=manifest["repo_root"],
            file_manifest=dict(manifest["files"]),
            parse_errors=[
                ParseFailure(e["file_path"], e["diagnostic"])
                for e in manifest.get("parse_errors", [])
            ],
            build_timestamp=manifest.get("build_timestamp", ""),
        )
    try:
        return CodeKnowledgeBase(items=items, **recorded)
    except ValueError as exc:  # duplicate ids, or an item's file not in the manifest
        raise IndexFormatError(kb_dir, f"is inconsistent ({exc})") from exc
