"""Structured code knowledge base extracted from a repository's syntax trees.

Four element kinds are indexed: top-level functions, module-level
assignments, class-body assignments, and class-body methods.  Nested
functions and nested classes stay inside their enclosing element's text
and are not indexed separately.
"""

from __future__ import annotations

import ast
import hashlib
import logging
import os
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path

from .errors import EmptyRepository, ParseError

log = logging.getLogger(__name__)

SOURCE_EXTENSIONS = (".py",)
MAX_FILE_BYTES = 1 << 20  # larger files are skipped with a warning


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
    """Parse one source file; raises :class:`ParseError` on failure.

    ``RecursionError`` is a failure too: CPython's parser raises it for an
    expression nested a few thousand levels deep, such as ``a+a+...``.
    """
    try:
        return ast.parse(source_text)
    except (SyntaxError, ValueError, RecursionError) as exc:
        raise ParseError(file_path, str(exc)) from exc


def _def_span(node: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[int, int]:
    start = node.lineno
    if node.decorator_list:
        start = min(start, node.decorator_list[0].lineno)
    return (start, node.end_lineno or node.lineno)


def target_names(target: ast.expr) -> list[str]:
    """The name a target binds, or the names directly inside a tuple or list."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [el.id for el in target.elts if isinstance(el, ast.Name)]
    return []


def extract_items(
    tree: ast.Module, source_text: str, file_path: str
) -> list[CodeKnowledgeItem]:
    """Extract the four element kinds from one parsed file.

    One item per top-level function, per module-level assignment, per
    class-body assignment ("Class.attr") and per class-body method
    ("Class.method").  Assignments without any plain-name target (e.g.
    ``obj.attr = 1``) bind nothing and are skipped.  Assignments that
    share a line (``A = 1; B = 2``) share a span, hence an id: the first
    is kept, named by its first target, as ``A, B = 1, 2`` is.
    """
    lines = source_text.split("\n")
    unique: dict[str, CodeKnowledgeItem] = {}

    def visit(body: list[ast.stmt], owner: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                kind = ItemKind.CLASS_FUNCTION if owner else ItemKind.FUNCTION
                name, span = node.name, _def_span(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n for target in targets for n in target_names(target)]
                if not names:
                    continue
                kind = ItemKind.CLASS_VARIABLE if owner else ItemKind.GLOBAL_VARIABLE
                name, span = names[0], (node.lineno, node.end_lineno or node.lineno)
            elif isinstance(node, ast.ClassDef) and not owner:
                visit(node.body, node.name)
                continue
            else:
                continue
            item = CodeKnowledgeItem(
                id=item_id(file_path, span, kind),
                kind=kind,
                qualified_name=f"{owner}.{name}" if owner else name,
                file_path=file_path,
                line_span=span,
                text="\n".join(lines[span[0] - 1 : span[1]]),
            )
            unique.setdefault(item.id, item)

    visit(tree.body, "")
    return list(unique.values())


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
    )
