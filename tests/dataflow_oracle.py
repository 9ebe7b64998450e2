"""Reference implementations the dataflow tests hold the fast code to."""

from __future__ import annotations

import ast

from coderag.dataflow import DATAFLOW_SCORE, DataflowGraph, dependency_names
from coderag.kb import CodeKnowledgeBase, CodeKnowledgeItem, ItemKind

# The match preference, written out again so that the oracle does not
# share `kb.name_match_key` with the code under test.
_KIND_PRIORITY = {
    ItemKind.CLASS_FUNCTION: 0,
    ItemKind.FUNCTION: 1,
    ItemKind.CLASS_VARIABLE: 2,
    ItemKind.GLOBAL_VARIABLE: 3,
}


def scan_retrieve(graph: DataflowGraph, kb: CodeKnowledgeBase) -> list[tuple[str, float]]:
    """Match every knowledge item against the collected names, then sort."""
    collected = dependency_names(graph)
    if not collected:
        return []
    full = set(collected)
    plain = {name for name in full if "." not in name}

    def matches(item: CodeKnowledgeItem) -> bool:
        if item.qualified_name in full:
            return True
        return item.qualified_name.split(".")[-1] in plain

    candidates = [item for item in kb.items if matches(item)]
    if not candidates:
        return []
    candidates.sort(key=lambda it: (_KIND_PRIORITY[it.kind], len(it.qualified_name), it.id))
    return [(candidates[0].id, DATAFLOW_SCORE)]


def linear_longest_parsable(lines: list[str]) -> tuple[ast.Module, int]:
    """Drop one trailing line per failed parse until the block parses."""
    for k in range(len(lines), -1, -1):
        try:
            return ast.parse("\n".join(lines[:k])), k
        except SyntaxError:
            continue
    return ast.parse(""), 0
