"""Reference tokenizer for the retrieval vocabulary: the two-pass split
that :func:`coderag.lexing.subtokens` computes with a per-word memo."""

from __future__ import annotations

import re

_WORD_RE = re.compile(r"[A-Za-z0-9]+")
_CAMEL_RE = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]+(?![A-Za-z])|[A-Z][a-z0-9]*|[a-z0-9]+")


def oracle_subtokens(text: str) -> list[str]:
    out: list[str] = []
    for word in _WORD_RE.findall(text):
        if word.isdigit():
            out.append(word)
            continue
        for part in _CAMEL_RE.findall(word):
            out.append(part.lower())
    return out
