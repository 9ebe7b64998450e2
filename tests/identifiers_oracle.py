"""Reference identifier scan: the per-character loop that
:func:`coderag.lexing.iter_identifiers` computes with one token pattern."""

from __future__ import annotations

import keyword

_KEYWORDS = frozenset(keyword.kwlist)
_STRING_PREFIXES = frozenset({"r", "b", "u", "f", "rb", "br", "rf", "fr"})
_DIGITS = frozenset("0123456789")


def _name_cont(ch: str) -> bool:
    """A word character: Unicode letters and digits, and the underscore."""
    return ch.isalnum() or ch == "_"


def _name_start(ch: str) -> bool:
    """A word character that is not a decimal digit."""
    return _name_cont(ch) and not ch.isdecimal()


def _skip_string(code: str, i: int) -> int:
    """Index just past the string literal whose quote is ``code[i]``; an
    unterminated one runs to the end of its line (of the text for triple
    quotes)."""
    quote = code[i]
    n = len(code)
    if code[i : i + 3] == quote * 3:
        end = code.find(quote * 3, i + 3)
        return n if end < 0 else end + 3
    j = i + 1
    while j < n:
        ch = code[j]
        if ch == "\\":
            j += 2
            continue
        if ch == quote or ch == "\n":
            return j + 1
        j += 1
    return n


def oracle_identifiers(code: str) -> list[str]:
    out: list[str] = []
    i = 0
    n = len(code)
    while i < n:
        ch = code[i]
        if ch == "#":
            nl = code.find("\n", i)
            i = n if nl < 0 else nl + 1
        elif ch in ("'", '"'):
            i = _skip_string(code, i)
        elif _name_start(ch):
            j = i + 1
            while j < n and _name_cont(code[j]):
                j += 1
            name = code[i:j]
            if j < n and code[j] in ("'", '"') and name.lower() in _STRING_PREFIXES:
                i = _skip_string(code, j)
                continue
            if name not in _KEYWORDS:
                out.append(name)
            i = j
        elif ch in _DIGITS:
            # The whole numeric literal, so "1e5" or "0x1f" yields no name.
            j = i + 1
            while j < n and (_name_cont(code[j]) or code[j] == "."):
                j += 1
            i = j
        else:
            i += 1
    return out
