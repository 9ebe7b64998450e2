"""Best-effort lexing of (possibly incomplete) Python source.

Two tokenizations live here because every other module needs one of them:

* :func:`iter_identifiers` — name tokens in code order, with keywords,
  string/number literals and comments removed.  Tolerates unterminated
  strings and truncated statements, which is the normal state of a file
  being typed.
* :func:`subtokens` — the retrieval vocabulary: alphanumeric runs split
  further at snake_case and CamelCase boundaries, lowercased.
"""

from __future__ import annotations

import functools
import keyword
import re
from itertools import chain
from typing import Iterator

KEYWORDS = frozenset(keyword.kwlist)

# Prefix letters that may glue a string literal to a preceding "name".
STRING_PREFIXES = frozenset(
    {"r", "b", "u", "f", "rb", "br", "rf", "fr"}
)

_WORD_RE = re.compile(r"[A-Za-z0-9]+")
_CAMEL_RE = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]+(?![A-Za-z])|[A-Z][a-z0-9]*|[a-z0-9]+")
_NAME_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CONT = _NAME_START | frozenset("0123456789")
_DIGITS = frozenset("0123456789")

# Distinct alphanumeric runs whose split is remembered.  Word frequencies
# in code are heavy-tailed: indexing CPython 3.11's standard library
# (64,091 distinct words) hits this memo 95.3% of the time at 4,096
# entries; 32,768 entries hit 98.0% but left 29 MB more resident after
# the build, for no measurable build time.  Both benchmark repositories
# and this project's own source have under 4,096 distinct words.
SPLIT_CACHE_SIZE = 1 << 12


@functools.lru_cache(maxsize=SPLIT_CACHE_SIZE)
def _split_word(word: str) -> tuple[str, ...]:
    if word.isdigit():
        return (word,)
    return tuple(part.lower() for part in _CAMEL_RE.findall(word))


def subtokens(text: str) -> list[str]:
    """Split text into lowercase subtokens for sparse/dense retrieval.

    ``parse_config`` -> ``["parse", "config"]``, ``HTTPServer`` ->
    ``["http", "server"]``, digits are kept attached to their run
    (``utf8`` stays one token).
    """
    return list(chain.from_iterable(map(_split_word, _WORD_RE.findall(text))))


def skip_string(code: str, i: int) -> int:
    """Return the index just past the string literal starting at ``i``.

    ``code[i]`` must be a quote character.  Unterminated strings swallow
    the rest of the input (the literal's content must never leak out as
    identifiers).
    """
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


def _iter_name_tokens(code: str) -> Iterator[str]:
    i = 0
    n = len(code)
    while i < n:
        ch = code[i]
        if ch == "#":
            nl = code.find("\n", i)
            i = n if nl < 0 else nl + 1
        elif ch in ("'", '"'):
            i = skip_string(code, i)
        elif ch in _NAME_START:
            j = i + 1
            while j < n and code[j] in _NAME_CONT:
                j += 1
            name = code[i:j]
            if j < n and code[j] in ("'", '"') and name.lower() in STRING_PREFIXES:
                i = skip_string(code, j)
                continue
            yield name
            i = j
        elif ch in _DIGITS:
            # Swallow the whole numeric literal so "1e5" or "0x1f" never
            # contributes a phantom name.
            j = i + 1
            while j < n and (code[j] in _NAME_CONT or code[j] == "."):
                j += 1
            i = j
        else:
            i += 1


def iter_identifiers(code: str) -> list[str]:
    """Identifier tokens in order of appearance, duplicates preserved."""
    return [name for name in _iter_name_tokens(code) if name not in KEYWORDS]


def identifier_set(code: str) -> frozenset[str]:
    return frozenset(iter_identifiers(code))
