"""Best-effort lexing of (possibly incomplete) Python source.

This is the one module that decides what in a line is code and what is a
comment or a literal, and what a name is (:data:`NAME`, Python's
identifier shape, non-ASCII letters included).  Every other module reads
code through one of its two tokenizations:

* :func:`scan` — comments, numbers, string literals (with an ``r``,
  ``b``, ``u``, ``f``, ``rb``, ``br``, ``rf`` or ``fr`` prefix) and names,
  in code order.  It tolerates unterminated strings and truncated
  statements, which is the normal state of a file being typed.  Built on
  it, :func:`iter_identifiers` gives the names that are not keywords (the
  identifier metrics and the stub probe), and :func:`strip_noncode` the
  code with its comments and literals blanked out (the dataflow path's
  lexer for lines that do not parse).
* :func:`subtokens` — the retrieval vocabulary: ASCII alphanumeric runs
  split further at snake_case and CamelCase boundaries, lowercased.
"""

from __future__ import annotations

import functools
import keyword
import re
from itertools import chain
from typing import Iterator

KEYWORDS = frozenset(keyword.kwlist)

# A name has Python's identifier shape: a letter or underscore, then word
# characters, Unicode ones included ("été", "café").
NAME = r"[^\W\d]\w*"

# One token: a comment, a number, a string literal with its prefix, or a
# name; any other character lies between tokens.  A number takes the word
# characters and dots glued to it ("1e5", "0x1f", "2j", "1_000").  An
# unterminated string runs to the end of its line, or of the text for
# triple quotes, so its content never reads as code.  The leading
# look-ahead lets the engine jump to the next character that can start a
# token (twice as fast on the standard library as trying each one).
_TOKEN_RE = re.compile(
    r"""
    (?=[\#'"\w]) (?:
      (?P<comment> \#[^\n]* )
    | (?P<number> [0-9][\w.]* )
    | (?P<string> (?i: rb|br|rf|fr|[rbuf] )?
        (?: '{3}[\s\S]*?(?:'{3}|\Z) | "{3}[\s\S]*?(?:"{3}|\Z)
        | '[^'\\\n]*(?:\\[\s\S]?[^'\\\n]*)*'?
        | "[^"\\\n]*(?:\\[\s\S]?[^"\\\n]*)*"? ) )
    | (?P<name> """ + NAME + r""" ) )
    """,
    re.VERBOSE,
)

_WORD_RE = re.compile(r"[A-Za-z0-9]+")
_CAMEL_RE = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]+(?![A-Za-z])|[A-Z][a-z0-9]*|[a-z0-9]+")

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


def scan(code: str) -> Iterator[re.Match[str]]:
    """The tokens of ``code`` in order; each match's ``lastgroup`` is its
    kind: ``comment``, ``number``, ``string`` or ``name``."""
    return _TOKEN_RE.finditer(code)


def iter_identifiers(code: str) -> list[str]:
    """Identifier tokens in order of appearance, duplicates preserved."""
    names = (m.group() for m in scan(code) if m.lastgroup == "name")
    return [name for name in names if name not in KEYWORDS]


def strip_noncode(code: str) -> str:
    """``code`` without its comments, each string or number literal left
    as one space, so a lexical scan of it sees only names and operators."""
    pieces: list[str] = []
    i = 0
    for m in scan(code):
        if m.lastgroup != "name":
            pieces += (code[i : m.start()], "" if m.lastgroup == "comment" else " ")
            i = m.end()
    return "".join(pieces) + code[i:]


def identifier_set(code: str) -> frozenset[str]:
    return frozenset(iter_identifiers(code))
