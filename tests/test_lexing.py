from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from coderag.lexing import identifier_set, iter_identifiers, subtokens

from .subtokens_oracle import oracle_subtokens


def test_subtokens_snake_and_camel():
    assert subtokens("parse_config") == ["parse", "config"]
    assert subtokens("HTTPServer") == ["http", "server"]
    assert subtokens("parseConfig") == ["parse", "config"]
    assert subtokens("GLOBAL_V") == ["global", "v"]
    assert subtokens("utf8 decode") == ["utf8", "decode"]
    assert subtokens("x") == ["x"]
    assert subtokens("123") == ["123"]
    assert subtokens("") == []


# Letters of both cases, digits, underscores, separators and a few
# non-ASCII characters (which end a word, as any other non-alphanumeric).
_CODE_CHARS = st.sampled_from(list("aBcXyZ019_ .(:\n") + ["é", "Ü", "ß", "İ", "٣", "😀"])


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.text(_CODE_CHARS)))
def test_memoized_subtokens_equal_two_pass_split(text):
    # Twice, so the second call reads every word from the memo.
    assert subtokens(text) == oracle_subtokens(text)
    assert subtokens(text) == oracle_subtokens(text)


def test_identifiers_skip_keywords_and_literals():
    assert iter_identifiers("def f(x):\n    return x + 1") == ["f", "x", "x"]
    assert iter_identifiers('msg = "hello world"') == ["msg"]
    assert iter_identifiers("n = 1e5 + 0x1f") == ["n"]
    assert iter_identifiers("# just a comment") == []
    assert iter_identifiers("a.b.c") == ["a", "b", "c"]


def test_identifiers_handle_string_prefixes():
    assert iter_identifiers('path = r"C:\\temp"') == ["path"]
    assert iter_identifiers('blob = b"bytes here"') == ["blob"]
    # f-string interpolations are treated as string content (best effort)
    assert iter_identifiers('s = f"{value}"') == ["s"]


def test_identifiers_tolerate_unterminated_string():
    assert iter_identifiers('x = open("conf') == ["x", "open"]
    assert iter_identifiers("y = '''start\nstill inside") == ["y"]


def test_identifiers_triple_quoted():
    assert iter_identifiers('"""module doc with words"""\nname = 1') == ["name"]


def test_identifier_set_helper():
    code = "a = a + b"
    assert iter_identifiers(code) == ["a", "a", "b"]
    assert identifier_set(code) == frozenset({"a", "b"})
