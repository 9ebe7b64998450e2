from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coderag
from coderag.lexing import identifier_set, iter_identifiers, strip_noncode, subtokens

from .identifiers_oracle import oracle_identifiers
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
    assert iter_identifiers("t = rf'{a}' + Fr\"b\" + bR'c' + uR'd'") == ["t", "uR"]
    # f-string interpolations are treated as string content (best effort)
    assert iter_identifiers('s = f"{value}"') == ["s"]


def test_identifiers_have_python_identifier_shape():
    # A Unicode letter starts or continues a name; a non-ASCII digit only
    # continues one.
    assert iter_identifiers("été = load(café)") == ["été", "load", "café"]
    assert iter_identifiers("x٣ = ٣ + _ü") == ["x٣", "_ü"]


def test_identifiers_tolerate_unterminated_string():
    assert iter_identifiers('x = open("conf') == ["x", "open"]
    assert iter_identifiers("y = '''start\nstill inside") == ["y"]


def test_identifiers_triple_quoted():
    assert iter_identifiers('"""module doc with words"""\nname = 1') == ["name"]


def test_identifier_set_helper():
    code = "a = a + b"
    assert iter_identifiers(code) == ["a", "a", "b"]
    assert identifier_set(code) == frozenset({"a", "b"})


SRC_FILES = sorted(Path(coderag.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SRC_FILES, ids=lambda p: p.name)
def test_identifiers_equal_the_character_loop_on_every_src_file_and_line(path):
    text = path.read_text("utf-8")
    for sample in [text, *text.split("\n")]:
        assert iter_identifiers(sample) == oracle_identifiers(sample), sample


# Quotes and their prefixes, escapes, comments, digits, exponent and
# imaginary letters, and non-ASCII characters: a letter (which starts a
# name) and a digit (which only continues one).
_LEXER_CHARS = st.sampled_from(list("abrfuBRFUjxe_019 .()=+-#'\"\\\n\t") + ["é", "٣"])


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(), st.text(_LEXER_CHARS)))
@example("rf'a' Fr'b' rb\"c\" bR'''d\n''' ur'e'\n'f\\\ng' h")
def test_identifiers_equal_the_character_loop(text):
    assert iter_identifiers(text) == oracle_identifiers(text)


def test_strip_noncode_blanks_comments_and_literals():
    # A literal leaves one space; a comment leaves nothing.
    assert strip_noncode("y = rescale(1e-3, 2j)  # to unit") == "y = rescale( - ,  )  "
    assert strip_noncode('open(f"{path}", rb"x", name"s")') == "open( ,  , name )"
    assert strip_noncode('x = """doc') == "x =  "
    assert strip_noncode("n = 0x1f + 1_000") == "n =   +  "
    assert strip_noncode("a = 'open\nb  # c\nd") == "a =  \nb  \nd"  # lines are kept
