"""Knowledge-base extraction, persistence, and extraction properties."""

from __future__ import annotations

import ast
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coderag.errors import EmptyRepository, IndexFormatError, ParseError
from coderag.kb import ItemKind, build_knowledge_base, extract_items, item_id, parse_file
from coderag.store import (
    KB_FILE_NAME,
    MANIFEST_FILE_NAME,
    load_knowledge_base,
    save_knowledge_base,
)

from .conftest import write_repo


def test_parse_file_minimal_programs():
    tree = parse_file("x = 1\n", "a.py")
    assert len(tree.body) == 1 and isinstance(tree.body[0], ast.Assign)
    tree = parse_file("def f():\n  return 1\n", "b.py")
    assert len(tree.body) == 1 and isinstance(tree.body[0], ast.FunctionDef)


def test_parse_file_reports_failure():
    with pytest.raises(ParseError) as exc_info:
        parse_file("def f(:\n", "bad.py")
    assert exc_info.value.file_path == "bad.py"


@pytest.mark.parametrize(
    "source",
    ["x = " + "+".join(["a"] * 3000), "x = a" + ".b" * 3000, "x = f" + "()" * 3000],
    ids=["sum", "attribute_chain", "call_chain"],
)
def test_parse_file_too_deep_is_a_parse_error(source):
    # CPython raises RecursionError, not SyntaxError, for these expressions.
    with pytest.raises(ParseError) as exc_info:
        parse_file(source + "\n", "deep.py")
    assert exc_info.value.file_path == "deep.py"


def test_extract_items_four_kinds():
    # Enumerated by hand: one element of each kind on known lines.
    src = "GLOBAL_V = 1\nclass A:\n  c = 2\n  def m(self):\n    pass\ndef g():\n  pass\n"
    items = extract_items(parse_file(src, "x.py"), src, "x.py")
    assert [(i.kind.value, i.qualified_name, i.line_span) for i in items] == [
        ("GlobalVariable", "GLOBAL_V", (1, 1)),
        ("ClassVariable", "A.c", (3, 3)),
        ("ClassFunction", "A.m", (4, 5)),
        ("Function", "g", (6, 7)),
    ]


def test_extract_items_empty_file():
    assert extract_items(parse_file("", "e.py"), "", "e.py") == []


def test_nested_defs_stay_inside_enclosing_item():
    src = "def g():\n    def h():\n        pass\n    return h\n"
    items = extract_items(parse_file(src, "n.py"), src, "n.py")
    assert [i.qualified_name for i in items] == ["g"]
    assert "def h():" in items[0].text


def test_decorator_included_in_span():
    src = "@wraps(fn)\ndef g():\n    pass\n"
    (item,) = extract_items(parse_file(src, "d.py"), src, "d.py")
    assert item.line_span == (1, 3)
    assert item.text.startswith("@wraps(fn)")


@pytest.mark.parametrize(
    ("src", "kept"),
    [
        ("A = 1; B = 2\ndef f():\n    pass\n", [("A", (1, 1)), ("f", (2, 3))]),
        ("class C:\n    x = 5; y = 6\n    def m(self):\n        pass\n",
         [("C.x", (2, 2)), ("C.m", (3, 4))]),
    ],
    ids=["module_level", "class_body"],
)
def test_assignments_sharing_a_line_keep_the_first(src, kept):
    # Both share one span and kind, hence one id; the first is kept, as for
    # `A, B = 1, 2`, and no other item's id changes.
    items = extract_items(parse_file(src, "s.py"), src, "s.py")
    assert [(i.qualified_name, i.line_span) for i in items] == kept
    assert [i.id for i in items] == [item_id("s.py", i.line_span, i.kind) for i in items]
    assert items[0].text == src.split("\n")[items[0].line_span[0] - 1]


def test_attribute_only_assignment_is_skipped():
    src = "obj.attr = 1\n"
    assert extract_items(parse_file(src, "o.py"), src, "o.py") == []


def test_item_id_is_deterministic():
    a = item_id("p.py", (3, 7), ItemKind.FUNCTION)
    b = item_id("p.py", (3, 7), ItemKind.FUNCTION)
    c = item_id("p.py", (3, 7), ItemKind.CLASS_FUNCTION)
    assert a == b != c


def test_build_ordering_and_parse_errors(tmp_path):
    write_repo(tmp_path, {
        "b.py": "def two():\n    pass\n",
        "a.py": "ONE = 1\n",
        "bad.py": "def broken(:\n",
    })
    kb = build_knowledge_base(tmp_path)
    assert [i.qualified_name for i in kb.items] == ["ONE", "two"]
    assert [e.file_path for e in kb.parse_errors] == ["bad.py"]
    assert set(kb.file_manifest) == {"a.py", "b.py", "bad.py"}


def test_build_walks_the_repository_once(tmp_path, monkeypatch):
    import coderag.kb

    walks = []
    real_walk = coderag.kb.os.walk
    monkeypatch.setattr(coderag.kb.os, "walk", lambda top: walks.append(top) or real_walk(top))
    write_repo(tmp_path, {"a.py": "ONE = 1\n", "sub/b.py": "def two():\n    pass\n"})
    build_knowledge_base(tmp_path)
    assert len(walks) == 1


def test_build_empty_repo(tmp_path):
    (tmp_path / "README.md").write_text("nothing to index")
    with pytest.raises(EmptyRepository):
        build_knowledge_base(tmp_path)


def test_oversized_file_skipped(tmp_path):
    (tmp_path / "big.py").write_text("x = 1\n" * 10)
    (tmp_path / "ok.py").write_text("y = 2\n")
    kb = build_knowledge_base(tmp_path, max_file_bytes=20)
    assert [i.qualified_name for i in kb.items] == ["y"]
    assert "big.py" not in kb.file_manifest


def test_round_trip_equality_and_bytes(repo10, tmp_path):
    kb = build_knowledge_base(repo10)
    out1 = tmp_path / "out1"
    save_knowledge_base(kb, out1)
    loaded = load_knowledge_base(out1)
    assert loaded == kb

    out2 = tmp_path / "out2"
    save_knowledge_base(loaded, out2)
    for name in (KB_FILE_NAME, MANIFEST_FILE_NAME):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def _edit_records(path, edit):
    """Rewrite a JSON-lines file after ``edit`` mutates its parsed records."""
    records = [json.loads(line) for line in path.read_text().splitlines()]
    edit(records)
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def test_kb_jsonl_with_identifiers_key_still_loads(repo10, tmp_path):
    # Indexes written before `identifiers` was dropped carry the key.
    kb = build_knowledge_base(repo10)
    save_knowledge_base(kb, tmp_path)
    path = tmp_path / KB_FILE_NAME
    assert all("identifiers" not in json.loads(line) for line in path.read_text().splitlines())
    _edit_records(path, lambda recs: [r.update(identifiers=["a", "b"]) for r in recs])
    assert load_knowledge_base(tmp_path) == kb


KB_DAMAGES = {
    "first 30 bytes": lambda p: p.write_bytes(p.read_bytes()[:30]),
    "record without id": lambda p: _edit_records(p, lambda recs: recs[1].pop("id")),
    "unknown kind": lambda p: _edit_records(
        p, lambda recs: recs[0].update(kind="Lambda")
    ),
    "record not an object": lambda p: p.write_text("[1, 2]\n" + p.read_text()),
    "bad utf-8": lambda p: p.write_bytes(b"\xff" + p.read_bytes()),
}


@pytest.mark.parametrize("damage", sorted(KB_DAMAGES))
def test_damaged_kb_jsonl_asks_for_reindex(repo10, tmp_path, damage):
    save_knowledge_base(build_knowledge_base(repo10), tmp_path)
    path = tmp_path / KB_FILE_NAME
    KB_DAMAGES[damage](path)
    with pytest.raises(IndexFormatError) as exc_info:
        load_knowledge_base(tmp_path)
    assert exc_info.value.path == path
    assert str(path) in str(exc_info.value)
    assert "re-run `coderag index`" in str(exc_info.value)


def test_damaged_kb_jsonl_names_the_line(repo10, tmp_path):
    save_knowledge_base(build_knowledge_base(repo10), tmp_path)
    _edit_records(tmp_path / KB_FILE_NAME, lambda recs: recs[2].pop("text"))
    with pytest.raises(IndexFormatError, match="line 3 .*'text'"):
        load_knowledge_base(tmp_path)


MANIFEST_DAMAGES = {
    "first 40 bytes": lambda p: p.write_bytes(p.read_bytes()[:40]),
    "no files key": lambda p: p.write_text(json.dumps({"repo_root": "r"})),
    "not an object": lambda p: p.write_text("[]"),
}


@pytest.mark.parametrize("damage", sorted(MANIFEST_DAMAGES))
def test_damaged_manifest_asks_for_reindex(repo10, tmp_path, damage):
    save_knowledge_base(build_knowledge_base(repo10), tmp_path)
    path = tmp_path / MANIFEST_FILE_NAME
    MANIFEST_DAMAGES[damage](path)
    with pytest.raises(IndexFormatError) as exc_info:
        load_knowledge_base(tmp_path)
    assert exc_info.value.path == path
    assert "re-run `coderag index`" in str(exc_info.value)


def test_kb_and_manifest_that_disagree_ask_for_reindex(repo10, tmp_path):
    save_knowledge_base(build_knowledge_base(repo10), tmp_path)
    _edit_records(tmp_path / KB_FILE_NAME, lambda recs: recs.append(recs[0]))
    with pytest.raises(IndexFormatError, match="duplicate item ids") as exc_info:
        load_knowledge_base(tmp_path)
    assert exc_info.value.path == tmp_path


def test_rebuild_unchanged_repo_is_byte_identical(repo10, tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    save_knowledge_base(build_knowledge_base(repo10), out1)
    save_knowledge_base(build_knowledge_base(repo10), out2)
    for name in (KB_FILE_NAME, MANIFEST_FILE_NAME):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_slicing_fidelity(repo10):
    kb = build_knowledge_base(repo10)
    assert kb.items, "fixture repo must produce items"
    for item in kb.items:
        source = (repo10 / item.file_path).read_text(encoding="utf-8")
        lines = source.split("\n")
        start, end = item.line_span
        assert "\n".join(lines[start - 1 : end]) == item.text


# --- coverage property: one Function item per top-level def -----------------

_names = st.sampled_from(["alpha", "beta", "gamma", "delta"])


@st.composite
def small_modules(draw):
    parts = []
    n = draw(st.integers(min_value=0, max_value=6))
    for i in range(n):
        kind = draw(st.sampled_from(["def", "assign", "class"]))
        name = draw(_names) + str(i)
        if kind == "def":
            parts.append(f"def {name}():\n    return {i}\n")
        elif kind == "assign":
            parts.append(f"{name} = {i}\n")
        else:
            parts.append(f"class C{i}:\n    def {name}(self):\n        pass\n")
    return "".join(parts)


def count_top_level_defs(src: str) -> int:
    """Node-counting oracle, independent of the extractor."""
    return sum(
        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.parse(src).body
    )


@settings(max_examples=80)
@given(small_modules())
def test_function_coverage_property(src):
    items = extract_items(parse_file(src, "m.py"), src, "m.py")
    functions = [i for i in items if i.kind is ItemKind.FUNCTION]
    assert len(functions) == count_top_level_defs(src)


def test_random_order_build_is_deterministic(tmp_path):
    # Writing files in random order must not change the built KB.
    files = {f"m{i}.py": f"def f{i}():\n    return {i}\n" for i in range(8)}
    roots = []
    for trial in range(2):
        root = tmp_path / f"r{trial}"
        order = list(files.items())
        random.Random(trial).shuffle(order)
        write_repo(root, dict(order))
        roots.append(root)
    kb_a = build_knowledge_base(roots[0])
    kb_b = build_knowledge_base(roots[1])
    assert [i.id for i in kb_a.items] == [i.id for i in kb_b.items]
