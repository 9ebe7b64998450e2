"""Def-use graph construction and dependency retrieval fixtures.

The oracle table below was traced by hand against the binding rules:
nearest preceding definition in scope, constructor-call typing, greedy
first-attribute resolution, module-attribute collection, walk depth 4,
and the ClassFunction > Function > ClassVariable > GlobalVariable match
priority with shorter-name and item-id tiebreaks.
"""

from __future__ import annotations

import ast
import functools
import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coderag
from coderag.dataflow import (
    DATAFLOW_SCORE,
    _lex_tail_line,
    _longest_parsable,
    build_dataflow_graph,
    dataflow_retrieve,
    dependency_names,
    to_dot,
)
from coderag.errors import GraphUnavailable
from coderag.kb import CodeKnowledgeBase, CodeKnowledgeItem, ItemKind
from coderag.lexing import KEYWORDS, iter_identifiers

from .dataflow_oracle import linear_longest_parsable, scan_retrieve


def make_kb(
    entries: list[tuple[str, str]], ids: list[str] | None = None
) -> CodeKnowledgeBase:
    items = [
        CodeKnowledgeItem(
            id=ids[i] if ids else f"kb{i:03d}",
            kind=ItemKind(kind),
            qualified_name=name,
            file_path="fix.py",
            line_span=(i + 1, i + 1),
            text=f"# {name}",
        )
        for i, (kind, name) in enumerate(entries)
    ]
    return CodeKnowledgeBase(items=items, repo_root="/fix", file_manifest={"fix.py": "0"})


KB = make_kb([
    ("Function", "parse_config"),
    ("Function", "helper"),
    ("ClassFunction", "Kit.helper"),
    ("ClassFunction", "Sensor.read"),
    ("ClassFunction", "Sensor.calibrate"),
    ("ClassVariable", "Sensor.unit"),
    ("ClassFunction", "Motor.spin"),
    ("GlobalVariable", "THRESHOLD"),
    ("ClassFunction", "Config.load"),
])


# --- graph shape ------------------------------------------------------------


def final_names(graph) -> set[str]:
    """Names used on the cursor line."""
    return {u.name for u in graph.final_uses}


def test_graph_single_def_use_pair():
    graph = build_dataflow_graph("a = Foo()\nb = a.")
    assert final_names(graph) == {"a"}
    def_use = [(s.name, s.line, d.name, d.line) for s, d in graph.edges]
    assert ("a", 1, "a", 2) in def_use


def test_graph_import_binding():
    graph = build_dataflow_graph("from m import Foo\nx = Foo(")
    assert final_names(graph) == {"Foo"}
    kinds = {(n.name, n.kind) for n in graph.nodes}
    assert ("Foo", "import-binding") in kinds
    assert any(s.kind == "import-binding" and d.name == "Foo" for s, d in graph.edges)


def test_graph_nearest_definition_wins():
    graph = build_dataflow_graph("a = 1\na = 2\nprint(a")
    assert "a" in final_names(graph)
    sources = [s.line for s, d in graph.edges if d.name == "a" and d.line == 3]
    assert sources == [2]


def test_graph_is_prefix_only():
    # identical prefixes give identical graphs regardless of what the
    # caller later appends to the file
    a = build_dataflow_graph("x = Foo()\nx.bar")
    b = build_dataflow_graph("x = Foo()\nx.bar")
    assert final_names(a) == final_names(b)
    assert [(s, d) for s, d in a.edges] == [(s, d) for s, d in b.edges]


def test_dot_dump():
    dot = to_dot(build_dataflow_graph("a = Foo()\nb = a."))
    assert dot.startswith("digraph dataflow {")
    assert "a@1" in dot and "->" in dot


# --- retrieval oracle table --------------------------------------------------

# (prefix, expected qualified_name or None) — all traced by hand.
ORACLE_TABLE = [
    # 1. constructor typing + attribute
    ("s = Sensor()\ns.read", "Sensor.read"),
    # 2. class variable through an instance
    ("s = Sensor()\nx = s.unit", "Sensor.unit"),
    # 3. imported function called on the cursor line
    ("from util import parse_config\ncfg = parse_config(", "parse_config"),
    # 4. module attribute names a top-level symbol
    ("import util\ncfg = util.parse_config(", "parse_config"),
    # 5. value bindings without calls collect nothing
    ("t = 5\nprint(t", None),
    # 6. greedy chains resolve only the first attribute
    ("s = Sensor()\ny = s.read.unit", "Sensor.read"),
    # 7. callee of the defining assignment is collected
    ("cfg = parse_config('app.ini')\ncfg.load", "parse_config"),
    # 8. one alias hop before the attribute
    ("s = Sensor()\nt = s\nt.calibrate", "Sensor.calibrate"),
    # 9. alias chain longer than the walk depth (4) resolves nothing
    ("a = Sensor()\nb = a\nc = b\nd = c\ne = d\ne.read", None),
    # 10. alias chain inside the depth bound
    ("a = Sensor()\nb = a\nb.read", "Sensor.read"),
    # 11. import alias keeps the original symbol name
    ("from util import parse_config as pc\nx = pc(", "parse_config"),
    # 12. nearest preceding definition shadows the earlier one
    ("s = Sensor()\ns = Motor()\ns.spin", "Motor.spin"),
    # 13. binding and use inside one function scope
    ("def run():\n    s = Sensor()\n    s.read", "Sensor.read"),
    # 14. function-scope use falls back to a module-scope binding
    ("s = Sensor()\ndef run():\n    s.read", "Sensor.read"),
    # 15. keyword arguments in the constructor call
    ("m = Motor(speed=5)\nm.spin(", "Motor.spin"),
    # 16. imported global used in a condition on the cursor line
    ("from settings import THRESHOLD\nif x > THRESHOLD", "THRESHOLD"),
    # 17. attribute access on an imported function still finds it
    ("from util import parse_config\nvalue = parse_config.cache", "parse_config"),
    # 18. no names on the last statement
    ("pass", None),
    # 19. collected names absent from the knowledge base
    ("z = Widget()\nz.frob", None),
    # 20. kind priority: ClassFunction Kit.helper beats Function helper
    ("from util import helper\nx = helper(", "Kit.helper"),
]


@pytest.mark.parametrize("prefix,expected", ORACLE_TABLE)
def test_retrieval_oracle_table(prefix, expected):
    graph = build_dataflow_graph(prefix)
    hits = dataflow_retrieve(graph, KB)
    assert hits == scan_retrieve(graph, KB)
    assert len(hits) <= 1
    if expected is None:
        assert hits == []
    else:
        (item_id, score) = hits[0]
        assert KB.get(item_id).qualified_name == expected
        assert score == DATAFLOW_SCORE


def test_returns_at_most_one_item_everywhere():
    for prefix, _ in ORACLE_TABLE:
        assert len(dataflow_retrieve(build_dataflow_graph(prefix), KB)) <= 1


# --- name lookup against the full scan ----------------------------------------


def test_name_maps_are_built_on_the_first_query():
    kb = make_kb([("ClassFunction", "Sensor.read")])
    assert "_name_maps" not in vars(kb)
    assert dataflow_retrieve(build_dataflow_graph("s = Sensor()\ns.read"), kb)
    assert "_name_maps" in vars(kb)


_CLASSES = ("Sensor", "Motor", "Kit")
_MEMBERS = ("read", "spin", "unit", "helper")
_MODULES = ("util", "pkg")
_VARS = ("s", "t")


@st.composite
def kb_and_prefix(draw):
    """A small KB whose names collide on purpose, and a prefix over them."""
    kinds = st.sampled_from([kind.value for kind in ItemKind])
    dotted = st.builds(
        "{}.{}".format, st.sampled_from(_CLASSES + _MODULES), st.sampled_from(_MEMBERS)
    )
    name = st.one_of(st.sampled_from(_MEMBERS + _CLASSES), dotted)
    entries = draw(st.lists(st.tuples(kinds, name), max_size=10))
    # Always: every kind, a duplicated qualified name, and a plain name
    # that is also the last segment of a dotted one.
    entries += [(kind.value, draw(name)) for kind in ItemKind]
    entries += [(draw(kinds), "Sensor.read"), (draw(kinds), "Sensor.read"), (draw(kinds), "read")]
    ids = draw(
        st.lists(
            st.text("0123456789abcdef", min_size=4, max_size=4),
            min_size=len(entries),
            max_size=len(entries),
            unique=True,
        )
    )
    kb = make_kb(draw(st.permutations(entries)), ids)

    def few(pool: tuple[str, ...]):
        # Few names per prefix, so later lines tend to use earlier bindings.
        return st.sampled_from(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2)))

    var = few(_VARS)
    sym = few(_MEMBERS + _CLASSES)
    cls, mod, member = few(_CLASSES), few(_MODULES), few(_MEMBERS)
    statement = st.one_of(
        st.builds("from {} import {}".format, mod, sym),
        st.builds("from {} import {} as {}".format, mod, sym, var),
        st.builds("import {}".format, mod),
        st.builds("{} = {}()".format, var, cls),
        st.builds("{} = {}".format, var, var),
        st.builds("{} = {}({})".format, var, sym, var),
        st.builds("def {}():\n    pass".format, sym),
    )
    cursor = st.one_of(
        st.builds("{}.{}".format, var, member),
        st.builds("x = {}(".format, sym),
        st.builds("{}.{}(".format, mod, sym),
        st.builds("if {} > {}".format, var, sym),
        st.builds("{}.{}.{}".format, var, member, member),
    )
    binding = st.one_of(
        st.builds("from {} import {}".format, mod, sym),
        st.builds("{} = {}()".format, var, cls),
    )
    lines = [draw(binding)] + draw(st.lists(statement, max_size=4)) + [draw(cursor)]
    return kb, "\n".join(lines)


@settings(max_examples=200, deadline=None)
@given(kb_and_prefix())
def test_lookup_matches_scan_on_random_kbs(case):
    kb, prefix = case
    graph = build_dataflow_graph(prefix)
    assert dataflow_retrieve(graph, kb) == scan_retrieve(graph, kb)


# --- nodes and edges on demand -------------------------------------------------

# (prefix, to_dot output) pairs recorded from the eager graph builder: every
# ORACLE_TABLE prefix plus three with imports, nested scopes and repeats.
# Entries 23 on pin statement kinds the oracle table does not reach:
# async for/with, for/while with else, with-as targets, try/except/else/
# finally with the cursor in each block, decorated and nested defs and
# classes, del/global/return, lambda and comprehension targets.
RECORDED_DOT = json.loads((Path(__file__).parent / "dataflow_dot.json").read_text("utf-8"))


def test_recorded_dot_covers_oracle_table():
    assert {p for p, _ in ORACLE_TABLE} <= {p for p, _ in RECORDED_DOT}


@pytest.mark.parametrize("prefix,dot", RECORDED_DOT, ids=range(len(RECORDED_DOT)))
def test_dot_is_byte_identical_to_recorded(prefix, dot):
    assert to_dot(build_dataflow_graph(prefix)) == dot


# --- every statement kind is walked --------------------------------------------

MATCH_AND_TRY_STAR = [
    # the cursor statement inside a case
    "from app import load_config\nmatch mode:\n    case 'prod':\n        load_config()",
    # a binding made in a case, used after the match
    "from app import load_config\nmatch mode:\n    case 'prod':\n        cfg = load_config()\n"
    "start(cfg)",
    # a binding made in a try that has an except* handler
    pytest.param(
        "from app import load_config\ntry:\n    cfg = load_config()\nexcept* OSError:\n"
        "    pass\nstart(cfg)",
        marks=pytest.mark.skipif(sys.version_info < (3, 11), reason="except* is 3.11 syntax"),
    ),
]


@pytest.mark.parametrize(
    "prefix", MATCH_AND_TRY_STAR, ids=["cursor in a case", "bound in a case", "try with except*"]
)
def test_match_and_except_star_blocks_are_walked(prefix):
    assert dependency_names(build_dataflow_graph(prefix)) == ["load_config"]


@pytest.mark.parametrize("prefix_letters", ["f", "rb", "Rb", "u", "br"])
def test_string_prefix_on_the_cursor_line_is_not_a_use(prefix_letters):
    # The lexed cursor line skips a prefixed literal whole, as lexing does:
    # its prefix is not a use of the bound name of the same spelling.
    prefix = f'{prefix_letters} = make()\nx = {prefix_letters}"{{a}}" + g('
    assert dependency_names(build_dataflow_graph(prefix)) == []


@pytest.mark.parametrize("number", ["1e-3", "2j", "0x1f", "1_000"])
def test_number_on_the_cursor_line_is_not_a_use(number):
    # `e`, `j`, `x1f` and `_000` are bound to `load`; a literal that spells
    # one of them must not reach it, or the shorter name takes the slot.
    prefix = "from util import load, rescale\ne = load()\nx1f = _000 = j = load()\n"
    graph = build_dataflow_graph(f"{prefix}y = rescale({number}")
    assert dependency_names(graph) == ["rescale"]
    kb = make_kb([("Function", "load"), ("Function", "rescale")])
    assert [kb.get(item_id).qualified_name for item_id, _ in dataflow_retrieve(graph, kb)] == [
        "rescale"
    ]


def test_spaces_around_a_target_dot_bind_the_head_name():
    spaced, plain = build_dataflow_graph("x .y = make("), build_dataflow_graph("x.y = make(")
    assert [b.name for b in spaced.bindings] == ["x"]
    assert to_dot(spaced) == to_dot(plain)


# Weighted towards what tail lexing reads: names, dots, "=", brackets,
# quotes and their prefixes, comments, digits, and non-ASCII letters and
# digits (a Unicode letter starts a name; "٣" and "²" only continue one);
# any other character too.
_TAIL_LINE = st.text(
    st.one_of(
        st.sampled_from(list("abejrfx_01 .=(),'\"#\\") + ["é", "Ü", "٣", "²"]),
        st.characters(),
    ),
    max_size=40,
)


@settings(max_examples=500, deadline=None)
@given(_TAIL_LINE)
@example("y = rescale(1e-3")
@example("x .y = f(")
@example("x = été.run(café")
def test_tail_names_are_identifiers_of_the_line(line):
    bindings, uses = _lex_tail_line(line, 1, 0, "")
    names = [b.name for b in bindings] + [n for u in uses for n in (u.name, *u.chain)]
    identifiers = set(iter_identifiers(line))
    assert all(n in identifiers or n in KEYWORDS for n in names), names


@pytest.mark.parametrize("name", ["ete", "été"])
def test_a_non_ascii_name_on_the_cursor_line_is_one_name(name):
    prefix = f"from m import load\n{name} = load()\nx = {name}.run("
    assert dependency_names(build_dataflow_graph(prefix)) == ["load", "load.run"]


# --- the reaching rule --------------------------------------------------------

REACHING = [
    # a binding in the use's own scope beats an earlier module-scope one
    ("from m import load as run\ndef f():\n    from n import save as run\n    x = run(", "save"),
    # of two bindings in the use's scope, the later one
    (
        "from k import keep as run\ndef f():\n    from m import load as run\n"
        "    from n import save as run\n    x = run(",
        "save",
    ),
    # of two bindings of one name in one statement, the first
    ("import a.b, a.c\nx = a.run(", "b"),
]


@pytest.mark.parametrize(
    "prefix,symbol", REACHING, ids=["own scope first", "later in scope", "first in statement"]
)
def test_the_reaching_binding(prefix, symbol):
    assert dependency_names(build_dataflow_graph(prefix))[-1] == symbol


def test_callees_of_nested_calls_and_chains_are_collected_in_walk_order():
    graph = build_dataflow_graph("x = a.b(c.d(e), f(g.h.i()))\ny = x")
    assert [b.called for b in graph.by_name["x"]] == [("a.b", "c.d", "f", "g.h.i")]
    assert dependency_names(graph) == ["b", "d", "f", "i"]


def test_except_name_reaches_the_first_handler_statement():
    graph = build_dataflow_graph("try:\n    pass\nexcept OSError as err:\n    h = err.args")
    edges = [(s.name, s.line, d.name, d.line) for s, d in graph.edges]
    assert edges == [("err", 3, "err", 4)]


# --- bounded prefix parse -----------------------------------------------------


@pytest.fixture
def cached_parse(monkeypatch):
    """``ast.parse`` memoised on the source text, so the linear oracle and
    the search under test share parses of the same block."""
    real_parse = ast.parse

    @functools.lru_cache(maxsize=256)
    def outcome(text: str):
        try:
            return real_parse(text), None
        except SyntaxError as exc:
            return None, (type(exc), exc.args)

    def parse(text: str, *args, **kwargs) -> ast.Module:
        if args or kwargs:  # pytest's own calls, e.g. while reporting a failure
            return real_parse(text, *args, **kwargs)
        tree, error = outcome(text)
        if error:
            raise error[0](*error[1])
        return tree

    monkeypatch.setattr(ast, "parse", parse)


def _agree_on_every_prefix(lines: list[str]) -> None:
    for n in range(len(lines) + 1):
        assert _longest_parsable(lines[:n])[1] == linear_longest_parsable(lines[:n])[1], n


SRC_FILES = sorted(Path(coderag.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SRC_FILES, ids=lambda p: p.name)
def test_parse_search_matches_linear_on_every_src_prefix(path, cached_parse):
    _agree_on_every_prefix(path.read_text("utf-8").split("\n"))


_BODY = ["y = 1", "def g(a):", "    return a + 1", "class C:", "    z = [", "        2]"] * 20

HOSTILE = {
    "unclosed bracket early": ["x = foo("] + _BODY,
    "unclosed bracket late": _BODY + ["x = foo("] + _BODY[:6],
    "nested brackets never closed": _BODY + ["a = [", " (1,", "  {2:"] + _BODY[:6],
    "bracket closed after a bad line": ["x = foo(", "  a b", ")"] + _BODY,
    "unterminated triple quote early": ['s = """doc'] + _BODY,
    "unterminated triple quote late": _BODY + ["s = f'''x{y}"] + _BODY[:6],
    "triple quote closed later": ['s = """', "text (", '"""'] + _BODY + ["x = ("],
    "carriage return inside a line": ["a = 1\rb = (", "c = 2"] + _BODY[:6],
    "bad statement early": ["x = = 1"] + _BODY[:30],
    "block header without body": _BODY + ["if x:"],
}


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_parse_search_matches_linear_on_hostile_prefixes(name, cached_parse):
    _agree_on_every_prefix(HOSTILE[name])


@pytest.mark.parametrize("position", ["first", "last"])
def test_unclosed_bracket_prefix_parses_logarithmically(position, monkeypatch):
    real_parse, calls = ast.parse, []

    def counting_parse(text: str, *args, **kwargs) -> ast.Module:
        calls.append(1)
        return real_parse(text, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    n = 3000
    lines = ["y = 1"] * (n - 1)
    lines.insert(0 if position == "first" else n - 1, "x = foo(")
    _, parsed = _longest_parsable(lines)
    assert len(calls) <= 2 * math.log2(n) + 4
    # Every block that holds the open bracket fails, so the answer is the
    # block just above it, as the one-line-at-a-time search would find.
    assert parsed == lines.index("x = foo(")


DEEP_LINE = "x = " + "+".join(["a"] * 3000)


@pytest.mark.parametrize(
    "prefix",
    [DEEP_LINE, "import util\n" + DEEP_LINE + "\ny = util.load(", "y = 1\n" + DEEP_LINE + "\ny"],
    ids=["cursor_line", "before_unclosed_call", "before_cursor"],
)
def test_prefix_too_deep_to_parse_is_graph_unavailable(prefix):
    with pytest.raises(GraphUnavailable, match="too deeply"):
        build_dataflow_graph(prefix)
