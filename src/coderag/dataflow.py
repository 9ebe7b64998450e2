"""Def-use dataflow over the unfinished file and dependency retrieval.

The prefix is parsed error-tolerantly: the longest parsable leading block
goes through an AST walk; the unparsable trailing lines (usually the
statement being typed) are lexed for names.  Uses bind to the nearest
preceding definition in the same tracked scope (module scope plus one
function/class nesting level).

Retrieval walks backward from the names used on the cursor line's
statement, collects bound names (constructed class names, imported
symbols, callees) and returns at most one matching knowledge item —
the merge arithmetic reserves exactly one dataflow slot.  Each name is
looked up in the knowledge base's name maps, so a query costs the same
whatever the size of the knowledge base.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from functools import cached_property

from .errors import GraphUnavailable
from .kb import CodeKnowledgeBase, name_match_key, target_names
from .lexing import KEYWORDS, NAME, strip_noncode

WALK_DEPTH = 4
DATAFLOW_SCORE = float("inf")  # provenance sentinel; reranking ignores path scores

MODULE_SCOPE = ""

_CHAIN_RE = re.compile(rf"{NAME}(?:\s*\.\s*{NAME})*")
_ASSIGN_SPLIT_RE = re.compile(r"(?<![=!<>])=(?!=)")
_CALL_HEAD_RE = re.compile(rf"^\s*{_CHAIN_RE.pattern}\s*\(")


@dataclass(frozen=True)
class FlowNode:
    name: str
    line: int
    kind: str  # "definition" | "use" | "import-binding" | "attribute-use"


@dataclass(frozen=True)
class _Binding:
    name: str
    line: int
    stmt_idx: int
    scope: str
    is_import: bool = False
    is_module: bool = False  # bound by `import pkg`, not `from pkg import name`
    origin: str = ""  # dotted source name for imports
    is_def_stmt: bool = False  # bound by a def/class statement
    ctor: str = ""  # dotted callee when the RHS is exactly one call
    called: tuple[str, ...] = ()  # dotted callees anywhere in the RHS
    aliases: tuple[str, ...] = ()  # bare-name RHS references

    @property
    def node(self) -> FlowNode:
        return FlowNode(self.name, self.line, "import-binding" if self.is_import else "definition")

    @property
    def symbol(self) -> str:
        """What the binding stands for: an import's symbol, a def or
        class's own name, or the class an assignment constructs ("" for
        none of these)."""
        if self.is_import:
            return self.origin.split(".")[-1]
        if self.is_def_stmt:
            return self.name
        return self.ctor.split(".")[-1]


@dataclass(frozen=True)
class _Use:
    name: str
    line: int
    stmt_idx: int
    scope: str
    chain: tuple[str, ...] = ()  # attribute names accessed on it

    @property
    def node(self) -> FlowNode:
        return FlowNode(self.name, self.line, "attribute-use" if self.chain else "use")


@dataclass
class DataflowGraph:
    """Bindings and uses in source order.  Retrieval reads only
    ``by_name`` and ``final_uses``; ``nodes`` and ``edges`` serve
    :func:`to_dot` and are derived on first read."""

    bindings: list[_Binding]
    uses: list[_Use]
    by_name: dict[str, list[_Binding]]
    final_uses: list[_Use]

    @cached_property
    def nodes(self) -> list[FlowNode]:
        """Binding nodes then use nodes, each distinct node once."""
        return list(dict.fromkeys([b.node for b in self.bindings] + [u.node for u in self.uses]))

    @cached_property
    def edges(self) -> list[tuple[FlowNode, FlowNode]]:
        """Reaching definition -> use, in use order."""
        out: list[tuple[FlowNode, FlowNode]] = []
        for use in self.uses:
            src = _reaching(self.by_name, use.name, use.stmt_idx, use.scope)
            if src is not None:
                out.append((src.node, use.node))
        return out


class _PrefixVisitor:
    """Source-ordered statement walk collecting bindings and uses.

    Imports, def/class and assignments have rules of their own; every
    other statement goes through :meth:`_visit_fields`.  Statements inside
    a top-level def/class get that name as their scope; deeper nesting
    stays attributed to the same level-1 scope.
    """

    def __init__(self) -> None:
        self.bindings: list[_Binding] = []
        self.uses: list[_Use] = []
        self.stmt_count = 0

    def visit_module(self, tree: ast.Module) -> None:
        for stmt in tree.body:
            self._visit_stmt(stmt, MODULE_SCOPE)

    def _visit_stmt(self, stmt: ast.stmt, scope: str) -> None:
        idx = self.stmt_count
        self.stmt_count += 1

        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            self._bind_imports(stmt, idx, scope)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            self.bindings.append(
                _Binding(stmt.name, stmt.lineno, idx, scope, is_def_stmt=True)
            )
            inner = stmt.name if scope == MODULE_SCOPE else scope
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for arg in self._all_args(stmt.args):
                    self.bindings.append(_Binding(arg.arg, stmt.lineno, idx, inner))
            for child in stmt.body:
                self._visit_stmt(child, inner)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._bind_assignment(stmt, idx, scope)
        else:
            self._visit_fields(stmt, stmt.lineno, idx, scope)

    def _visit_fields(self, node: ast.AST, line: int, idx: int, scope: str) -> None:
        """Children in source order: a ``for`` or ``with ... as`` target
        binds at ``line``, any other expression is a use, a nested
        statement is visited, and a ``withitem`` or ``match_case`` is
        walked by this same rule.  An ``except`` handler's name binds at
        an index of its own, before the handler body; its type is not a
        use."""
        targets = (getattr(node, "target", None), getattr(node, "optional_vars", None))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self._visit_stmt(child, scope)
            elif isinstance(child, ast.ExceptHandler):
                if child.name:
                    self.bindings.append(
                        _Binding(child.name, child.lineno, self.stmt_count, scope)
                    )
                    self.stmt_count += 1  # so the handler body sees the name
                for inner in child.body:
                    self._visit_stmt(inner, scope)
            elif not isinstance(child, ast.expr):
                self._visit_fields(child, line, idx, scope)
            elif child in targets:
                for name in target_names(child):
                    self.bindings.append(_Binding(name, line, idx, scope))
            else:
                self._collect_uses(child, idx, scope)

    @staticmethod
    def _all_args(args: ast.arguments) -> list[ast.arg]:
        out = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        if args.vararg:
            out.append(args.vararg)
        if args.kwarg:
            out.append(args.kwarg)
        return out

    def _bind_imports(self, stmt: ast.Import | ast.ImportFrom, idx: int, scope: str) -> None:
        is_module = isinstance(stmt, ast.Import)
        for alias in stmt.names:
            if alias.name == "*":
                continue
            # `import a.b` binds `a`; a from-import's name has no dot.
            local = alias.asname or alias.name.split(".")[0]
            self.bindings.append(
                _Binding(
                    local,
                    stmt.lineno,
                    idx,
                    scope,
                    is_import=True,
                    is_module=is_module,
                    origin=alias.name,
                )
            )

    @staticmethod
    def _dotted(expr: ast.expr) -> str:
        parts: list[str] = []
        node = expr
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            return ".".join(reversed(parts))
        return ""

    def _bind_assignment(
        self, stmt: ast.Assign | ast.AnnAssign | ast.AugAssign, idx: int, scope: str
    ) -> None:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        value = stmt.value
        called = () if value is None else tuple(self._collect_uses(value, idx, scope))
        ctor = self._dotted(value.func) if isinstance(value, ast.Call) else ""
        aliases = (value.id,) if isinstance(value, ast.Name) else ()
        for name in [n for target in targets for n in target_names(target)]:
            self.bindings.append(
                _Binding(name, stmt.lineno, idx, scope, ctor=ctor, called=called, aliases=aliases)
            )

    def _collect_uses(self, expr: ast.expr, idx: int, scope: str) -> list[str]:
        """Record Name loads; attribute chains record the head with its
        chain.  Returns the dotted callees met, in walk order."""
        called: list[str] = []
        skip: set[int] = set()
        for node in ast.walk(expr):
            if id(node) in skip:
                continue
            if isinstance(node, ast.Call):
                dotted = self._dotted(node.func)
                if dotted:
                    called.append(dotted)
            elif isinstance(node, ast.Attribute):
                chain: list[str] = []
                base: ast.expr = node
                while isinstance(base, ast.Attribute):
                    chain.append(base.attr)
                    skip.add(id(base))
                    base = base.value
                if isinstance(base, ast.Name):
                    skip.add(id(base))
                    self.uses.append(
                        _Use(base.id, base.lineno, idx, scope, tuple(reversed(chain)))
                    )
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                self.uses.append(_Use(node.id, node.lineno, idx, scope))
        return called


def _longest_parsable(lines: list[str]) -> tuple[ast.Module, int]:
    """Largest leading block of lines that parses; (tree, parsed line count).

    The answer is that of dropping one trailing line per failed attempt,
    found with fewer attempts: a bracket or triple-quoted string opened on
    line L and still open where parsing stopped makes every block of L or
    more lines fail as well, so the search resumes below line L.
    """
    k = len(lines)
    while True:  # k == 0 parses the empty module
        try:
            return ast.parse("\n".join(lines[:k])), k
        except SyntaxError as exc:
            still_open = exc.msg.endswith("was never closed") or exc.msg.startswith(
                "unterminated triple-quoted"
            )
            k = min(k, exc.lineno) - 1 if still_open and exc.lineno else k - 1


def _lex_tail_line(
    line: str, lineno: int, stmt_idx: int, scope: str
) -> tuple[list[_Binding], list[_Use]]:
    """Lexical def/use split of one (possibly incomplete) statement line.

    Names left of a plain ``=`` are assignment targets; everything to the
    right (or the whole line) contributes uses, with attribute chains kept
    on their head name.
    """
    code = strip_noncode(line)
    parts = _ASSIGN_SPLIT_RE.split(code, maxsplit=1)
    target_part, value_part = (parts[0], parts[1]) if len(parts) == 2 else ("", parts[0])

    uses: list[_Use] = []
    chains = map(_chain_parts, _CHAIN_RE.finditer(target_part))
    targets = [chain[0] for chain in chains if chain[0] not in KEYWORDS]

    called: list[str] = []
    for m in _CHAIN_RE.finditer(value_part):
        chain = _chain_parts(m)
        if chain[0] in KEYWORDS:
            continue
        end = m.end()
        if value_part[end : end + 1] == "(" or value_part[end : end + 2].strip() == "(":
            called.append(".".join(chain))
        uses.append(_Use(chain[0], lineno, stmt_idx, scope, tuple(chain[1:])))

    ctor = ""
    if targets and _CALL_HEAD_RE.match(value_part):
        ctor = ".".join(_chain_parts(_CHAIN_RE.search(value_part)))
    bindings = [
        _Binding(name, lineno, stmt_idx, scope, ctor=ctor, called=tuple(called))
        for name in targets
    ]
    return bindings, uses


def _chain_parts(match: re.Match[str]) -> list[str]:
    """The names of a matched attribute chain, without the spaces around
    its dots: ``x . y`` -> ``["x", "y"]``."""
    return re.sub(r"\s+", "", match.group(0)).split(".")


def build_dataflow_graph(file_text_up_to_cursor: str) -> DataflowGraph:
    """Graph over the prefix only; appending lines after the cursor can
    never change it.  Raises :class:`GraphUnavailable` for a prefix that
    is not text or nests too deeply to parse."""
    if not isinstance(file_text_up_to_cursor, str):
        raise GraphUnavailable("prefix is not text")
    lines = file_text_up_to_cursor.replace("\r\n", "\n").split("\n")
    while lines and lines[-1] == "":
        lines.pop()

    try:
        tree, parsed_count = _longest_parsable(lines)
        visitor = _PrefixVisitor()
        visitor.visit_module(tree)
    except RecursionError as exc:
        # An expression nested thousands deep (``a+a+...``): the parser or
        # the walk over its tree runs out of stack.
        raise GraphUnavailable(f"prefix nests too deeply ({exc})") from exc

    bindings = list(visitor.bindings)
    uses = list(visitor.uses)

    tail_lines = lines[parsed_count:]
    tail_scope = MODULE_SCOPE
    if tree.body and isinstance(
        tree.body[-1], (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ):
        first_code = next((ln for ln in tail_lines if ln.strip()), "")
        if first_code[:1] in (" ", "\t"):
            tail_scope = tree.body[-1].name

    tail_uses: list[_Use] = []
    next_idx = visitor.stmt_count
    for offset, line in enumerate(tail_lines):
        if not line.strip():
            continue
        line_bindings, line_uses = _lex_tail_line(
            line, parsed_count + offset + 1, next_idx, tail_scope
        )
        bindings.extend(line_bindings)
        tail_uses.extend(line_uses)
        next_idx += 1
    uses.extend(tail_uses)

    by_name: dict[str, list[_Binding]] = {}
    for b in bindings:
        by_name.setdefault(b.name, []).append(b)

    if tail_uses:
        final_uses = tail_uses
    else:
        last_idx = max((u.stmt_idx for u in uses), default=-1)
        final_uses = [u for u in uses if u.stmt_idx == last_idx]

    return DataflowGraph(
        bindings=bindings,
        uses=uses,
        by_name=by_name,
        final_uses=final_uses,
    )


def _reaching(
    bindings: dict[str, list[_Binding]], name: str, stmt_idx: int, scope: str
) -> _Binding | None:
    """Nearest preceding binding of ``name`` in the same scope, falling back
    to module scope; of two bindings in one statement, the first."""
    eligible = (
        b
        for b in bindings.get(name, ())
        if b.stmt_idx < stmt_idx and b.scope in (scope, MODULE_SCOPE)
    )
    return max(eligible, key=lambda b: (b.scope == scope, b.stmt_idx), default=None)


class _Collector:
    def __init__(self, graph: DataflowGraph):
        self.graph = graph
        self.collected: list[str] = []
        self._seen: set[str] = set()
        self._visited: set[tuple[str, int]] = set()

    def collect(self, name: str) -> None:
        if name and name not in self._seen:
            self._seen.add(name)
            self.collected.append(name)

    def walk(self, name: str, stmt_idx: int, scope: str, depth: int) -> None:
        if depth <= 0 or (name, stmt_idx) in self._visited:
            return
        self._visited.add((name, stmt_idx))
        b = _reaching(self.graph.by_name, name, stmt_idx, scope)
        if b is None:
            return
        self.collect(b.symbol)  # an import or def/class binding calls and aliases nothing
        for dotted in b.called:
            self.collect(dotted.split(".")[-1])
            self.walk(dotted.split(".")[0], b.stmt_idx, b.scope, depth - 1)
        for alias in b.aliases:
            self.walk(alias, b.stmt_idx, b.scope, depth - 1)

    def instance_class(self, name: str, stmt_idx: int, scope: str, depth: int) -> str:
        """Class name behind ``name``: constructor-call tracking plus direct
        references to an imported or locally defined class object."""
        if depth <= 0:
            return ""
        b = _reaching(self.graph.by_name, name, stmt_idx, scope)
        if b is None:
            return ""
        if b.symbol:
            return b.symbol
        for alias in b.aliases:
            resolved = self.instance_class(alias, b.stmt_idx, b.scope, depth - 1)
            if resolved:
                return resolved
        return ""


def dependency_names(graph: DataflowGraph) -> list[str]:
    """Names the cursor line's uses depend on, in collection order: plain
    names and ``Class.member`` / ``module.symbol`` pairs."""
    collector = _Collector(graph)
    for use in graph.final_uses:
        if use.chain:
            head = _reaching(graph.by_name, use.name, use.stmt_idx, use.scope)
            if head is not None and head.is_module:
                # A module attribute names a top-level symbol of that module.
                collector.collect(use.chain[0])
                collector.collect(f"{head.symbol}.{use.chain[0]}")
            else:
                cls = collector.instance_class(use.name, use.stmt_idx, use.scope, WALK_DEPTH)
                if cls:
                    collector.collect(cls)
                    collector.collect(f"{cls}.{use.chain[0]}")
        collector.walk(use.name, use.stmt_idx, use.scope, WALK_DEPTH)
    return collector.collected


def dataflow_retrieve(graph: DataflowGraph, kb: CodeKnowledgeBase) -> list[tuple[str, float]]:
    """At most one knowledge item reachable from the cursor line's uses.

    A dotted name matches an item's qualified name; a plain name matches
    its last segment.  Among all matches the one preferred by
    :func:`coderag.kb.name_match_key` wins: ClassFunction over Function
    over ClassVariable over GlobalVariable, then shorter qualified name,
    then item id.
    """
    matches = [
        item for item in map(kb.best_match, dependency_names(graph)) if item is not None
    ]
    if not matches:
        return []
    return [(min(matches, key=name_match_key).id, DATAFLOW_SCORE)]


def to_dot(graph: DataflowGraph) -> str:
    """DOT rendering of the def-use graph for debugging."""
    def node_id(node: FlowNode) -> str:
        return f"{node.name}_{node.line}_{node.kind.replace('-', '_')}"

    lines = ["digraph dataflow {"]
    for node in graph.nodes:
        shape = "box" if node.kind in ("definition", "import-binding") else "ellipse"
        lines.append(
            f'  {node_id(node)} [label="{node.name}@{node.line}\\n{node.kind}", shape={shape}];'
        )
    for src, dst in graph.edges:
        lines.append(f"  {node_id(src)} -> {node_id(dst)};")
    lines.append("}")
    return "\n".join(lines)
