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
from .kb import CodeKnowledgeBase, name_match_key
from .lexing import KEYWORDS

WALK_DEPTH = 4
DATAFLOW_SCORE = float("inf")  # provenance sentinel; reranking ignores path scores

MODULE_SCOPE = ""

_CHAIN_RE = re.compile(r"[A-Za-z_]\w*(?:\s*\.\s*[A-Za-z_]\w*)*")
_ASSIGN_SPLIT_RE = re.compile(r"(?<![=!<>])=(?!=)")
_CALL_HEAD_RE = re.compile(r"^\s*[A-Za-z_]\w*(?:\s*\.\s*[A-Za-z_]\w*)*\s*\(")


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

    Statements inside a top-level def/class get that name as their scope;
    deeper nesting stays attributed to the same level-1 scope.
    """

    def __init__(self) -> None:
        self.bindings: list[_Binding] = []
        self.uses: list[_Use] = []
        self.stmt_count = 0
        self.top_level: list[ast.stmt] = []

    def visit_module(self, tree: ast.Module) -> None:
        self.top_level = list(tree.body)
        for stmt in tree.body:
            self._visit_stmt(stmt, MODULE_SCOPE)

    def _visit_stmt(self, stmt: ast.stmt, scope: str) -> None:
        idx = self.stmt_count
        self.stmt_count += 1

        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            self._bind_imports(stmt, idx, scope)
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            self.bindings.append(
                _Binding(stmt.name, stmt.lineno, idx, scope, is_def_stmt=True)
            )
            inner = stmt.name if scope == MODULE_SCOPE else scope
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for arg in self._all_args(stmt.args):
                    self.bindings.append(_Binding(arg.arg, stmt.lineno, idx, inner))
            for child in stmt.body:
                self._visit_stmt(child, inner)
            return

        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._bind_assignment(stmt, idx, scope)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            for name in self._target_names(stmt.target):
                self.bindings.append(_Binding(name, stmt.lineno, idx, scope))
            self._collect_uses(stmt.iter, idx, scope)
            self._visit_block(stmt.body, scope)
            self._visit_block(stmt.orelse, scope)
            return
        if isinstance(stmt, (ast.While, ast.If)):
            self._collect_uses(stmt.test, idx, scope)
            self._visit_block(stmt.body, scope)
            self._visit_block(stmt.orelse, scope)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._collect_uses(item.context_expr, idx, scope)
                if item.optional_vars is not None:
                    for name in self._target_names(item.optional_vars):
                        self.bindings.append(_Binding(name, stmt.lineno, idx, scope))
            self._visit_block(stmt.body, scope)
            return
        if isinstance(stmt, ast.Try):
            self._visit_block(stmt.body, scope)
            for handler in stmt.handlers:
                if handler.name:
                    self.bindings.append(
                        _Binding(handler.name, handler.lineno, self.stmt_count, scope)
                    )
                self._visit_block(handler.body, scope)
            self._visit_block(stmt.orelse, scope)
            self._visit_block(stmt.finalbody, scope)
            return

        # Leaf statements (Expr, Return, Raise, Assert, Delete, ...): uses only.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._collect_uses(child, idx, scope)

    def _visit_block(self, body: list[ast.stmt], scope: str) -> None:
        for child in body:
            self._visit_stmt(child, scope)

    @staticmethod
    def _all_args(args: ast.arguments) -> list[ast.arg]:
        out = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        if args.vararg:
            out.append(args.vararg)
        if args.kwarg:
            out.append(args.kwarg)
        return out

    @staticmethod
    def _target_names(target: ast.expr) -> list[str]:
        if isinstance(target, ast.Name):
            return [target.id]
        if isinstance(target, (ast.Tuple, ast.List)):
            out: list[str] = []
            for el in target.elts:
                if isinstance(el, ast.Name):
                    out.append(el.id)
            return out
        return []

    def _bind_imports(self, stmt: ast.Import | ast.ImportFrom, idx: int, scope: str) -> None:
        for alias in stmt.names:
            if alias.name == "*":
                continue
            is_module = isinstance(stmt, ast.Import)
            if is_module:
                local = alias.asname or alias.name.split(".")[0]
            else:
                local = alias.asname or alias.name
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
    def _dotted(expr: ast.expr) -> str | None:
        parts: list[str] = []
        node = expr
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            return ".".join(reversed(parts))
        return None

    def _bind_assignment(
        self, stmt: ast.Assign | ast.AnnAssign | ast.AugAssign, idx: int, scope: str
    ) -> None:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        else:
            targets = [stmt.target]
        value = stmt.value
        ctor = ""
        called: list[str] = []
        aliases: list[str] = []
        if value is not None:
            if isinstance(value, ast.Call):
                dotted = self._dotted(value.func)
                if dotted:
                    ctor = dotted
            for node in ast.walk(value):
                if isinstance(node, ast.Call):
                    dotted = self._dotted(node.func)
                    if dotted:
                        called.append(dotted)
            if isinstance(value, ast.Name):
                aliases.append(value.id)
            self._collect_uses(value, idx, scope)
        names: list[str] = []
        for target in targets:
            names.extend(self._target_names(target))
        for name in names:
            self.bindings.append(
                _Binding(
                    name,
                    stmt.lineno,
                    idx,
                    scope,
                    ctor=ctor,
                    called=tuple(called),
                    aliases=tuple(aliases),
                )
            )

    def _collect_uses(self, expr: ast.expr, idx: int, scope: str) -> None:
        """Record Name loads; attribute chains record the head with its chain."""
        skip: set[int] = set()
        for node in ast.walk(expr):
            if id(node) in skip:
                continue
            if isinstance(node, ast.Attribute):
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


def _strip_noncode(line: str) -> str:
    """Drop comments and string contents so lexical scans see only code."""
    out: list[str] = []
    i, n = 0, len(line)
    while i < n:
        ch = line[i]
        if ch == "#":
            break
        if ch in ("'", '"'):
            quote = ch
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    i += 1
                    break
                i += 1
            out.append(" ")
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def _lex_tail_line(
    line: str, lineno: int, stmt_idx: int, scope: str
) -> tuple[list[_Binding], list[_Use]]:
    """Lexical def/use split of one (possibly incomplete) statement line.

    Names left of a plain ``=`` are assignment targets; everything to the
    right (or the whole line) contributes uses, with attribute chains kept
    on their head name.
    """
    code = _strip_noncode(line)
    parts = _ASSIGN_SPLIT_RE.split(code, maxsplit=1)
    target_part, value_part = (parts[0], parts[1]) if len(parts) == 2 else ("", parts[0])

    bindings: list[_Binding] = []
    uses: list[_Use] = []
    target_names = [
        m.group(0).split(".")[0]
        for m in _CHAIN_RE.finditer(target_part)
        if m.group(0).split(".")[0] not in KEYWORDS
    ]

    called: list[str] = []
    for m in _CHAIN_RE.finditer(value_part):
        chain = re.sub(r"\s+", "", m.group(0)).split(".")
        if chain[0] in KEYWORDS:
            continue
        end = m.end()
        if value_part[end : end + 1] == "(" or value_part[end : end + 2].strip() == "(":
            called.append(".".join(chain))
        uses.append(_Use(chain[0], lineno, stmt_idx, scope, tuple(chain[1:])))

    ctor = ""
    if target_names and _CALL_HEAD_RE.match(value_part):
        first = _CHAIN_RE.search(value_part)
        if first:
            ctor = re.sub(r"\s+", "", first.group(0))
    for name in target_names:
        bindings.append(
            _Binding(name, lineno, stmt_idx, scope, ctor=ctor, called=tuple(called))
        )
    return bindings, uses


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
    if visitor.top_level and isinstance(
        visitor.top_level[-1], (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ):
        first_code = next((ln for ln in tail_lines if ln.strip()), "")
        if first_code[:1] in (" ", "\t"):
            tail_scope = visitor.top_level[-1].name

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
    to module scope."""
    candidates = bindings.get(name, ())
    best: _Binding | None = None
    for b in candidates:
        if b.stmt_idx >= stmt_idx:
            continue
        if b.scope != scope and b.scope != MODULE_SCOPE:
            continue
        if best is None or (b.scope == scope) > (best.scope == scope):
            best = b
        elif (b.scope == scope) == (best.scope == scope) and b.stmt_idx > best.stmt_idx:
            best = b
    return best


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
        if b.is_import:
            self.collect(b.origin.split(".")[-1])
            return
        if b.is_def_stmt:
            self.collect(b.name)
            return
        if b.ctor:
            self.collect(b.ctor.split(".")[-1])
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
        if b.is_import:
            return b.origin.split(".")[-1]
        if b.is_def_stmt:
            return b.name
        if b.ctor:
            return b.ctor.split(".")[-1]
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
            if head is not None and head.is_import and head.is_module:
                # A module attribute names a top-level symbol of that module.
                collector.collect(use.chain[0])
                collector.collect(f"{head.origin.split('.')[-1]}.{use.chain[0]}")
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
