"""Intraprocedural CFG construction over the lint AST core.

One :class:`Block` per simple statement; structured statements
(``if``/``while``/``for``/``try``/``with``/``match``) anchor a block
holding only their *header* (test, iterator, context expressions) with
their sub-statement bodies in blocks of their own.  Edges carry a kind:

* ``flow``/``true``/``false`` — ordinary and branch fall-through;
* ``back`` — loop back-edges (including ``continue``), the edges the
  acyclic analyses drop;
* ``exc`` — a statement that may raise, to the innermost handler
  dispatch, ``finally`` entry, or function exit;
* ``break``/``return`` — early structured exits.

``finally`` bodies are built exactly once; their exit fans out to every
continuation the enclosed code can request (normal fall-through, the
propagating exception, break/continue/return targets).  That is an
over-approximation — a path may appear that pairs the wrong entry with
the wrong exit — which is the safe direction for the must-analyses
(REP204/REP205) built on top: extra paths can only make them stricter.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

__all__ = ["CFG", "Block", "build_cfg", "function_cfgs", "header_exprs", "module_defs"]


class Block:
    """One basic block: an anchoring AST node plus its edges."""

    __slots__ = ("index", "kind", "node", "succs", "preds")

    def __init__(self, index: int, kind: str, node: ast.AST | None) -> None:
        self.index = index
        #: "entry", "exit", "stmt", "branch", "loop", "join", "dispatch",
        #: "finally" or "handler".
        self.kind = kind
        self.node = node
        self.succs: list[tuple[int, str]] = []
        self.preds: list[tuple[int, str]] = []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        what = type(self.node).__name__ if self.node is not None else self.kind
        return f"Block({self.index}, {what}, ->{[s for s, _ in self.succs]})"


class CFG:
    """The control-flow graph of one function."""

    __slots__ = ("name", "blocks", "entry", "exit")

    def __init__(self, name: str, blocks: list[Block], entry: int, exit: int) -> None:
        self.name = name
        self.blocks = blocks
        self.entry = entry
        self.exit = exit

    def reachable(
        self,
        starts: Iterator[int] | list[int] | set[int],
        *,
        forward: bool = True,
        include_back: bool = True,
        include_starts: bool = False,
    ) -> set[int]:
        """Block indices reachable from ``starts`` along (or against)
        edges; ``include_back=False`` drops loop back-edges, giving
        "later on some acyclic path" rather than plain reachability."""
        seen: set[int] = set()
        frontier = list(starts)
        first = set(frontier)
        while frontier:
            idx = frontier.pop()
            edges = self.blocks[idx].succs if forward else self.blocks[idx].preds
            for nxt, kind in edges:
                if not include_back and kind == "back":
                    continue
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen | first if include_starts else seen

    def live(self) -> set[int]:
        """Blocks reachable from the entry block."""
        return self.reachable([self.entry], include_starts=True)


@dataclass(slots=True)
class _Frame:
    """Where the enclosing construct routes nonlocal control transfers."""

    raise_to: int
    return_to: int
    break_to: int | None = None
    continue_to: int | None = None


class _Builder:
    def __init__(self, name: str, body: list[ast.stmt]) -> None:
        self.name = name
        self.body = body
        self.blocks: list[Block] = []
        self.entry = self._new("entry", None)
        self.exit = self._new("exit", None)

    def build(self) -> CFG:
        top = _Frame(raise_to=self.exit.index, return_to=self.exit.index)
        end = self._seq(self.body, self.entry, top, "flow")
        if end is not None:
            self._edge(end, self.exit, "flow")
        return CFG(self.name, self.blocks, self.entry.index, self.exit.index)

    # -- graph primitives ---------------------------------------------------

    def _new(self, kind: str, node: ast.AST | None) -> Block:
        block = Block(len(self.blocks), kind, node)
        self.blocks.append(block)
        return block

    def _edge(self, src: Block | None, dst: Block | int, kind: str) -> None:
        if src is None:
            return
        if isinstance(dst, int):
            dst = self.blocks[dst]
        if (dst.index, kind) not in src.succs:
            src.succs.append((dst.index, kind))
            dst.preds.append((src.index, kind))

    def _maybe_exc(self, block: Block, node: ast.AST | None, frame: _Frame) -> None:
        if node is not None and _can_raise(node):
            self._edge(block, frame.raise_to, "exc")

    # -- statement lowering -------------------------------------------------

    def _seq(
        self, stmts: list[ast.stmt], pred: Block | None, frame: _Frame, kind: str
    ) -> Block | None:
        for stmt in stmts:
            pred = self._stmt(stmt, pred, frame, kind)
            kind = "flow"
        return pred

    def _stmt(
        self, stmt: ast.stmt, pred: Block | None, frame: _Frame, kind: str
    ) -> Block | None:
        if isinstance(stmt, ast.If):
            return self._if(stmt, pred, frame, kind)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._loop(stmt, pred, frame, kind)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, pred, frame, kind)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, pred, frame, kind)
        if isinstance(stmt, ast.Match):
            return self._match(stmt, pred, frame, kind)

        block = self._new("stmt", stmt)
        self._edge(pred, block, kind)
        if isinstance(stmt, ast.Return):
            self._maybe_exc(block, stmt.value, frame)
            self._edge(block, frame.return_to, "return")
            return None
        if isinstance(stmt, ast.Raise):
            self._edge(block, frame.raise_to, "exc")
            return None
        if isinstance(stmt, ast.Break):
            if frame.break_to is not None:
                self._edge(block, frame.break_to, "break")
            return None
        if isinstance(stmt, ast.Continue):
            if frame.continue_to is not None:
                self._edge(block, frame.continue_to, "back")
            return None
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return block  # a definition: no control effects of its own
        self._maybe_exc(block, stmt, frame)
        return block

    def _if(
        self, stmt: ast.If, pred: Block | None, frame: _Frame, kind: str
    ) -> Block | None:
        head = self._new("branch", stmt)
        self._edge(pred, head, kind)
        self._maybe_exc(head, stmt.test, frame)
        join = self._new("join", None)
        body_end = self._seq(stmt.body, head, frame, "true")
        self._edge(body_end, join, "flow")
        if stmt.orelse:
            else_end = self._seq(stmt.orelse, head, frame, "false")
            self._edge(else_end, join, "flow")
        else:
            self._edge(head, join, "false")
        return join if join.preds else None

    def _loop(
        self,
        stmt: ast.While | ast.For | ast.AsyncFor,
        pred: Block | None,
        frame: _Frame,
        kind: str,
    ) -> Block | None:
        head = self._new("loop", stmt)
        self._edge(pred, head, kind)
        header_expr = stmt.test if isinstance(stmt, ast.While) else stmt.iter
        self._maybe_exc(head, header_expr, frame)
        after = self._new("join", None)
        inner = _Frame(
            raise_to=frame.raise_to,
            return_to=frame.return_to,
            break_to=after.index,
            continue_to=head.index,
        )
        body_end = self._seq(stmt.body, head, inner, "true")
        self._edge(body_end, head, "back")
        if stmt.orelse:
            else_end = self._seq(stmt.orelse, head, frame, "false")
            self._edge(else_end, after, "flow")
        else:
            self._edge(head, after, "false")
        return after

    def _with(
        self,
        stmt: ast.With | ast.AsyncWith,
        pred: Block | None,
        frame: _Frame,
        kind: str,
    ) -> Block | None:
        head = self._new("stmt", stmt)
        self._edge(pred, head, kind)
        for item in stmt.items:
            self._maybe_exc(head, item.context_expr, frame)
        return self._seq(stmt.body, head, frame, "flow")

    def _match(
        self, stmt: ast.Match, pred: Block | None, frame: _Frame, kind: str
    ) -> Block | None:
        head = self._new("branch", stmt)
        self._edge(pred, head, kind)
        self._maybe_exc(head, stmt.subject, frame)
        join = self._new("join", None)
        for case in stmt.cases:
            end = self._seq(case.body, head, frame, "true")
            self._edge(end, join, "flow")
        self._edge(head, join, "false")  # no case matched
        return join

    def _try(
        self, stmt: ast.Try, pred: Block | None, frame: _Frame, kind: str
    ) -> Block | None:
        after = self._new("join", None)
        has_finally = bool(stmt.finalbody)

        fin_entry: Block | None = None
        if has_finally:
            fin_entry = self._new("finally", None)
            fin_end = self._seq(stmt.finalbody, fin_entry, frame, "flow")
            if fin_end is not None:
                # The single finally body continues wherever the enclosed
                # code was headed: fall-through, the in-flight exception,
                # or a break/continue/return that entered it.
                self._edge(fin_end, after, "flow")
                self._edge(fin_end, frame.raise_to, "exc")
                if frame.break_to is not None:
                    self._edge(fin_end, frame.break_to, "break")
                if frame.continue_to is not None:
                    self._edge(fin_end, frame.continue_to, "back")
                self._edge(fin_end, frame.return_to, "return")
        normal_to = fin_entry if fin_entry is not None else after
        outward = fin_entry.index if fin_entry is not None else frame.raise_to

        dispatch: Block | None = None
        if stmt.handlers:
            dispatch = self._new("dispatch", None)
            body_raise = dispatch.index
        else:
            body_raise = outward

        inner = _Frame(
            raise_to=body_raise,
            return_to=fin_entry.index if fin_entry is not None else frame.return_to,
            break_to=(
                fin_entry.index
                if fin_entry is not None and frame.break_to is not None
                else frame.break_to
            ),
            continue_to=(
                fin_entry.index
                if fin_entry is not None and frame.continue_to is not None
                else frame.continue_to
            ),
        )
        body_end = self._seq(stmt.body, pred, inner, kind)
        # else-clause and handler bodies raise past this try's handlers.
        post = _Frame(
            raise_to=outward,
            return_to=inner.return_to,
            break_to=inner.break_to,
            continue_to=inner.continue_to,
        )
        if stmt.orelse:
            body_end = self._seq(stmt.orelse, body_end, post, "flow")
        self._edge(body_end, normal_to, "flow")

        if dispatch is not None:
            for handler in stmt.handlers:
                hblock = self._new("handler", handler)
                self._edge(dispatch, hblock, "exc")
                hend = self._seq(handler.body, hblock, post, "flow")
                self._edge(hend, normal_to, "flow")
            self._edge(dispatch, outward, "exc")  # no handler matched
        return after if after.preds else None


def _can_raise(node: ast.AST) -> bool:
    """A conservative "may this raise" test: calls, raises and asserts
    (attribute/subscript misses raise too, but counting those would give
    nearly every statement an exception edge and drown the signal)."""
    stack = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, (ast.Call, ast.Raise, ast.Assert)):
            return True
        if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # deferred bodies do not execute here
        stack.extend(ast.iter_child_nodes(cur))
    return False


def header_exprs(node: ast.AST | None) -> list[ast.expr]:
    """The expressions a structured statement's anchor block evaluates
    (its body statements live in their own blocks)."""
    if node is None:
        return []
    if isinstance(node, ast.If) or isinstance(node, ast.While):
        return [node.test]
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return [node.iter]
    if isinstance(node, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in node.items]
    if isinstance(node, ast.Match):
        return [node.subject]
    if isinstance(node, ast.ExceptHandler):
        return [node.type] if node.type is not None else []
    return []


def block_exprs(block: Block) -> Iterator[ast.AST]:
    """Every AST node the block actually evaluates (headers only for
    structured statements, whole statement otherwise), excluding nested
    function/class bodies."""
    node = block.node
    if node is None:
        return
    if isinstance(
        node,
        (ast.If, ast.While, ast.For, ast.AsyncFor, ast.With, ast.AsyncWith,
         ast.Match, ast.ExceptHandler),
    ):
        roots: list[ast.AST] = list(header_exprs(node))
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        roots = []
    else:
        roots = [node]
    stack = roots
    while stack:
        cur = stack.pop()
        yield cur
        if not isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(cur))


def build_cfg(
    scope: ast.FunctionDef | ast.AsyncFunctionDef | ast.Module, name: str | None = None
) -> CFG:
    """The CFG of one def's body (or, given a name, the module body's)."""
    return _Builder(name or scope.name, scope.body).build()


def module_defs(
    tree: ast.Module,
) -> Iterator[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """(qualname, def node) for module-level functions and methods —
    the granularity the dataflow summaries use for function ids."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, defs):
                    yield f"{node.name}.{sub.name}", sub


def function_cfgs(
    tree: ast.Module,
) -> Iterator[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef, CFG]]:
    """(qualname, def node, CFG) for every module-level def and method."""
    for qual, fn in module_defs(tree):
        yield qual, fn, build_cfg(fn, qual)
