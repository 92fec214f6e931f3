"""AST node types produced by the validator.

The tree is a plain tagged union of frozen dataclasses.  Two synthetic
containers exist alongside the user-visible ones:

* ``Curly`` corresponds one-to-one to a brace group typed by the author.
* ``Sequence`` is a run of siblings with no braces of its own: the top level
  of a formula, the two sides of an infix command, the body of a
  ``\\left``/``\\right`` pair, and multi-item matrix cells.

Keeping the two distinct is what makes the corrected-TeX round trip exact.
Equal ``Literal`` nodes may be one object; nodes are frozen, so that is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

AstNode = Union[
    "Literal", "Fun1", "Fun2", "Curly", "Sub", "Sup", "SubSup",
    "Infix", "Matrix", "Delimited", "Text", "Sequence", "IntentWrap",
]


@dataclass(frozen=True)
class Literal:
    """A single character or a zero-argument command token (kept with its backslash)."""

    token: str


@dataclass(frozen=True)
class Fun1:
    command: str
    arg: AstNode


@dataclass(frozen=True)
class Fun2:
    command: str
    arg1: AstNode
    arg2: AstNode


@dataclass(frozen=True)
class Curly:
    children: tuple[AstNode, ...]


@dataclass(frozen=True)
class Sub:
    base: AstNode
    sub: AstNode


@dataclass(frozen=True)
class Sup:
    base: AstNode
    sup: AstNode


@dataclass(frozen=True)
class SubSup:
    base: AstNode
    sub: AstNode
    sup: AstNode


@dataclass(frozen=True)
class Infix:
    """``left \\command right`` forms (\\over, \\choose, \\atop); sides are Sequences."""

    command: str
    left: AstNode
    right: AstNode


@dataclass(frozen=True)
class Matrix:
    """A tabular environment.  Rows may be ragged; cells are single nodes."""

    env: str
    rows: tuple[tuple[AstNode, ...], ...]


@dataclass(frozen=True)
class Delimited:
    """A ``\\left ... \\right`` pair; tokens are kept as written ("." for null)."""

    open: str
    close: str
    body: AstNode


@dataclass(frozen=True)
class Text:
    """Raw text payload; only ever appears as the argument of a text-class command."""

    content: str


@dataclass(frozen=True)
class Sequence:
    children: tuple[AstNode, ...]


@dataclass(frozen=True)
class IntentWrap:
    """The accessibility-annotation macro: a wrapped body plus the raw intent string."""

    body: AstNode
    intent_raw: str
    arg_map: tuple[tuple[str, str], ...]  # (formula identifier, intent identifier)
    # (reference name, codepoint span of its first ``$name`` in the parsed source)
    ref_spans: tuple[tuple[str, tuple[int, int]], ...] = field(compare=False)


def children_of(node: AstNode) -> tuple[AstNode, ...]:
    """All direct child nodes, in source order."""
    if isinstance(node, (Curly, Sequence)):
        return node.children
    if isinstance(node, Fun1):
        return (node.arg,)
    if isinstance(node, Fun2):
        return (node.arg1, node.arg2)
    if isinstance(node, Sub):
        return (node.base, node.sub)
    if isinstance(node, Sup):
        return (node.base, node.sup)
    if isinstance(node, SubSup):
        return (node.base, node.sub, node.sup)
    if isinstance(node, Infix):
        return (node.left, node.right)
    if isinstance(node, Matrix):
        return tuple(cell for row in node.rows for cell in row)
    if isinstance(node, Delimited):
        return (node.body,)
    if isinstance(node, IntentWrap):
        return (node.body,)
    return ()


def walk(node: AstNode) -> Iterator[AstNode]:
    """Depth-first pre-order traversal."""
    yield node
    for child in children_of(node):
        yield from walk(child)


def command_names(node: AstNode) -> Iterator[str]:
    """Every command name referenced anywhere in the tree (without backslash)."""
    for item in walk(node):
        if isinstance(item, Literal) and item.token.startswith("\\"):
            yield item.token[1:]
        elif isinstance(item, (Fun1, Infix)):
            yield item.command
        elif isinstance(item, Fun2):
            yield item.command
        elif isinstance(item, Matrix):
            yield item.env
        elif isinstance(item, Delimited):
            for tok in (item.open, item.close):
                if tok.startswith("\\"):
                    yield tok[1:]
        elif isinstance(item, IntentWrap):
            yield "intent"
