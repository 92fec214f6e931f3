"""AST node types produced by the validator.

The tree is a plain tagged union of frozen dataclasses, one class per shape:
a command with its arguments is a ``Fun``, a base with its scripts a
``Script``.  Two synthetic containers exist alongside the user-visible ones:

* ``Curly`` corresponds one-to-one to a brace group typed by the author.
* ``Sequence`` is a run of siblings with no braces of its own: the top level
  of a formula, the two sides of an infix command, the body of a
  ``\\left``/``\\right`` pair, and multi-item matrix cells.

Keeping the two distinct is what makes the corrected-TeX round trip exact.
Equal ``Literal`` nodes may be one object; nodes are frozen, so that is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

AstNode = Union[
    "Literal", "Fun", "Curly", "Script", "Infix", "Matrix", "Delimited", "Text",
    "Sequence", "IntentWrap",
]


@dataclass(frozen=True)
class Literal:
    """A single character or a zero-argument command token (kept with its backslash)."""

    token: str


@dataclass(frozen=True)
class Fun:
    """A command and its arguments, one or two (as the registry's arity says)."""

    command: str
    args: tuple[AstNode, ...]

    def __eq__(self, other):  # not via a (command, args) tuple: a recursion level less per command
        return type(other) is Fun and self.command == other.command and self.args == other.args


@dataclass(frozen=True)
class Curly:
    children: tuple[AstNode, ...]


@dataclass(frozen=True)
class Script:
    """A base with a subscript, a superscript or both; an absent one is None."""

    base: AstNode
    sub: AstNode | None
    sup: AstNode | None


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
