"""AST node types produced by the validator.

The tree is a plain tagged union of frozen value classes, one class per shape:
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

from typing import Union

from .value import Value

AstNode = Union[
    "Literal", "Fun", "Curly", "Script", "Infix", "Matrix", "Delimited", "Text",
    "Sequence", "IntentWrap",
]


class Literal(Value):
    """A single character or a zero-argument command token (kept with its backslash)."""

    __slots__ = ("token",)


class Fun(Value):
    """A command and its arguments, one or two (as the registry's arity says)."""

    __slots__ = ("command", "args")


class Curly(Value):
    __slots__ = ("children",)


class Script(Value):
    """A base with a subscript, a superscript or both; an absent one is None."""

    __slots__ = ("base", "sub", "sup")


class Infix(Value):
    """``left \\command right`` forms (\\over, \\choose, \\atop); sides are Sequences."""

    __slots__ = ("command", "left", "right")


class Matrix(Value):
    """A tabular environment.  Rows may be ragged; cells are single nodes."""

    __slots__ = ("env", "rows")


class Delimited(Value):
    """A ``\\left ... \\right`` pair; tokens are kept as written ("." for null)."""

    __slots__ = ("open", "close", "body")


class Text(Value):
    """Raw text payload; only ever appears as the argument of a text-class command."""

    __slots__ = ("content",)


class Sequence(Value):
    __slots__ = ("children",)


class IntentWrap(Value):
    """The accessibility-annotation macro: a wrapped body plus the raw intent string.

    `arg_map` holds (formula identifier, intent identifier) pairs, `ref_spans`
    (reference name, codepoint span of its first ``$name`` in the parsed
    source) pairs; the spans are not part of the value."""

    __slots__ = ("body", "intent_raw", "arg_map", "ref_spans")

    def _key(self) -> tuple:
        return self.body, self.intent_raw, self.arg_map
