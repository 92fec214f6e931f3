"""Accessibility intent expressions: grammar validation and MathML injection.

The expression language is small: concepts, numbers, ``$name`` references,
``:kind`` structure markers, and applications with an optional ``@hint``.
Annotated formulas carry the raw expression through to the output's
``intent`` attribute unchanged; references additionally pin ``arg``
attributes onto the identifier tokens they name.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import NoReturn, Union

from .diagnostics import (
    E_INTENT_AMBIGUOUS_REF,
    E_INTENT_SYNTAX,
    E_INTENT_UNBOUND_REF,
    E_TOO_DEEP,
    IntentError,
)
from .mathml import MathMLNode
from .parser import MAX_DEPTH
from .registry import DIGITS
from .value import Value

HINTS = frozenset({
    "prefix", "infix", "postfix", "function", "silent",
    "decimal-comma", "thousands-comma",
})
STRUCTURE_KINDS = frozenset({"common", "structure", "chemistry", "matrix"})

# Pragmatic ASCII subset of the XML NCName production: no colon, no leading
# digit; hyphen, dot, and underscore allowed after the first character.
_NCNAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*")
_DIGITS = re.compile(r"[0-9]+")

IntentExpr = Union["Concept", "Number", "Reference", "Structure", "Application"]


class Concept(Value):
    __slots__ = ("name",)


class Number(Value):
    __slots__ = ("value", "negative")


class Reference(Value):
    __slots__ = ("name",)


class Structure(Value):
    __slots__ = ("kind",)


class Application(Value):
    __slots__ = ("head", "hint", "args")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.refs: dict[str, tuple[int, int]] = {}  # each reference's first `$name`

    def fail(self, message: str, start: int | None = None,
             code: str = E_INTENT_SYNTAX) -> NoReturn:
        at = self.pos if start is None else start
        raise IntentError(code, message, (at, self.pos), self.text)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def ncname(self, what: str) -> str:
        m = _NCNAME.match(self.text, self.pos)
        if not m:
            self.fail(f"expected {what}")
        self.pos = m.end()
        return m.group(0)


def parse_intent(text: str) -> IntentExpr:
    """Parse a full intent expression; the whole input must match."""
    return _parse_value(text)[0]


def _parse_value(text: str) -> tuple[IntentExpr, dict[str, tuple[int, int]]]:
    """The expression `text` and the span of each reference's first ``$name``."""
    scanner = _Scanner(text)
    scanner.skip_ws()
    expr = _parse_intent(scanner)
    scanner.skip_ws()
    if scanner.pos != len(text):
        scanner.fail("trailing input after intent expression")
    return expr, scanner.refs


def _parse_intent(s: _Scanner, depth: int = 0) -> IntentExpr:
    """The expression at the scanner, inside `depth` applications."""
    expr = _parse_primary(s)
    # application := intent hint? '(' arguments? ')'   (may chain: f(x)(y))
    while True:
        s.skip_ws()
        hint: str | None = None
        if s.peek() == "@":
            s.pos += 1
            start = s.pos
            name = s.ncname("hint name")
            if name not in HINTS:
                s.fail(f"unknown hint {name!r}", start - 1)
            hint = name
            s.skip_ws()
            if s.peek() != "(":
                s.fail("hint must be followed by an argument list")
        if s.peek() != "(":
            return expr
        s.pos += 1
        if depth == MAX_DEPTH:
            s.fail(f"nesting exceeds {MAX_DEPTH} levels", s.pos - 1, E_TOO_DEEP)
        args: list[IntentExpr] = []
        s.skip_ws()
        if s.peek() != ")":
            while True:
                args.append(_parse_intent(s, depth + 1))
                s.skip_ws()
                if s.take(","):
                    s.skip_ws()
                    continue
                break
        if not s.take(")"):
            s.fail("expected ')'")
        expr = Application(expr, hint, tuple(args))


def _parse_primary(s: _Scanner) -> IntentExpr:
    ch = s.peek()
    if ch == "$":
        s.pos += 1
        name = s.ncname("reference name after '$'")
        s.refs.setdefault(name, (s.pos - len(name) - 1, s.pos))
        return Reference(name)
    if ch == ":":
        s.pos += 1
        start = s.pos
        name = s.ncname("structure kind after ':'")
        if name not in STRUCTURE_KINDS:
            s.fail(f"unknown structure kind {name!r}", start - 1)
        return Structure(name)
    if ch == "-" or ch in DIGITS:
        return _parse_number(s)
    if _NCNAME.match(s.text, s.pos):
        return Concept(s.ncname("concept"))
    s.fail("expected an intent expression")


def _parse_number(s: _Scanner) -> Number:
    negative = s.take("-")
    m = _DIGITS.match(s.text, s.pos)
    if not m:
        s.fail("expected digits")
    s.pos = m.end()
    value = m.group(0)
    if s.peek() == ".":
        s.pos += 1
        frac = _DIGITS.match(s.text, s.pos)
        if not frac:
            s.fail("expected digits after '.'")
        s.pos = frac.end()
        value += "." + frac.group(0)
    return Number(value, negative)


# -- the \intent macro's option block -----------------------------------


def parse_macro(raw: str) -> tuple[str, tuple[tuple[str, str], ...],
                                   dict[str, tuple[int, int]]]:
    """Parse ``intent='...'[, arg='a=x,b=y']`` from the macro's second argument.

    Returns the intent value, whose grammar is checked, the arg binding, and
    where each reference is first written in `raw`, as a codepoint span of
    its ``$name`` (or ``\\$name``).  ``\\$`` inside the quoted value is
    normalized to ``$`` (both spellings appear in the wild).  Errors are
    located in `raw`.
    """
    options = _macro_options(raw)
    binding = _in_value(_parse_arg_binding, *options.get("arg", ("", 0, [])), raw)
    value, start, escapes = options["intent"]
    _, refs = _in_value(_parse_value, value, start, escapes, raw)
    return value, binding, {name: _in_raw(span, start, escapes) for name, span in refs.items()}


def _macro_options(raw: str) -> dict[str, tuple[str, int, list[int]]]:
    """Each option's value, the codepoint where it starts in `raw`, and its escapes."""
    scanner = _Scanner(raw)
    values: dict[str, tuple[str, int, list[int]]] = {}
    scanner.skip_ws()
    while scanner.pos < len(raw):
        key_start = scanner.pos
        key = scanner.ncname("option name")
        if key not in ("intent", "arg"):
            scanner.fail(f"unknown option {key!r}", key_start)
        scanner.skip_ws()
        if not scanner.take("="):
            scanner.fail("expected '=' after option name")
        scanner.skip_ws()
        start = scanner.pos + 1
        value, escapes = _quoted(scanner)
        if key in values:
            scanner.fail(f"duplicate {key} option", key_start)
        values[key] = (value, start, escapes)
        scanner.skip_ws()
        if scanner.take(","):
            scanner.skip_ws()
            continue
        break
    if scanner.pos != len(raw):
        scanner.fail("trailing input in intent options")
    if "intent" not in values:
        scanner.fail("missing intent='...' option", 0)
    return values


def _in_raw(span: tuple[int, int], start: int, escapes: list[int]) -> tuple[int, int]:
    """`span` of a value quoted from codepoint `start`, in the text it was quoted from."""
    return (start + span[0] + bisect_left(escapes, span[0]),
            start + span[1] + bisect_left(escapes, span[1]))


def _in_value(parse, value: str, start: int, escapes: list[int], raw: str):
    """`parse(value)`, where `value` was quoted from codepoint `start` of `raw`
    with the `escapes` of `_quoted`; its errors are located in `raw`."""
    try:
        return parse(value)
    except IntentError as exc:
        raise IntentError(exc.code, exc.message, _in_raw(exc.span, start, escapes), raw) from None


def _quoted(s: _Scanner) -> tuple[str, list[int]]:
    """A single-quoted value, each ``\\$`` read as ``$``, and where those ``$`` are."""
    if not s.take("'"):
        s.fail("expected single-quoted value")
    chars: list[str] = []
    escapes: list[int] = []
    while True:
        ch = s.peek()
        if ch == "":
            s.fail("unterminated quoted value")
        if ch == "'":
            s.pos += 1
            return "".join(chars), escapes
        if ch == "\\" and s.pos + 1 < len(s.text) and s.text[s.pos + 1] == "$":
            escapes.append(len(chars))
            chars.append("$")
            s.pos += 2
            continue
        chars.append(ch)
        s.pos += 1


def _parse_arg_binding(text: str) -> tuple[tuple[str, str], ...]:
    if not text.strip():
        return ()
    scanner = _Scanner(text)
    pairs: list[tuple[str, str]] = []
    seen: set[str] = set()
    scanner.skip_ws()
    while True:
        formula = scanner.ncname("formula identifier")
        if formula in seen:
            scanner.fail(f"duplicate formula identifier {formula!r}")
        seen.add(formula)
        scanner.skip_ws()
        if not scanner.take("="):
            scanner.fail("expected '=' in arg binding")
        scanner.skip_ws()
        intent_name = scanner.ncname("intent identifier")
        pairs.append((formula, intent_name))
        scanner.skip_ws()
        if scanner.take(","):
            scanner.skip_ws()
            continue
        break
    if scanner.pos != len(text):
        scanner.fail("trailing input in arg binding")
    return tuple(pairs)


# -- attribute injection --------------------------------------------------


def apply_intent(node, subtree: MathMLNode) -> MathMLNode:
    """Attach ``intent``/``arg`` attributes to a generated MathML subtree.

    `node` is the annotation macro's AST node (an ``IntentWrap``).  The raw
    expression lands on the subtree root verbatim (token roots get an mrow
    to host it).  Every ``$name`` reference must resolve to exactly one
    identifier token, by text, left-to-right depth-first; the macro's arg
    binding maps formula identifiers to intent identifiers when they differ.
    A reference that does not raises `IntentError` at its first ``$name``: a
    codepoint span of the parsed formula, with no text (see `within`).
    """
    intent_raw = node.intent_raw
    root = subtree
    if root.is_token():
        root = MathMLNode("mrow", {}, [subtree])
    elif not root.children:  # an empty element, perhaps a shared leaf: edit a copy
        root = MathMLNode(root.element, dict(root.attributes))
    root.attributes["intent"] = intent_raw

    by_intent_name: dict[str, list[str]] = {}
    for formula_ident, intent_ident in node.arg_map:
        by_intent_name.setdefault(intent_ident, []).append(formula_ident)

    for name, span in node.ref_spans:  # each reference once, in document order
        targets = by_intent_name.get(name, [name])
        matches = [  # (parent, index): the token is replaced, as it may be shared
            (parent, i) for parent in root.iter() for i, tok in enumerate(parent.children)
            if tok.element == "mi" and tok.text in targets
        ]
        if not matches:
            raise IntentError(
                E_INTENT_UNBOUND_REF,
                f"intent reference ${name} matches no identifier in the formula", span)
        if len(matches) > 1:
            raise IntentError(
                E_INTENT_AMBIGUOUS_REF,
                f"intent reference ${name} matches {len(matches)} identifiers", span)
        parent, i = matches[0]
        tok = parent.children[i]
        parent.children[i] = MathMLNode(tok.element, {**tok.attributes, "arg": name}, [], tok.text)
    return root
