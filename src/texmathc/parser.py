"""Whitelist validation of LaTeX math and corrected-TeX output.

The grammar is realized as recursive descent with ordered choice and no
backtracking across brace groups, so every failure can point at the exact
offending token.  One successful parse yields the tree used both for
validation verdicts and for MathML generation.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter

from . import intent as intent_mod
from .diagnostics import (
    E_AMBIGUOUS_INFIX,
    E_BAD_DELIM,
    E_BAD_ENV,
    E_CHEM_SYNTAX,
    E_DOUBLE_SCRIPT,
    E_EMPTY_ARG,
    E_TOO_DEEP,
    E_UNBALANCED_BRACE,
    E_UNKNOWN_COMMAND,
    ERROR,
    W_DEPRECATED,
    ChemError,
    Diagnostic,
    DiagnosticError,
    IntentError,
    byte_offsets,
    warning,
)
from .mhchem import expand
from .nodes import (
    AstNode,
    Curly,
    Delimited,
    Fun1,
    Fun2,
    Infix,
    IntentWrap,
    Literal,
    Matrix,
    Sequence,
    Sub,
    SubSup,
    Sup,
    Text,
)
from .registry import CommandSpec, Registry

MAX_DEPTH = 128

# Single characters accepted as \left / \right delimiters without a backslash.
CHAR_DELIMS = frozenset("()[]|/.")

# Arity-0 commands with these translation functions act as infix operators.
INFIX_FNS = frozenset({"fraction", "binom", "atop"})

# Commands whose argument is raw text rather than math.
RAW_ARG_FNS = frozenset({"text", "operatorname"})

# The chemistry commands, expanded in place when chemistry is allowed.
CHEM_COMMANDS = frozenset({"ce", "pu"})

# One alternative per token kind, named after it; a command's value is its
# name without the backslash: ASCII letters, one other character, or none at
# the end of the input.  Whitespace (`str.isspace`) matches nothing.
_TOKEN = re.compile(r"(?P<newrow>\\\\)|\\(?P<cmd>[A-Za-z]+|.?)|(?P<lbrace>\{)|(?P<rbrace>\})"
                    r"|(?P<sup>\^)|(?P<sub>_)|(?P<amp>&)|(?P<char>\S)", re.S)

# The tokens that end a sequence of each construct, besides eof.
_STOP_TOP: frozenset[str] = frozenset()
_STOP_GROUP = frozenset({"rbrace"})
_STOP_FENCE = frozenset({"right"})
_STOP_CELL = frozenset({"amp", "newrow", "end"})

# One shared Literal per token text (nodes are frozen, so sharing is safe).
# Only whitelisted characters and arity-0 commands are put in it.
_LITERALS: dict[str, Literal] = {}

_BRACE_SCAN = re.compile(r"\\.|[{}]", re.S)
_CMD_TAIL = re.compile(r"\\[A-Za-z]+$")
_START = attrgetter("start")


@dataclass(slots=True)
class Token:
    kind: str  # cmd, char, lbrace, rbrace, sup, sub, amp, newrow, eof
    value: str
    start: int  # codepoint offsets into the source
    end: int


@dataclass(frozen=True)
class ParseResult:
    """Either an AST (root Sequence) or a non-empty error list; warnings ride along."""

    ast: Sequence | None
    errors: tuple[Diagnostic, ...]
    warnings: tuple[Diagnostic, ...]

    @property
    def ok(self) -> bool:
        return self.ast is not None

    @property
    def diagnostics(self) -> tuple[Diagnostic, ...]:
        return self.errors + self.warnings


class _Fail(Exception):
    def __init__(self, code: str, message: str, span: tuple[int, int]):
        super().__init__(message)
        self.code = code
        self.message = message
        self.span = span  # codepoints


def _collapse_arg(node: AstNode) -> AstNode:
    """Arguments written as {x}, {{x}}, ... are the same argument."""
    while isinstance(node, Curly) and len(node.children) == 1:
        node = node.children[0]
    return node


def tokenize(source: str) -> list[Token]:
    """Total tokenization: any input yields a token list ending in eof."""
    toks = [Token(m.lastgroup, m[m.lastindex], m.start(), m.end())
            for m in _TOKEN.finditer(source)]
    toks.append(Token("eof", "", len(source), len(source)))
    return toks


def closing_brace(text: str, start: int) -> int:
    """Index of the ``}`` matching the ``{`` at `start`, or -1 when unclosed.

    A backslash escapes the character after it, so ``\\{`` and ``\\}`` do
    not count.
    """
    depth = 0
    for m in _BRACE_SCAN.finditer(text, start):
        if m.group() == "{":
            depth += 1
        elif m.group() == "}":
            depth -= 1
            if depth == 0:
                return m.start()
    return -1


class _Parser:
    def __init__(self, source: str, registry: Registry, allow_chem: bool):
        self.source = source
        self.registry = registry
        self.allow_chem = allow_chem
        self.toks = tokenize(source)
        self.i = 0
        self.depth = 0
        self.warnings: list[tuple[str, tuple[int, int]]] = []  # message, codepoint span

    # -- token plumbing ------------------------------------------------

    def peek(self) -> Token:
        return self.toks[self.i]

    def advance(self) -> Token:
        tok = self.toks[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def fail(self, code: str, message: str, tok: Token) -> None:
        raise _Fail(code, message, (tok.start, tok.end))

    def enter(self, tok: Token) -> None:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.fail(E_TOO_DEEP, f"nesting exceeds {MAX_DEPTH} levels", tok)

    def leave(self) -> None:
        self.depth -= 1

    # -- grammar -------------------------------------------------------

    def parse_formula(self) -> Sequence:
        items = self.sequence(_STOP_TOP, eof_ok=True)
        tok = self.peek()
        if tok.kind != "eof":  # pragma: no cover - sequence consumes to eof
            self.fail(E_UNBALANCED_BRACE, "unexpected trailing input", tok)
        return Sequence(tuple(items))

    def sequence(self, stop: frozenset[str], eof_ok: bool,
                 in_infix: bool = False) -> list[AstNode]:
        items: list[AstNode] = []
        toks = self.toks
        while True:
            tok = toks[self.i]
            kind = tok.kind
            if kind == "cmd" and tok.value in ("right", "end"):
                kind = tok.value
            if kind == "eof":
                if eof_ok:
                    return items
                if "right" in stop:
                    self.fail(E_BAD_DELIM, "\\left without matching \\right", tok)
                if "end" in stop:
                    self.fail(E_BAD_ENV, "\\begin without matching \\end", tok)
                self.fail(E_UNBALANCED_BRACE, "missing closing brace", tok)
            if kind in ("rbrace", "amp", "newrow", "right", "end"):
                if kind in stop:
                    return items
                if kind == "rbrace":
                    if "right" in stop:
                        self.fail(E_BAD_DELIM, "missing \\right before closing brace", tok)
                    self.fail(E_UNBALANCED_BRACE, "unexpected closing brace", tok)
                if kind in ("amp", "newrow"):
                    self.fail(E_BAD_ENV, "alignment token outside environment", tok)
                if kind == "right":
                    self.fail(E_BAD_DELIM, "\\right without matching \\left", tok)
                self.fail(E_BAD_ENV, "\\end without matching \\begin", tok)
            if kind == "cmd":
                if self.allow_chem and tok.value in CHEM_COMMANDS:
                    self.expand_chem(braced=False)
                    continue
                spec = self.registry.lookup(tok.value)
                if spec is not None and spec.arity == 0 and spec.translation_fn in INFIX_FNS:
                    if in_infix:
                        self.fail(E_AMBIGUOUS_INFIX,
                                  f"multiple infix commands in one group: \\{tok.value}", tok)
                    self.advance()
                    self.note_deprecated(spec, tok)
                    right = self.sequence(stop, eof_ok, in_infix=True)
                    return [Infix(tok.value, Sequence(tuple(items)), Sequence(tuple(right)))]
            items.append(self.item())

    def item(self) -> AstNode:
        """An atom (group, character or command) and its scripts."""
        toks = self.toks
        tok = toks[self.i]
        kind = tok.kind
        if kind == "lbrace":
            node: AstNode = self.group()
        elif kind == "char":
            node = self.char_literal()
        elif kind == "cmd":
            node = self.command()
        elif kind in ("sup", "sub"):
            self.fail(E_EMPTY_ARG, "script without a base", tok)
        else:
            self.fail(E_UNKNOWN_COMMAND, f"unexpected token {tok.value!r}", tok)
        sub: AstNode | None = None
        sup: AstNode | None = None
        while True:
            tok = toks[self.i]
            if tok.kind == "sup":
                if sup is not None:
                    self.fail(E_DOUBLE_SCRIPT, "double superscript", tok)
                self.advance()
                sup = self.argument(tok, "superscript")
            elif tok.kind == "sub":
                if sub is not None:
                    self.fail(E_DOUBLE_SCRIPT, "double subscript", tok)
                self.advance()
                sub = self.argument(tok, "subscript")
            else:
                break
        if sub is not None and sup is not None:
            return SubSup(node, sub, sup)
        if sub is not None:
            return Sub(node, sub)
        if sup is not None:
            return Sup(node, sup)
        return node

    def group(self) -> Curly:
        open_tok = self.advance()
        self.enter(open_tok)
        items = self.sequence(_STOP_GROUP, eof_ok=False)
        self.advance()  # rbrace, guaranteed by sequence()
        self.leave()
        return Curly(tuple(items))

    def char_literal(self) -> Literal:
        tok = self.advance()
        ch = tok.value
        if (ch.isascii() and (ch.isalpha() or ch.isdigit())
                or self.registry.operator(ch) is not None):
            return _LITERALS.get(ch) or _LITERALS.setdefault(ch, Literal(ch))
        self.fail(E_UNKNOWN_COMMAND, f"character {ch!r} is not whitelisted", tok)
        raise AssertionError

    def note_deprecated(self, spec: CommandSpec, tok: Token) -> None:
        if spec.deprecated:
            self.warnings.append((f"\\{spec.name} is deprecated", (tok.start, tok.end)))

    def command(self) -> AstNode:
        tok = self.advance()
        name = tok.value
        if name == "left":
            return self.delimited(tok)
        if name == "begin":
            return self.environment(tok)
        if name == "intent":
            return self.intent_macro(tok)
        if self.allow_chem and name in CHEM_COMMANDS:  # an argument or a root index item
            self.i -= 1
            self.expand_chem(braced=True)
            return _collapse_arg(self.group())
        spec = self.registry.lookup(name)
        if spec is None:
            self.fail(E_UNKNOWN_COMMAND, f"\\{name} is not a whitelisted command", tok)
        assert spec is not None
        if spec.category == "chem-only" and not self.allow_chem:
            self.fail(E_UNKNOWN_COMMAND, f"\\{name} requires chemistry preprocessing"
                      if name in CHEM_COMMANDS else
                      f"\\{name} is only available after chemistry preprocessing", tok)
        if spec.category == "environment":
            self.fail(E_BAD_ENV, f"{name} is an environment; use \\begin{{{name}}}", tok)
        # sequence() takes an infix command that divides a group; here, as an
        # argument or in a root index, it would have nothing to divide.
        if spec.arity == 0 and spec.translation_fn in INFIX_FNS:
            self.fail(E_AMBIGUOUS_INFIX,
                      f"\\{name} cannot be an argument or index; brace it as {{a \\{name} b}}", tok)
        self.note_deprecated(spec, tok)
        if spec.arity == 0:
            token = "\\" + name
            return _LITERALS.get(token) or _LITERALS.setdefault(token, Literal(token))
        if spec.translation_fn in RAW_ARG_FNS:
            content = self.raw_group(tok)
            return Fun1(name, Text(content))
        if spec.translation_fn == "radical" and self.peek().kind == "char" \
                and self.peek().value == "[":
            return self.radical_with_index(tok)
        args = []
        for k in range(spec.arity):  # a loop, not a comprehension: fewer frames per level
            args.append(self.argument(tok, f"argument {k + 1} of \\{name}"))
        if spec.arity == 1:
            return Fun1(name, args[0])
        if spec.arity == 2:
            return Fun2(name, args[0], args[1])
        self.fail(E_UNKNOWN_COMMAND, f"\\{name}: arity {spec.arity} unsupported", tok)
        raise AssertionError

    def argument(self, owner: Token, what: str) -> AstNode:
        """One argument: one level of nesting, braced or not."""
        tok = self.peek()
        if tok.kind == "lbrace":
            return _collapse_arg(self.group())  # the group counts the level
        if tok.kind == "char" or tok.kind == "cmd" and tok.value not in ("right", "end"):
            self.enter(tok)
            node = self.char_literal() if tok.kind == "char" else self.command()
            self.leave()
            return node
        self.fail(E_EMPTY_ARG, f"missing {what}", tok if tok.kind != "eof" else owner)
        raise AssertionError

    def radical_with_index(self, cmd_tok: Token) -> AstNode:
        self.enter(self.advance())  # "[": the index is one level
        items: list[AstNode] = []
        while True:
            tok = self.peek()
            if tok.kind == "char" and tok.value == "]":
                self.advance()
                break
            if tok.kind == "eof":
                self.fail(E_EMPTY_ARG, "unterminated root index", cmd_tok)
            items.append(self.item())
        self.leave()
        radicand = self.argument(cmd_tok, "argument of \\sqrt")
        if not items:
            return Fun1("sqrt", radicand)
        index = _collapse_arg(items[0]) if len(items) == 1 else Curly(tuple(items))
        return Fun2("root", index, radicand)

    def delimited(self, left_tok: Token) -> Delimited:
        self.enter(left_tok)
        open_tok = self.read_delimiter(left_tok)
        items = self.sequence(_STOP_FENCE, eof_ok=False)
        right_tok = self.advance()  # the \right command
        close_tok = self.read_delimiter(right_tok)
        self.leave()
        return Delimited(open_tok, close_tok, Sequence(tuple(items)))

    def read_delimiter(self, owner: Token) -> str:
        tok = self.peek()
        if tok.kind == "char" and tok.value in CHAR_DELIMS:
            self.advance()
            return tok.value
        if tok.kind == "lbrace" or tok.kind == "rbrace":
            self.fail(E_BAD_DELIM, "braces must be escaped as delimiters (\\{, \\})", tok)
        if tok.kind == "cmd":
            spec = self.registry.lookup(tok.value)
            if spec is not None and spec.category == "delimiter":
                self.advance()
                return "\\" + tok.value
        self.fail(E_BAD_DELIM, f"{tok.value!r} is not a registered delimiter",
                  tok if tok.kind != "eof" else owner)
        raise AssertionError

    def environment(self, begin_tok: Token) -> Matrix:
        name = self.env_name(begin_tok)
        spec = self.registry.lookup(name)
        if spec is None or spec.category != "environment":
            self.fail(E_BAD_ENV, f"unknown environment {name!r}", begin_tok)
        if name == "array":
            self.maybe_column_spec()
        self.enter(begin_tok)
        rows: list[tuple[AstNode, ...]] = []
        row: list[AstNode] = []
        saw_newrow = False
        while True:
            items = self.sequence(_STOP_CELL, eof_ok=False)
            cell: AstNode = items[0] if len(items) == 1 else Sequence(tuple(items))
            tok = self.advance()
            if tok.kind == "amp":
                row.append(cell)
                saw_newrow = False
                continue
            if tok.kind == "newrow":
                row.append(cell)
                rows.append(tuple(row))
                row = []
                saw_newrow = True
                continue
            # \end
            end_name = self.env_name(tok)
            if end_name != name:
                self.fail(E_BAD_ENV,
                          f"\\end{{{end_name}}} does not match \\begin{{{name}}}", tok)
            is_empty_cell = isinstance(cell, Sequence) and not cell.children
            if not (saw_newrow and not row and is_empty_cell):
                row.append(cell)
                rows.append(tuple(row))
            break
        self.leave()
        if not rows:
            rows = [(Sequence(()),)]
        return Matrix(name, tuple(rows))

    def env_name(self, owner: Token) -> str:
        tok = self.peek()
        if tok.kind != "lbrace":
            self.fail(E_BAD_ENV, "expected {environment-name}", tok if tok.kind != "eof" else owner)
        self.advance()
        letters: list[str] = []
        while True:
            tok = self.peek()
            if tok.kind == "rbrace":
                self.advance()
                break
            if tok.kind == "char" and tok.value.isascii() and (tok.value.isalpha()
                                                               or tok.value == "*"):
                letters.append(tok.value)
                self.advance()
                continue
            self.fail(E_BAD_ENV, "malformed environment name",
                      tok if tok.kind != "eof" else owner)
        return "".join(letters)

    def maybe_column_spec(self) -> None:
        # `\begin{array}{c|c}` — the alignment spec is accepted and discarded.
        tok = self.peek()
        if tok.kind != "lbrace":
            return
        j = self.i + 1
        while j < len(self.toks):
            t = self.toks[j]
            if t.kind == "rbrace":
                self.i = j + 1
                return
            if t.kind == "char" and t.value in "clr|":
                j += 1
                continue
            return  # not a column spec; leave it to be parsed as content

    def raw_group(self, owner: Token) -> str:
        """Scan a brace-balanced raw argument directly from the source."""
        tok = self.peek()
        if tok.kind == "char":
            self.advance()
            return tok.value
        if tok.kind != "lbrace":
            self.fail(E_EMPTY_ARG, f"missing argument of \\{owner.value}",
                      tok if tok.kind != "eof" else owner)
        pos = closing_brace(self.source, tok.start)
        if pos < 0:
            self.fail(E_UNBALANCED_BRACE, "unterminated argument", tok)
        content = self.source[tok.start + 1:pos]
        while self.peek().kind != "eof" and self.peek().start < pos:
            self.advance()
        self.advance()  # the closing brace token at `pos`
        return content

    def expand_chem(self, braced: bool) -> None:
        """Replace the ``\\ce{…}``/``\\pu{…}`` at the current token by the tokens
        `mhchem.expand` builds, each given the span of the whole command
        (`braced`: as one group)."""
        toks, i = self.toks, self.i
        cmd, open_tok = toks[i], toks[i + 1]
        if open_tok.kind != "lbrace":
            raise _Fail(E_CHEM_SYNTAX, f"\\{cmd.value} requires a braced argument",
                        (cmd.start, open_tok.start))
        close = closing_brace(self.source, open_tok.start)
        if close < 0:
            raise _Fail(E_UNBALANCED_BRACE, f"unterminated \\{cmd.value} argument",
                        (cmd.start, len(self.source)))
        try:
            chunks = expand(self.source[open_tok.end:close], cmd.value)
        except ChemError as exc:
            raise exc.within(self.source, open_tok.end) from None
        start, end = cmd.start, close + 1
        new = [Token(kind, value, start, end) for chunk in chunks for kind, value in chunk]
        if braced:
            new = [Token("lbrace", "{", start, end), *new, Token("rbrace", "}", start, end)]
        # The tokens after the command are the source's own, in order.
        toks[i:bisect_left(toks, close, i + 2, key=_START) + 1] = new

    def intent_macro(self, tok: Token) -> IntentWrap:
        body = self.argument(tok, "argument 1 of \\intent")
        spec_tok = self.peek()
        raw = self.raw_group(tok)
        at = spec_tok.start + (spec_tok.kind == "lbrace")  # codepoint of raw[0]
        try:
            intent_raw, arg_map, refs = intent_mod.parse_macro(raw)
        except IntentError as exc:
            raise exc.within(self.source, at) from None
        spans = tuple((name, (s + at, e + at)) for name, (s, e) in refs.items())
        return IntentWrap(body, intent_raw, arg_map, spans)


def parse(source: str, registry: Registry, *, allow_chem: bool = False) -> ParseResult:
    """Validate `source` against the whitelist grammar and build the AST."""
    parser = _Parser(source, registry, allow_chem)
    ast = fail = None  # fail: code, message and codepoint span of the error
    errors: tuple[Diagnostic, ...] = ()
    try:
        ast = parser.parse_formula()
    except _Fail as exc:  # keep no reference to it: its traceback holds every frame
        fail = exc.code, exc.message, exc.span
    except DiagnosticError as exc:  # already located in `source`
        errors = (exc.diagnostic,)
    if not (fail or parser.warnings):
        return ParseResult(ast, errors, ())
    found = [span for _, span in parser.warnings] + ([fail[2]] if fail else [])
    spans = byte_offsets(source, found)
    warnings = tuple(warning(W_DEPRECATED, message, span)
                     for (message, _), span in zip(parser.warnings, spans))
    if fail:
        errors = (Diagnostic(ERROR, fail[0], fail[1], spans[-1]),)
    return ParseResult(ast, errors, warnings)


# -- corrected TeX ------------------------------------------------------


def render_tex(ast: AstNode) -> str:
    """Emit normalized TeX: canonical braces, canonical whitespace.

    The output re-parses to a structurally identical tree.
    """
    pieces: list[str] = []
    _emit(ast, pieces)
    out: list[str] = []
    for piece in pieces:
        if not piece:
            continue
        if out and piece[0].isalpha() and _CMD_TAIL.search(out[-1]):
            out.append(" ")
        out.append(piece)
    return "".join(out)


def _emit(node: AstNode, out: list[str]) -> None:
    if isinstance(node, Literal):
        out.append(node.token)
    elif isinstance(node, Text):
        out.append("{" + node.content + "}")
    elif isinstance(node, Fun1):
        out.append("\\" + node.command)
        _emit_braced(node.arg, out)
    elif isinstance(node, Fun2):
        out.append("\\" + node.command)
        _emit_braced(node.arg1, out)
        _emit_braced(node.arg2, out)
    elif isinstance(node, Curly):
        out.append("{")
        for child in node.children:
            _emit(child, out)
        out.append("}")
    elif isinstance(node, Sequence):
        for child in node.children:
            _emit(child, out)
    elif isinstance(node, Sub):
        _emit(node.base, out)
        out.append("_")
        _emit_braced(node.sub, out)
    elif isinstance(node, Sup):
        _emit(node.base, out)
        out.append("^")
        _emit_braced(node.sup, out)
    elif isinstance(node, SubSup):
        _emit(node.base, out)
        out.append("_")
        _emit_braced(node.sub, out)
        out.append("^")
        _emit_braced(node.sup, out)
    elif isinstance(node, Infix):
        _emit(node.left, out)
        out.append(" \\" + node.command + " ")
        _emit(node.right, out)
    elif isinstance(node, Matrix):
        out.append("\\begin{" + node.env + "}")
        for r, row in enumerate(node.rows):
            if r:
                out.append(" \\\\ ")
            for c, cell in enumerate(row):
                if c:
                    out.append(" & ")
                _emit(cell, out)
        out.append("\\end{" + node.env + "}")
    elif isinstance(node, Delimited):
        out.append("\\left" + node.open)
        _emit(node.body, out)
        out.append("\\right" + node.close)
    elif isinstance(node, IntentWrap):
        out.append("\\intent")
        _emit_braced(node.body, out)
        spec = "intent='" + node.intent_raw + "'"
        if node.arg_map:
            spec += ", arg='" + ",".join(f"{a}={b}" for a, b in node.arg_map) + "'"
        out.append("{" + spec + "}")
    else:  # pragma: no cover
        raise TypeError(f"unknown AST node {node!r}")


def _emit_braced(arg: AstNode, out: list[str]) -> None:
    if isinstance(arg, Text):
        out.append("{" + arg.content + "}")
        return
    out.append("{")
    if isinstance(arg, Curly):
        for child in arg.children:
            _emit(child, out)
    else:
        _emit(arg, out)
    out.append("}")
