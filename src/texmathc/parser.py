"""Whitelist validation of LaTeX math and corrected-TeX output.

The grammar is realized as recursive descent with ordered choice and no
backtracking across brace groups, so every failure can point at the exact
offending token.  One successful parse yields the tree used both for
validation verdicts and for MathML generation.

A token is a plain tuple (kind, value, start, end); `tokenize` builds them
with one regex scan, and brace groups are matched on the token list, never
on the text.  A chemistry expansion arrives as the nodes `mhchem.expand`
builds, which the parser checks and inserts where it meets the command.
"""

from __future__ import annotations

import re
from typing import NoReturn

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
    W_DEPRECATED,
    WARNING,
    ChemError,
    Diagnostic,
    DiagnosticError,
    IntentError,
    byte_offsets,
)
from .nodes import (
    AstNode,
    Curly,
    Delimited,
    Fun,
    Infix,
    IntentWrap,
    Literal,
    Matrix,
    Script,
    Sequence,
    Text,
)
from .registry import CommandSpec, Registry
from .value import Value

MAX_DEPTH = 128

# Single characters accepted as \left / \right delimiters without a backslash.
CHAR_DELIMS = frozenset("()[]|/.")

# Arity-0 commands with these translation functions act as infix operators.
INFIX_FNS = frozenset({"fraction", "binom", "atop"})

# Commands whose argument is raw text rather than math.
RAW_ARG_FNS = frozenset({"text", "operatorname"})

# The chemistry commands, expanded in place when chemistry is allowed.
CHEM_COMMANDS = frozenset({"ce", "pu"})

# One piece per token: the whitespace before it (`str.isspace`), then a
# command (a backslash and ASCII letters, one other character, or nothing at
# the end of the input) or one other character.
_PIECE = re.compile(r"\s*(?:\\(?:[A-Za-z]+|.?)|\S)", re.S)

# The code points outside XML 1.0's Char production.  `re` compiles it at the
# first raw argument: the wide ranges take about 1 ms, which import would pay.
_NOT_XML = r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"

# The kind of a one-character token; any other character is a "char".
_KINDS = {"{": "lbrace", "}": "rbrace", "^": "sup", "_": "sub", "&": "amp"}

# The tokens that end a sequence of each construct; only the top level ends at eof.
_STOP_TOP: frozenset[str] = frozenset()
_STOP_GROUP = frozenset({"rbrace"})
_STOP_FENCE = frozenset({"right"})
_STOP_CELL = frozenset({"amp", "newrow", "end"})

# Command names the grammar reads before, or instead of, a registry lookup.
_GRAMMAR_NAMES = frozenset({"left", "right", "begin", "end"}) | CHEM_COMMANDS

mhchem = None  # the module, once the first \\ce or \\pu has loaded it

_CMD_TAIL = re.compile(r"\\[A-Za-z]+$")

# A token is the tuple (kind, value, start, end).  The kind is cmd, char,
# lbrace, rbrace, sup, sub, amp, newrow or eof; a command's value is its name
# without the backslash, any other value is the token's text; start and end
# are codepoint offsets into the source.
Token = tuple[str, str, int, int]


class ParseResult(Value):
    """Either an AST (root Sequence) or a non-empty error list; warnings ride along."""

    __slots__ = ("ast", "errors", "warnings")

    @property
    def ok(self) -> bool:
        return self.ast is not None

    @property
    def diagnostics(self) -> tuple[Diagnostic, ...]:
        return self.errors + self.warnings


def _collapse_arg(node: AstNode) -> AstNode:
    """Arguments written as {x}, {{x}}, ... are the same argument."""
    while isinstance(node, Curly) and len(node.children) == 1:
        node = node.children[0]
    return node


def _fits(spec: CommandSpec, arity: int) -> bool:
    """Whether `spec` reads as a command with `arity` braced math arguments."""
    fn = spec.translation_fn
    return (spec.arity == arity and fn != "matrix" and fn not in RAW_ARG_FNS
            and (arity or fn not in INFIX_FNS))


def leaf_table(registry: Registry) -> dict[tuple[str, str], Literal]:
    """The one shared Literal of each token that reads as a bare leaf under
    `registry`, by (kind, value): each whitelisted character, and each arity-0
    command that is not deprecated, chem-only, infix, an environment or a name
    the grammar reads.  Built at the registry's first parse and kept in it."""
    table = registry.__dict__.get("literals")
    if table is None:
        chars = [ch for ch in map(chr, range(128)) if ch.isalnum()] + list(registry.operators)
        table = {("char", ch): Literal(ch) for ch in chars if len(ch) == 1}
        table.update((("cmd", name), Literal("\\" + name))
                     for name, spec in registry.commands.items()
                     if _fits(spec, 0) and not spec.deprecated and not spec.chem_only
                     and name not in _GRAMMAR_NAMES)
        registry.__dict__["literals"] = table
    return table


def tokenize(source: str) -> list[Token]:
    """Total tokenization: any input yields a list of (kind, value, start,
    end) tuples ending in eof."""
    toks: list[Token] = []
    append = toks.append
    end = 0
    for piece in _PIECE.findall(source):
        end += len(piece)
        text = piece.lstrip()
        if text[0] != "\\":
            append((_KINDS.get(text, "char"), text, end - 1, end))
        elif text == "\\\\":
            append(("newrow", text, end - 2, end))
        else:
            append(("cmd", text[1:], end - len(text), end))
    append(("eof", "", len(source), len(source)))
    return toks


class _Parser:
    def __init__(self, source: str, registry: Registry, allow_chem: bool):
        self.source = source
        self.registry = registry
        self.allow_chem = allow_chem
        self.leaves = leaf_table(registry)
        self.toks = tokenize(source)
        self.i = 0
        self.depth = 0
        self.warnings: list[tuple[str, tuple[int, int]]] = []  # message, codepoint span

    # -- token plumbing ------------------------------------------------

    def peek(self) -> Token:
        return self.toks[self.i]

    def advance(self) -> Token:
        # No eof guard: every caller stands on a token it has checked, never on eof.
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def closing(self, i: int) -> int:
        """Index of the rbrace token matching the lbrace at `i`, or -1 when
        unclosed.  An escaped brace (``\\{``, ``\\}``) is a command token."""
        toks = self.toks
        depth = 0
        for j in range(i, len(toks)):
            kind = toks[j][0]
            if kind == "lbrace":
                depth += 1
            elif kind == "rbrace":
                depth -= 1
                if depth == 0:
                    return j
        return -1

    def fail(self, code: str, message: str, tok: Token) -> NoReturn:
        raise DiagnosticError(code, message, tok[2:], self.source)

    def enter(self, tok: Token) -> None:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.fail(E_TOO_DEEP, f"nesting exceeds {MAX_DEPTH} levels", tok)

    def leave(self) -> None:
        self.depth -= 1

    # -- grammar -------------------------------------------------------

    def sequence(self, stop: frozenset[str], in_infix: bool = False) -> list[AstNode]:
        items: list[AstNode] = []
        toks, leaves = self.toks, self.leaves
        while True:
            tok = toks[self.i]
            kind, value, _, _ = tok
            leaf = leaves.get((kind, value))
            if leaf is not None:
                self.i += 1
                items.append(self.item(leaf) if toks[self.i][0] in ("sup", "sub") else leaf)
                continue
            if kind == "cmd" and value in ("right", "end"):
                kind = value
            if kind == "eof":
                if not stop:
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
                if self.allow_chem and value in CHEM_COMMANDS:
                    items += self.chem_atoms(braced=False)
                    continue
                spec = self.registry.lookup(value)
                if spec is not None and spec.arity == 0 and spec.translation_fn in INFIX_FNS:
                    if in_infix:
                        self.fail(E_AMBIGUOUS_INFIX,
                                  f"multiple infix commands in one group: \\{value}", tok)
                    self.advance()
                    self.note_deprecated(spec, tok)
                    right = self.sequence(stop, in_infix=True)
                    return [Infix(value, Sequence(tuple(items)), Sequence(tuple(right)))]
            items.append(self.item())

    def item(self, node: AstNode | None = None) -> AstNode:
        """An atom (group, character or command), or `node`, and its scripts."""
        toks = self.toks
        sub: AstNode | None = None
        sup: AstNode | None = None
        if node is None:
            tok = toks[self.i]
            kind = tok[0]
            node = self.leaves.get(tok[:2])
            if node is not None:
                self.i += 1
            elif kind == "lbrace":
                node = self.group()
            elif kind == "char":
                self.unknown_char(tok)
            elif kind == "cmd":
                node = self.command()
            elif kind in ("sup", "sub"):
                self.fail(E_EMPTY_ARG, "script without a base", tok)
            else:
                self.fail(E_UNKNOWN_COMMAND, f"unexpected token {tok[1]!r}", tok)
        elif type(node) is Script:  # its scripts were read with it, as in its TeX
            node, sub, sup = node.base, node.sub, node.sup
        while True:
            tok = toks[self.i]
            kind = tok[0]
            if kind == "sup":
                if sup is not None:
                    self.fail(E_DOUBLE_SCRIPT, "double superscript", tok)
                self.advance()
                sup = self.argument(tok, "superscript")
            elif kind == "sub":
                if sub is not None:
                    self.fail(E_DOUBLE_SCRIPT, "double subscript", tok)
                self.advance()
                sub = self.argument(tok, "subscript")
            else:
                break
        if sub is None and sup is None:
            return node
        return Script(node, sub, sup)

    def group(self) -> Curly:
        open_tok = self.advance()
        self.enter(open_tok)
        items = self.sequence(_STOP_GROUP)
        self.advance()  # rbrace, guaranteed by sequence()
        self.leave()
        return Curly(tuple(items))

    def unknown_char(self, tok: Token) -> NoReturn:  # one that `leaves` does not hold
        self.fail(E_UNKNOWN_COMMAND, f"character {tok[1]!r} is not whitelisted", tok)

    def note_deprecated(self, spec: CommandSpec, tok: Token) -> None:
        if spec.deprecated:
            self.warnings.append((f"\\{spec.name} is deprecated", tok[2:]))

    def command(self) -> AstNode:
        tok = self.advance()
        name = tok[1]
        if name == "left":
            return self.delimited(tok)
        if name == "begin":
            return self.environment(tok)
        if self.allow_chem and name in CHEM_COMMANDS:  # an argument: one group
            self.i -= 1
            return _collapse_arg(Curly(tuple(self.chem(braced=True))))
        spec = self.registry.lookup(name)
        if spec is None:
            self.fail(E_UNKNOWN_COMMAND, f"\\{name} is not a whitelisted command", tok)
        if spec.chem_only and not self.allow_chem:
            self.fail(E_UNKNOWN_COMMAND, f"\\{name} requires chemistry preprocessing"
                      if name in CHEM_COMMANDS else
                      f"\\{name} is only available after chemistry preprocessing", tok)
        if spec.translation_fn == "matrix":
            self.fail(E_BAD_ENV, f"{name} is an environment; use \\begin{{{name}}}", tok)
        # sequence() takes an infix command that divides a group; here, as an
        # argument or in a root index, it would have nothing to divide.
        if spec.arity == 0 and spec.translation_fn in INFIX_FNS:
            self.fail(E_AMBIGUOUS_INFIX,
                      f"\\{name} cannot be an argument or index; brace it as {{a \\{name} b}}", tok)
        self.note_deprecated(spec, tok)
        if spec.translation_fn == "intent":
            return self.intent_macro(tok)
        if spec.arity == 0:  # one that `leaves` does not hold
            return Literal("\\" + name)
        if spec.translation_fn in RAW_ARG_FNS:
            return Fun(name, (Text(self.raw_text(tok)),))
        if spec.translation_fn == "radical" and self.peek()[:2] == ("char", "["):
            return self.radical_with_index(tok)
        args = []
        for k in range(spec.arity):  # a loop, not a comprehension: fewer frames per level
            args.append(self.argument(tok, f"argument {k + 1} of \\{name}"))
        return Fun(name, tuple(args))

    def argument(self, owner: Token, what: str) -> AstNode:
        """One argument: one level of nesting, braced or not."""
        tok = self.peek()
        kind, value, _, _ = tok
        leaf = self.leaves.get((kind, value))
        if leaf is not None and self.depth < MAX_DEPTH:  # the level it would enter fits
            self.i += 1
            return leaf
        if kind == "lbrace":
            return _collapse_arg(self.group())  # the group counts the level
        if kind == "char" or kind == "cmd" and value not in ("right", "end"):
            self.enter(tok)
            node = self.command() if kind == "cmd" else self.unknown_char(tok)
            self.leave()
            return node
        self.fail(E_EMPTY_ARG, f"missing {what}", tok if kind != "eof" else owner)

    def radical_with_index(self, cmd_tok: Token) -> AstNode:
        self.enter(self.advance())  # "[": the index is one level
        items: list[AstNode] = []
        while True:
            tok = self.peek()
            if tok[:2] == ("char", "]"):
                self.advance()
                break
            if tok[0] == "eof":
                self.fail(E_EMPTY_ARG, "unterminated root index", cmd_tok)
            if self.allow_chem and tok[0] == "cmd" and tok[1] in CHEM_COMMANDS:  # one group
                items.append(_collapse_arg(Curly(tuple(self.chem_atoms(braced=True)))))
            else:
                items.append(self.item())
        self.leave()
        radicand = self.argument(cmd_tok, f"argument of \\{cmd_tok[1]}")
        if not items:
            return Fun(cmd_tok[1], (radicand,))
        index = _collapse_arg(items[0]) if len(items) == 1 else Curly(tuple(items))
        return Fun("root", (index, radicand))

    def delimited(self, left_tok: Token) -> Delimited:
        self.enter(left_tok)
        open_tok = self.read_delimiter(left_tok)
        items = self.sequence(_STOP_FENCE)
        right_tok = self.advance()  # the \right command
        close_tok = self.read_delimiter(right_tok)
        self.leave()
        return Delimited(open_tok, close_tok, Sequence(tuple(items)))

    def read_delimiter(self, owner: Token) -> str:
        tok = self.peek()
        kind, value, _, _ = tok
        if kind == "char" and value in CHAR_DELIMS:
            self.advance()
            return value
        if kind == "lbrace" or kind == "rbrace":
            self.fail(E_BAD_DELIM, "braces must be escaped as delimiters (\\{, \\})", tok)
        if kind == "cmd":
            spec = self.registry.lookup(value)
            if spec is not None and spec.translation_fn == "delimiter":
                self.advance()
                self.note_deprecated(spec, tok)
                return "\\" + value
        self.fail(E_BAD_DELIM, f"{value!r} is not a registered delimiter",
                  tok if kind != "eof" else owner)

    def environment(self, begin_tok: Token) -> Matrix:
        name = self.env_name(begin_tok)
        spec = self.registry.lookup(name)
        if spec is None or spec.translation_fn != "matrix":
            self.fail(E_BAD_ENV, f"unknown environment {name!r}", begin_tok)
        self.note_deprecated(spec, begin_tok)
        if name == "array":
            self.maybe_column_spec()
        self.enter(begin_tok)
        rows: list[tuple[AstNode, ...]] = []
        row: list[AstNode] = []
        while True:
            items = self.sequence(_STOP_CELL)
            row.append(items[0] if len(items) == 1 else Sequence(tuple(items)))
            tok = self.advance()  # &, \\ or \end
            if tok[0] == "amp":
                continue
            rows.append(tuple(row))
            row = []
            if tok[0] == "cmd":
                break
        end_name = self.env_name(tok)
        if end_name != name:
            self.fail(E_BAD_ENV, f"\\end{{{end_name}}} does not match \\begin{{{name}}}", tok)
        self.leave()
        if len(rows) > 1 and rows[-1] == (Sequence(()),):  # a row break just before \end
            rows.pop()
        return Matrix(name, tuple(rows))

    def env_name(self, owner: Token) -> str:
        tok = self.peek()
        if tok[0] != "lbrace":
            self.fail(E_BAD_ENV, "expected {environment-name}", tok if tok[0] != "eof" else owner)
        self.advance()
        letters: list[str] = []
        while True:
            tok = self.peek()
            kind, value, _, _ = tok
            if kind == "rbrace":
                self.advance()
                break
            if kind == "char" and value.isascii() and (value.isalpha() or value == "*"):
                letters.append(value)
                self.advance()
                continue
            self.fail(E_BAD_ENV, "malformed environment name",
                      tok if kind != "eof" else owner)
        return "".join(letters)

    def maybe_column_spec(self) -> None:
        # `\begin{array}{c|c}` — the alignment spec is accepted and discarded.
        tok = self.peek()
        if tok[0] != "lbrace":
            return
        j = self.i + 1
        while j < len(self.toks):
            kind, value, _, _ = self.toks[j]
            if kind == "rbrace":
                self.i = j + 1
                return
            if kind == "char" and value in "clr|":
                j += 1
                continue
            return  # not a column spec; leave it to be parsed as content

    def raw_group(self, owner: Token) -> str:
        """A brace-balanced raw argument, as its text in the source."""
        tok = self.peek()
        kind, value, start, _ = tok
        if kind == "char":
            self.advance()
            return value
        if kind != "lbrace":
            self.fail(E_EMPTY_ARG, f"missing argument of \\{owner[1]}",
                      tok if kind != "eof" else owner)
        close = self.closing(self.i)
        if close < 0:
            self.fail(E_UNBALANCED_BRACE, "unterminated argument", tok)
        self.i = close + 1
        return self.source[start + 1:self.toks[close][2]]

    def raw_text(self, owner: Token) -> str:
        """`raw_group`, for text that the output carries as it is: a
        character that XML cannot carry is not whitelisted, on its own span."""
        kind, _, start, _ = self.peek()
        text = self.raw_group(owner)
        bad = re.search(_NOT_XML, text)
        if bad:
            at = start + (kind == "lbrace") + bad.start()
            self.fail(E_UNKNOWN_COMMAND, f"character {bad.group()!r} is not whitelisted",
                      ("char", bad.group(), at, at + 1))
        return text

    def chem(self, braced: bool) -> list[AstNode]:
        """The nodes `mhchem.expand` builds for the ``\\ce{…}``/``\\pu{…}`` at
        the current token, checked as their TeX would be read (`braced`: as
        one group), each finding on the span of the whole command."""
        global mhchem
        if mhchem is None:  # loaded at the first \\ce or \\pu
            from . import mhchem

        toks, i = self.toks, self.i
        _, name, start, _ = toks[i]
        spec = self.registry.lookup(name)
        if spec is None:
            self.fail(E_UNKNOWN_COMMAND, f"\\{name} is not a whitelisted command", toks[i])
        self.note_deprecated(spec, toks[i])
        open_kind, _, open_start, open_end = toks[i + 1]
        if open_kind != "lbrace":
            raise DiagnosticError(E_CHEM_SYNTAX, f"\\{name} requires a braced argument",
                                  (start, open_start), self.source)
        close = self.closing(i + 1)
        if close < 0:
            raise DiagnosticError(E_UNBALANCED_BRACE, f"unterminated \\{name} argument",
                                  (start, len(self.source)), self.source)
        body_end = toks[close][2]
        try:
            chunks = mhchem.expand(self.source[open_end:body_end], name)
        except ChemError as exc:
            raise exc.within(self.source, open_end) from None
        self.i = close + 1
        tok = ("cmd", name, start, body_end + 1)
        nodes = [node for chunk in chunks for node in chunk]
        if braced:
            self.enter(tok)
        # Whether the registry holds every command an expansion writes, in that
        # shape and not deprecated, and every character; kept in it, as its digest
        # is.  If so, only the depth cap can object, and the groups are one level.
        registry = self.registry
        ready = registry.__dict__.get("chem_ready")
        if ready is None:
            ready = registry.__dict__["chem_ready"] = all(
                (spec := registry.lookup(command)) and _fits(spec, arity) and not spec.deprecated
                for command, arity in mhchem.EMITTED_COMMANDS.items()
            ) and all(map(registry.operator, mhchem.EMITTED_CHARACTERS))
        if self.depth >= MAX_DEPTH or not ready:
            self.check_chem(nodes, tok)
        if braced:
            self.leave()
        return nodes

    def chem_atoms(self, braced: bool) -> list[AstNode]:
        """`chem`, and a script after the command on the expansion's last atom."""
        nodes = self.chem(braced)
        if nodes and self.toks[self.i][0] in ("sup", "sub"):
            nodes.append(self.item(nodes.pop()))
        return nodes

    def check_chem(self, nodes: list[AstNode] | tuple[AstNode, ...], tok: Token) -> None:
        """Check expansion nodes as their TeX is read: each command and
        character against the registry, each brace group against the cap."""
        for node in nodes:
            kind, groups = type(node), ()
            if kind is Script:
                self.check_chem((node.base,), tok)
                groups = [group for group in (node.sub, node.sup) if group is not None]
            elif kind is Curly:
                groups = (node,)
            elif kind is Literal and node.token[0] != "\\":
                if ("char", node.token) not in self.leaves:
                    self.unknown_char(("char", node.token, *tok[2:]))
            else:  # a command and its arguments
                name, groups = (node.token[1:], ()) if kind is Literal else (node.command, node.args)
                spec = self.registry.lookup(name)
                if spec is None:
                    self.fail(E_UNKNOWN_COMMAND, f"\\{name} is not a whitelisted command", tok)
                if not _fits(spec, len(groups)):
                    self.fail(E_UNKNOWN_COMMAND, f"\\{name} is registered with another shape "
                              f"than \\{tok[1]} writes (arity {len(groups)})", tok)
                self.note_deprecated(spec, tok)
            for group in groups:
                self.enter(tok)
                self.check_chem(group.children if type(group) is Curly else (group,), tok)
                self.leave()

    def intent_macro(self, tok: Token) -> IntentWrap:
        # Loaded at the outermost \intent, not at the innermost of a chain.
        from . import intent as intent_mod

        body = self.argument(tok, "argument 1 of \\intent")
        spec_kind, _, spec_start, _ = self.peek()
        raw = self.raw_group(tok)
        at = spec_start + (spec_kind == "lbrace")  # codepoint of raw[0]
        try:
            intent_raw, arg_map, refs = intent_mod.parse_macro(raw)
        except IntentError as exc:
            raise exc.within(self.source, at) from None
        spans = tuple((name, (s + at, e + at)) for name, (s, e) in refs.items())
        return IntentWrap(body, intent_raw, arg_map, spans)


def parse(source: str, registry: Registry, *, allow_chem: bool = False) -> ParseResult:
    """Validate `source` against the whitelist grammar and build the AST."""
    parser = _Parser(source, registry, allow_chem)
    try:
        ast, errors = Sequence(tuple(parser.sequence(_STOP_TOP))), ()
    except DiagnosticError as exc:  # keep no reference to it: its traceback holds every frame
        ast, errors = None, (exc.diagnostic,)  # a nested error's too, moved into `source`
    if not parser.warnings:
        return ParseResult(ast, errors, ())
    spans = byte_offsets(source, [span for _, span in parser.warnings])
    return ParseResult(ast, errors, tuple(Diagnostic(WARNING, W_DEPRECATED, message, span)
                                          for (message, _), span in zip(parser.warnings, spans)))


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
    elif isinstance(node, Text):  # the argument of a text-class command
        out.append(node.content)
    elif isinstance(node, Fun):
        out.append("\\" + node.command)
        for arg in node.args:
            _emit_braced(arg, out)
    elif isinstance(node, Curly):
        out.append("{")
        for child in node.children:
            _emit(child, out)
        out.append("}")
    elif isinstance(node, Sequence):
        for child in node.children:
            _emit(child, out)
    elif isinstance(node, Script):
        _emit(node.base, out)
        if node.sub is not None:
            out.append("_")
            _emit_braced(node.sub, out)
        if node.sup is not None:
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
    else:
        raise TypeError(f"unknown AST node {node!r}")


def _emit_braced(arg: AstNode, out: list[str]) -> None:
    out.append("{")
    if isinstance(arg, Curly):
        for child in arg.children:
            _emit(child, out)
    else:
        _emit(arg, out)
    out.append("}")
