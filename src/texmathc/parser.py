"""Whitelist validation of LaTeX math and corrected-TeX output.

The grammar is realized as recursive descent with ordered choice and no
backtracking across brace groups, so every failure can point at the exact
offending token.  One successful parse yields the tree used both for
validation verdicts and for MathML generation.

A token is its text; `tokenize` lists them with one regex scan, and brace
groups are matched on the token list, never on the text.  A token's
codepoint span is computed only for what needs one (a diagnostic, a
warning, a ``\\ce``/``\\pu`` body, a raw argument, an ``\\intent`` spec), by
`token_ends` at the first such need in a parse.  A chemistry expansion
arrives as the nodes `mhchem.expand` builds, which the parser checks and
inserts where it meets the command.
"""

from __future__ import annotations

import re
from itertools import accumulate
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

# Commands whose argument is raw text rather than math.
RAW_ARG_FNS = frozenset({"text", "operatorname"})

# The chemistry commands, expanded in place when chemistry is allowed.
CHEM_COMMANDS = frozenset({"ce", "pu"})
_CHEM_TOKENS = frozenset("\\" + name for name in CHEM_COMMANDS)

# A token: a command (a backslash and ASCII letters, one other character, or
# nothing at the end of the input) or one other character.  `_TOKEN` finds
# each with the whitespace before it (`str.isspace`) left out, `_PIECE` with
# it kept.
_TEXT = r"\\(?:[A-Za-z]+|.?)|\S"
_TOKEN = re.compile(rf"\s*({_TEXT})", re.S)
_PIECE = re.compile(rf"\s*(?:{_TEXT})", re.S)

# The code points outside XML 1.0's Char production.  `re` compiles it at the
# first raw argument: the wide ranges take about 1 ms, which import would pay.
_NOT_XML = r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"

# The one-character tokens that are not characters: grammar, or `\` alone.
_MARKS = frozenset("{}^_&\\")

# The tokens that end a sequence (eof is ""), and those each construct stops at.
_ENDS = frozenset({"", "}", "&", "\\\\", "\\right", "\\end"})
_STOP_TOP = frozenset({""})
_STOP_GROUP = frozenset({"}"})
_STOP_FENCE = frozenset({"\\right"})
_STOP_CELL = frozenset({"&", "\\\\", "\\end"})

# Command names the grammar reads before, or instead of, a registry lookup.
_GRAMMAR_NAMES = frozenset({"left", "right", "begin", "end"}) | CHEM_COMMANDS

mhchem = None  # the module, once the first \\ce or \\pu has loaded it

_CMD_TAIL = re.compile(r"\\[A-Za-z]+$")

# A token is its text: a command with its backslash (`\alpha`, `\,`, `\` alone
# at the end of the input), `\\` (a row break), or one character; the list
# ends in "" (eof).  Its span is found by its index in `token_ends`.
Token = str


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
    return spec.arity == arity and not spec.infix and fn != "matrix" and fn not in RAW_ARG_FNS


def leaf_table(registry: Registry) -> dict[Token, Literal]:
    """The one shared Literal of each token that reads as a bare leaf under
    `registry`, by its text: each whitelisted character, and each arity-0
    command that is not deprecated, chem-only, an environment or a name the
    grammar reads.  Built at the registry's first parse and kept in it."""
    table = registry.__dict__.get("literals")
    if table is None:
        texts = [ch for ch in map(chr, range(128)) if ch.isalnum()] + list(registry.characters)
        texts += ["\\" + name for name, spec in registry.commands.items()
                  if _fits(spec, 0) and not spec.deprecated and not spec.chem_only
                  and name not in _GRAMMAR_NAMES]
        table = registry.__dict__["literals"] = {  # no row makes a grammar token a leaf
            text: Literal(text) for text in texts if text not in _MARKS and text not in _ENDS}
    return table


def tokenize(source: str) -> list[Token]:
    """Total tokenization: any input yields its token texts, then eof ("")."""
    toks = _TOKEN.findall(source)
    toks.append("")
    return toks


def token_ends(source: str) -> list[int]:
    """The codepoint offset where each token of `source` ends, eof included."""
    return [*accumulate(map(len, _PIECE.findall(source))), len(source)]


class _Parser:
    def __init__(self, source: str, registry: Registry, allow_chem: bool):
        self.source = source
        self.registry = registry
        self.allow_chem = allow_chem
        self.leaves = leaf_table(registry)
        self.toks = tokenize(source)
        self.ends: list[int] | None = None  # `token_ends`, at the first span
        self.i = 0
        self.depth = 0
        self.warnings: list[tuple[str, tuple[int, int]]] = []  # message, codepoint span

    # -- token plumbing ------------------------------------------------

    def span(self, first: int, last: int | None = None) -> tuple[int, int]:
        """The codepoint span of the tokens from index `first` to `last`."""
        ends = self.ends
        if ends is None:
            ends = self.ends = token_ends(self.source)
        return ends[first] - len(self.toks[first]), ends[first if last is None else last]

    def advance(self) -> int:
        # No eof guard: every caller stands on a token it has checked, never on eof.
        self.i += 1
        return self.i - 1

    def closing(self, i: int) -> int:
        """Index of the "}" matching the "{" at `i`, or -1 when unclosed.  An
        escaped brace (``\\{``, ``\\}``) is a command token."""
        toks = self.toks
        depth = 0
        while True:  # past each "}" in turn, with the "{" before it
            try:
                close = toks.index("}", i)
            except ValueError:
                return -1
            depth += toks[i:close].count("{") - 1
            if depth == 0:
                return close
            i = close + 1

    def fail(self, code: str, message: str, first: int, last: int | None = None) -> NoReturn:
        raise DiagnosticError(code, message, self.span(first, last), self.source)

    def enter(self, first: int, last: int | None = None) -> None:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.fail(E_TOO_DEEP, f"nesting exceeds {MAX_DEPTH} levels", first, last)

    def leave(self) -> None:
        self.depth -= 1

    # -- grammar -------------------------------------------------------

    def sequence(self, stop: frozenset[str], in_infix: bool = False) -> list[AstNode]:
        items: list[AstNode] = []
        toks, leaves = self.toks, self.leaves
        while True:
            text = toks[self.i]
            leaf = leaves.get(text)
            if leaf is not None:
                self.i += 1
                items.append(self.item(leaf) if toks[self.i] in ("^", "_") else leaf)
                continue
            if text in _ENDS:
                if text in stop:
                    return items
                self.misplaced(stop)
            if text[0] == "\\":
                if self.allow_chem and text in _CHEM_TOKENS:
                    items += self.chem_atoms(braced=False)
                    continue
                spec = self.registry.lookup(text[1:])
                if spec is not None and spec.infix:
                    if in_infix:
                        self.fail(E_AMBIGUOUS_INFIX,
                                  f"multiple infix commands in one group: {text}", self.i)
                    self.note_deprecated(spec, self.advance())
                    right = self.sequence(stop, in_infix=True)
                    return [Infix(text[1:], Sequence(tuple(items)), Sequence(tuple(right)))]
            items.append(self.item())

    def misplaced(self, stop: frozenset[str]) -> NoReturn:
        """Fail on the token at hand, one that ends another construct than `stop`'s."""
        at = self.i
        text = self.toks[at]
        if not text:
            if "\\right" in stop:
                self.fail(E_BAD_DELIM, "\\left without matching \\right", at)
            if "\\end" in stop:
                self.fail(E_BAD_ENV, "\\begin without matching \\end", at)
            self.fail(E_UNBALANCED_BRACE, "missing closing brace", at)
        if text == "}":
            if "\\right" in stop:
                self.fail(E_BAD_DELIM, "missing \\right before closing brace", at)
            self.fail(E_UNBALANCED_BRACE, "unexpected closing brace", at)
        if text in ("&", "\\\\"):
            self.fail(E_BAD_ENV, "alignment token outside environment", at)
        if text == "\\right":
            self.fail(E_BAD_DELIM, "\\right without matching \\left", at)
        self.fail(E_BAD_ENV, "\\end without matching \\begin", at)

    def item(self, node: AstNode | None = None) -> AstNode:
        """An atom (group, character or command), or `node`, and its scripts."""
        toks = self.toks
        sub: AstNode | None = None
        sup: AstNode | None = None
        if node is None:
            at = self.i
            text = toks[at]
            node = self.leaves.get(text)
            if node is not None:
                self.i = at + 1
            elif text == "{":
                node = self.group()
            elif text[:1] == "\\" and text != "\\\\":
                node = self.command()
            elif text in ("^", "_"):
                self.fail(E_EMPTY_ARG, "script without a base", at)
            elif text in _ENDS:
                self.fail(E_UNKNOWN_COMMAND, f"unexpected token {text!r}", at)
            else:
                self.unknown_char(text, at)
        elif type(node) is Script:  # its scripts were read with it, as in its TeX
            node, sub, sup = node.base, node.sub, node.sup
        while True:
            at = self.i
            text = toks[at]
            if text == "^":
                if sup is not None:
                    self.fail(E_DOUBLE_SCRIPT, "double superscript", at)
                self.i = at + 1
                sup = self.argument(at, "superscript")
            elif text == "_":
                if sub is not None:
                    self.fail(E_DOUBLE_SCRIPT, "double subscript", at)
                self.i = at + 1
                sub = self.argument(at, "subscript")
            else:
                break
        if sub is None and sup is None:
            return node
        return Script(node, sub, sup)

    def group(self) -> Curly:
        self.enter(self.advance())
        items = self.sequence(_STOP_GROUP)
        self.i += 1  # "}", guaranteed by sequence()
        self.leave()
        return Curly(tuple(items))

    def unknown_char(self, char: str, first: int, last: int | None = None) -> NoReturn:
        # one that `leaves` does not hold
        self.fail(E_UNKNOWN_COMMAND, f"character {char!r} is not whitelisted", first, last)

    def note_deprecated(self, spec: CommandSpec, first: int, last: int | None = None) -> None:
        if spec.deprecated:
            self.warnings.append((f"\\{spec.name} is deprecated", self.span(first, last)))

    def command(self) -> AstNode:
        at = self.advance()
        name = self.toks[at][1:]
        if name == "left":
            return self.delimited(at)
        if name == "begin":
            return self.environment(at)
        if self.allow_chem and name in CHEM_COMMANDS:  # an argument: one group
            self.i = at
            return _collapse_arg(Curly(tuple(self.chem(braced=True))))
        spec = self.registry.lookup(name)
        if spec is None:
            self.fail(E_UNKNOWN_COMMAND, f"\\{name} is not a whitelisted command", at)
        if spec.chem_only and not self.allow_chem:
            self.fail(E_UNKNOWN_COMMAND, f"\\{name} requires chemistry preprocessing"
                      if name in CHEM_COMMANDS else
                      f"\\{name} is only available after chemistry preprocessing", at)
        if spec.translation_fn == "matrix":
            self.fail(E_BAD_ENV, f"{name} is an environment; use \\begin{{{name}}}", at)
        # sequence() takes an infix command that divides a group; here, as an
        # argument or in a root index, it would have nothing to divide.
        if spec.infix:
            self.fail(E_AMBIGUOUS_INFIX,
                      f"\\{name} cannot be an argument or index; brace it as {{a \\{name} b}}", at)
        self.note_deprecated(spec, at)
        if spec.translation_fn == "intent":
            return self.intent_macro(at)
        if spec.arity == 0:  # one that `leaves` does not hold
            return Literal("\\" + name)
        if spec.translation_fn in RAW_ARG_FNS:
            return Fun(name, (Text(self.raw_text(at)),))
        if spec.translation_fn == "radical" and self.toks[self.i] == "[":
            return self.radical_with_index(at)
        args = []
        for k in range(spec.arity):  # a loop, not a comprehension: fewer frames per level
            args.append(self.argument(at, f"argument {k + 1} of \\{name}"))
        return Fun(name, tuple(args))

    def argument(self, owner: int, what: str) -> AstNode:
        """One argument: one level of nesting, braced or not."""
        at = self.i
        text = self.toks[at]
        leaf = self.leaves.get(text)
        if leaf is not None and self.depth < MAX_DEPTH:  # the level it would enter fits
            self.i = at + 1
            return leaf
        if text == "{":
            return _collapse_arg(self.group())  # the group counts the level
        if text not in _ENDS and text not in ("^", "_"):  # a character or a command
            self.enter(at)
            node = self.command() if text[0] == "\\" else self.unknown_char(text, at)
            self.leave()
            return node
        self.fail(E_EMPTY_ARG, f"missing {what}", at if text else owner)

    def radical_with_index(self, owner: int) -> AstNode:
        self.enter(self.advance())  # "[": the index is one level
        toks = self.toks
        items: list[AstNode] = []
        while True:
            text = toks[self.i]
            if text == "]":
                self.i += 1
                break
            if not text:
                self.fail(E_EMPTY_ARG, "unterminated root index", owner)
            if self.allow_chem and text in _CHEM_TOKENS:  # one group
                items.append(_collapse_arg(Curly(tuple(self.chem_atoms(braced=True)))))
            else:
                items.append(self.item())
        self.leave()
        name = toks[owner][1:]
        radicand = self.argument(owner, f"argument of \\{name}")
        if not items:
            return Fun(name, (radicand,))
        index = _collapse_arg(items[0]) if len(items) == 1 else Curly(tuple(items))
        return Fun("root", (index, radicand))

    def delimited(self, left: int) -> Delimited:
        self.enter(left)
        open_delim = self.read_delimiter(left)
        items = self.sequence(_STOP_FENCE)
        close_delim = self.read_delimiter(self.advance())  # after the \right command
        self.leave()
        return Delimited(open_delim, close_delim, Sequence(tuple(items)))

    def read_delimiter(self, owner: int) -> str:
        at = self.i
        text = value = self.toks[at]
        if text in CHAR_DELIMS:
            self.i = at + 1
            return text
        if text in ("{", "}"):
            self.fail(E_BAD_DELIM, "braces must be escaped as delimiters (\\{, \\})", at)
        if text[:1] == "\\" and text != "\\\\":
            value = text[1:]
            spec = self.registry.lookup(value)
            if spec is not None and spec.translation_fn == "delimiter":
                self.i = at + 1
                self.note_deprecated(spec, at)
                return text
        self.fail(E_BAD_DELIM, f"{value!r} is not a registered delimiter", at if text else owner)

    def environment(self, begin: int) -> Matrix:
        name = self.env_name(begin)
        spec = self.registry.lookup(name)
        if spec is None or spec.translation_fn != "matrix":
            self.fail(E_BAD_ENV, f"unknown environment {name!r}", begin)
        self.note_deprecated(spec, begin)
        if name == "array":
            self.maybe_column_spec()
        self.enter(begin)
        rows: list[tuple[AstNode, ...]] = []
        row: list[AstNode] = []
        while True:
            items = self.sequence(_STOP_CELL)
            row.append(items[0] if len(items) == 1 else Sequence(tuple(items)))
            at = self.advance()  # &, \\ or \end
            if self.toks[at] == "&":
                continue
            rows.append(tuple(row))
            row = []
            if self.toks[at] == "\\end":
                break
        end_name = self.env_name(at)
        if end_name != name:
            self.fail(E_BAD_ENV, f"\\end{{{end_name}}} does not match \\begin{{{name}}}", at)
        self.leave()
        if len(rows) > 1 and rows[-1] == (Sequence(()),):  # a row break just before \end
            rows.pop()
        return Matrix(name, tuple(rows))

    def env_name(self, owner: int) -> str:
        toks = self.toks
        if toks[self.i] != "{":
            self.fail(E_BAD_ENV, "expected {environment-name}",
                      self.i if toks[self.i] else owner)
        self.i += 1
        letters: list[str] = []
        while True:
            text = toks[self.i]
            if text == "}":
                self.i += 1
                break
            if text.isascii() and (text.isalpha() or text == "*"):  # one character
                letters.append(text)
                self.i += 1
                continue
            self.fail(E_BAD_ENV, "malformed environment name", self.i if text else owner)
        return "".join(letters)

    def maybe_column_spec(self) -> None:
        # `\begin{array}{c|c}` — the alignment spec is accepted and discarded.
        toks = self.toks
        if toks[self.i] != "{":
            return
        j = self.i + 1
        while toks[j] in ("c", "l", "r", "|"):
            j += 1
        if toks[j] == "}":
            self.i = j + 1
        # otherwise not a column spec; leave it to be parsed as content

    def raw_group(self, owner: int) -> str:
        """A brace-balanced raw argument, as its text in the source."""
        at = self.i
        text = self.toks[at]
        if text != "{":
            if text and text[0] != "\\" and text not in _MARKS:  # one character
                self.i = at + 1
                return text
            self.fail(E_EMPTY_ARG, f"missing argument of {self.toks[owner]}",
                      at if text else owner)
        close = self.closing(at)
        if close < 0:
            self.fail(E_UNBALANCED_BRACE, "unterminated argument", at)
        self.i = close + 1
        start, end = self.span(at, close)
        return self.source[start + 1:end - 1]

    def raw_text(self, owner: int) -> str:
        """`raw_group`, for text that the output carries as it is: a
        character that XML cannot carry is not whitelisted, on its own span."""
        at = self.i
        text = self.raw_group(owner)
        bad = re.search(_NOT_XML, text)
        if bad:
            start = self.span(at)[0] + (self.toks[at] == "{") + bad.start()
            raise DiagnosticError(E_UNKNOWN_COMMAND, f"character {bad.group()!r} is not "
                                  "whitelisted", (start, start + 1), self.source)
        return text

    def chem(self, braced: bool) -> list[AstNode]:
        """The nodes `mhchem.expand` builds for the ``\\ce{…}``/``\\pu{…}`` at
        the current token, checked as their TeX would be read (`braced`: as
        one group), each finding on the span of the whole command."""
        global mhchem
        if mhchem is None:  # loaded at the first \\ce or \\pu
            from . import mhchem

        toks, at = self.toks, self.i
        name = toks[at][1:]
        spec = self.registry.lookup(name)
        if spec is None:
            self.fail(E_UNKNOWN_COMMAND, f"\\{name} is not a whitelisted command", at)
        self.note_deprecated(spec, at)
        if toks[at + 1] != "{":
            raise DiagnosticError(E_CHEM_SYNTAX, f"\\{name} requires a braced argument",
                                  (self.span(at)[0], self.span(at + 1)[0]), self.source)
        close = self.closing(at + 1)
        if close < 0:
            raise DiagnosticError(E_UNBALANCED_BRACE, f"unterminated \\{name} argument",
                                  (self.span(at)[0], len(self.source)), self.source)
        body_start, body_end = self.span(at + 1, close)
        body_start += 1
        try:
            chunks = mhchem.expand(self.source[body_start:body_end - 1], name)
        except ChemError as exc:
            raise exc.within(self.source, body_start) from None
        self.i = close + 1
        nodes = [node for chunk in chunks for node in chunk]
        if braced:
            self.enter(at, close)
        # Whether the registry holds every command an expansion writes, in that
        # shape and not deprecated, and every character; kept in it, as its digest
        # is.  If so, only the depth cap can object, and the groups are one level.
        registry = self.registry
        ready = registry.__dict__.get("chem_ready")
        if ready is None:
            ready = registry.__dict__["chem_ready"] = all(
                (spec := registry.lookup(command)) and _fits(spec, arity) and not spec.deprecated
                for command, arity in mhchem.EMITTED_COMMANDS.items()
            ) and all(char in registry.characters for char in mhchem.EMITTED_CHARACTERS)
        if self.depth >= MAX_DEPTH or not ready:
            self.check_chem(nodes, at, close)
        if braced:
            self.leave()
        return nodes

    def chem_atoms(self, braced: bool) -> list[AstNode]:
        """`chem`, and a script after the command on the expansion's last atom."""
        nodes = self.chem(braced)
        if nodes and self.toks[self.i] in ("^", "_"):
            nodes.append(self.item(nodes.pop()))
        return nodes

    def check_chem(self, nodes: list[AstNode] | tuple[AstNode, ...], first: int, last: int) -> None:
        """Check expansion nodes as their TeX is read: each command and
        character against the registry, each brace group against the cap;
        each finding on the tokens `first` to `last`, the whole command."""
        for node in nodes:
            kind, groups = type(node), ()
            if kind is Script:
                self.check_chem((node.base,), first, last)
                groups = [group for group in (node.sub, node.sup) if group is not None]
            elif kind is Curly:
                groups = (node,)
            elif kind is Literal and node.token[0] != "\\":
                if node.token not in self.leaves:
                    self.unknown_char(node.token, first, last)
            else:  # a command and its arguments
                name, groups = (node.token[1:], ()) if kind is Literal else (node.command, node.args)
                spec = self.registry.lookup(name)
                if spec is None:
                    self.fail(E_UNKNOWN_COMMAND, f"\\{name} is not a whitelisted command",
                              first, last)
                if not _fits(spec, len(groups)):
                    self.fail(E_UNKNOWN_COMMAND, f"\\{name} is registered with another shape "
                              f"than {self.toks[first]} writes (arity {len(groups)})", first, last)
                self.note_deprecated(spec, first, last)
            for group in groups:
                self.enter(first, last)
                self.check_chem(group.children if type(group) is Curly else (group,), first, last)
                self.leave()

    def intent_macro(self, at: int) -> IntentWrap:
        # Loaded at the outermost \intent, not at the innermost of a chain.
        from . import intent as intent_mod

        body = self.argument(at, "argument 1 of \\intent")
        spec_at = self.i
        raw = self.raw_group(at)
        start = self.span(spec_at)[0] + (self.toks[spec_at] == "{")  # codepoint of raw[0]
        try:
            intent_raw, arg_map, refs = intent_mod.parse_macro(raw)
        except IntentError as exc:
            raise exc.within(self.source, start) from None
        spans = tuple((name, (s + start, e + start)) for name, (s, e) in refs.items())
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
