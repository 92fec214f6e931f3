"""Chemistry: expands the body of ``\\ce{...}`` and ``\\pu{...}`` to plain math.

`expand` builds the expansion as AST nodes, chunk by chunk, in one pass over
the body with no chemistry token list in between; under chemistry mode the
parser inserts them where it meets the command (see ``parser``), so no TeX
text is built or read again.  `expand_ce` and `expand_pu` write the same
expansion as whitelisted TeX: each chunk by ``parser.render_tex``, the chunks
separated by a space.  The implemented subset covers
elements, numeric subscripts, charges, stoichiometric coefficients (integer,
decimal, and a/b fractions), isotope prescripts, aggregate states,
single/double/triple bonds, reaction arrows, ``+`` separators, hydrate dots
(``*``), and the number-unit forms of ``\\pu``.
Everything outside the subset is rejected with a positioned diagnostic
rather than guessed at.
"""

from __future__ import annotations

import re

from .diagnostics import E_CHEM_SYNTAX, ChemError
from .nodes import AstNode, Curly, Fun, Literal, Script, Sequence
from .parser import render_tex

_ELEMENTS = re.compile(r"[A-Z][a-z]?(?:\s*[A-Z][a-z]?)*")  # a run: one upright name
_DIGITS = re.compile(r"[0-9]+")
_NUMBER = re.compile(r"[0-9]+(?:\.[0-9]+)?")
_COEFF = re.compile(r"[0-9]+(?:\.[0-9]+)?(?:/[0-9]+)?")
_CHARGE = re.compile(r"[0-9]*[+-]")
_PU_NUMBER = re.compile(r"(-?[0-9]+(?:\.[0-9]+)?)(?:[eE]([+-]?[0-9]+))?")
_UNIT_ATOM = re.compile(r"([A-Za-z]+)([0-9]*)")
_ARROW = re.compile(r"<=>|<->|->|<-")  # the longest arrow first
_STATE = re.compile(r"\((aq|s|l|g)\)")

# Kinds after which a ^/-/+ reads as charge rather than prescript/bond logic,
# and kinds after which a new species starts.
_CHARGEABLE = frozenset({"element", "count", "state", "close"})
_SPECIES_START = frozenset({"start", "arrow", "plus", "bond", "open", "stoich_coeff"})

# The command an arrow, bond or hydrate dot stands for; any other symbol
# (plus, bond, parenthesis) is itself.
_COMMANDS = {
    "<=>": "\\longrightleftharpoons",
    "<->": "\\longleftrightarrow",
    "->": "\\longrightarrow",
    "<-": "\\longleftarrow",
    "#": "\\equiv",
    "*": "\\cdot",
}

# Everything an expansion holds besides ASCII letters and digits: each
# command with its number of (braced) arguments, and each other character.
EMITTED_COMMANDS = {"mathrm": 1, "frac": 2, "times": 0, ",": 0,
                    **{name[1:]: 0 for name in _COMMANDS.values()}}
EMITTED_CHARACTERS = "+-()/=."

# One shared node per token an expansion holds (nodes are frozen).
_LIT = {token: Literal(token) for token in [
    *"0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz", *EMITTED_CHARACTERS,
    *("\\" + name for name, arity in EMITTED_COMMANDS.items() if not arity)]}
_EMPTY = Curly(())

# The atoms that expansions share, by key: an element run's name, or
# `sub^sup` for a script on an empty base.  Only keys of at most two letters
# or digits besides the "^" are kept (26 * 53 runs and 342 scripts), so the
# table stays small whatever the bodies are; longer atoms are built at each use.
_ATOMS: dict[str, AstNode] = {}


def _err(message: str, text: str, start: int, end: int) -> ChemError:
    return ChemError(E_CHEM_SYNTAX, message, (start, end), text)


def _arg(text: str) -> AstNode:
    """``{text}`` as an argument or script: one character is itself."""
    return _LIT[text] if len(text) == 1 else Curly(tuple(map(_LIT.__getitem__, text)))


def _mathrm(text: str) -> Fun:
    return Fun("mathrm", (_arg(text),))


def _atom(key: str) -> AstNode:
    """``\\mathrm{key}``, or for a key `sub^sup` the script ``{}_{sub}^{sup}``
    with an empty one left out."""
    atom = _ATOMS.get(key)
    if atom is None:
        sub, caret, sup = key.partition("^")
        atom = (Script(_EMPTY, _arg(sub) if sub else None, _arg(sup) if sup else None)
                if caret else _mathrm(key))
        if len(key) <= 2 + len(caret):
            _ATOMS[key] = atom
    return atom


def expand(body: str, command: str) -> list[list[AstNode]]:
    """The nodes of ``\\ce{body}``, or of ``\\pu{body}`` when `command` is
    "pu", chunk by chunk (a ``\\pu`` expansion is one chunk)."""
    return _pu_chunks(body) if command == "pu" else _ce_chunks(body)


def _text(chunks: list[list[AstNode]]) -> str:
    """The TeX of the chunks, separated by a space."""
    return " ".join(render_tex(Sequence(tuple(chunk))) for chunk in chunks)


def expand_ce(body: str) -> str:
    """Expand one ``\\ce`` body to whitelisted LaTeX."""
    return _text(expand(body, "ce"))


def expand_pu(body: str) -> str:
    """Expand one ``\\pu`` body: number, optional power-of-ten, upright units.

    Quotients keep the solidus form (``m/s`` stays a slash, not a fraction).
    """
    return _text(expand(body, "pu"))


def preprocess(body: str, command: str) -> str:
    """The TeX of ``expand(body, command)``.  The parser inserts the nodes
    instead; the benchmark's tracer and its own test name this function."""
    return _text(expand(body, command))


# -- \ce ------------------------------------------------------------------


def _ce_chunks(body: str) -> list[list[AstNode]]:
    """Scan a ``\\ce`` body once, enforcing the subset, into one chunk per
    chemistry token."""
    chunks: list[list[AstNode]] = []
    prev = "start"  # the kind of the last token
    depth = low = 0  # parenthesis depth and the lowest it went
    i, n = 0, len(body)
    while i < n:
        ch = body[i]
        if "A" <= ch <= "Z":  # the most common token first
            m = _ELEMENTS.match(body, i)
            kind, chunk, i = "element", [_atom("".join(m[0].split()))], m.end()
        elif ch.isspace():
            i += 1
            continue
        elif ch in "<-" and (arrow := _ARROW.match(body, i)):
            kind, chunk, i = "arrow", [_LIT[_COMMANDS[arrow[0]]]], arrow.end()
        elif ch == "$":
            raise _err("nested math inside \\ce is not supported", body, i, i + 1)
        elif ch == "+":
            nxt = body[i + 1:i + 2]
            # A charge sign touches its species; a separator is spaced or
            # stands between species starts.
            spaced = body[i - 1:i].isspace()
            if not spaced and prev in _CHARGEABLE and not (nxt.isalnum() or nxt == "("):
                kind, chunk = "charge", [_atom("^+")]
            else:
                kind, chunk = "plus", [_LIT["+"]]
            i += 1
        elif ch == "-":
            if prev not in _CHARGEABLE:
                raise _err("'-' must follow an element or count", body, i, i + 1)
            j = i + 1
            while j < n and body[j].isspace():
                j += 1
            after = body[j:j + 1]
            if after.isupper() or after == "(" and not _STATE.match(body, j):
                kind, chunk = "bond", [_LIT["-"]]
            elif not body[i - 1:i].isspace():
                kind, chunk = "charge", [_atom("^-")]
            else:
                raise _err("'-' must bond two species or trail as a charge", body, i, i + 1)
            i += 1
        elif ch in "=#*":
            if ch != "*" and prev not in _CHARGEABLE:
                raise _err(f"'{ch}' bond must follow an element", body, i, i + 1)
            kind, chunk, i = "bond", [_LIT[_COMMANDS.get(ch, ch)]], i + 1
        elif ch == "(":
            state = _STATE.match(body, i)
            if state and prev in ("element", "count", "close", "charge"):
                kind, i = "state", state.end()
                chunk = [_LIT["("], _mathrm(state[1]), _LIT[")"]]
            else:
                kind, chunk, i = "open", [_LIT["("]], i + 1
                depth += 1
        elif ch == ")":
            kind, chunk, i = "close", [_LIT[")"]], i + 1
            depth -= 1
            low = min(low, depth)
        elif ch == "^":
            kind, chunk, i = _scan_caret(body, i, prev in _SPECIES_START)
        elif ch == "_":
            digits, i = _scan_script_digits(body, i + 1, "subscript")
            kind, chunk = "count", [_atom(digits + "^")]
        elif "0" <= ch <= "9":
            if prev in _SPECIES_START:
                m = _COEFF.match(body, i)
                num, _, den = m[0].partition("/")
                kind, chunk = "stoich_coeff", [*map(_LIT.__getitem__, m[0])]
                if den:
                    chunk = [Fun("frac", (_arg(num), _arg(den))), _LIT["\\,"]]
            elif prev == "element" or prev == "close":
                m = _NUMBER.match(body, i)
                kind, chunk = "count", [_atom(m[0] + "^")]
            else:
                raise _err("unexpected number", body, i, _NUMBER.match(body, i).end())
            i = m.end()
        else:
            raise _err(f"unsupported character {ch!r} in \\ce", body, i, i + 1)
        chunks.append(chunk)
        prev = kind
    if low < 0:
        raise _err("unbalanced ')'", body, 0, len(body))
    if depth:
        raise _err("unbalanced '(' grouping", body, 0, len(body))
    return chunks


def _scan_script_digits(body: str, i: int, what: str) -> tuple[str, int]:
    if body[i:i + 1] == "{":
        m = _DIGITS.match(body, i + 1)
        if m and body[m.end():m.end() + 1] == "}":
            return m[0], m.end() + 1
        raise _err(f"malformed {what}", body, i, i + 1)
    m = _DIGITS.match(body, i)
    if not m:
        raise _err(f"expected digits in {what}", body, i, i + 1)
    return m[0], m.end()


def _scan_caret(body: str, i: int, species_start: bool) -> tuple[str, list[AstNode], int]:
    """The isotope prescript or charge at the ``^`` at `i`: kind, chunk, end."""
    if species_start:
        # Isotope prescripts: ^{227}_{90}Th or ^227_90Th.
        mass, j = _scan_script_digits(body, i + 1, "isotope mass")
        number = ""
        if body[j:j + 1] == "_":
            number, j = _scan_script_digits(body, j + 1, "atomic number")
        if not body[j:j + 1].isupper():
            raise _err("isotope prescript must precede an element", body, i, j)
        return "isotope", [_atom(number + "^" + mass)], j
    j = i + 1
    if body[j:j + 1] == "{":
        end = body.find("}", j)
        if end < 0:
            raise _err("unterminated charge", body, i, j)
        content = body[j + 1:end]
        if not _CHARGE.fullmatch(content):
            raise _err(f"malformed charge {content!r}", body, i, end)
        return "charge", [_atom("^" + content)], end + 1
    m = _CHARGE.match(body, j)
    if not m:
        raise _err("malformed charge", body, i, j + 1)
    return "charge", [_atom("^" + m[0])], m.end()


# -- \pu ------------------------------------------------------------------


def _pu_chunks(body: str) -> list[list[AstNode]]:
    text = body.strip()
    if not text:
        return []
    shift = body.find(text[0])
    out: list[AstNode] = []
    i = 0
    m = _PU_NUMBER.match(text)
    if m:
        out += map(_LIT.__getitem__, m[1])
        if m[2]:
            # Normalized as text: int() refuses more than 4300 digits.
            digits = m[2].lstrip("+-").lstrip("0")
            power = "-" + digits if digits and m[2][0] == "-" else digits or "0"
            out += [_LIT["\\times"], Script(Curly((_LIT["1"], _LIT["0"])), None, _arg(power))]
        i = m.end()
    while i < len(text) and text[i].isspace():
        i += 1
    if i < len(text):
        if out:
            out.append(_LIT["\\,"])
        _unit(body, text[i:], shift + i, out)
    return [out]


def _unit(body: str, unit: str, base: int, out: list[AstNode]) -> None:
    """Append the nodes of `unit`, found at codepoint `base` of `body`."""
    i = 0
    while True:
        m = _UNIT_ATOM.match(unit, i)
        if not m:
            if i == len(unit):  # after a separator
                raise _err("dangling unit separator", body, base + i - 1, base + i)
            raise _err(f"expected a unit symbol at {unit[i:]!r}", body,
                       base + i, base + i + 1)
        out.append(Script(_mathrm(m[1]), None, _arg(m[2])) if m[2] else _mathrm(m[1]))
        i = m.end()
        if i == len(unit):
            return
        sep = unit[i]
        if sep in ".*":
            out.append(_LIT["\\cdot"])
        elif sep == "/":
            out.append(_LIT["/"])
        else:
            raise _err(f"unsupported unit separator {sep!r}", body, base + i, base + i + 1)
        i += 1
