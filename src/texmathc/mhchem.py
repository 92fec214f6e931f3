"""Chemistry: expands the body of ``\\ce{...}`` and ``\\pu{...}`` to plain math.

`expand` builds the expansion as the parser's own (kind, value) token pairs,
chunk by chunk; under chemistry mode the parser puts them in place of the
command's tokens with the command's span (see ``parser``), so no TeX text is
built or scanned again.  `expand_ce` and `expand_pu` give the same expansion
as whitelisted TeX, joined from those chunks.  The implemented subset covers
elements, numeric subscripts, charges, stoichiometric coefficients (integer,
decimal, and a/b fractions), isotope prescripts, aggregate states,
single/double/triple bonds, reaction arrows, ``+`` separators, hydrate dots
(``*``), and the number-unit forms of ``\\pu``.
Everything outside the subset is rejected with a positioned diagnostic
rather than guessed at.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import repeat

from .diagnostics import (
    E_CHEM_SYNTAX,
    ERROR,
    ChemError,
    Diagnostic,
    byte_offsets,
)

_ELEMENT = re.compile(r"[A-Z][a-z]?")
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
    "<=>": "longrightleftharpoons",
    "<->": "longleftrightarrow",
    "->": "longrightarrow",
    "<-": "longleftarrow",
    "#": "equiv",
    "*": "cdot",
}

Pair = tuple[str, str]  # the kind and value of a parser token

_MATHRM: Pair = ("cmd", "mathrm")
_SUB: Pair = ("sub", "_")
_SUP: Pair = ("sup", "^")
_EMPTY_BASE = (("lbrace", "{"), ("rbrace", "}"))


@dataclass(slots=True)
class ChemToken:
    kind: str  # element, count, charge, arrow, plus, state, bond, stoich_coeff, isotope, open, close
    payload: str


def _err(message: str, text: str, start: int, end: int) -> ChemError:
    (span,) = byte_offsets(text, [(start, end)])
    return ChemError(Diagnostic(ERROR, E_CHEM_SYNTAX, message, span))


def _braced(text: str) -> list[Pair]:
    """``{text}``: every payload character is an ordinary character token."""
    return [("lbrace", "{"), *zip(repeat("char"), text), ("rbrace", "}")]


def expand(body: str, command: str) -> list[list[Pair]]:
    """The token pairs of ``\\ce{body}``, or of ``\\pu{body}`` when `command`
    is "pu", chunk by chunk (a ``\\pu`` expansion is one chunk)."""
    return _pu_chunks(body) if command == "pu" else _ce_chunks(tokenize_ce(body))


def _text(chunks: list[list[Pair]]) -> str:
    """The TeX of the chunks, separated by a space.  No command name in a
    chunk is followed by a letter, so the parser reads the text back as the
    same pairs."""
    return " ".join("".join("\\" + value if kind == "cmd" else value for kind, value in chunk)
                    for chunk in chunks)


def expand_ce(body: str) -> str:
    """Expand one ``\\ce`` body to whitelisted LaTeX."""
    return _text(expand(body, "ce"))


def expand_pu(body: str) -> str:
    """Expand one ``\\pu`` body: number, optional power-of-ten, upright units.

    Quotients keep the solidus form (``m/s`` stays a slash, not a fraction).
    """
    return _text(expand(body, "pu"))


def preprocess(body: str, command: str) -> str:
    """The TeX of ``expand(body, command)``.

    The parser does not call it; the name stays because the benchmark's
    tracer names it as a target.
    """
    return _text(expand(body, command))


# -- \ce ------------------------------------------------------------------


def tokenize_ce(body: str) -> list[ChemToken]:
    """Scan a ``\\ce`` body into chemistry tokens, enforcing the subset."""
    toks: list[ChemToken] = []
    i = 0
    n = len(body)
    pending_space = False
    while i < n:
        ch = body[i]
        if ch.isspace():
            pending_space = True
            i += 1
            continue
        spaced, pending_space = pending_space, False
        prev = toks[-1].kind if toks else "start"
        if ch in "<-" and (arrow := _ARROW.match(body, i)):
            kind, payload, i = "arrow", arrow[0], arrow.end()
        elif ch == "$":
            raise _err("nested math inside \\ce is not supported", body, i, i + 1)
        elif ch == "+":
            nxt = body[i + 1:i + 2]
            # A charge sign touches its species; a separator is spaced or
            # stands between species starts.
            charge = not spaced and prev in _CHARGEABLE and not (nxt.isalnum() or nxt == "(")
            kind, payload, i = "charge" if charge else "plus", "+", i + 1
        elif ch == "-":
            if prev not in _CHARGEABLE:
                raise _err("'-' must follow an element or count", body, i, i + 1)
            j = i + 1
            while j < n and body[j].isspace():
                j += 1
            after = body[j:j + 1]
            if after.isupper() or after == "(" and not _STATE.match(body, j):
                kind = "bond"
            elif not spaced:
                kind = "charge"
            else:
                raise _err("'-' must bond two species or trail as a charge", body, i, i + 1)
            payload, i = "-", i + 1
        elif ch in "=#":
            if prev not in _CHARGEABLE:
                raise _err(f"'{ch}' bond must follow an element", body, i, i + 1)
            kind, payload, i = "bond", ch, i + 1
        elif ch == "*":
            kind, payload, i = "bond", "*", i + 1
        elif ch == "(":
            state = _STATE.match(body, i)
            if state and prev in ("element", "count", "close", "charge"):
                kind, payload, i = "state", state[1], state.end()
            else:
                kind, payload, i = "open", "(", i + 1
        elif ch == ")":
            kind, payload, i = "close", ")", i + 1
        elif ch == "^":
            kind, payload, i = _scan_caret(body, i, prev in _SPECIES_START)
        elif ch == "_":
            kind = "count"
            payload, i = _scan_script_digits(body, i + 1, "subscript")
        elif "0" <= ch <= "9":
            if prev in _SPECIES_START:
                kind, m = "stoich_coeff", _COEFF.match(body, i)
            elif prev == "element" or prev == "close":
                kind, m = "count", _NUMBER.match(body, i)
            else:
                raise _err("unexpected number", body, i, _NUMBER.match(body, i).end())
            payload, i = m[0], m.end()
        elif m := _ELEMENT.match(body, i):
            kind, payload, i = "element", m[0], m.end()
        else:
            raise _err(f"unsupported character {ch!r} in \\ce", body, i, i + 1)
        toks.append(ChemToken(kind, payload))
    _check_sequence(toks, body)
    return toks


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


def _scan_caret(body: str, i: int, species_start: bool) -> tuple[str, str, int]:
    """The isotope prescript or charge at the ``^`` at `i`: kind, payload, end."""
    if species_start:
        # Isotope prescripts: ^{227}_{90}Th or ^227_90Th.
        mass, j = _scan_script_digits(body, i + 1, "isotope mass")
        number = ""
        if body[j:j + 1] == "_":
            number, j = _scan_script_digits(body, j + 1, "atomic number")
        if not body[j:j + 1].isupper():
            raise _err("isotope prescript must precede an element", body, i, j)
        return "isotope", mass + ("/" + number if number else ""), j
    j = i + 1
    if body[j:j + 1] == "{":
        end = body.find("}", j)
        if end < 0:
            raise _err("unterminated charge", body, i, j)
        content = body[j + 1:end]
        if not _CHARGE.fullmatch(content):
            raise _err(f"malformed charge {content!r}", body, i, end)
        return "charge", content, end + 1
    m = _CHARGE.match(body, j)
    if not m:
        raise _err("malformed charge", body, i, j + 1)
    return "charge", m[0], m.end()


def _check_sequence(toks: list[ChemToken], body: str) -> None:
    depth = 0
    for tok in toks:
        if tok.kind == "open":
            depth += 1
        elif tok.kind == "close":
            depth -= 1
            if depth < 0:
                raise _err("unbalanced ')'", body, 0, len(body))
    if depth != 0:
        raise _err("unbalanced '(' grouping", body, 0, len(body))


def _ce_chunks(toks: list[ChemToken]) -> list[list[Pair]]:
    """One chunk per chemistry token; a run of elements is one upright name."""
    chunks: list[list[Pair]] = []
    prev = ""
    for tok in toks:
        kind, payload = tok.kind, tok.payload
        if kind == "element":
            if prev == "element":  # inside the braces of the run's \mathrm
                chunks[-1][-1:-1] = zip(repeat("char"), payload)
            else:
                chunks.append([_MATHRM, *_braced(payload)])
        elif kind == "count":
            chunks.append([*_EMPTY_BASE, _SUB, *_braced(payload)])
        elif kind == "charge":
            chunks.append([*_EMPTY_BASE, _SUP, *_braced(payload)])
        elif kind == "isotope":
            mass, _, number = payload.partition("/")
            chunks.append([*_EMPTY_BASE, _SUB, *_braced(number), _SUP, *_braced(mass)]
                          if number else [*_EMPTY_BASE, _SUP, *_braced(mass)])
        elif kind == "state":
            chunks.append([("char", "("), _MATHRM, *_braced(payload), ("char", ")")])
        elif kind == "stoich_coeff":
            num, _, den = payload.partition("/")
            chunks.append([("cmd", "frac"), *_braced(num), *_braced(den), ("cmd", ",")]
                          if den else list(zip(repeat("char"), payload)))
        else:  # arrow, plus, bond, open, close
            name = _COMMANDS.get(payload)
            chunks.append([("cmd", name) if name else ("char", payload)])
        prev = kind
    return chunks


# -- \pu ------------------------------------------------------------------


def _pu_chunks(body: str) -> list[list[Pair]]:
    text = body.strip()
    if not text:
        return []
    shift = body.find(text[0])
    out: list[Pair] = []
    i = 0
    m = _PU_NUMBER.match(text)
    if m:
        out += zip(repeat("char"), m[1])
        if m[2]:
            out += [("cmd", "times"), *_braced("10"), _SUP, *_braced(str(int(m[2])))]
        i = m.end()
    while i < len(text) and text[i].isspace():
        i += 1
    if i < len(text):
        if out:
            out.append(("cmd", ","))
        _unit(body, text[i:], shift + i, out)
    return [out]


def _unit(body: str, unit: str, base: int, out: list[Pair]) -> None:
    """Append the pairs of `unit`, found at codepoint `base` of `body`."""
    i = 0
    while True:
        m = _UNIT_ATOM.match(unit, i)
        if not m:
            if i == len(unit):  # after a separator
                raise _err("dangling unit separator", body, base + i - 1, base + i)
            raise _err(f"expected a unit symbol at {unit[i:]!r}", body,
                       base + i, base + i + 1)
        out += [_MATHRM, *_braced(m[1])]
        if m[2]:
            out += [_SUP, *_braced(m[2])]
        i = m.end()
        if i == len(unit):
            return
        sep = unit[i]
        if sep in ".*":
            out.append(("cmd", "cdot"))
        elif sep == "/":
            out.append(("char", "/"))
        else:
            raise _err(f"unsupported unit separator {sep!r}", body, base + i, base + i + 1)
        i += 1
