"""Chemistry: expands the body of ``\\ce{...}`` and ``\\pu{...}`` to plain math.

Under chemistry mode the parser calls ``preprocess`` on each body it meets
and parses the expansion in place (see ``parser``).  The implemented subset
covers elements, numeric subscripts, charges, stoichiometric coefficients
(integer, decimal, and a/b fractions), isotope prescripts, aggregate states,
single/double/triple bonds, reaction arrows, ``+`` separators, hydrate dots
(``*``), and the number-unit forms of ``\\pu``.
Everything outside the subset is rejected with a positioned diagnostic
rather than guessed at.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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
_PU_NUMBER = re.compile(r"-?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")
_UNIT_ATOM = re.compile(r"[A-Za-z]+[0-9]*")

ARROWS = (
    ("<=>", "\\longrightleftharpoons"),
    ("<->", "\\longleftrightarrow"),
    ("->", "\\longrightarrow"),
    ("<-", "\\longleftarrow"),
)
_ARROW = re.compile("|".join(re.escape(text) for text, _ in ARROWS))  # in ARROWS' order
_STATE = re.compile(r"\((aq|s|l|g)\)")
# The TeX of an arrow, plus, bond or parenthesis where it is not the payload itself.
_TEX = {**dict(ARROWS), "#": "\\equiv", "*": "\\cdot"}


@dataclass(frozen=True)
class ChemToken:
    kind: str  # element, count, charge, arrow, plus, state, bond, stoich_coeff, isotope, text
    payload: str


def _err(message: str, text: str, start: int, end: int) -> ChemError:
    (span,) = byte_offsets(text, [(start, end)])
    return ChemError(Diagnostic(ERROR, E_CHEM_SYNTAX, message, span))


def preprocess(body: str, command: str) -> str:
    """The expansion of ``\\ce{body}``, or of ``\\pu{body}`` when `command` is "pu".

    Per-layer tracing times the chemistry under this name.
    """
    return expand_pu(body) if command == "pu" else expand_ce(body)


# -- \ce ------------------------------------------------------------------


def tokenize_ce(body: str) -> list[ChemToken]:
    """Scan a ``\\ce`` body into chemistry tokens, enforcing the subset."""
    toks: list[ChemToken] = []
    i = 0
    n = len(body)
    # Kinds after which a ^/-/+ reads as charge rather than prescript/bond logic.
    chargeable = ("element", "count", "state", "close")

    def prev_kind() -> str:
        return toks[-1].kind if toks else "start"

    def at_species_start() -> bool:
        return prev_kind() in ("start", "arrow", "plus", "bond", "open", "stoich_coeff")

    pending_space = False
    while i < n:
        ch = body[i]
        if ch.isspace():
            pending_space = True
            i += 1
            continue
        spaced = pending_space
        pending_space = False
        arrow = _ARROW.match(body, i) if ch in "<-" else None
        if arrow:
            toks.append(ChemToken("arrow", arrow[0]))
            i = arrow.end()
            continue
        if ch == "$":
            raise _err("nested math inside \\ce is not supported", body, i, i + 1)
        if ch == "+":
            nxt = body[i + 1] if i + 1 < n else ""
            # A charge sign touches its species; a separator is spaced or
            # stands between species starts.
            if (not spaced and prev_kind() in chargeable
                    and not (nxt.isalnum() or nxt == "(")):
                toks.append(ChemToken("charge", "+"))
            else:
                toks.append(ChemToken("plus", "+"))
            i += 1
            continue
        if ch == "-":
            j = i + 1
            while j < n and body[j].isspace():
                j += 1
            after = body[j] if j < n else ""
            bonds_to_group = after == "(" and not _STATE.match(body, j)
            if prev_kind() in chargeable:
                if after.isupper() or bonds_to_group:
                    toks.append(ChemToken("bond", "-"))
                elif not spaced:
                    toks.append(ChemToken("charge", "-"))
                else:
                    raise _err("'-' must bond two species or trail as a charge",
                               body, i, i + 1)
                i += 1
                continue
            raise _err("'-' must follow an element or count", body, i, i + 1)
        if ch in "=#":
            if prev_kind() not in chargeable:
                raise _err(f"'{ch}' bond must follow an element", body, i, i + 1)
            toks.append(ChemToken("bond", ch))
            i += 1
            continue
        if ch == "*":
            toks.append(ChemToken("bond", "*"))
            i += 1
            continue
        if ch == "(":
            state = _STATE.match(body, i)
            if state and prev_kind() in ("element", "count", "close", "charge"):
                toks.append(ChemToken("state", state[1]))
                i = state.end()
                continue
            toks.append(ChemToken("open", "("))
            i += 1
            continue
        if ch == ")":
            toks.append(ChemToken("close", ")"))
            i += 1
            continue
        if ch == "^":
            i = _scan_caret(body, i, toks, at_species_start())
            continue
        if ch == "_":
            count, i = _scan_script_digits(body, i + 1, "subscript")
            toks.append(ChemToken("count", count))
            continue
        if ch.isdigit():
            m = _NUMBER.match(body, i)
            assert m is not None
            text = m.group(0)
            end = m.end()
            if at_species_start():
                if end < n and body[end] == "/" and _DIGITS.match(body, end + 1):
                    m2 = _DIGITS.match(body, end + 1)
                    assert m2 is not None
                    toks.append(ChemToken("stoich_coeff", f"{text}/{m2.group(0)}"))
                    i = m2.end()
                else:
                    toks.append(ChemToken("stoich_coeff", text))
                    i = end
            elif prev_kind() in ("element", "close"):
                toks.append(ChemToken("count", text))
                i = end
            else:
                raise _err("unexpected number", body, i, end)
            continue
        m = _ELEMENT.match(body, i)
        if m:
            toks.append(ChemToken("element", m.group(0)))
            i = m.end()
            continue
        raise _err(f"unsupported character {ch!r} in \\ce", body, i, i + 1)
    _check_sequence(toks, body)
    return toks


def _scan_script_digits(body: str, i: int, what: str) -> tuple[str, int]:
    if i < len(body) and body[i] == "{":
        m = _DIGITS.match(body, i + 1)
        if m and m.end() < len(body) and body[m.end()] == "}":
            return m.group(0), m.end() + 1
        raise _err(f"malformed {what}", body, i, i + 1)
    m = _DIGITS.match(body, i)
    if not m:
        raise _err(f"expected digits in {what}", body, i, i + 1)
    return m.group(0), m.end()


_CHARGE_BODY = re.compile(r"([0-9]+)?([+-])")


def _scan_caret(body: str, i: int, toks: list[ChemToken], species_start: bool) -> int:
    if species_start:
        # Isotope prescripts: ^{227}_{90}Th or ^227_90Th.
        mass, j = _scan_script_digits(body, i + 1, "isotope mass")
        number = ""
        if j < len(body) and body[j] == "_":
            number, j = _scan_script_digits(body, j + 1, "atomic number")
        if not (j < len(body) and body[j].isupper()):
            raise _err("isotope prescript must precede an element", body, i, j)
        payload = mass + ("/" + number if number else "")
        toks.append(ChemToken("isotope", payload))
        return j
    j = i + 1
    braced = j < len(body) and body[j] == "{"
    if braced:
        end = body.find("}", j)
        if end < 0:
            raise _err("unterminated charge", body, i, j)
        content = body[j + 1:end]
        if not re.fullmatch(r"[0-9]*[+-]", content):
            raise _err(f"malformed charge {content!r}", body, i, end)
        toks.append(ChemToken("charge", content))
        return end + 1
    m = _CHARGE_BODY.match(body, j)
    if not m:
        raise _err("malformed charge", body, i, j + 1)
    toks.append(ChemToken("charge", (m.group(1) or "") + m.group(2)))
    return m.end()


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


def expand_ce(body: str) -> str:
    """Expand one ``\\ce`` body to whitelisted LaTeX."""
    toks = tokenize_ce(body)
    chunks: list[str] = []
    i = 0
    while i < len(toks):
        tok = toks[i]
        if tok.kind == "element":
            run = [tok.payload]
            while i + 1 < len(toks) and toks[i + 1].kind == "element":
                i += 1
                run.append(toks[i].payload)
            chunks.append("\\mathrm{" + "".join(run) + "}")
        elif tok.kind == "count":
            chunks.append("{}_{" + tok.payload + "}")
        elif tok.kind == "charge":
            chunks.append("{}^{" + tok.payload + "}")
        elif tok.kind == "isotope":
            mass, _, number = tok.payload.partition("/")
            if number:
                chunks.append("{}_{" + number + "}^{" + mass + "}")
            else:
                chunks.append("{}^{" + mass + "}")
        elif tok.kind in ("arrow", "plus", "bond", "open", "close"):
            chunks.append(_TEX.get(tok.payload, tok.payload))
        elif tok.kind == "state":
            chunks.append("(\\mathrm{" + tok.payload + "})")
        elif tok.kind == "stoich_coeff":
            num, _, den = tok.payload.partition("/")
            if den:
                chunks.append("\\frac{" + num + "}{" + den + "}\\,")
            else:
                chunks.append(tok.payload)
        i += 1
    return " ".join(chunks)


# -- \pu ------------------------------------------------------------------


def expand_pu(body: str) -> str:
    """Expand one ``\\pu`` body: number, optional power-of-ten, upright units.

    Quotients keep the solidus form (``m/s`` stays a slash, not a fraction).
    """
    text = body.strip()
    if not text:
        return ""
    shift = body.find(text[0]) if text else 0
    chunks: list[str] = []
    i = 0
    m = _PU_NUMBER.match(text)
    if m:
        number = m.group(0)
        i = m.end()
        if "e" in number or "E" in number:
            mantissa, exponent = re.split(r"[eE]", number)
            chunks.append(mantissa + "\\times{10}^{" + str(int(exponent)) + "}")
        else:
            chunks.append(number)
    while i < len(text) and text[i].isspace():
        i += 1
    unit = text[i:]
    if unit:
        if chunks:
            chunks.append("\\,")
        chunks.append(_expand_unit(body, unit, shift + i))
    return "".join(chunks)


def _expand_unit(body: str, unit: str, base: int) -> str:
    """Expand `unit`, found at codepoint `base` of `body`."""
    out: list[str] = []
    i = 0
    expect_atom = True
    while i < len(unit):
        ch = unit[i]
        if expect_atom:
            m = _UNIT_ATOM.match(unit, i)
            if not m:
                raise _err(f"expected a unit symbol at {unit[i:]!r}", body,
                           base + i, base + i + 1)
            atom = m.group(0)
            letters = atom.rstrip("0123456789")
            power = atom[len(letters):]
            out.append("\\mathrm{" + letters + "}")
            if power:
                out.append("^{" + power + "}")
            i = m.end()
            expect_atom = False
            continue
        if ch in ".*":
            out.append("\\cdot")
        elif ch == "/":
            out.append("/")
        else:
            raise _err(f"unsupported unit separator {ch!r}", body,
                       base + i, base + i + 1)
        i += 1
        expect_atom = True
    if expect_atom:
        raise _err("dangling unit separator", body, base + len(unit) - 1,
                   base + len(unit))
    return "".join(out)
