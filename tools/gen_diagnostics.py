#!/usr/bin/env python3
"""Regenerate ``tests/fixtures/diagnostics.json``, the frozen diagnostics.

COUNT sources are drawn with ``random.Random(SEED)``, a third of each shape:

* an ``\\intent`` macro: an optional PREFIX, one of BODIES, then an
  ``intent`` value, either one of TEMPLATES or 0 to MAX_PIECES of VALUE
  (``$`` and ``\\$`` references, applications, hints, non-ASCII letters, a
  lone surrogate), sometimes followed by an ``arg`` value of 0 to 3 of ARG;
* a ``\\ce`` or ``\\pu`` command: an optional PREFIX and a body of 0 to
  MAX_PIECES chemistry pieces, its closing brace sometimes left out;
* 1 to MAX_PIECES pieces drawn from all of the above.

Every piece is replaced by one of NOISE (unbalanced braces, quotes, a
carriage return, a lone surrogate, the start of a macro) with probability
NOISE_P.  For each source the fixture records, as ``format_line()`` strings:

* ``check``: ``check_formula`` with chemistry off and on;
* ``convert``: the diagnostics of ``convert_formula``'s ``ConversionFailed``
  with chemistry off and on, or null when it converts;
* ``stages``: the ``diagnostic`` of the error that ``expand_ce``,
  ``expand_pu``, ``parse_intent`` and ``parse_macro`` raise on ``inner``,
  or null when it is accepted.  ``inner`` is the option block of the first
  shape, the body of the second and the whole source of the third.

``tests/test_spans.py`` compares the current code against it.

    PYTHONPATH=src python3 tools/gen_diagnostics.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from texmathc import ConversionFailed, check_formula, convert_formula  # noqa: E402
from texmathc.diagnostics import DiagnosticError  # noqa: E402
from texmathc.intent import parse_intent, parse_macro  # noqa: E402
from texmathc.mhchem import expand_ce, expand_pu  # noqa: E402

FIXTURE = ROOT / "tests" / "fixtures" / "diagnostics.json"
SEED = 16
COUNT = 2000
MAX_PIECES = 8
NOISE_P = 0.08
PREFIX = ("\\text{日本}", "\\text{é}", "\\text{𝑥}", "x^2", "\\and", "\\text{\r}", "é",
          "\\badcmd")
BODIES = ("x", "y", "x+x", "{x}", "\\alpha", "", "é")
TEMPLATES = ("f($x)", "f(\\$x)", "$x", "\\$y", "f($x, \\$y)", "g@prefix(\\$x)", "", "$y",
             "f(\\$x,$x)", ":common", "f(\\$y, $x)")
VALUE = ("f(", "$x", "\\$x", "$y", "\\$y", ")", ",", " ", "@prefix", "@bad", ":common",
         ":bad", "é", "日", "\ud800", "2", "-1.5", "\\", "$", "(", "g")
ARG = ("a=\\$x", "a=x", "x=y", ",", "é", "\\$", " ", "=", "\ud800", "x=x")
CHEM = ("H2O", "Na", "+", "->", "^", "_", "2", "(", ")", "(aq)", "é", "日", "$", " ",
        "m", "/s", "e-3", "1.5", "-", "\r", "^{2-}", "\ud800")
ANY = ("\\ce{", "\\pu{", "\\intent{x}{intent='", "\\$x", ", arg='a=\\$x'", "é", "日",
       "\ud800", "\r", "{", "}", "'}", "x", "$y", "f(", ")", "\\intent{x}{intent=''}",
       "\\text{", "\\and", " ")
NOISE = ("{", "}", "'", "\r", "\ud800", "\\intent{", "\\ce{", "\\$")


def intent_macro(rng: random.Random) -> tuple[list[str], list[str], list[str]]:
    """Prefix, option block and closing pieces of one macro."""
    head = [rng.choice(PREFIX)] if rng.random() < 0.5 else []
    block = ["intent='"]
    if rng.random() < 0.6:
        block.append(rng.choice(TEMPLATES))
    else:
        block += rng.choices(VALUE, k=rng.randint(0, MAX_PIECES))
    block.append("'")
    if rng.random() < 0.4:
        block += [", arg='", *rng.choices(ARG, k=rng.randint(0, 3)), "'"]
    return [*head, "\\intent{", rng.choice(BODIES), "}{"], block, ["}"]


def chemistry(rng: random.Random) -> tuple[list[str], list[str], list[str]]:
    """Prefix, body and closing pieces of one command."""
    head = [rng.choice(PREFIX)] if rng.random() < 0.5 else []
    body = rng.choices(CHEM, k=rng.randint(0, MAX_PIECES))
    return [*head, rng.choice(("\\ce{", "\\pu{"))], body, ["}"] if rng.random() < 0.9 else []


def source(rng: random.Random, shape: int) -> tuple[str, str]:
    """A source and the text inside its braces (the whole source for the
    third shape)."""
    if shape == 0:
        parts = intent_macro(rng)
    elif shape == 1:
        parts = chemistry(rng)
    else:
        parts = [], rng.choices(ANY, k=rng.randint(1, MAX_PIECES)), []
    head, inner, tail = ("".join(rng.choice(NOISE) if rng.random() < NOISE_P else piece
                                 for piece in pieces) for pieces in parts)
    return head + inner + tail, inner


def record(text: str, inner: str) -> dict:
    """What each entry point reports on `text`; the single stages read `inner`."""
    def converted(chem: bool) -> list[str] | None:
        try:
            convert_formula(text, chem=chem)
        except ConversionFailed as exc:
            return [d.format_line() for d in exc.diagnostics]
        return None

    def stage(fn) -> str | None:
        try:
            fn(inner)
        except DiagnosticError as exc:
            return exc.diagnostic.format_line()
        return None

    return {
        "source": text,
        "inner": inner,
        "check": [[d.format_line() for d in check_formula(text, chem=chem)]
                  for chem in (False, True)],
        "convert": [converted(chem) for chem in (False, True)],
        "stages": [stage(fn) for fn in (expand_ce, expand_pu, parse_intent, parse_macro)],
    }


def main() -> int:
    rng = random.Random(SEED)
    cases = [record(*source(rng, k % 3)) for k in range(COUNT)]
    header = json.dumps({
        "generator": "tools/gen_diagnostics.py",
        "seed": SEED,
        "about": "check_formula and convert_formula with chemistry off and on, and the "
                 "errors of expand_ce, expand_pu, parse_intent and parse_macro, as "
                 "format_line() strings",
    })
    # One case per line; ASCII escapes keep lone surrogates writable.
    FIXTURE.write_text(header[:-1] + ', "cases": [\n'
                       + ",\n".join(json.dumps(case) for case in cases) + "\n]}\n", "utf-8")
    failing = sum(bool(case["check"][0]) for case in cases)
    print(f"{FIXTURE.relative_to(ROOT)}: {len(cases)} sources, "
          f"{failing} with a finding under check")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
