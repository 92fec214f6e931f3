#!/usr/bin/env python3
"""Regenerate ``tests/fixtures/chem_expansions.json``, the frozen chemistry
expansions.

COUNT bodies are drawn with ``random.Random(SEED)``, a third of each shape:

* a reaction: species (an optional coefficient or fraction, elements with
  counts, an optional charge, isotope or state) joined by spaces, ``+``,
  arrows and bonds;
* a quantity: a number, an optional exponent, then units joined by
  separators;
* 1 to MAX_PIECES pieces drawn from all of the above.

Every piece is replaced by one of NOISE (braces, ``$``, a non-ASCII letter,
stray separators, a backslash) with probability NOISE_P.
For each body the fixture records the ``expand_ce`` and the ``expand_pu``
result: the expansion string, or the raised ``ChemError`` as its code,
message and byte span.  ``tests/test_mhchem.py`` compares the current code
against it.

    PYTHONPATH=src python3 tools/gen_chem_expansions.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from texmathc.diagnostics import ChemError  # noqa: E402
from texmathc.mhchem import expand_ce, expand_pu  # noqa: E402

FIXTURE = ROOT / "tests" / "fixtures" / "chem_expansions.json"
SEED = 15
COUNT = 1000
MAX_PIECES = 10
NOISE_P = 0.06
ELEMENTS = ("H", "O", "C", "N", "Na", "Cl", "Fe", "Th", "Au")
COEFFS = ("2", "3", "10", "1.5", "1/2", "0")
COUNTS = ("2", "3", "12", "_{2}", "_2", "1.5", "0")
CHARGES = ("+", "-", "^+", "^{2-}", "^3+", "2+", "^{+}", "^-")
STATES = ("(aq)", "(s)", "(l)", "(g)")
ISOTOPES = ("^{227}_{90}", "^227_90", "^{14}", "^2")
JOINS = (" + ", " -> ", " <=> ", " <- ", " <-> ", "-", "=", "#", "*", " * ", " ", "+",
         "(", ")", " (", ") ")
NUMBERS = ("1", "-2", "0.5", "1.5", "12", "-0.25")
EXPONENTS = ("e-3", "E+04", "e0003", "e-00", "e7", "e+0")
UNITS = ("m", "kg", "s", "mol", "s2", "m3", "K", "J")
UNIT_SEPS = (".", "*", "/")
NOISE = ("{", "}", "$", "é", "/", ".", "^", "_", "a", "\\", "  ", "(", ")")


def species(rng: random.Random) -> list[str]:
    out = [rng.choice(COEFFS)] if rng.random() < 0.3 else []
    if rng.random() < 0.15:
        out.append(rng.choice(ISOTOPES))
    for _ in range(rng.randint(1, 3)):
        out.append(rng.choice(ELEMENTS))
        if rng.random() < 0.5:
            out.append(rng.choice(COUNTS))
    tail = rng.random()
    if tail < 0.3:
        out.append(rng.choice(CHARGES))
    elif tail < 0.5:
        out.append(rng.choice(STATES))
    return out


def reaction(rng: random.Random) -> list[str]:
    out = species(rng)
    for _ in range(rng.randint(0, 3)):
        out += [rng.choice(JOINS), *species(rng)]
    return out


def quantity(rng: random.Random) -> list[str]:
    out = [rng.choice(NUMBERS)] if rng.random() < 0.9 else []
    if rng.random() < 0.4:
        out.append(rng.choice(EXPONENTS))
    if rng.random() < 0.8:
        out.append(" ")
    out.append(rng.choice(UNITS))
    for _ in range(rng.randint(0, 2)):
        out += [rng.choice(UNIT_SEPS), rng.choice(UNITS)]
    return out


ANY = (ELEMENTS + COEFFS + COUNTS + CHARGES + STATES + ISOTOPES + JOINS + NUMBERS
       + EXPONENTS + UNITS + UNIT_SEPS)


def body(rng: random.Random, shape: int) -> str:
    if shape == 0:
        pieces = reaction(rng)
    elif shape == 1:
        pieces = quantity(rng)
    else:
        pieces = rng.choices(ANY, k=rng.randint(1, MAX_PIECES))
    return "".join(rng.choice(NOISE) if rng.random() < NOISE_P else piece for piece in pieces)


def outcome(expand, body: str):
    try:
        return expand(body)
    except ChemError as exc:
        d = exc.diagnostic
        return {"code": d.code, "message": d.message, "span": list(d.span)}


def cases() -> list[dict]:
    rng = random.Random(SEED)
    out = []
    for k in range(COUNT):
        text = body(rng, k % 3)
        out.append({"body": text, "ce": outcome(expand_ce, text), "pu": outcome(expand_pu, text)})
    return out


def main() -> int:
    data = {
        "generator": "tools/gen_chem_expansions.py",
        "seed": SEED,
        "about": "expand_ce and expand_pu of seeded chemistry bodies: the expansion, "
                 "or the ChemError's code, message and byte span",
        "cases": cases(),
    }
    FIXTURE.write_text(json.dumps(data, ensure_ascii=False, indent=1) + "\n", "utf-8")
    ok = sum(isinstance(c[k], str) for c in data["cases"] for k in ("ce", "pu"))
    print(f"{FIXTURE.relative_to(ROOT)}: {len(data['cases'])} bodies, "
          f"{ok} of {2 * len(data['cases'])} expansions succeed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
