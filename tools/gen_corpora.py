#!/usr/bin/env python3
"""Regenerate the bundled corpora.

Every emitted case is verified through the real pipeline before it is
written, so a stale generator fails loudly instead of committing broken
fixtures.  Reference MathML in the combined corpus is the reviewed output
of the current converter (the `corpus --update-refs` maintenance flow).
"""

from __future__ import annotations

import json
import sys
import xml.dom.minidom as minidom
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))  # coverage_corpus

from texmathc import convert_formula, default_registry, parse  # noqa: E402
from texmathc.mathml import GenOptions  # noqa: E402

from coverage_corpus import coverage_corpus  # noqa: E402

CORPORA = ROOT / "corpora"
FIXTURES = ROOT / "tests" / "fixtures"

# ---------------------------------------------------------------------------
# mhchem conformance cases (>= 116): every subset feature, several times over.

CE_CASES = [
    # bare elements
    "H", "O", "N", "C", "Cl", "Na", "Fe", "Au", "Mg", "Ca",
    # simple molecules with numeric subscripts
    "H2O", "CO2", "O2", "N2", "H2", "NH3", "CH4", "H2SO4", "HNO3", "NaCl",
    "KOH", "CaCO3", "C6H12O6", "Fe2O3", "Al2O3", "KMnO4", "NaHCO3",
    "C2H5OH", "CH3COOH", "H2O2",
    # charges
    "Na+", "Cl-", "SO4^2-", "NH4+", "OH-", "H3O+", "Fe^3+", "Ca^2+",
    "PO4^3-", "CO3^2-", "NO3-", "Mg^{2+}", "Al^{3+}", "S^{2-}",
    # stoichiometric coefficients
    "2H2O", "3O2", "4Fe", "10CO2", "1/2O2", "3/2H2", "0.5N2", "2.5H2O",
    # isotopes
    "^{227}_{90}Th", "^{14}C", "^{235}_{92}U", "^2H", "^{18}O", "^{3}_{1}H",
    # aggregate states
    "H2O(l)", "CO2(g)", "NaCl(s)", "NaCl(aq)", "H2O (l)", "CaCO3 (s)",
    # bonds
    "C-C", "C=C", "C#C", "C-H", "O=C=O", "H-O-H", "N#N",
    # arrows
    "A -> B", "A <- B", "A <=> B", "A <-> B",
    # parenthesised groups
    "Ca(OH)2", "(NH4)2SO4", "Mg(NO3)2", "Al(OH)3", "K4Fe(CN)6", "Fe(CN)6^3-",
    # hydrates
    "CuSO4 * 5H2O", "Na2CO3 * 10H2O", "CaCl2 * 2H2O", "MgSO4*7H2O",
    # reactions
    "2H2 + O2 -> 2H2O",
    "N2 + 3H2 <=> 2NH3",
    "CaCO3 -> CaO + CO2",
    "H+ + OH- -> H2O",
    "2Na + Cl2 -> 2NaCl",
    "CH4 + 2O2 -> CO2 + 2H2O",
    "Zn + 2HCl -> ZnCl2 + H2",
    "2KMnO4 + 16HCl -> 2KCl + 2MnCl2 + 5Cl2 + 8H2O",
    "AgNO3(aq) + NaCl(aq) -> AgCl(s) + NaNO3(aq)",
    "2H2O2 -> 2H2O + O2",
    "Fe^3+ + 3OH- -> Fe(OH)3(s)",
    "NH4+ + OH- <=> NH3 + H2O",
    "^{235}_{92}U -> ^{231}_{90}Th + He",
    "C6H12O6 + 6O2 -> 6CO2 + 6H2O",
    "2.5H2O + 0.5O2 -> 3H2O2" if False else "SO2 + 1/2O2 -> SO3",
    # misc combinations
    "Na+ (aq)", "Cl- (aq)", "H2O(l) + CO2(g) <=> H2CO3(aq)",
    "Cu^{2+} + 2e", "PbS + 4H2O2 -> PbSO4 + 4H2O",
][:200]
CE_CASES = [c for c in CE_CASES if c != "Cu^{2+} + 2e"]  # electrons outside subset

PU_CASES = [
    "123 kJ", "1.2e3 m/s", "5 m", "9.81 m/s2", "300 K", "1e-3 mol",
    "2.5 kg*m/s2", "101325 Pa", "96485 C/mol", "8.314 J/mol/K",
    "0.5 mmol/L", "37 C", "1.5 nm", "60 s", "24 h", "3.0e8 m/s",
    "6.5 kWh", "0.1 mol/L", "42 g/mol", "77 K", "2 MPa", "115 pm",
    "", "1000", "kJ",
]

FIGURE2_INPUTS = [
    "\\sqrt{1-z^3}",
    "\\exp_a b = a^b, \\exp b = e^b, 10^m",
    "\\bigoplus, \\bigotimes, \\bigodot",
    "\\supset, \\Subset, \\sqsupset",
    "\\prod_{a=1}^b \\prod_{c=1}^4",
    "\\begin{vmatrix} x & y \\\\ z & v \\end{vmatrix}",
    "\\left. \\frac{A}{B} \\right\\} \\rightarrow X",
    "x = \\frac{-b \\pm \\sqrt{b^2 - 4ac}}{2a}",
]

EXTRA_FORMULAS = [
    ("misc-qform", "ax^2+bx+c=0", False),
    ("misc-sum", "\\sum_{k=0}^{n} \\binom{n}{k} x^k", False),
    ("misc-int", "\\int_0^\\infty e^{-x^2} dx = \\frac{\\sqrt{\\pi}}{2}", False),
    ("misc-lim", "\\lim_{x \\to 0} \\frac{\\sin x}{x} = 1", False),
    ("misc-cases", "\\begin{cases} x & x > 0 \\\\ -x & x \\le 0 \\end{cases}", False),
    ("misc-set", "A \\cap B \\subseteq A \\cup B", False),
    ("misc-norm", "\\left\\| v \\right\\| = \\sqrt{v \\cdot v}", False),
    ("misc-intent", "\\intent{(a,b)}{intent='open-interval($x,$y)', arg='a=x,b=y'}", False),
    ("misc-text", "x \\text{ apples}", False),
    ("misc-root", "\\sqrt[3]{8} = 2", False),
    ("chem-water", "\\ce{2H2 + O2 -> 2H2O}", True),
    ("chem-haber", "\\ce{N2 + 3H2 <=> 2NH3}", True),
    ("chem-salt", "\\ce{Na+ + Cl- -> NaCl}", True),
    ("chem-sulfate", "\\ce{SO4^2-}", True),
    ("chem-thorium", "\\ce{^{227}_{90}Th}", True),
    ("chem-hydrate", "\\ce{CuSO4 * 5H2O}", True),
    ("chem-lime", "\\ce{Ca(OH)2 (aq)}", True),
    ("unit-energy", "\\pu{123 kJ}", True),
    ("unit-speed", "\\pu{1.2e3 m/s}", True),
]


def check_valid(source: str, chem: bool) -> str:
    """Convert through the real pipeline; raise if anything is off."""
    out = convert_formula(source, chem=chem)
    minidom.parseString(out)  # independent well-formedness check
    return out


def gen_mhchem() -> None:
    cases = []
    for idx, body in enumerate(CE_CASES):
        cases.append({"id": f"ce-{idx:03d}", "kind": "ce", "input": f"\\ce{{{body}}}"})
    for idx, body in enumerate(PU_CASES):
        cases.append({"id": f"pu-{idx:03d}", "kind": "pu", "input": f"\\pu{{{body}}}"})
    for case in cases:
        errors = parse(case["input"], default_registry(), allow_chem=True).errors
        assert not errors, (case, errors)
        check_valid(case["input"], chem=True)
    assert len(cases) >= 116, len(cases)
    path = CORPORA / "mhchem_conformance.json"
    path.write_text(json.dumps({"version": 1, "cases": cases}, indent=1) + "\n",
                    encoding="utf-8")
    print(f"{path}: {len(cases)} cases")


def gen_figure2() -> None:
    entries = []
    for idx, source in enumerate(FIGURE2_INPUTS, start=1):
        output = convert_formula(source, options=GenOptions(display="block"))
        minidom.parseString(output)
        entries.append({"id": f"fig2-row{idx}", "input": source, "display": "block",
                        "mathml": output})
    path = FIXTURES / "figure2.json"
    path.write_text(json.dumps({"version": 1, "cases": entries}, indent=1,
                               ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"{path}: {len(entries)} fixtures")


def gen_combined() -> None:
    registry = default_registry()
    cases = []
    for cid, source, chem in coverage_corpus(registry):
        cases.append({"id": cid, "input": source,
                      "options": {"chem": chem},
                      "expect": {"mathml": check_valid(source, chem)}})
    for idx, source in enumerate(FIGURE2_INPUTS, start=1):
        output = convert_formula(source, options=GenOptions(display="block"))
        cases.append({"id": f"fig2-row{idx}", "input": source,
                      "options": {"display": "block"},
                      "expect": {"mathml": output}})
    for cid, source, chem in EXTRA_FORMULAS:
        cases.append({"id": cid, "input": source,
                      "options": {"chem": chem},
                      "expect": {"mathml": check_valid(source, chem)}})
    assert len(cases) == 423, len(cases)
    path = CORPORA / "combined_423.json"
    path.write_text(json.dumps({"version": 1, "cases": cases}, indent=1,
                               ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"{path}: {len(cases)} cases")


# ---------------------------------------------------------------------------
# Two-renderer comparison corpus: side A is this converter; side B stands in
# for an external renderer with its own structural conventions.


def _mutations() -> list[tuple[str, str, str]]:
    pairs = []

    def a_of(src: str, display: str = "inline") -> str:
        return convert_formula(src, options=GenOptions(display=display))

    # identical output
    same = a_of("x^2+1")
    pairs.append(("identical", same, same))
    # annotation + semantics wrapper on side B only
    x2 = a_of("x^2")
    pairs.append(("semantics-wrapped",
                  x2,
                  '<math display="inline"><semantics><msup><mi>x</mi><mn>2</mn>'
                  '</msup><annotation encoding="application/x-tex">x^{2}'
                  '</annotation></semantics></math>'))
    # digit tokens split by the other renderer
    pairs.append(("digit-split",
                  a_of("12x"),
                  '<math display="inline"><mrow><mn>1</mn><mn>2</mn><mi>x</mi></mrow></math>'))
    # mfenced instead of mrow+mo fences
    pairs.append(("mfenced",
                  a_of("\\left( x \\right)"),
                  '<math display="inline"><mfenced open="(" close=")"><mi>x</mi></mfenced></math>'))
    # extra inferred mrow nesting
    pairs.append(("extra-mrow",
                  a_of("a+b"),
                  '<math display="inline"><mrow><mrow><mi>a</mi></mrow>'
                  '<mo>+</mo><mrow><mi>b</mi></mrow></mrow></math>'))
    # ASCII hyphen instead of minus sign
    pairs.append(("ascii-minus",
                  a_of("a-b"),
                  '<math display="inline"><mrow><mi>a</mi><mo>-</mo><mi>b</mi></mrow></math>'))
    # operand order swapped (order-insensitive F-score sees no difference)
    pairs.append(("reordered",
                  a_of("x+y"),
                  '<math display="inline"><mrow><mi>y</mi><mo>+</mo><mi>x</mi></mrow></math>'))
    # attribute-only differences
    pairs.append(("attrs-only",
                  a_of("(x)"),
                  '<math display="inline"><mrow><mo>(</mo><mi>x</mi><mo>)</mo></mrow></math>'))
    # fraction rendered with bevelled attribute and extra style
    pairs.append(("styled-frac",
                  a_of("\\frac{a}{b}"),
                  '<math display="inline"><mstyle displaystyle="false">'
                  '<mfrac bevelled="true"><mi>a</mi><mi>b</mi></mfrac></mstyle></math>'))
    # missing operator
    pairs.append(("dropped-op",
                  a_of("x+y+z"),
                  '<math display="inline"><mrow><mi>x</mi><mo>+</mo><mi>y</mi><mi>z</mi></mrow></math>'))
    # sqrt via root with explicit index
    pairs.append(("root-vs-sqrt",
                  a_of("\\sqrt{x}"),
                  '<math display="inline"><mroot><mi>x</mi><mn>2</mn></mroot></math>'))
    # scripts flattened to msubsup
    pairs.append(("script-shape",
                  a_of("\\sum_{i=1}^{n} i"),
                  '<math display="inline"><mrow><msubsup><mo>∑</mo><mrow>'
                  '<mi>i</mi><mo>=</mo><mn>1</mn></mrow><mi>n</mi></msubsup>'
                  '<mi>i</mi></mrow></math>'))
    # matrix with explicit alignment attributes
    pairs.append(("matrix-attrs",
                  a_of("\\begin{pmatrix} a & b \\\\ c & d \\end{pmatrix}"),
                  '<math display="inline"><mrow><mo>(</mo><mtable columnalign="center center">'
                  '<mtr><mtd><mi>a</mi></mtd><mtd><mi>b</mi></mtd></mtr>'
                  '<mtr><mtd><mi>c</mi></mtd><mtd><mi>d</mi></mtd></mtr>'
                  '</mtable><mo>)</mo></mrow></math>'))
    # text run split into characters
    pairs.append(("mtext-split",
                  a_of("\\text{ab}"),
                  '<math display="inline"><mrow><mtext>a</mtext><mtext>b</mtext></mrow></math>'))
    # function application with invisible operator
    pairs.append(("apply-function",
                  a_of("\\sin x"),
                  '<math display="inline"><mrow><mi>sin</mi><mo>⁡</mo><mi>x</mi></mrow></math>'))
    # accent written with combining character semantics
    pairs.append(("accent-shape",
                  a_of("\\ddot{x}"),
                  '<math display="inline"><mover accent="true"><mi>x</mi><mo>¨</mo></mover></math>'))
    return pairs


def gen_two_renderer() -> None:
    pairs = []
    for pid, a, b in _mutations():
        minidom.parseString(a)
        minidom.parseString(b)
        pairs.append({"id": pid, "a_inline": a, "b_inline": b})
    path = CORPORA / "two_renderer.json"
    path.write_text(json.dumps({"version": 1, "pairs": pairs}, indent=1,
                               ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"{path}: {len(pairs)} pairs")


def main() -> None:
    CORPORA.mkdir(exist_ok=True)
    FIXTURES.mkdir(parents=True, exist_ok=True)
    gen_mhchem()
    gen_figure2()
    gen_combined()
    gen_two_renderer()


if __name__ == "__main__":
    main()
