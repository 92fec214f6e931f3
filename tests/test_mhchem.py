from __future__ import annotations

import json

import pytest

from conftest import CORPORA
from texmathc import convert_formula, parse
from texmathc.diagnostics import E_CHEM_SYNTAX, E_UNBALANCED_BRACE, ChemError
from texmathc.mhchem import expand_ce, expand_pu, preprocess, tokenize_ce


def conformance_cases():
    data = json.loads((CORPORA / "mhchem_conformance.json").read_text("utf-8"))
    return data["cases"]


def test_identity_outside_chem():
    assert preprocess("a^2") == "a^2"
    assert preprocess("\\frac{1}{2} + x") == "\\frac{1}{2} + x"
    assert preprocess("") == ""


def test_locality():
    source = "x + \\ce{H2O} = y"
    out = preprocess(source)
    assert out.startswith("x + ")
    assert out.endswith(" = y")
    assert "\\ce" not in out


def test_water_expansion(registry):
    # upright H, subscript 2 on an empty base, upright O
    assert expand_ce("H2O") == "\\mathrm{H} {}_{2} \\mathrm{O}"
    mathml = convert_formula("\\ce{H2O}", chem=True)
    assert '<mi mathvariant="normal">H</mi><msub>' in mathml


def test_sulfate_charge(registry):
    assert expand_ce("SO4^2-") == "\\mathrm{SO} {}_{4} {}^{2-}"
    mathml = convert_formula("\\ce{SO4^2-}", chem=True)
    # the charge is a superscript whose minus is U+2212
    assert "<msup><mrow></mrow><mrow><mn>2</mn><mo>−</mo></mrow></msup>" in mathml


def test_reaction_arrow(registry):
    assert expand_ce("A -> B") == "\\mathrm{A} \\longrightarrow \\mathrm{B}"
    assert registry.lookup("longrightarrow") is not None
    mathml = convert_formula("\\ce{A -> B}", chem=True)
    assert "<mo>⟶</mo>" in mathml


def test_equilibrium_arrow_uses_chem_only_command(registry):
    expansion = expand_ce("A <=> B")
    assert "\\longrightleftharpoons" in expansion
    spec = registry.lookup("longrightleftharpoons")
    assert spec.category == "chem-only"
    # plain-mode validation must reject the expansion, chem mode accepts it
    assert any(d.code == "E_UNKNOWN_COMMAND" for d in parse(expansion, registry).diagnostics)
    assert parse(expansion, registry, allow_chem=True).diagnostics == ()


def test_empty_bodies():
    assert expand_ce("") == ""
    assert expand_pu("") == ""
    assert preprocess("\\ce{}") == ""


def test_isotope():
    assert expand_ce("^{227}_{90}Th") == "{}_{90}^{227} \\mathrm{Th}"
    assert expand_ce("^{14}C") == "{}^{14} \\mathrm{C}"


def test_states_and_bonds():
    assert expand_ce("H2O(l)") == "\\mathrm{H} {}_{2} \\mathrm{O} (\\mathrm{l})"
    assert expand_ce("C-H") == "\\mathrm{C} - \\mathrm{H}"
    assert expand_ce("C=O") == "\\mathrm{C} = \\mathrm{O}"
    assert expand_ce("N#N") == "\\mathrm{N} \\equiv \\mathrm{N}"


def test_coefficients():
    assert expand_ce("2H2O").startswith("2 ")
    assert expand_ce("1/2O2").startswith("\\frac{1}{2}\\,")
    assert expand_ce("0.5N2").startswith("0.5 ")


def test_pu_number_unit():
    assert expand_pu("123 kJ") == "123\\,\\mathrm{kJ}"


def test_pu_scientific_and_quotient():
    # solidus form: quotients stay as a slash, products become \cdot
    assert expand_pu("1.2e3 m/s") == "1.2\\times{10}^{3}\\,\\mathrm{m}/\\mathrm{s}"
    assert expand_pu("2.5 kg*m/s2") == \
        "2.5\\,\\mathrm{kg}\\cdot\\mathrm{m}/\\mathrm{s}^{2}"
    assert expand_pu("1e-3 mol") == "1\\times{10}^{-3}\\,\\mathrm{mol}"


def test_token_kinds():
    kinds = [t.kind for t in tokenize_ce("2H2O + Na+ -> X(aq)")]
    assert kinds == ["stoich_coeff", "element", "count", "element", "plus",
                     "element", "charge", "arrow", "element", "state"]


@pytest.mark.parametrize("body,code", [
    ("H2O$x$", E_CHEM_SYNTAX),
    ("h2o", E_CHEM_SYNTAX),
    ("H@O", E_CHEM_SYNTAX),
    ("(H2O", E_CHEM_SYNTAX),
    ("^{2x}O", E_CHEM_SYNTAX),
    ("H^{++}", E_CHEM_SYNTAX),
])
def test_ce_rejections(body, code):
    with pytest.raises(ChemError) as err:
        expand_ce(body)
    assert err.value.diagnostic.code == code


def test_unbalanced_ce_braces():
    with pytest.raises(ChemError) as err:
        preprocess("\\ce{H2O")
    assert err.value.diagnostic.code == E_UNBALANCED_BRACE


def test_pu_rejections():
    with pytest.raises(ChemError):
        expand_pu("5 @#!")
    with pytest.raises(ChemError):
        expand_pu("5 m/")


def test_error_spans_are_rebased():
    source = "abc + \\ce{H@O}"
    with pytest.raises(ChemError) as err:
        preprocess(source)
    start, end = err.value.diagnostic.span
    assert source.encode("utf-8")[start:end] == b"@"


def test_conformance_corpus_expands_and_parses(registry):
    cases = conformance_cases()
    assert len(cases) >= 116
    for case in cases:
        expanded = preprocess(case["input"])
        assert "\\ce" not in expanded and "\\pu" not in expanded
        errors = parse(expanded, registry, allow_chem=True).errors
        assert not errors, (case["id"], errors)
        convert_formula(case["input"], chem=True)


def test_preprocess_idempotent_on_corpus():
    for case in conformance_cases():
        once = preprocess(case["input"])
        assert preprocess(once) == once, case["id"]
