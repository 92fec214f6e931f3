from __future__ import annotations

import json
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPORA
from oracles import preprocess_oracle
from texmathc import check_formula, convert_formula, default_registry, parse
from texmathc.diagnostics import E_CHEM_SYNTAX, E_UNBALANCED_BRACE, ChemError, DiagnosticError
from texmathc.mhchem import expand, expand_ce, expand_pu, preprocess, tokenize_ce
from texmathc.parser import _Parser, tokenize


def conformance_cases():
    data = json.loads((CORPORA / "mhchem_conformance.json").read_text("utf-8"))
    return data["cases"]


def test_identity_outside_chem():
    assert preprocess_oracle("a^2") == "a^2"
    assert preprocess_oracle("\\frac{1}{2} + x") == "\\frac{1}{2} + x"
    assert preprocess_oracle("") == ""


def test_locality():
    source = "x + \\ce{H2O} = y"
    out = preprocess_oracle(source)
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
    assert preprocess_oracle("\\ce{}") == ""


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


def test_bond_without_element_is_located():
    for body in ("=O", "#N"):
        with pytest.raises(ChemError) as err:
            expand_ce(body)
        assert err.value.diagnostic.span == (0, 1)


def test_unbalanced_ce_braces():
    with pytest.raises(ChemError) as err:
        preprocess_oracle("\\ce{H2O")
    assert err.value.diagnostic.code == E_UNBALANCED_BRACE


def test_pu_rejections():
    with pytest.raises(ChemError):
        expand_pu("5 @#!")
    with pytest.raises(ChemError):
        expand_pu("5 m/")


def test_error_spans_are_rebased():
    source = "abc + \\ce{H@O}"
    with pytest.raises(ChemError) as err:
        preprocess_oracle(source)
    start, end = err.value.diagnostic.span
    assert source.encode("utf-8")[start:end] == b"@"


def test_conformance_corpus_expands_and_parses(registry):
    cases = conformance_cases()
    assert len(cases) >= 116
    for case in cases:
        expanded = preprocess_oracle(case["input"])
        assert "\\ce" not in expanded and "\\pu" not in expanded
        errors = parse(expanded, registry, allow_chem=True).errors
        assert not errors, (case["id"], errors)
        convert_formula(case["input"], chem=True)


def test_preprocess_idempotent_on_corpus():
    for case in conformance_cases():
        once = preprocess_oracle(case["input"])
        assert preprocess_oracle(once) == once, case["id"]


# -- \ce and \pu inside the parser ------------------------------------------


def _chem_corpus_inputs():
    combined = json.loads((CORPORA / "combined_423.json").read_text("utf-8"))["cases"]
    return ([case["input"] for case in combined if case["options"].get("chem")]
            + [case["input"] for case in conformance_cases()])


def test_in_place_expansion_matches_the_text_pass_on_the_corpus(registry):
    inputs = _chem_corpus_inputs()
    assert len(inputs) == 141
    for source in inputs:
        expanded = preprocess_oracle(source)
        got = parse(source, registry, allow_chem=True)
        assert got.ok and got.ast == parse(expanded, registry, allow_chem=True).ast, source
        assert convert_formula(source, chem=True) == convert_formula(expanded, chem=True)


def test_ce_argument_is_one_group(registry):
    # one item is the argument itself, as a braced one would be
    assert parse("\\sqrt\\ce{H}", registry, allow_chem=True).ast == \
        parse("\\sqrt{\\mathrm{H}}", registry).ast
    root = ET.fromstring(convert_formula("\\sqrt\\ce{H2O}", chem=True))
    (sqrt,) = root
    assert sqrt.tag == "msqrt"
    assert [e.text for e in sqrt.iter() if e.text] == ["H", "2", "O"]
    root = ET.fromstring(convert_formula("x^\\ce{2H2}", chem=True))
    (sup,) = root
    assert sup.tag == "msup"
    assert [e.text for e in sup[1].iter() if e.text] == ["2", "H", "2"]


def test_ce_root_index_output_is_unchanged(registry):
    source = "\\sqrt[\\ce{H2}]{x}"
    assert convert_formula(source, chem=True) == \
        convert_formula(preprocess_oracle(source), chem=True)
    # beside other items, the expansion is one group of the index
    grouped = parse("\\sqrt[{\\mathrm{H} {}_{2}} n]{x}", registry, allow_chem=True)
    assert parse("\\sqrt[\\ce{H2} n]{x}", registry, allow_chem=True).ast == grouped.ast


@pytest.mark.parametrize("source", ["\\ce{A->}x", "\\ce{->}x"])
def test_expansion_does_not_run_into_the_next_letter(source):
    mathml = convert_formula(source, chem=True)
    assert mathml.endswith("<mo>⟶</mo><mi>x</mi></mrow></math>")


def test_raw_arguments_are_not_expanded():
    source = "\\text{\\ce{H2O}}"
    assert convert_formula(source, chem=True) == convert_formula(source)
    assert "<mtext>\\ce{H2O}</mtext>" in convert_formula(source, chem=True)


_PLAIN = st.sampled_from(["x", "2", "+", "\\text{é}", "\\alpha", "{a b}", "\\frac{1}{2}"])
_CE_BODY = st.lists(st.sampled_from([
    "H", "2", "O", "Na", "+", "-", "^", "^{2-}", "_{2}", "^{14}", "(", ")", "(aq)",
    "->", "<=>", " ", "*", "=", "#", "1/2", "0.5", "$", "@", "é", "h",
]), max_size=6).map("".join)
_PU_BODY = st.lists(st.sampled_from(
    ["1.2e3", "5", " ", "kJ", "m", "/", "s2", "*", "mol", "@"]), max_size=5).map("".join)
_CHEM = st.one_of(
    _CE_BODY.map(lambda body: "\\ce{" + body + "}"),
    _PU_BODY.map(lambda body: "\\pu{" + body + "}"),
    st.sampled_from(["\\ce", "\\pu", "\\ce {H2O}"]),
)
# \ce and \pu in sequence position: side by side, in a group, a fence or a cell.
chem_sequences = st.recursive(st.one_of(_PLAIN, _CHEM), lambda children: st.one_of(
    st.lists(children, min_size=2, max_size=3).map(" ".join),
    children.map(lambda a: "{" + a + "}"),
    children.map(lambda a: f"\\left( {a} \\right)"),
    st.tuples(children, children).map(
        lambda ab: f"\\begin{{matrix}} {ab[0]} & {ab[1]} \\end{{matrix}}"),
), max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(chem_sequences)
def test_in_place_expansion_matches_the_text_pass_in_sequence_position(source):
    registry = default_registry()
    got = parse(source, registry, allow_chem=True)
    try:
        expanded = preprocess_oracle(source)
    except DiagnosticError as exc:
        assert got.diagnostics == (exc.diagnostic,), source
        return
    want = parse(expanded, registry, allow_chem=True)
    assert want.ok, (source, expanded, want.errors)
    assert got.ok and got.ast == want.ast, (source, got.errors)
    assert convert_formula(source, chem=True) == convert_formula(expanded, chem=True)


def test_preprocess_expands_one_body():
    assert preprocess("H2O", "ce") == expand_ce("H2O")
    assert preprocess("5 m/s", "pu") == expand_pu("5 m/s")


# -- the token stream the parser splices in ---------------------------------


def test_non_ascii_digit_is_an_unsupported_character():
    # str.isdigit() holds for "²" and "٣", which no number pattern matches
    for body, span in (("²", (0, 2)), ("H²", (1, 3)), ("H٣", (1, 3))):
        with pytest.raises(ChemError) as err:
            expand_ce(body)
        assert err.value.diagnostic.span == span
        assert err.value.diagnostic.message == f"unsupported character {body[-1]!r} in \\ce"
    (diag,) = check_formula("\\ce{H²O}", chem=True)
    assert (diag.code, diag.span) == (E_CHEM_SYNTAX, (5, 7))


_CE_TOKEN_BODY = st.lists(st.sampled_from([
    "H", "2", "O", "Na", "Cl", "Fe", "+", "-", "^", "^{2-}", "^2+", "_{2}", "_2", "_", "^{14}",
    "^227_90", "(", ")", "(aq)", "(s)", "->", "<-", "<->", "<=>", "<", " ", "*", "=", "#", "1/2",
    "0.5", "3", "$", "@", "é", "²", "h", "\t",
]), max_size=10).map("".join)
_PU_TOKEN_BODY = st.lists(st.sampled_from(
    ["1.2e3", "1E-03", "-4", "5", " ", "kJ", "m", "/", "s2", "*", ".", "mol", "@", "e", "²"]),
    max_size=6).map("".join)


@settings(max_examples=500, deadline=None)
@given(st.one_of(_CE_TOKEN_BODY.map(lambda body: ("ce", body)),
                 _PU_TOKEN_BODY.map(lambda body: ("pu", body))))
def test_spliced_tokens_are_the_tokens_of_the_expansion_text(case):
    command, body = case
    source = f"\\{command}{{{body}}}"
    parser = _Parser(source, default_registry(), allow_chem=True)
    try:
        text = expand_pu(body) if command == "pu" else expand_ce(body)
    except ChemError as exc:
        with pytest.raises(ChemError) as err:
            parser.expand_chem(braced=False)
        want, got = exc.diagnostic, err.value.diagnostic
        shift = len(f"\\{command}{{")  # ASCII: bytes and codepoints agree
        assert (got.code, got.message) == (want.code, want.message)
        assert got.span == (want.span[0] + shift, want.span[1] + shift)
        return
    parser.expand_chem(braced=False)
    spliced = parser.toks[:-1]
    assert [(t.kind, t.value) for t in spliced] == \
        [(t.kind, t.value) for t in tokenize(text)[:-1]]
    assert all((t.start, t.end) == (0, len(source)) for t in spliced)
    assert [(t.kind, t.value) for t in spliced] == \
        [pair for chunk in expand(body, command) for pair in chunk]
