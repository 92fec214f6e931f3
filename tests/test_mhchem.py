from __future__ import annotations

import functools
import json
import string
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPORA, FIXTURES
from oracles import preprocess_oracle
from texmathc import check_formula, convert_formula, default_registry, parse, render_tex
from texmathc import mhchem
from texmathc.diagnostics import E_CHEM_SYNTAX, E_UNBALANCED_BRACE, ChemError, DiagnosticError
from texmathc.mhchem import (
    EMITTED_CHARACTERS,
    EMITTED_COMMANDS,
    expand,
    expand_ce,
    expand_pu,
    preprocess,
)
from texmathc.nodes import Fun, Literal, Script, Sequence
from texmathc.registry import dump_registry, parse_registry_text


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
    assert spec.chem_only
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


def test_pu_exponent_is_normalized_as_text():
    for exponent, power in (("+03", "3"), ("-00", "0"), ("0003", "3"), ("-03", "-3")):
        assert expand_pu(f"1e{exponent} m") == f"1\\times{{10}}^{{{power}}}\\,\\mathrm{{m}}"
    # longer than int() converts
    exponent = "9" * 5000
    assert expand_pu(f"1e{exponent} m").endswith(f"^{{{exponent}}}\\,\\mathrm{{m}}")
    assert check_formula("\\pu{1e" + exponent + " m}", chem=True) == []
    assert f"<mn>{exponent}</mn>" in convert_formula("\\pu{1e-" + exponent + " m}", chem=True)


def test_token_kinds():
    # coefficient, elements, count, plus, charge, arrow and state
    assert expand_ce("2H2O + Na+ -> X(aq)") == (
        r"2 \mathrm{H} {}_{2} \mathrm{O} + \mathrm{Na} {}^{+}"
        r" \longrightarrow \mathrm{X} (\mathrm{aq})")


def _outcome(expand_body, body):
    try:
        return expand_body(body)
    except ChemError as exc:
        d = exc.diagnostic
        return {"code": d.code, "message": d.message, "span": list(d.span)}


def test_frozen_expansions():
    fixture = json.loads((FIXTURES / "chem_expansions.json").read_text("utf-8"))
    assert len(fixture["cases"]) == 1000
    for case in fixture["cases"]:
        body = case["body"]
        assert _outcome(expand_ce, body) == case["ce"], body
        assert _outcome(expand_pu, body) == case["pu"], body


@pytest.mark.parametrize("body,code", [
    ("H2O$x$", E_CHEM_SYNTAX),
    ("h2o", E_CHEM_SYNTAX),
    ("H@O", E_CHEM_SYNTAX),
    ("(H2O", E_CHEM_SYNTAX),
    ("^{2x}O", E_CHEM_SYNTAX),
    ("H^{++}", E_CHEM_SYNTAX),
    ("Na^{+", E_CHEM_SYNTAX),
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


# -- chemistry edges: scripts, groups, depth and registry checks -------------


def _verdict(source, registry=None):
    result = parse(source, registry or default_registry(), allow_chem=True)
    return result.ast, [(d.code, d.message, d.span) for d in result.diagnostics]


def _edited_registry(edit):
    """The default registry with `edit` applied to each line (None drops it)."""
    lines = (edit(line) for line in dump_registry(default_registry()).splitlines())
    return parse_registry_text("\n".join(line for line in lines if line is not None))


def test_script_after_the_command_binds_the_last_atom():
    h = Fun("mathrm", (Literal("H"),))
    assert _verdict("\\ce{H}^2") == (Sequence((Script(h, None, Literal("2")),)), [])
    assert _verdict("\\ce{H2}^3")[0] == _verdict("\\mathrm{H} {}_{2}^3")[0]
    assert _verdict("\\ce{H2}_3") == (None, [("E_DOUBLE_SCRIPT", "double subscript", (7, 8))])
    # an empty expansion leaves the script no base
    assert _verdict("x\\ce{}^2") == (None, [("E_EMPTY_ARG", "script without a base", (6, 7))])


def test_expansion_is_one_group_as_argument_script_or_index():
    assert _verdict("\\sqrt\\ce{H2O}") == _verdict("\\sqrt{\\mathrm{H} {}_{2} \\mathrm{O}}")
    assert _verdict("\\sqrt[\\ce{H}]{x}") == (Sequence((Fun("root", (
        Fun("mathrm", (Literal("H"),)), Literal("x"))),)), [])
    assert _verdict("x^\\ce{2H2}") == _verdict("x^{2 \\mathrm{H} {}_{2}}")


def test_script_after_chemistry_in_a_root_index_binds_the_last_atom():
    # as in a sequence: `n \pu{C2}^{+}` is a double superscript ...
    assert _verdict("\\sqrt[n \\pu{C2}^{+}]{x}") == (
        None, [("E_DOUBLE_SCRIPT", "double superscript", (15, 16))])
    assert _verdict("n \\pu{C2}^{+}")[1][0][:2] == ("E_DOUBLE_SCRIPT", "double superscript")
    # ... and `\pu{s2}_2` one msubsup, inside the expansion's group
    assert _verdict("\\sqrt[\\pu{s2}_2]{x}") == _verdict("\\sqrt[\\mathrm{s}_{2}^{2}]{x}")
    assert "<msubsup><mi mathvariant=\"normal\">s</mi><mn>2</mn><mn>2</mn></msubsup>" in \
        convert_formula("\\sqrt[\\pu{s2}_2]{x}", chem=True)
    assert _verdict("\\sqrt[\\ce{H2}^{+}]{x}") == _verdict("\\sqrt[{\\mathrm{H} {}_{2}^{+}}]{x}")
    assert _verdict("\\sqrt[\\ce{}^2]{x}") == (
        None, [("E_EMPTY_ARG", "script without a base", (11, 12))])
    for source in ("\\sqrt[\\pu{s2}_2]{x}", "\\sqrt[a \\ce{H2}^{+} b]{x}", "\\sqrt[\\ce{H}^2]{x}"):
        ast = _verdict(source)[0]
        assert _verdict(render_tex(ast))[0] == ast, source


@pytest.mark.parametrize("inner,at_127,at_128", [
    ("\\ce{H}", [], [("E_TOO_DEEP", "nesting exceeds 128 levels", (128, 134))]),
    ("\\ce{->}", [], []),
    # unbraced, the script argument and its expansion group are two levels
    ("x^\\ce{2}", [("E_TOO_DEEP", "nesting exceeds 128 levels", (129, 135))],
     [("E_TOO_DEEP", "nesting exceeds 128 levels", (130, 133))]),
])
def test_depth_cap_counts_the_expansion_groups(inner, at_127, at_128):
    for n, want in ((127, at_127), (128, at_128)):
        ast, diagnostics = _verdict("{" * n + inner + "}" * n)
        assert diagnostics == want, n
        assert (ast is not None) == (not want)


def test_expansion_commands_are_checked_against_the_registry():
    no_arrow = _edited_registry(lambda line: None if line.startswith("longrightarrow\t") else line)
    assert _verdict("\\ce{A -> B}", no_arrow) == (None, [
        ("E_UNKNOWN_COMMAND", "\\longrightarrow is not a whitelisted command", (0, 11))])
    assert _verdict("\\ce{A <- B}", no_arrow)[1] == []


def test_expansion_characters_are_checked_in_reading_order():
    no_plus = _edited_registry(lambda line: None if line.startswith("+\t") else line)
    unknown = ("E_UNKNOWN_COMMAND", "character '+' is not whitelisted")
    assert _verdict("\\ce{Na+ + Cl-}", no_plus) == (None, [(*unknown, (0, 14))])
    assert _verdict("\\ce{H2O} + \\ce{Na+}", no_plus) == (None, [(*unknown, (9, 10))])
    assert _verdict("\\badcmd \\ce{Na+}", no_plus)[1] == [
        ("E_UNKNOWN_COMMAND", "\\badcmd is not a whitelisted command", (0, 7))]
    assert _verdict("\\ce{H2O}", no_plus)[1] == []


@pytest.mark.parametrize("row,source,arity", [
    ("frac\tover\t-", "\\ce{1/2H2}", 2),  # infix
    ("mathrm\ttext\t-", "\\ce{H2O}", 1),  # raw text
    ("cdot\tmatrix\t-", "\\pu{1 kg*m}", 0),
    ("longrightarrow\tradical\t-", "\\ce{A -> B}", 0),  # another arity
])
def test_a_command_registered_in_another_shape_is_rejected_by_name(row, source, arity):
    name = row.split("\t")[0]
    registry = _edited_registry(lambda line: row if line.startswith(name + "\t") else line)
    message = f"\\{name} is registered with another shape than {source[:3]} writes (arity {arity})"
    assert _verdict(source, registry) == (None, [("E_UNKNOWN_COMMAND", message, (0, len(source)))])


def test_deprecated_expansion_command_warns_on_each_use():
    old_cdot = _edited_registry(
        lambda line: line + "\tdeprecated" if line.startswith("cdot\t") else line)
    ast, diagnostics = _verdict("\\ce{CuSO4 * 5H2O}", old_cdot)
    assert ast == _verdict("\\ce{CuSO4 * 5H2O}")[0]
    assert diagnostics == [("W_DEPRECATED", "\\cdot is deprecated", (0, 17))]
    assert _verdict("\\pu{1 kg*m*s}", old_cdot)[1] == \
        [("W_DEPRECATED", "\\cdot is deprecated", (0, 13))] * 2


# -- the nodes the parser inserts --------------------------------------------


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


@functools.lru_cache(maxsize=1)
def _unready_registry():
    """A registry the parser walks every expansion against: `cdot` deprecated,
    `longleftarrow` and the `=` operator missing."""
    def edit(line):
        if line.startswith(("longleftarrow\t", "=\t")):
            return None
        return line + "\tdeprecated" if line.startswith("cdot\t") else line
    return _edited_registry(edit)


@settings(max_examples=500, deadline=None)
@given(st.one_of(_CE_TOKEN_BODY.map(lambda body: ("ce", body)),
                 _PU_TOKEN_BODY.map(lambda body: ("pu", body))),
       st.sampled_from(["{}", "x^{{{}}}", "x^{}", "{}_2", "{} 3",
                        "{{" * 127 + "{}" + "}}" * 127, "{{" * 128 + "{}" + "}}" * 128]),
       st.booleans())
def test_inserted_nodes_are_the_tree_of_the_expansion_text(case, form, unready):
    command, body = case
    registry = _unready_registry() if unready else default_registry()
    source = f"\\{command}{{{body}}}"
    formula = form.format(source)
    got = parse(formula, registry, allow_chem=True)
    try:
        text = expand_pu(body) if command == "pu" else expand_ce(body)
    except ChemError as exc:
        want = exc.diagnostic
        shift = formula.index(source) + len(f"\\{command}{{")  # ASCII: bytes and codepoints agree
        (diag,) = got.diagnostics
        assert (diag.code, diag.message) == (want.code, want.message)
        assert diag.span == (want.span[0] + shift, want.span[1] + shift)
        return
    # unbraced as a script, the expansion is one group, as if braced
    want = parse(form.replace("^{}", "^{{{}}}").format(text), registry, allow_chem=True)
    assert got.ast == want.ast
    assert [(d.code, d.message) for d in got.diagnostics] == \
        [(d.code, d.message) for d in want.diagnostics]


def _command_and_characters(node, commands, characters):
    if isinstance(node, Literal):
        if node.token[0] == "\\":
            commands.add((node.token[1:], 0))
        elif not (node.token.isascii() and node.token.isalnum()):
            characters.add(node.token)
        return
    if isinstance(node, Fun):
        commands.add((node.command, len(node.args)))
        children = node.args
    elif isinstance(node, Script):
        children = [n for n in (node.base, node.sub, node.sup) if n is not None]
    else:
        children = node.children
    for child in children:
        _command_and_characters(child, commands, characters)


def test_expansions_hold_only_the_declared_commands_and_characters():
    # a registry that holds these skips the per-node registry check
    commands, characters = set(), set()
    bodies = [case["body"] for case in json.loads(
        (FIXTURES / "chem_expansions.json").read_text("utf-8"))["cases"]]
    for body in bodies + ["1/2O2 + N#N <-> A <- B <=> C", "1e3 kg*m/s2"]:
        for command in ("ce", "pu"):
            try:
                chunks = expand(body, command)
            except ChemError:
                continue
            for node in (node for chunk in chunks for node in chunk):
                _command_and_characters(node, commands, characters)
    assert commands == set(EMITTED_COMMANDS.items())
    assert characters == set(EMITTED_CHARACTERS)


def test_shared_atoms_stay_bounded_and_expand_as_before():
    # element runs of at most two letters and script keys `sub^sup` of at
    # most three characters are shared; longer ones are built at each use
    names = [a + b for a in string.ascii_uppercase for b in ["", *string.ascii_letters]]
    bodies = [f"{name}{k}^{{{k % 10}{'+-'[k % 2]}}}" for k, name in enumerate(names)]
    bodies += [f"^{{{k}}}_{{{k % 100}}}U + ^{k % 10}_{k % 7}H" for k in range(0, 1000, 7)]
    bodies += ["NaCl" * 50, "H" + "9" * 40 + "O_{" + "7" * 40 + "}^{" + "3" * 30 + "+}"]
    first = [expand_ce(body) for body in bodies]
    assert first == [preprocess_oracle(f"\\ce{{{body}}}") for body in bodies]
    assert set(names) <= set(mhchem._ATOMS)
    assert len(mhchem._ATOMS) <= 26 * 53 + 342
    assert all(len(key) <= 3 for key in mhchem._ATOMS)
    assert [expand_ce(body) for body in bodies] == first
