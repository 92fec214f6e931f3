from __future__ import annotations

import copy
import json
import os
import pickle
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from xml.sax.saxutils import escape

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPORA, FIXTURES
from oracles import escape_attr_oracle, escape_text_oracle
import texmathc
from texmathc import convert_formula, from_xml, parse, render_tex, serialize, to_mathml
from texmathc.mathml import (
    SUPPORTED_ELEMENTS,
    TOKEN_ELEMENTS,
    GenOptions,
    MathMLNode,
    token,
)
from texmathc.registry import dump_registry, parse_registry_text

SRC = str(Path(texmathc.__file__).resolve().parents[1])


def convert(registry, source, **kwargs):
    result = parse(source, registry, allow_chem=kwargs.pop("allow_chem", False))
    assert result.ok, (source, result.errors)
    return to_mathml(result.ast, registry, GenOptions(**kwargs) if kwargs else None)


def test_serialize_single_identifier():
    tree = MathMLNode("math", {"display": "inline"}, [token("mi", "x")])
    assert serialize(tree) == '<math display="inline"><mi>x</mi></math>'


def test_serialize_utf8_literal():
    out = serialize(token("mo", "¨"))
    assert out == "<mo>¨</mo>"
    assert out.encode("utf-8").count(b"\xc2\xa8") == 1  # two UTF-8 bytes, no entity


def test_serialize_escapes_text():
    assert serialize(token("mtext", "a<b")) == "<mtext>a&lt;b</mtext>"
    assert serialize(token("mtext", "a&b")) == "<mtext>a&amp;b</mtext>"


def test_serialize_escapes_attributes():
    node = MathMLNode("mrow", {"intent": 'f("x")<'}, [])
    assert 'intent="f(&quot;x&quot;)&lt;"' in serialize(node)


def test_serialize_keeps_whitespace_through_a_reader():
    # XML end-of-line handling reads a raw CR as LF, and attribute-value
    # normalization reads a raw tab, LF or CR as a space.
    assert from_xml(convert_formula("\\text{a\rb}")).children[0].text == "a\rb"
    for ch in "\t\n\r":
        node = MathMLNode("mrow", {"intent": f"f({ch}$x)"}, [token("mi", "x")])
        assert from_xml(serialize(node)).attributes["intent"] == f"f({ch}$x)"


# Values that mix every character the escapes touch with non-ASCII and plain
# ASCII, in runs, so that both the fast path and the replace chain are taken.
_VALUES = st.lists(st.sampled_from(
    ["&", "<", ">", '"', "\r", "\t", "\n", "\r\n", "&amp;", "é", "日", "\U0001d465", "−",
     "x", "ab", " ", "'", "1"]), max_size=8).map("".join)


@settings(max_examples=400, deadline=None)
@given(_VALUES, _VALUES)
def test_escapes_match_the_replace_chain_and_read_back(text, value):
    out = serialize(MathMLNode("mrow", {"intent": value}, [token("mtext", text)]))
    assert out == (f'<mrow intent="{escape_attr_oracle(value)}">'
                   f"<mtext>{escape_text_oracle(text)}</mtext></mrow>")
    root = ET.fromstring(out)
    assert root.attrib["intent"] == value
    assert (root[0].text or "") == text


def test_intent_value_whitespace_survives_a_reader():
    out = convert_formula("\\intent{x}{intent='f(\t$x)'}")
    assert from_xml(out).children[0].attributes["intent"] == "f(\t$x)"


def test_single_token_root_has_no_mrow(registry):
    assert serialize(convert(registry, "x")) == '<math display="inline"><mi>x</mi></math>'


def test_multi_child_root_gets_mrow(registry):
    out = serialize(convert(registry, "x+y"))
    assert out == ('<math display="inline"><mrow><mi>x</mi><mo>+</mo>'
                   "<mi>y</mi></mrow></math>")


def test_ddot_accent(registry):
    out = serialize(convert(registry, "\\ddot{x}"))
    assert ('<mover accent="true"><mi>x</mi><mo>¨</mo></mover>') in out


def test_pmatrix_fences(registry):
    out = serialize(convert(registry, "\\begin{pmatrix} a \\end{pmatrix}"))
    assert "<mrow><mo>(</mo><mtable>" in out
    assert "</mtable><mo>)</mo></mrow>" in out


def test_over_is_fraction(registry):
    out = serialize(convert(registry, "a \\over b"))
    assert "<mfrac><mi>a</mi><mi>b</mi></mfrac>" in out


def test_null_delimiter_emits_one_fence(registry):
    out = serialize(convert(registry, "\\left. \\frac{A}{B} \\right\\}"))
    assert out.count("<mo>") == 1
    assert "<mo>}</mo>" in out


def test_unicode_minus(registry):
    assert "<mo>−</mo>" in serialize(convert(registry, "a-b"))


def test_digit_run_merges(registry):
    assert "<mn>12</mn>" in serialize(convert(registry, "12"))
    assert "<mn>3.14</mn>" in serialize(convert(registry, "3.14"))


def test_letters_stay_separate(registry):
    out = serialize(convert(registry, "ab"))
    assert "<mi>a</mi><mi>b</mi>" in out


def test_style_merges_letter_run(registry):
    out = serialize(convert(registry, "\\mathrm{SO}"))
    assert '<mi mathvariant="normal">SO</mi>' in out


def test_style_wraps_mixed_content(registry):
    out = serialize(convert(registry, "\\mathbf{x+y}"))
    assert '<mstyle mathvariant="bold">' in out


def test_isotope_prescript_shape(registry):
    out = serialize(convert(registry, "{}^{227}_{90} X"))
    assert ("<msubsup><mrow></mrow><mn>90</mn><mn>227</mn></msubsup>") in out


def test_bigop_scripts_use_underover(registry):
    out = serialize(convert(registry, "\\sum_{i=1}^n i"))
    assert "<munderover><mo>∑</mo>" in out


def test_plain_scripts_use_subsup(registry):
    out = serialize(convert(registry, "x_1^2"))
    assert "<msubsup><mi>x</mi><mn>1</mn><mn>2</mn></msubsup>" in out


@pytest.mark.parametrize("source, element, children, tex", [
    ("x_1", "msub", "<mi>x</mi><mn>1</mn>", "x_{1}"),
    ("x^2", "msup", "<mi>x</mi><mn>2</mn>", "x^{2}"),
    ("x_1^2", "msubsup", "<mi>x</mi><mn>1</mn><mn>2</mn>", "x_{1}^{2}"),
    ("x^2_1", "msubsup", "<mi>x</mi><mn>1</mn><mn>2</mn>", "x_{1}^{2}"),
    ("\\sum_{i}", "munder", "<mo>∑</mo><mi>i</mi>", "\\sum_{i}"),
    ("\\sum^{n}", "mover", "<mo>∑</mo><mi>n</mi>", "\\sum^{n}"),
    ("\\sum_{i}^{n}", "munderover", "<mo>∑</mo><mi>i</mi><mi>n</mi>", "\\sum_{i}^{n}"),
])
def test_every_script_element(registry, source, element, children, tex):
    # base, then sub, then sup, whichever order the source wrote them in
    out = serialize(convert(registry, source))
    assert out == f'<math display="inline"><{element}>{children}</{element}></math>'
    assert render_tex(parse(source, registry).ast) == tex


@pytest.mark.parametrize("source, mathml, tex", [
    # a style over one token that is not a letter styles that token
    ("\\mathbf{1}", '<mn mathvariant="bold">1</mn>', "\\mathbf{1}"),
    # an empty root index is no index
    ("\\sqrt[]{x}", "<msqrt><mi>x</mi></msqrt>", "\\sqrt{x}"),
])
def test_branches_no_corpus_formula_reaches(registry, source, mathml, tex):
    out = serialize(convert(registry, source))
    assert out == f'<math display="inline">{mathml}</math>'
    assert render_tex(parse(source, registry).ast) == tex


def test_display_attribute(registry):
    assert serialize(convert(registry, "x", display="block")).startswith(
        '<math display="block">')


def test_semantics_wrapper(registry):
    out = serialize(convert(registry, "x+y", wrap_semantics=True))
    assert out.startswith('<math display="inline"><semantics><mrow>')


def test_annotation_child(registry):
    out = serialize(convert(registry, "x ^ 2", wrap_semantics=True, annotate_tex=True))
    assert '<annotation encoding="application/x-tex">x^{2}</annotation>' in out


def test_annotate_requires_semantics():
    with pytest.raises(ValueError):
        GenOptions(annotate_tex=True)


def test_bad_display_rejected():
    with pytest.raises(ValueError):
        GenOptions(display="fancy")


def test_generation_determinism(registry):
    source = "\\frac{-b \\pm \\sqrt{b^2-4ac}}{2a}"
    assert serialize(convert(registry, source)) == serialize(convert(registry, source))


WALK_SOURCES = [
    "x", "x+y", "\\frac{a}{b}", "\\sqrt{x}", "\\begin{bmatrix} 1 & 0 \\\\ 0 & 1 \\end{bmatrix}",
    "\\left\\langle x \\right\\rangle", "\\hat{y}", "\\mathbb{R}", "\\text{hi}",
    "\\sum_{k=0}^{n} \\binom{n}{k}", "\\boxed{x}", "\\phantom{x}", "a \\quad b",
    "\\operatorname{abs}(x)", "\\sqrt[3]{x}", "\\overset{a}{b}", "x \\pmod{n}",
    "\\intent{z}{intent='imaginary-part'}",
]


@pytest.mark.parametrize("source", WALK_SOURCES)
def test_element_whitelist_and_token_layout_separation(registry, source):
    tree = convert(registry, source)
    for node in tree.iter():
        assert node.element in SUPPORTED_ELEMENTS, node.element
        if node.element in TOKEN_ELEMENTS:
            assert not node.children, f"token <{node.element}> has children"
        if node.children:
            assert node.text is None


@pytest.mark.parametrize("source", WALK_SOURCES)
def test_output_is_well_formed_xml(registry, source):
    out = serialize(convert(registry, source))
    parsed = ET.fromstring(out)  # independent well-formedness check
    assert parsed.tag == "math"


def test_from_xml_round_trip(registry):
    tree = convert(registry, "\\frac{x+1}{\\sqrt{2}}")
    again = from_xml(serialize(tree))
    assert again == tree


def test_figure2_fixture_bytes(registry):
    cases = json.loads((FIXTURES / "figure2.json").read_text("utf-8"))["cases"]
    assert len(cases) == 8
    for case in cases:
        out = convert_formula(case["input"], options=GenOptions(display=case["display"]))
        assert out == case["mathml"], case["id"]


def _variant(ref: str, display: str, semantics: bool, annotation: str | None) -> str:
    """`ref`, an inline or block reference, under the given output options."""
    body = ref[ref.index(">") + 1:-len("</math>")]
    head = f'<math display="{display}">'
    if not semantics:
        return head + body + "</math>"
    if annotation is not None:
        body += f'<annotation encoding="application/x-tex">{escape(annotation)}</annotation>'
    return head + "<semantics>" + (body or "<mrow></mrow>") + "</semantics></math>"


@pytest.mark.parametrize("display", ["inline", "block"])
@pytest.mark.parametrize("semantics, annotate", [(False, False), (True, False), (True, True)])
def test_every_reference_under_every_option_variant(registry, display, semantics, annotate):
    cases = json.loads((CORPORA / "combined_423.json").read_text("utf-8"))["cases"]
    options = GenOptions(display=display, wrap_semantics=semantics, annotate_tex=annotate)
    for case in cases:
        chem = case["options"].get("chem", False)
        tex = render_tex(parse(case["input"], registry, allow_chem=chem).ast) if annotate else None
        expected = _variant(case["expect"]["mathml"], display, semantics, tex)
        out = convert_formula(case["input"], chem=chem, options=options, registry=registry)
        assert out == expected, case["id"]


# -- shared token leaves -----------------------------------------------------


def _row(registry, source):
    return convert(registry, source).children[0].children


def test_token_leaves_are_built_once_per_registry(registry, monkeypatch):
    from texmathc import generator

    fresh = parse_registry_text(dump_registry(registry))
    built = []
    leaf = generator._leaf
    monkeypatch.setattr(generator, "_leaf", lambda tok, reg: built.append(tok) or leaf(tok, reg))
    first = _row(fresh, "x+\\alpha+x 2")
    assert built == ["x", "+", "\\alpha", "2"]
    again = _row(fresh, "x+\\alpha+x 2")
    assert built == ["x", "+", "\\alpha", "2"] and all(a is b for a, b in zip(first, again))
    assert first[0] is first[4] and first[1] is first[3]
    # another registry, even with equal content, builds its own
    default = _row(registry, "x+\\alpha+x 2")
    assert default == first and not any(a is b for a, b in zip(default, first))
    tree = convert(fresh, "x+\\alpha+x 2")
    assert from_xml(serialize(tree)) == tree


FENCED = ["\\left(x\\right.", "\\left\\langle x\\right|", "\\begin{pmatrix}x\\end{pmatrix}",
          "\\hat{x}", "\\underbrace{x}", "\\binom{a}{b}", "a \\choose b", "\\pmod{p}"]


def _mos(registry, source):
    return [n for n in convert(registry, source).iter() if n.element == "mo"]


def test_fence_and_mark_mos_are_registry_leaves(registry):
    fresh = parse_registry_text(dump_registry(registry))
    for source in FENCED:
        mos = _mos(fresh, source)
        assert mos and all(a is b and a.markup for a, b in zip(mos, _mos(fresh, source))), source
        assert not any(a is b for a, b in zip(mos, _mos(registry, source)))
    # one leaf per fence or mark text (and attributes), none per formula
    assert {key for key in fresh.leaves if isinstance(key, tuple)} == {
        ("(",), ("⟨",), ("|",), (")",), ("^",), ("⏟",),
        ("(", ("stretchy", "false")), (")", ("stretchy", "false"))}
    source = "\\intent{\\left(x\\right)}{intent='f($x)'}"
    assert convert_formula(source, registry=fresh) == convert_formula(source)


def test_a_shared_leaf_cannot_be_edited_in_place(registry):
    before = convert_formula("x+y")
    x = _row(registry, "x+y")[0]
    with pytest.raises(TypeError):
        x.attributes["mathvariant"] = "bold"
    with pytest.raises(AttributeError):
        x.children.append(token("mi", "z"))
    assert x.attributes == {} and x.children == ()
    assert convert_formula("x+y") == before
    # a copy or a pickle of a generated tree is an editable tree
    tree = convert(registry, "x+y")
    for again in (copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
        assert again == tree
        again.children[0].children[0].attributes["mathvariant"] = "bold"
        again.children[0].children[0].children.append(token("mi", "z"))
    mine = copy.copy(x)
    mine.attributes["mathvariant"] = "bold"
    assert x.attributes == {} and convert_formula("x+y") == before


@pytest.mark.parametrize("first", [
    "\\intent{x+y}{intent='f($x)'}", "\\intent{x+y}{intent='f($a)', arg='x=a'}",
    "\\mathbf{x}+\\mathrm{y}", "\\intent{\\,}{intent='space'}", "\\intent{x}{intent='g'}",
])
def test_no_attribute_leaks_into_a_shared_leaf(first):
    later = "x+y \\, x"
    fresh = subprocess.run(
        [sys.executable, "-c", f"import texmathc; print(texmathc.convert_formula({later!r}))"],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, check=True)
    edited = convert_formula(first)
    assert 'arg="' in edited or "mathvariant" in edited or "intent" in edited
    assert convert_formula(first) == edited
    assert convert_formula(later) + "\n" == fresh.stdout
