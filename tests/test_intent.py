from __future__ import annotations

import pytest

from texmathc import check_formula, convert_formula, from_xml, parse, parse_intent
from texmathc.diagnostics import (
    E_INTENT_AMBIGUOUS_REF,
    E_INTENT_SYNTAX,
    E_INTENT_UNBOUND_REF,
    E_TOO_DEEP,
    IntentError,
)
from texmathc.intent import (
    HINTS,
    STRUCTURE_KINDS,
    Application,
    Concept,
    Number,
    Reference,
    Structure,
    apply_intent,
    parse_macro,
)
from texmathc.mathml import token


def test_open_interval_example():
    expr = parse_intent("open-interval($x,$y)")
    assert expr == Application(Concept("open-interval"), None,
                               (Reference("x"), Reference("y")))


def test_negative_number():
    assert parse_intent("-3.5") == Number("3.5", negative=True)
    assert parse_intent("42") == Number("42", negative=False)


def test_hinted_application():
    expr = parse_intent("plus@infix($a,$b)")
    assert expr == Application(Concept("plus"), "infix",
                               (Reference("a"), Reference("b")))


def test_structure_kinds():
    for kind in STRUCTURE_KINDS:
        assert parse_intent(":" + kind) == Structure(kind)


def test_all_hints_accepted():
    assert len(HINTS) == 7
    for hint in HINTS:
        expr = parse_intent(f"f@{hint}($x)")
        assert expr.hint == hint


def test_nested_application():
    expr = parse_intent("power($x,divide(1,$n))")
    inner = expr.args[1]
    assert isinstance(inner, Application)
    assert inner.args == (Number("1", False), Reference("n"))


def test_application_depth_is_capped():
    # applications nest up to the parser's cap; a chain f(x)(y) is one level
    assert parse_intent("f" + "(x)" * 300)
    assert parse_intent("f(" * 128 + "a" + ")" * 128)
    with pytest.raises(IntentError) as err:
        parse_intent("f(" * 2000 + "a" + ")" * 2000)
    assert (err.value.diagnostic.code, err.value.diagnostic.span) == (E_TOO_DEEP, (257, 258))
    # located in the user's input, past the escaped dollar, not a RecursionError
    prefix = "\\intent{x}{intent='g(\\$x," + "f(" * 127
    source = prefix + "f(" * 1873 + "a" + ")" * 2001 + "', arg='x=x'}"
    (diag,) = check_formula(source)
    assert (diag.code, diag.span) == (E_TOO_DEEP, (len(prefix) + 1, len(prefix) + 2))


def test_chained_application():
    expr = parse_intent("f(x)(y)")
    assert isinstance(expr.head, Application)


def test_empty_argument_list():
    assert parse_intent("f()") == Application(Concept("f"), None, ())


def test_whitespace_tolerated():
    assert parse_intent("f( $x , $y )") == parse_intent("f($x,$y)")


def test_references_in_order(registry):
    source = "\\intent{ab}{intent='f($b,\\$a,$b)'}"
    (wrap,) = parse(source, registry).ast.children
    assert [(name, source[s:e]) for name, (s, e) in wrap.ref_spans] == [
        ("b", "$b"), ("a", "\\$a")]
    assert wrap.ref_spans[0][1][0] == source.index("$b")


NEGATIVES = [
    "", " ", "1name", "-", "3.", ".5", "--3", "3..4", "$", "$1x", "$-a",
    ":silly", ":", "a:b", "a$b", "@infix", "@infix(x)", "f@nohint($a)",
    "f@infix", "f(", "f)", "f(a", "f(a))", "f(,a)", "f(a,)", "f(a,,b)",
    "(a)", "f(a)b", "open-interval($x,$y", "a b", "plus@@infix($a)",
]


@pytest.mark.parametrize("text", NEGATIVES)
def test_grammar_negatives(text):
    with pytest.raises(IntentError) as err:
        parse_intent(text)
    assert err.value.diagnostic.code == E_INTENT_SYNTAX


def test_hint_without_application_rejected():
    # the grammar only allows a hint inside an application
    with pytest.raises(IntentError):
        parse_intent("plus@infix")


# -- macro options ----------------------------------------------------------


def test_macro_options_basic():
    raw, binding, _ = parse_macro("intent='open-interval($x,$y)'")
    assert raw == "open-interval($x,$y)"
    assert binding == ()


def test_macro_options_with_binding():
    raw, binding, _ = parse_macro("intent='open-interval($x,$y)', arg='a=x,b=y'")
    assert binding == (("a", "x"), ("b", "y"))


def test_macro_options_escaped_dollar_normalized():
    raw, _, _ = parse_macro("intent='open-interval(\\$x,\\$y)'")
    assert raw == "open-interval($x,$y)"


@pytest.mark.parametrize("raw", [
    "", "arg='a=x'", "intent='f' intent='g'", "intent='f', intent='g'",
    "intent=f", "intent='f", "nonsense='f'", "intent='f', arg='a=x,a=y'",
    "intent='f', arg='a'", "intent='f', arg='=x'",
])
def test_macro_options_rejections(raw):
    with pytest.raises(IntentError):
        parse_macro(raw)


# -- attribute injection -----------------------------------------------------


def test_listing_case_attributes():
    out = convert_formula("\\intent{(x,y)}{intent='open-interval($x,$y)'}")
    tree = from_xml(out)
    row = tree.children[0]
    assert row.element == "mrow"
    assert row.attributes["intent"] == "open-interval($x,$y)"
    args = [(n.text, n.attributes.get("arg")) for n in row.iter()
            if n.element == "mi"]
    assert ("x", "x") in args and ("y", "y") in args


def test_zero_reference_intent_wraps_token():
    out = convert_formula("\\intent{z}{intent='imaginary-part'}")
    assert '<mrow intent="imaginary-part"><mi>z</mi></mrow>' in out
    assert "arg=" not in out


def test_binding_translation():
    out = convert_formula(
        "\\intent{(a,b)}{intent='open-interval($x,$y)', arg='a=x,b=y'}")
    tree = from_xml(out)
    labeled = {n.text: n.attributes.get("arg") for n in tree.iter()
               if n.element == "mi"}
    assert labeled == {"a": "x", "b": "y"}


def test_raw_intent_round_trips_verbatim():
    raw = "open-interval($x,$y)"
    out = convert_formula(f"\\intent{{(x,y)}}{{intent='{raw}'}}")
    assert f'intent="{raw}"' in out


def _wrap(source, registry):
    """The IntentWrap node of a formula that is one ``\\intent`` macro."""
    return parse(source, registry).ast.children[0]


def test_unbound_reference(registry):
    source = "\\intent{z}{intent='f($z, $missing)'}"
    with pytest.raises(IntentError) as err:
        apply_intent(_wrap(source, registry), token("mi", "z"))
    assert err.value.code == E_INTENT_UNBOUND_REF
    start, end = err.value.span
    assert source[start:end] == "$missing"


def test_ambiguous_reference(registry):
    source = "\\intent{x+x}{intent='f($x)'}"
    row = from_xml("<mrow><mi>x</mi><mo>+</mo><mi>x</mi></mrow>")
    with pytest.raises(IntentError) as err:
        apply_intent(_wrap(source, registry), row)
    assert err.value.code == E_INTENT_AMBIGUOUS_REF
    start, end = err.value.span
    assert source[start:end] == "$x"


def test_injection_preserves_structure_modulo_wrapping():
    from texmathc.similarity import CompareOptions, tree_edit_distance

    annotated = from_xml(convert_formula("\\intent{(x,y)}{intent='open-interval($x,$y)'}"))
    plain = from_xml(convert_formula("(x,y)"))
    options = CompareOptions(ignore_inferred_mrow=True, ignored_attributes="all")
    assert tree_edit_distance(annotated, plain, options).distance == 0


def test_bad_intent_syntax_is_a_parse_error(registry):
    from texmathc.parser import parse

    result = parse("\\intent{x}{intent='('}", registry)
    assert not result.ok
    assert result.errors[0].code == E_INTENT_SYNTAX


def test_apply_intent_accepts_ast_node(registry):
    out = apply_intent(_wrap("\\intent{z}{intent='imaginary-part'}", registry),
                       token("mi", "z"))
    assert out.attributes["intent"] == "imaginary-part"


def test_nested_intent_inner_takes_precedence():
    out = convert_formula(
        "\\intent{{\\intent{x}{intent='real-part'}} + y}{intent='sum'}")
    tree = from_xml(out)
    outer = tree.children[0]
    assert outer.attributes.get("intent") == "sum"
    inner = [n for n in outer.iter() if n.attributes.get("intent") == "real-part"]
    assert len(inner) == 1
