"""The public value types: copies, pickles, validation, immutability and repr."""

from __future__ import annotations

import copy
import pickle

import pytest

from texmathc import (
    ConversionFailed,
    Diagnostic,
    GenOptions,
    MathMLNode,
    convert_formula,
    default_registry,
    from_xml,
    parse,
)
from texmathc.mathml import token
from texmathc.nodes import IntentWrap, Literal, Sequence

INTENT = r"\intent{x+y}{intent='plus($a,$b)', arg='x=a,y=b'}"


def _failure() -> ConversionFailed:
    with pytest.raises(ConversionFailed) as failed:
        convert_formula(r"\nope + x")
    return failed.value


def _values():
    registry = default_registry()
    return {
        "Diagnostic": Diagnostic("warning", "W_DEPRECATED", "old", (2, 5)),
        "ParseResult": parse(INTENT, registry),
        "GenOptions": GenOptions("block", True, True),
        "MathMLNode": from_xml(convert_formula(INTENT)),
        "CommandSpec": registry.lookup("and"),
        "Registry": registry,
    }


@pytest.mark.parametrize("name", list(_values()))
@pytest.mark.parametrize("round_trip", [
    copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value)),
], ids=["copy", "deepcopy", "pickle"])
def test_value_types_round_trip(name, round_trip):
    value = _values()[name]
    digest = value.digest if name == "Registry" else None  # cached on the original
    again = round_trip(value)
    assert type(again) is type(value) and again == value and repr(again) == repr(value)
    if name == "ParseResult":
        assert isinstance(again.ast.children[0], IntentWrap)
        assert again.ast.children[0].ref_spans == value.ast.children[0].ref_spans
    if name == "Registry":
        assert again.digest == digest
    if name not in ("MathMLNode", "Registry"):  # these hold dicts: no hash
        assert hash(again) == hash(value)


@pytest.mark.parametrize("round_trip", [
    copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value)),
], ids=["deepcopy", "pickle"])
def test_conversion_failed_round_trips(round_trip):
    failure = _failure()
    again = round_trip(failure)
    assert type(again) is ConversionFailed and again.diagnostics == failure.diagnostics
    assert str(again) == str(failure)


@pytest.mark.parametrize("make, error, message", [
    (lambda: Diagnostic("fatal", "E_X", "m", (0, 1)), ValueError, "bad severity 'fatal'"),
    (lambda: Diagnostic("error", "E_X", "m", (3, 2)), ValueError, r"bad span \(3, 2\)"),
    (lambda: Diagnostic("error", "E_X", "m", (-1, 2)), ValueError, r"bad span \(-1, 2\)"),
    (lambda: GenOptions(display="wide"), ValueError,
     "display must be inline or block, got 'wide'"),
    (lambda: GenOptions(annotate_tex=True), ValueError, "annotate_tex requires wrap_semantics"),
    (lambda: MathMLNode("mi", {}, [MathMLNode("mn", {}, [], "1")], "x"), ValueError,
     "<mi> cannot carry both text and children"),
])
def test_construction_checks_its_fields(make, error, message):
    with pytest.raises(error, match=message):
        make()


@pytest.mark.parametrize("name, field", [
    ("Diagnostic", "code"), ("ParseResult", "ast"), ("GenOptions", "display"),
    ("CommandSpec", "name"), ("Registry", "version"),
])
def test_frozen_fields_cannot_be_assigned(name, field):
    value = _values()[name]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.not_a_field = 1


def test_ast_nodes_are_frozen_and_compare_by_value():
    ast = parse(INTENT, default_registry()).ast
    wrap = ast.children[0]
    for node, field in [(ast, "children"), (wrap, "ref_spans"), (Literal("x"), "token")]:
        with pytest.raises(AttributeError):
            setattr(node, field, None)
    # where a reference was read is not part of the tree's value
    moved = IntentWrap(wrap.body, wrap.intent_raw, wrap.arg_map, ())
    assert moved == wrap and hash(moved) == hash(wrap) and moved != wrap.body
    assert Sequence((Literal("x"),)) != Literal("x") and Literal("x") != "x"


def test_mathml_nodes_stay_mutable():
    node = MathMLNode("mi", {}, [], "x")
    node.text = "y"
    node.attributes["mathvariant"] = "bold"
    assert node == MathMLNode("mi", {"mathvariant": "bold"}, [], "y")
    assert MathMLNode("mrow") == MathMLNode("mrow", {}, [], None)
    with pytest.raises(TypeError):
        hash(node)


def test_reprs_are_unchanged():
    assert repr(Diagnostic("error", "E_X", "bad", (0, 3))) == (
        "Diagnostic(severity='error', code='E_X', message='bad', span=(0, 3))")
    assert repr(GenOptions()) == (
        "GenOptions(display='inline', wrap_semantics=False, annotate_tex=False)")
    assert repr(default_registry().lookup("and")) == (
        "CommandSpec(name='and', translation_fn='operator', params=('2227',), arity=0, "
        "infix=False, chem_only=False, deprecated=True)")
    assert repr(MathMLNode("mi", {}, [], "x")) == (
        "MathMLNode(element='mi', attributes={}, children=[], text='x')")
    assert repr(parse("x", default_registry())) == (
        "ParseResult(ast=Sequence(children=(Literal(token='x'),)), errors=(), warnings=())")


def test_values_compare_and_hash_by_their_fields():
    assert hash(GenOptions()) == hash(("inline", False, False))
    assert hash(Literal("x")) == hash(("x",))
    assert Diagnostic("error", "E_X", "m", (0, 1)) == Diagnostic("error", "E_X", "m", (0, 1))
    assert Diagnostic("error", "E_X", "m", (0, 1)) != Diagnostic("error", "E_X", "m", (0, 2))
    x, y = Literal("x"), Literal("y")
    assert Sequence((x,)) != Sequence((x, y)) and Sequence((x, y)) != Sequence((x,))
    one, two = (MathMLNode("mrow", {}, [MathMLNode("mi", {}, [], t) for t in "xy"[:n]])
                for n in (1, 2))
    assert one != two and two != one and one == MathMLNode("mrow", {}, [token("mi", "x")])
