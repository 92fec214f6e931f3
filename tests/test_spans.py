"""Diagnostic spans: UTF-8 byte offsets into the text each scanner was given.

One rule holds everywhere: a span is at least one codepoint wide, a span at
or past the end of a non-empty text sits on its last codepoint, and an empty
text gives (0, 1).  Errors found inside a ``\\ce``/``\\pu`` body or an
``\\intent`` option block are located in the enclosing formula.
"""

from __future__ import annotations

import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from oracles import preprocess_oracle
from texmathc import ConversionFailed, check_formula, convert_formula, parse
from texmathc.diagnostics import (
    E_CHEM_SYNTAX,
    E_INTENT_AMBIGUOUS_REF,
    E_INTENT_SYNTAX,
    E_INTENT_UNBOUND_REF,
    E_TOO_DEEP,
    E_UNKNOWN_COMMAND,
    W_DEPRECATED,
    DiagnosticError,
)
from texmathc.intent import apply_intent, parse_intent, parse_macro
from texmathc.mathml import token
from texmathc.mhchem import expand_ce, expand_pu
from texmathc.nodes import IntentWrap, Literal


def _error(fn, text):
    with pytest.raises(DiagnosticError) as err:
        fn(text)
    return err.value.diagnostic


def _slice(text, span):
    return text.encode("utf-8")[span[0]:span[1]].decode("utf-8")


# -- parser -------------------------------------------------------------


def test_parser_span_after_non_ascii(registry):
    source = "\\text{日本} \\badcmd"
    (diag,) = parse(source, registry).errors
    assert diag.code == E_UNKNOWN_COMMAND
    assert diag.span == (14, 21)
    assert _slice(source, diag.span) == "\\badcmd"


def test_parser_end_of_text_moves_onto_last_codepoint(registry):
    (diag,) = parse("{é", registry).errors
    assert diag.span == (1, 3)


def test_parser_warnings_after_non_ascii(registry):
    source = "\\text{é} \\and \\text{ü} \\or \\text{日} \\part"
    result = parse(source, registry)
    assert result.ok
    assert [d.code for d in result.warnings] == [W_DEPRECATED] * 3
    assert [_slice(source, d.span) for d in result.warnings] == ["\\and", "\\or", "\\part"]


def test_parser_warning_and_error_together(registry):
    source = "\\text{日} \\and \\badcmd"
    result = parse(source, registry)
    assert _slice(source, result.errors[0].span) == "\\badcmd"
    assert _slice(source, result.warnings[0].span) == "\\and"


# -- mhchem -------------------------------------------------------------


def test_chem_span_after_non_ascii_prefix():
    source = "\\text{é} + \\ce{H@O}"
    (diag,) = check_formula(source, chem=True)
    assert diag.code == E_CHEM_SYNTAX
    assert diag.span == (17, 18)
    assert _slice(source, diag.span) == "@"


def test_ce_end_of_body_stays_in_body():
    assert _error(expand_ce, "^").span == (0, 1)
    assert _error(expand_ce, "H_").span == (1, 2)
    source = "\\ce{H_}"
    assert _slice(source, _error(preprocess_oracle, source).span) == "_"


def test_pu_end_of_body_stays_in_body():
    assert _error(expand_pu, "5 m/").span == (3, 4)
    source = "é\\pu{5 m/ }"
    assert _slice(source, _error(preprocess_oracle, source).span) == "/"


def test_unterminated_chem_argument_runs_to_end():
    source = "é \\ce{H2O"
    diag = _error(preprocess_oracle, source)
    assert _slice(source, diag.span) == "\\ce{H2O"


# -- chemistry inside the parser ----------------------------------------


@pytest.mark.parametrize(("source", "code", "offending", "span"), [
    ("\\ce{H2O} + \\badcmd", E_UNKNOWN_COMMAND, "\\badcmd", (11, 18)),
    ("\\ce{H2O} \\intent{x}{intent='f($y)'}", E_INTENT_UNBOUND_REF, "$y", (30, 32)),
    ("\\text{é} \\pu{5 m} \\badcmd", E_UNKNOWN_COMMAND, "\\badcmd", (19, 26)),
    # an error in the expansion covers the whole command
    ("{" * 128 + "\\ce{H2}" + "}" * 128, E_TOO_DEEP, "\\ce{H2}", (128, 135)),
])
def test_chem_diagnostics_index_the_users_input(source, code, offending, span):
    (diag,) = check_formula(source, chem=True)
    assert (diag.code, diag.span) == (code, span)
    assert _slice(source, diag.span) == offending
    with pytest.raises(ConversionFailed) as err:
        convert_formula(source, chem=True)
    assert err.value.diagnostics == [diag]


def test_a_failed_generation_keeps_the_warnings():
    """`convert` reports what `check` does when an intent reference cannot
    bind: the error and the parse's warnings after it."""
    source = "\\and\\intent{x+x}{intent='f($x)'}"
    diagnostics = check_formula(source)
    assert [d.code for d in diagnostics] == [E_INTENT_AMBIGUOUS_REF, W_DEPRECATED]
    with pytest.raises(ConversionFailed) as err:
        convert_formula(source)
    assert err.value.diagnostics == diagnostics


def test_chem_errors_are_reported_in_reading_order():
    # The chemistry is expanded where the parser meets it, so an earlier
    # error wins over a later chemistry error.
    (diag,) = check_formula("\\badcmd + \\ce{H$}", chem=True)
    assert (diag.code, diag.span) == (E_UNKNOWN_COMMAND, (0, 7))
    (diag,) = check_formula("\\ce{H$} + \\badcmd", chem=True)
    assert (diag.code, diag.span) == (E_CHEM_SYNTAX, (5, 6))


def test_chem_command_and_body_errors_point_into_the_input():
    for source, offending in [("\\ce{H_}", "_"), ("\\text{é}\\pu{5 m/ }", "/"),
                              ("\\text{é} \\ce{H2O", "\\ce{H2O"), ("x \\ce y", "\\ce "),
                              ("\\sqrt\\ce{H@O}", "@")]:
        (diag,) = check_formula(source, chem=True)
        assert _slice(source, diag.span) == offending, (source, diag)


_CHEM_PIECES = st.sampled_from([
    "x", "2", "+", "^", "_", "{", "}", " ", "é", "\\text{日本}", "\\alpha", "\\sqrt",
    "\\frac", "[", "]", "\\and", "\\badcmd", "\\intent{x}{intent='f($y)'}",
    "\\ce{H2O}", "\\ce{A->}", "\\ce{SO4^2-}", "\\ce{}", "\\ce{H@O}", "\\ce{", "\\ce",
    "\\pu{1.2e3 m/s}", "\\pu{5 m/}",
])


@settings(max_examples=300, deadline=None)
@given(st.lists(_CHEM_PIECES, max_size=8).map("".join))
def test_chem_spans_lie_inside_the_input(source):
    """Every --chem span is inside the input; an unknown command appended to
    an accepted formula is reported at exactly that command."""
    size = max(1, len(source.encode("utf-8")))
    diagnostics = check_formula(source, chem=True)
    try:
        convert_formula(source, chem=True)
    except ConversionFailed as exc:
        diagnostics += exc.diagnostics
    for diag in diagnostics:
        assert 0 <= diag.span[0] < diag.span[1] <= size, (source, diag)
    if any(diag.severity == "error" for diag in diagnostics):
        return
    variant = source + " \\zzunknown"
    errors = [d for d in check_formula(variant, chem=True) if d.severity == "error"]
    assert [(d.code, _slice(variant, d.span)) for d in errors] == \
        [(E_UNKNOWN_COMMAND, "\\zzunknown")], variant
    assert errors[0].span[0] == len(source.encode("utf-8")) + 1


# -- intent -------------------------------------------------------------


def test_intent_end_of_text():
    assert _error(parse_intent, "f(").span == (1, 2)
    assert _error(parse_intent, "").span == (0, 1)


@pytest.mark.parametrize(("source", "offending", "span"), [
    ("\\intent{x}{intent='('}", "(", (19, 20)),
    ("\\intent{x}{intent='f(x', arg='1=b'}", "1", (30, 31)),
    ("\\intent{x}{intent='f(\\$x y)'}", "y", (25, 26)),
    ("\\intent{x}{intent='f', arg='a=\\$x'}", "\\$", (30, 32)),
    ("\\text{é} \\intent{x}{intent='('}", "(", (29, 30)),
    ("\\intent{x}a", "a", (10, 11)),
])
def test_intent_errors_point_into_the_quoted_value(registry, source, offending, span):
    (diag,) = parse(source, registry).errors
    assert diag.code == E_INTENT_SYNTAX
    assert diag.span == span
    assert _slice(source, diag.span) == offending


@pytest.mark.parametrize(("source", "code", "reference"), [
    ("\\text{é}\\intent{x}{intent='f(\\$y)'}", E_INTENT_UNBOUND_REF, "\\$y"),
    ("\\intent{x}{intent='f($x, $y)'}", E_INTENT_UNBOUND_REF, "$y"),
    ("\\intent{x}{intent='f($y, $x, $y)'}", E_INTENT_UNBOUND_REF, "$y"),
    ("\\intent{a}{intent='f($x)', arg='b=x'}", E_INTENT_UNBOUND_REF, "$x"),
    ("\\intent{x+x}{intent='plus($x)'}", E_INTENT_AMBIGUOUS_REF, "$x"),
    ("\\intent{x}{intent='f($x)'} + \\text{日本}\\intent{y}{ intent = 'g(\\$z)' }",
     E_INTENT_UNBOUND_REF, "\\$z"),
])
def test_intent_reference_errors_point_at_the_reference(source, code, reference):
    """check and convert agree, and locate the reference in the quoted value."""
    with pytest.raises(ConversionFailed) as err:
        convert_formula(source)
    (diag,) = err.value.diagnostics
    assert diag.code == code
    assert _slice(source, diag.span) == reference
    assert diag.span[0] == source.encode("utf-8").index(reference.encode("utf-8"))
    assert check_formula(source) == [diag]


def test_generator_error_is_located_in_bytes_of_the_source(registry):
    """A reference binds only on the generated tree, which holds no source;
    `parse` generates it and locates the error in bytes of the source."""
    source = "\\text{日本}\\intent{x}{intent='f($y)'}"
    (diag,) = parse(source, registry).errors
    assert (diag.code, diag.span) == (E_INTENT_UNBOUND_REF, (34, 36))
    assert _slice(source, diag.span) == "$y"


def test_arg_binding_error_is_located_in_the_option_block():
    raw = "intent='f', arg='a=\\$x'"
    assert _slice(raw, _error(parse_macro, raw).span) == "\\$"


def _raised(fn, *args, **kwargs):
    with pytest.raises(Exception) as err:
        fn(*args, **kwargs)
    return err.value


def test_errors_cross_a_process_boundary():
    """A caller converting in a process pool gets the diagnostics back."""
    intent_raw, arg_map, refs = parse_macro("intent='f($y)'")
    wrap = IntentWrap(Literal("x"), intent_raw, arg_map, tuple(refs.items()))  # parse refuses it
    errors = [
        _raised(convert_formula, "\\zz"),
        _raised(expand_ce, "H@"),
        _raised(parse_intent, "f($x"),
        _raised(apply_intent, wrap, token("mi", "x")),
    ]
    assert [type(e).__name__ for e in errors] == [
        "ConversionFailed", "ChemError", "IntentError", "IntentError"]
    assert errors[3].text is None
    fields = ("code", "message", "span", "text", "diagnostic", "diagnostics")
    for exc in errors:
        copy = pickle.loads(pickle.dumps(exc))
        assert type(copy) is type(exc)
        assert str(copy) == str(exc)
        for name in fields:
            assert getattr(copy, name, None) == getattr(exc, name, None), name


# -- every scanner ------------------------------------------------------

_PIECES = st.sampled_from([
    "H", "2", "O", "^", "_", "{", "}", "(", ")", "-", "+", "=", "#", "*", "/",
    "$", "\\$", "'", ",", "@", ":", "m", "s", " ", "é", "日", "intent=", "arg=",
])


@settings(max_examples=300, deadline=None)
@given(st.lists(_PIECES, max_size=10).map("".join))
def test_every_scanner_keeps_spans_inside_its_text(text):
    limit = max(1, len(text.encode("utf-8")))
    for fn in (expand_ce, expand_pu, preprocess_oracle, parse_intent, parse_macro):
        try:
            fn(text)
        except DiagnosticError as exc:
            start, end = exc.diagnostic.span
            assert 0 <= start < end <= limit, (fn.__name__, text, exc.diagnostic)


# -- lone surrogates ----------------------------------------------------


def _surrogate_slice(text, span):
    return text.encode("utf-8", "surrogatepass")[span[0]:span[1]].decode("utf-8", "surrogatepass")


# Raw text that XML cannot carry is rejected, so no finding follows a lone
# surrogate: the surrogate is the finding.
@pytest.mark.parametrize(("source", "code", "offending", "span"), [
    ("\\text{a\ud800}\\bad", E_UNKNOWN_COMMAND, "\ud800", (7, 10)),
    ("\\text{\udfff}\\intent{x}{intent='f(\\$y)'}", E_UNKNOWN_COMMAND, "\udfff", (6, 9)),
    ("\\intent{x}{intent='\ud800('}", E_INTENT_SYNTAX, "\ud800", (19, 22)),
])
def test_a_lone_surrogate_counts_three_bytes(source, code, offending, span):
    (diag,) = check_formula(source)
    assert (diag.code, diag.span) == (code, span)
    assert _surrogate_slice(source, diag.span) == offending


# -- frozen diagnostics -------------------------------------------------


def _stage(fn, text):
    try:
        fn(text)
    except DiagnosticError as exc:
        return exc.diagnostic.format_line()
    return None


def _converted(source, chem):
    try:
        convert_formula(source, chem=chem)
    except ConversionFailed as exc:
        return [d.format_line() for d in exc.diagnostics]
    return None


def test_frozen_diagnostics():
    """The findings recorded by tools/gen_diagnostics.py stay as they were."""
    fixture = json.loads((FIXTURES / "diagnostics.json").read_text("utf-8"))
    assert len(fixture["cases"]) == 2000
    for case in fixture["cases"]:
        source, inner = case["source"], case["inner"]
        assert [[d.format_line() for d in check_formula(source, chem=chem)]
                for chem in (False, True)] == case["check"], source
        assert [_converted(source, chem) for chem in (False, True)] == case["convert"], source
        for checked, converted in zip(case["check"], case["convert"]):
            assert converted in (None, checked), source  # `convert` fails with what `check` finds
        assert [_stage(fn, inner) for fn in (expand_ce, expand_pu, parse_intent, parse_macro)] \
            == case["stages"], inner


@pytest.mark.parametrize("space", [" ", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"])
def test_token_offsets_count_non_ascii_whitespace(space):
    # a span, a `\ce` body, a raw argument and an `\intent` spec are each taken
    # at token offsets that count every whitespace code point before them
    w = len(space.encode("utf-8"))

    def lines(source, chem=False):
        return [d.format_line() for d in check_formula(source, chem=chem)]

    assert lines(f"x{space}\\bad") == [
        f"error:E_UNKNOWN_COMMAND:{1 + w}-{5 + w}:\\bad is not a whitelisted command"]
    assert lines(f"x{space}\\and") == [f"warning:W_DEPRECATED:{1 + w}-{5 + w}:\\and is deprecated"]
    assert lines(f"{space}\\ce{space}{{{space}H@O}}", chem=True) == [
        f"error:E_CHEM_SYNTAX:{5 + 3 * w}-{6 + 3 * w}:unsupported character '@' in \\ce"]
    assert lines(f"\\text{space}{{a\x00}}") == [
        f"error:E_UNKNOWN_COMMAND:{7 + w}-{8 + w}:character '\\x00' is not whitelisted"]
    assert lines(f"\\intent{{x}}{space}{{intent='f($y)'}}") == [
        f"error:E_INTENT_UNBOUND_REF:{21 + w}-{23 + w}:"
        "intent reference $y matches no identifier in the formula"]
    assert convert_formula(f"{space}\\ce{space}{{H2O}}{space}\\text{space}{{a b}}", chem=True) \
        == convert_formula("\\ce{H2O}\\text{a b}", chem=True)
