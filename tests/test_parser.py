from __future__ import annotations

import copy
import json
import string
import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CORPORA
from oracles import closing_brace, command_names, tokenize_oracle
from texmathc import ConversionFailed, check_formula, convert_formula, default_registry
from texmathc.diagnostics import (
    E_AMBIGUOUS_INFIX,
    E_BAD_DELIM,
    E_BAD_ENV,
    E_DOUBLE_SCRIPT,
    E_EMPTY_ARG,
    E_TOO_DEEP,
    E_UNBALANCED_BRACE,
    E_UNKNOWN_COMMAND,
    W_DEPRECATED,
)
from texmathc.nodes import (
    Curly,
    Delimited,
    Fun,
    Infix,
    IntentWrap,
    Literal,
    Matrix,
    Script,
    Sequence,
    Text,
)
from texmathc.mathml import GenOptions
from texmathc.parser import leaf_table, parse, render_tex, token_ends, tokenize
from texmathc.registry import dump_registry, parse_registry_text


def ok(registry, source):
    result = parse(source, registry)
    assert result.ok, (source, result.errors)
    return result.ast


def first_error(registry, source, *, allow_chem=False):
    result = parse(source, registry, allow_chem=allow_chem)
    assert not result.ok, f"expected failure for {source!r}"
    return result.errors[0]


# -- structural examples ---------------------------------------------------


def test_single_identifier(registry):
    assert ok(registry, "x") == Sequence((Literal("x"),))


def test_sqrt_example(registry):
    ast = ok(registry, "\\sqrt{1-z^3}")
    expected = Sequence((
        Fun("sqrt", (Curly((
            Literal("1"), Literal("-"), Script(Literal("z"), None, Literal("3")),
        )),)),
    ))
    assert ast == expected


def test_vmatrix_example(registry):
    ast = ok(registry, "\\begin{vmatrix} x & y \\\\ z & v \\end{vmatrix}")
    assert ast == Sequence((
        Matrix("vmatrix", (
            (Literal("x"), Literal("y")),
            (Literal("z"), Literal("v")),
        )),
    ))


@pytest.mark.parametrize(("body", "cells"), [
    ("", [1]),
    ("\\\\", [1]),
    ("a\\\\", [1]),
    ("a\\\\\\\\", [1, 1]),
    ("a&\\\\", [2]),
    ("a\\\\&", [1, 2]),
    ("a\\\\{}", [1, 1]),
])
def test_matrix_row_shapes(registry, body, cells):
    """A row break just before \\end adds no row; an empty matrix has one empty cell."""
    (matrix,) = ok(registry, f"\\begin{{matrix}}{body}\\end{{matrix}}").children
    assert [len(row) for row in matrix.rows] == cells


def test_array_brace_that_is_not_a_column_spec_is_content():
    assert "<mtd><mrow><mi>x</mi><mi>a</mi></mrow></mtd>" in \
        convert_formula("\\begin{array}{x} a \\end{array}")


def test_scripts(registry):
    assert ok(registry, "x^2") == Sequence((Script(Literal("x"), None, Literal("2")),))
    assert ok(registry, "x_1") == Sequence((Script(Literal("x"), Literal("1"), None),))
    assert ok(registry, "x_1^2") == Sequence((
        Script(Literal("x"), Literal("1"), Literal("2")),))
    # both script orders canonicalize to the same node
    assert ok(registry, "x^2_1") == ok(registry, "x_1^2")


def test_infix_over(registry):
    ast = ok(registry, "a \\over b")
    assert ast == Sequence((
        Infix("over", Sequence((Literal("a"),)), Sequence((Literal("b"),))),))


def test_delimited_null_side(registry):
    ast = ok(registry, "\\left. x \\right\\}")
    assert ast == Sequence((
        Delimited(".", "\\}", Sequence((Literal("x"),))),))


def test_text_keeps_spaces(registry):
    ast = ok(registry, "\\text{ two words }")
    assert ast == Sequence((Fun("text", (Text(" two words "),)),))


def test_intent_macro_ast(registry):
    ast = ok(registry, "\\intent{(x,y)}{intent='open-interval($x,$y)', arg='x=x,y=y'}")
    wrap = ast.children[0]
    assert isinstance(wrap, IntentWrap)
    assert wrap.intent_raw == "open-interval($x,$y)"
    assert wrap.arg_map == (("x", "x"), ("y", "y"))


def test_intent_macro_escaped_dollar(registry):
    ast = ok(registry, "\\intent{a}{intent='f(\\$a)'}")
    wrap = ast.children[0]
    assert wrap.intent_raw == "f($a)"


def test_empty_input_is_valid(registry):
    assert ok(registry, "") == Sequence(())


# -- diagnostics -------------------------------------------------------------


def test_unknown_command_span(registry):
    diag = first_error(registry, "\\unknowncmd x")
    assert diag.code == E_UNKNOWN_COMMAND
    assert diag.span == (0, len("\\unknowncmd"))


def test_unbalanced_brace(registry):
    assert first_error(registry, "{a").code == E_UNBALANCED_BRACE
    assert first_error(registry, "a}").code == E_UNBALANCED_BRACE


def test_bad_delim(registry):
    assert first_error(registry, "\\left( x").code == E_BAD_DELIM
    assert first_error(registry, "x \\right)").code == E_BAD_DELIM
    assert first_error(registry, "\\left? x \\right)").code == E_BAD_DELIM


def test_bad_env(registry):
    assert first_error(registry, "\\begin{nosuch} x \\end{nosuch}").code == E_BAD_ENV
    assert first_error(registry, "\\begin{matrix} x \\end{pmatrix}").code == E_BAD_ENV
    assert first_error(registry, "a & b").code == E_BAD_ENV
    assert first_error(registry, "\\end{matrix}").code == E_BAD_ENV
    assert first_error(registry, "\\pmatrix").format_line() == \
        "error:E_BAD_ENV:0-8:pmatrix is an environment; use \\begin{pmatrix}"


def test_empty_arg(registry):
    assert first_error(registry, "\\sqrt").code == E_EMPTY_ARG
    assert first_error(registry, "\\frac{a}").code == E_EMPTY_ARG
    assert first_error(registry, "x^").code == E_EMPTY_ARG
    assert first_error(registry, "\\sqrt[a").format_line() == \
        "error:E_EMPTY_ARG:0-5:unterminated root index"


def test_missing_radicand_names_the_radical(registry):
    assert first_error(registry, "\\sqrt[3]").message == "missing argument of \\sqrt"
    row = "foo\tradical\t-"
    foo = parse_registry_text(dump_registry(registry) + "\n[commands]\n" + row + "\n")
    (diag,) = check_formula("\\foo[3]", registry=foo)
    assert (diag.code, diag.message, diag.span) == \
        (E_EMPTY_ARG, "missing argument of \\foo", (0, 4))


def test_double_script(registry):
    assert first_error(registry, "x^2^3").code == E_DOUBLE_SCRIPT
    assert first_error(registry, "x_1_2").code == E_DOUBLE_SCRIPT


def test_ambiguous_infix(registry):
    assert first_error(registry, "a \\over b \\over c").code == E_AMBIGUOUS_INFIX


# An infix command divides the group it stands in; anywhere else it has no
# operands, so it is rejected where it stands (and never reaches the generator).
INFIX_OUT_OF_PLACE = [
    ("\\sqrt\\over", "\\over"), ("x^\\over", "\\over"), ("\\frac\\over x", "\\over"),
    ("\\frac x\\choose", "\\choose"), ("a_\\atop b", "\\atop"), ("\\hat\\choose", "\\choose"),
    ("\\sqrt[\\over]{x}", "\\over"), ("\\sqrt[a\\atop b]{x}", "\\atop"),
    ("\\sqrt \\atop_{\\sin}", "\\atop"),
]


@pytest.mark.parametrize("source,command", INFIX_OUT_OF_PLACE)
def test_infix_outside_a_group_is_rejected(source, command):
    (diag,) = check_formula(source)
    at = source.index(command)
    assert diag.code == E_AMBIGUOUS_INFIX and diag.span == (at, at + len(command))
    assert "{a " + command + " b}" in diag.message
    with pytest.raises(ConversionFailed) as failed:  # and no other exception
        convert_formula(source)
    assert failed.value.diagnostics == [diag]


def test_too_deep(registry):
    source = "{" * 200 + "x" + "}" * 200
    assert first_error(registry, source).code == E_TOO_DEEP


def _frames_deeper(frames: int, call):
    return _frames_deeper(frames - 1, call) if frames else call()


# Every argument and every root index is one level, braced or not.
NESTINGS = {
    "braced": lambda n: "\\sqrt{" * n + "x" + "}" * n,
    "braced, two items": lambda n: "\\sqrt{a" * n + "x" + "}" * n,
    "accent, two items": lambda n: "\\hat{a" * n + "x" + "}" * n,
    "fraction, two items": lambda n: "\\frac{a" * n + "x" + "}{b}" * n,
    "binom, two items": lambda n: "\\binom{a" * n + "x" + "}{b}" * n,
    "unbraced binom": lambda n: "\\binom a" * n + "x",
    "unbraced": lambda n: "\\sqrt " * n + "x",
    "root index": lambda n: "\\sqrt[" * n + "x" + "]{y}" * n,
    "unbraced fraction": lambda n: "\\frac a" * n + "x",
    "script": lambda n: "x^{" * n + "x" + "}" * n,
    "intent": lambda n: "\\intent{" * n + "x" + "}{intent='a'}" * n,
    "intent, bound reference": lambda n: "\\intent{" * n + "x" + "}{intent='f($x)'}" * n,
    "intent expression": lambda n: "\\intent{x}{intent='" + "f(" * n + "a" + ")" * n + "'}",
    "fence": lambda n: "\\left(" * n + "x" + "\\right)" * n,
    "matrix": lambda n: "\\begin{pmatrix}" * n + "x" + "\\end{pmatrix}" * n,
}


@pytest.mark.parametrize("form", list(NESTINGS))
@pytest.mark.parametrize("frames", [0, 50, 150])
def test_depth_cap_is_exact_at_any_stack_depth(registry, form, frames):
    for n, accepted in [(128, True), (129, False), (300, False), (330, False)]:
        source = NESTINGS[form](n)
        result = _frames_deeper(frames, lambda: parse(source, registry))
        assert result.ok == accepted, (n, result.errors)
        assert accepted or [d.code for d in result.errors] == [E_TOO_DEEP]
    # what the parser accepts, the rest of the pipeline converts
    deepest = NESTINGS[form](128)
    options = GenOptions(wrap_semantics=True, annotate_tex=True)
    assert _frames_deeper(frames, lambda: convert_formula(deepest, options=options))


@pytest.mark.parametrize("form", list(NESTINGS))
def test_ast_equality_is_the_same_from_a_deep_caller(registry, form):
    deepest = parse(NESTINGS[form](128), registry).ast
    again = parse(render_tex(deepest), registry).ast
    shallower = parse(NESTINGS[form](127), registry).ast
    shallow = (deepest == again, deepest != again, deepest == shallower)
    assert shallow == (True, False, False)
    assert _frames_deeper(400, lambda: (deepest == again, deepest != again,
                                        deepest == shallower)) == shallow


@pytest.mark.parametrize("form", ["braced, two items", "fence", "matrix"])
def test_deepcopy_of_the_deepest_tree_is_the_tree(registry, form):
    # An AST is immutable, so it is its own copy, as a tuple of immutables is.
    deepest = parse(NESTINGS[form](128), registry)
    assert copy.deepcopy(deepest) is deepest and copy.copy(deepest.ast) is deepest.ast
    assert copy.deepcopy([deepest.ast])[0] == deepest.ast


def test_chem_only_rejected_in_plain_mode(registry):
    diag = first_error(registry, "\\ce{H2O}")
    assert diag.code == E_UNKNOWN_COMMAND
    assert first_error(registry, "a \\longrightleftharpoons b").code == E_UNKNOWN_COMMAND


def test_chem_only_allowed_after_preprocessing(registry):
    result = parse("a \\longrightleftharpoons b", registry, allow_chem=True)
    assert result.ok
    # in chem mode \ce parses to the AST of its expansion
    expansion = parse("\\mathrm{H} {}_{2} \\mathrm{O}", registry, allow_chem=True)
    assert parse("\\ce{H2O}", registry, allow_chem=True).ast == expansion.ast


def test_character_fences_need_no_operator_row(registry):
    """`( ) [ ] | / .` after `\\left` and `\\right` are grammar, not registry rows."""
    lines = dump_registry(registry).split("\n")
    lines.remove("(\tdelimiter\t0028")
    no_paren = parse_registry_text("\n".join(lines))
    assert "(" not in no_paren.characters
    assert convert_formula("\\left( x \\right)", registry=no_paren) == \
        convert_formula("\\left( x \\right)", registry=registry)


def test_deprecated_warning(registry):
    result = parse("a \\and b", registry)
    assert result.ok
    assert [w.code for w in result.warnings] == [W_DEPRECATED]
    assert [d.code for d in result.diagnostics] == [W_DEPRECATED]


# -- the per-registry leaf table -------------------------------------------


def _without(registry, *prefixes):
    """A registry with the rows that start with one of `prefixes` left out."""
    rows = dump_registry(registry).splitlines()
    return parse_registry_text("\n".join(r for r in rows if not r.startswith(prefixes)))


def test_a_leaf_read_under_one_registry_is_not_whitelisted_by_another(registry):
    smaller = _without(registry, "alpha\t", "+\t")
    for source in ("\\alpha", "x+y", "\\sqrt\\alpha", "x^+", "\\sqrt[\\alpha]{x}"):
        assert parse(source, registry).ok
        assert first_error(smaller, source).code == E_UNKNOWN_COMMAND, source
    # a character and a command of the same spelling are two leaves
    assert ok(registry, ",\\,") == Sequence((Literal(","), Literal("\\,")))
    no_command, no_operator = _without(registry, ",\tspace\t"), _without(registry, ",\toperator\t")
    assert ok(no_command, "x,y") and first_error(no_command, "x\\,y").span == (1, 3)
    assert ok(no_operator, "x\\,y") and first_error(no_operator, "x,y").span == (1, 2)


@pytest.mark.parametrize("source", ["a \\and b", "\\sqrt\\and", "x^\\and", "\\sqrt[\\and]{x}"])
def test_a_deprecated_command_warns_on_every_parse(registry, source):
    for _ in range(3):
        assert [w.code for w in parse(source, registry).diagnostics] == [W_DEPRECATED]


@pytest.mark.parametrize("source", ["a \\longrightleftharpoons b", "\\sqrt\\longrightleftharpoons",
                                    "x_\\longrightleftharpoons"])
def test_a_chem_only_leaf_read_with_chemistry_stays_chem_only(registry, source):
    for _ in range(2):
        assert parse(source, registry, allow_chem=True).ok
        assert first_error(registry, source).code == E_UNKNOWN_COMMAND


@pytest.mark.parametrize("leaf", ["x", "\\alpha", "+", "7"])
def test_a_one_token_argument_past_the_cap_is_too_deep(registry, leaf):
    ok(registry, leaf)
    for outer, accepted in [(127, True), (128, False)]:
        for source in ["\\sqrt{" * outer + "\\sqrt " + leaf + "}" * outer,
                       "x^{" * outer + "x^" + leaf + "}" * outer]:
            result = parse(source, registry)
            assert result.ok == accepted, (leaf, outer)
            assert accepted or [d.code for d in result.errors] == [E_TOO_DEEP]


def test_the_leaf_table_holds_registry_tokens_only(registry):
    fresh = parse_registry_text(dump_registry(registry))
    combined = json.loads((CORPORA / "combined_423.json").read_text("utf-8"))["cases"]
    chem = json.loads((CORPORA / "mhchem_conformance.json").read_text("utf-8"))["cases"]
    sources = [c["input"] for c in combined + chem]
    for source in sources + [s + " \\zzunknown é" for s in sources] + ["\\and", "日 \\x"]:
        for allow_chem in (False, True):
            parse(source, fresh, allow_chem=allow_chem)
    table = leaf_table(fresh)
    chars = set(string.ascii_letters + string.digits) | set(fresh.characters)
    zero = {name for name, spec in fresh.commands.items() if spec.arity == 0}
    for text, leaf in table.items():
        assert text[1:] in zero if text.startswith("\\") else text in chars
        assert leaf == Literal(text)
    assert len(table) <= len(chars) + len(zero)
    assert "\\and" not in table and "\\longrightleftharpoons" not in table
    assert leaf_table(fresh) is table and leaf_table(registry) is not table


def test_rows_for_grammar_tokens_make_no_leaves(registry):
    # the table is keyed by token text, so a character row for `&`, `{`, `}`,
    # `^`, `_` or `\`, or a command row for `\\`, names a grammar token
    rows = "".join(f"{ch}\toperator\t{ord(ch):04X}\n" for ch in "&{}^_\\")
    grammar = parse_registry_text(dump_registry(registry)
                                  .replace("[characters]\n", "[characters]\n" + rows, 1)
                                  .replace("[commands]\n", "[commands]\n\\\toperator\t2227\n", 1))
    assert set("&{}^_\\") <= set(grammar.characters) and "\\" in grammar.commands
    assert not set(leaf_table(grammar)) & {"&", "{", "}", "^", "_", "\\", "\\\\"}
    for source in ["a & b", "x\\", "{a}^2_b", "a \\\\ b", "a}", "\\begin{matrix}a & b \\\\ c\\end{matrix}"]:
        assert parse(source, grammar) == parse(source, registry), source


def test_validate_examples(registry):
    def codes(source):
        return [d.code for d in parse(source, registry).diagnostics]

    assert codes("\\frac{a}{b}") == []
    assert codes("{a") == [E_UNBALANCED_BRACE]
    assert codes("\\ce{H2O}") == [E_UNKNOWN_COMMAND]


BAD_INPUTS = [
    "\\nope", "{a", "a}", "x^", "x^2^3", "\\left(", "\\begin{matrix}",
    "\\frac{}", "\\frac", "&", "\\\\", "\\end{matrix}", "#", "$x$",
    "\\begin{matrix} a \\end{vmatrix}", "a \\over b \\over c", "\\",
    "\\intent{x}{intent='('}", "日本語",
]


@pytest.mark.parametrize("source", BAD_INPUTS)
def test_error_spans_are_valid(registry, source):
    result = parse(source, registry)
    assert not result.ok
    limit = len(source.encode("utf-8"))
    for diag in result.errors:
        start, end = diag.span
        assert 0 <= start < end <= limit, (source, diag)


# -- corrected TeX ------------------------------------------------------------


def test_render_tex_atoms(registry):
    assert render_tex(ok(registry, "x")) == "x"
    assert render_tex(ok(registry, "\\text{}")) == "\\text{}"


def test_render_tex_rejects_what_is_not_an_ast_node():
    with pytest.raises(TypeError, match="unknown AST node 'x'"):
        render_tex("x")


def test_render_tex_script_braces(registry):
    ast = ok(registry, "x ^ 2")
    assert render_tex(ast) == "x^{2}"
    assert parse("x^{2}", registry).ast == ast


def test_render_tex_frac_canonicalization(registry):
    ast = ok(registry, "\\frac12")
    assert render_tex(ast) == "\\frac{1}{2}"
    assert parse("\\frac{1}{2}", registry).ast == ast


def test_render_tex_whitespace_collapse(registry):
    ast = ok(registry, "a  +   b")
    assert render_tex(ast) == "a+b"


def test_render_tex_command_boundary(registry):
    assert render_tex(ok(registry, "\\alpha b")) == "\\alpha b"
    assert render_tex(ok(registry, "\\alpha\\beta")) == "\\alpha\\beta"


ROUND_TRIP_SOURCES = [
    "x", "x^2", "\\frac12", "\\sqrt{1-z^3}", "a \\over b", "{a b \\over c}",
    "\\begin{pmatrix} a & b \\\\ c & d \\end{pmatrix}",
    "\\left( \\frac{a}{b} \\right)", "\\left. x \\right|",
    "\\text{ hello }", "\\mbox{hi}", "\\operatorname{abs}(x)",
    "x_1^2 + y^{2n}", "\\hat{x} \\ddot y", "\\sum_{i=1}^n i^2",
    "\\sqrt[3]{x+1}", "\\mathbb{R}^n", "\\int_0^\\infty e^{-x} dx",
    "\\begin{array}{cc} 1 & 0 \\\\ 0 & 1 \\end{array}",
    "\\begin{cases} x & x > 0 \\\\ 0 & x \\le 0 \\end{cases}",
    "\\intent{(x,y)}{intent='open-interval($x,$y)'}",
    "\\binom{n}{k}", "{n \\choose k}", "\\pmod{p}", "\\boxed{E=mc^2}",
    "{}^{227}_{90} X", "\\underbrace{a+b}", "\\overset{!}{=}",
    "\\text{}", "\\operatorname{}x",
]


@pytest.mark.parametrize("source", ROUND_TRIP_SOURCES)
def test_round_trip(registry, source):
    first = parse(source, registry)
    assert first.ok, (source, first.errors)
    rendered = render_tex(first.ast)
    second = parse(rendered, registry)
    assert second.ok, (source, rendered, second.errors)
    assert second.ast == first.ast, (source, rendered)


def test_whitelist_soundness(registry):
    for source in ROUND_TRIP_SOURCES:
        ast = parse(source, registry).ast
        for name in command_names(ast):
            assert registry.lookup(name) is not None, (source, name)


# -- property-based round trip ------------------------------------------------

_leaf = st.sampled_from([
    "x", "y", "z", "a", "1", "2", "42", "+", "-", "=", "<", ",",
    "\\alpha", "\\beta", "\\infty", "\\pm", "\\rightarrow", "\\sum", "\\sin",
])


def _compose(children):
    pair = st.tuples(children, children)
    return st.one_of(
        pair.map(lambda ab: f"{ab[0]} {ab[1]}"),
        children.map(lambda a: "{" + a + "}"),
        children.map(lambda a: f"\\sqrt{{{a}}}"),
        children.map(lambda a: f"\\hat{{{a}}}"),
        children.map(lambda a: f"\\mathbf{{{a}}}"),
        pair.map(lambda ab: f"\\frac{{{ab[0]}}}{{{ab[1]}}}"),
        pair.map(lambda ab: f"x^{{{ab[0]}}}_{{{ab[1]}}}"),
        pair.map(lambda ab: "{" + ab[0] + " \\over " + ab[1] + "}"),
        pair.map(lambda ab: f"\\left( {ab[0]} \\right)"),
        pair.map(
            lambda ab: f"\\begin{{pmatrix}} {ab[0]} & {ab[1]} \\\\ 1 & 0 \\end{{pmatrix}}"),
    )


formula_strings = st.recursive(_leaf, _compose, max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(formula_strings)
def test_round_trip_property(source):
    from texmathc import default_registry

    registry = default_registry()
    first = parse(source, registry)
    assert first.ok, (source, first.errors)
    rendered = render_tex(first.ast)
    second = parse(rendered, registry)
    assert second.ok and second.ast == first.ast, (source, rendered)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=40))
def test_fuzz_never_crashes(source):
    from texmathc import default_registry

    registry = default_registry()
    result = parse(source, registry)
    if result.ok:
        for name in command_names(result.ast):
            assert registry.lookup(name) is not None
    else:
        limit = max(1, len(source.encode("utf-8")))
        for diag in result.errors:
            assert 0 <= diag.span[0] < diag.span[1] <= limit


# -- tokenizer against the per-character oracle ------------------------------

_TOKEN_PIECES = st.sampled_from([
    "\\", "\\\\", "\\é", "\\日", "{", "}", "^", "_", "&", "a", "Zb", "1", "[", "]",
    "+", "é", "日", " ", "\n", "\t", "\x1c", "\x85", "\u3000", "\xa0", "\u2028",
])


@settings(max_examples=400, deadline=None)
@given(st.lists(_TOKEN_PIECES, max_size=24).map("".join), st.booleans())
@example("\\", False)
@example("a\\", False)
@example("\\\\\\", False)
@example("\\ \\\n\\\x85x", False)
@example(" \t\n\u3000", False)
@example("a\\\u3000b", False)
def test_tokenize_matches_oracle(source, lone_backslash):
    source += "\\" if lone_backslash else ""
    texts, ends = tokenize(source), token_ends(source)
    assert len(texts) == len(ends) and texts[-1] == ""
    tokens = []
    for text, end in zip(texts, ends):
        if not text:
            kind = "eof"
        elif text == "\\\\":
            kind = "newrow"
        elif text[0] == "\\":
            kind = "cmd"
        else:
            kind = {"{": "lbrace", "}": "rbrace", "^": "sup", "_": "sub", "&": "amp"}.get(text, "char")
        tokens.append((kind, text[1:] if kind == "cmd" else text, end - len(text), end))
    assert tokens == tokenize_oracle(source)


_RAW_PIECES = st.sampled_from(["\\text{", "{", "}", "\\{", "\\}", "\\\\", "\\", "x", "é"])


@settings(max_examples=500, deadline=None)
@given(st.lists(_RAW_PIECES, max_size=16).map("".join))
@example("\\{}\\}x}")
@example("{\\\\}é\\")
def test_raw_argument_ends_where_the_text_scan_does(rest):
    # The parser matches braces on its tokens; the oracle scans the text.
    registry = default_registry()
    source = "\\text{" + rest
    result = parse(source, registry)
    close = closing_brace(source, len("\\text"))
    if close < 0:
        assert [(d.code, d.message, d.span) for d in result.errors] == \
            [(E_UNBALANCED_BRACE, "unterminated argument", (5, 6))]
        return
    after = parse(source[close + 1:], registry)  # the rest, parsed on its own
    shift = len(source[:close + 1].encode("utf-8"))
    assert [(d.code, d.message, (d.span[0] - shift, d.span[1] - shift))
            for d in result.errors] == [(d.code, d.message, d.span) for d in after.errors]
    if result.ok:
        assert result.ast.children == (Fun("text", (Text(source[6:close]),)),
                                       *after.ast.children)


# Code points outside XML 1.0's Char production, and the nearest ones inside it.
_XML_ILLEGAL = ["\x00", "\x01", "\x08", "\x0b", "\x0c", "\x0e", "\x1f", "\ud800", "\udcff",
                "\udfff", "\ufffe", "\uffff"]
_XML_LEGAL = ["\t", "\n", "\r", " ", "\x7f", "\ud7ff", "\ue000", "\ufffd", "\U00010000",
              "\U0010ffff"]


@pytest.mark.parametrize("command", ["text", "operatorname"])
@pytest.mark.parametrize("ch", _XML_ILLEGAL)
def test_raw_text_rejects_a_character_xml_cannot_carry(command, ch):
    """Raw text goes into the output as it is, so a character that XML
    cannot carry is rejected there as it is elsewhere, on its own span."""
    sources = [f"\\{command}{{a{ch}b}}"]
    if not ch.isspace():  # unbraced, the character is the argument
        sources.append(f"\\{command}{ch}")
    for source in sources:
        at = source.index(ch)
        start = len(source[:at].encode("utf-8", "surrogatepass"))
        diag = (E_UNKNOWN_COMMAND, f"character {ch!r} is not whitelisted",
                (start, start + len(ch.encode("utf-8", "surrogatepass"))))
        assert [(d.code, d.message, d.span) for d in check_formula(source)] == [diag]
        with pytest.raises(ConversionFailed):
            convert_formula(source)


@pytest.mark.parametrize("ch", _XML_LEGAL)
def test_raw_text_keeps_a_character_xml_can_carry(ch):
    document = convert_formula(f"\\text{{a{ch}b}}")
    assert ET.fromstring(document)[0].text == f"a{ch}b"


# -- grammar fuzz past the parser ---------------------------------------------

_pipeline_leaf = st.sampled_from([
    "x", "2", "+", "\\alpha", "\\sin", "\\over", "\\choose", "\\atop",
    "\\sqrt[3]{x}", "\\sqrt[n] y", "\\ce{H2O}", "\\ce{A + B -> C}", "\\ce{SO4^2-}",
])


_index_chem = st.sampled_from(["\\ce{H2O}", "\\ce{SO4^2-}", "\\ce{}", "\\pu{C2}", "\\pu{s2}"])
_chem_script = st.sampled_from(["^{+}", "_2", "_{2}^{3}", "^\\ce{H}"])


def _compose_unbraced(children):
    pair = st.tuples(children, children)
    return st.one_of(
        pair.map(lambda ab: f"{ab[0]} {ab[1]}"),
        children.map(lambda a: "{" + a + "}"),
        children.map(lambda a: f"\\sqrt {a}"),
        children.map(lambda a: f"\\hat {a}"),
        children.map(lambda a: f"x^{a}"),
        children.map(lambda a: f"x_{{{a}}}"),
        pair.map(lambda ab: f"\\frac {ab[0]} {ab[1]}"),
        pair.map(lambda ab: f"\\sqrt[{ab[0]}]{{{ab[1]}}}"),
        # a script after chemistry in a root index binds the expansion's last atom
        st.tuples(children, _index_chem, _chem_script, children).map(
            lambda t: f"\\sqrt[{t[0]} {t[1]}{t[2]}]{{{t[3]}}}"),
        pair.map(lambda ab: f"\\left( {ab[0]} \\right) {ab[1]}"),
        pair.map(lambda ab: f"\\begin{{matrix}} {ab[0]} & {ab[1]} \\end{{matrix}}"),
    )


pipeline_strings = st.recursive(_pipeline_leaf, _compose_unbraced, max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(pipeline_strings, st.booleans())
@example("\\sqrt \\atop_{\\sin}", False)
@example("x^\\ce{H2O} \\over 2", True)
@example("\\sqrt[n \\pu{C2}^{+}]{x}", True)
@example("\\sqrt[\\pu{s2}_2]{x}", True)
def test_what_parses_converts_and_round_trips(source, chem):
    registry = default_registry()
    first = parse(source, registry, allow_chem=chem)
    if not first.ok:
        return
    options = GenOptions(wrap_semantics=True, annotate_tex=True)
    try:
        assert isinstance(convert_formula(source, chem=chem, options=options), str)
    except ConversionFailed:
        pass
    rendered = render_tex(first.ast)
    second = parse(rendered, registry, allow_chem=chem)
    assert second.ok and second.ast == first.ast, (source, rendered, second.errors)


def test_parse_determinism(registry):
    source = "\\frac{a}{b} + \\sqrt{x^2}"
    assert parse(source, registry) == parse(source, registry)
