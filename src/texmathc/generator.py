"""AST-to-MathML visitor.

Each command dispatches through the translation-function id recorded in the
registry; the functions are grouped by transformation shape (all accents
share one, all matrix environments share one, ...), so new commands are
normally a data change only.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import intent as intent_mod
from .mathml import GenOptions, MathMLNode, elem, token
from .nodes import (
    AstNode,
    Curly,
    Delimited,
    Fun1,
    Fun2,
    Infix,
    IntentWrap,
    Literal,
    Matrix,
    Sequence,
    Sub,
    SubSup,
    Sup,
    Text,
)
from .registry import CommandSpec, Registry, decode_param


@dataclass(frozen=True)
class GenContext:
    registry: Registry
    options: GenOptions


def to_mathml(ast: AstNode, registry: Registry,
              options: GenOptions | None = None) -> MathMLNode:
    """Translate a parser-produced AST into a presentation MathML tree.

    An intent reference error is located at a codepoint span of the source."""
    options = options or GenOptions()
    ctx = GenContext(registry, options)
    items = ast.children if isinstance(ast, Sequence) else (ast,)
    content = _translate_items(items, ctx)
    root = MathMLNode("math", {"display": options.display})
    if options.wrap_semantics:
        wrapped = _group(content)
        kids = [wrapped]
        if options.annotate_tex:
            from .parser import render_tex

            kids.append(token("annotation", render_tex(ast),
                              encoding="application/x-tex"))
        root.children = [elem("semantics", kids)]
    elif len(content) > 1:
        root.children = [elem("mrow", content)]
    else:
        root.children = content
    return root


def _group(nodes: list[MathMLNode]) -> MathMLNode:
    """mrow inference: multi-child content gets an mrow, single children do not."""
    if len(nodes) == 1:
        return nodes[0]
    return elem("mrow", nodes)


def _slot(node: AstNode, ctx: GenContext) -> MathMLNode:
    """Translate content destined for one layout slot (script, fraction part...)."""
    if isinstance(node, (Curly, Sequence)):
        return _group(_translate_items(node.children, ctx))
    return _group(_translate(node, ctx))


def _is_digit_literal(item: AstNode) -> bool:
    return isinstance(item, Literal) and len(item.token) == 1 and item.token.isdigit()


def _translate_items(items, ctx: GenContext) -> list[MathMLNode]:
    """Translate a sibling run, merging adjacent digit literals into one mn."""
    out: list[MathMLNode] = []
    i = 0
    items = list(items)
    while i < len(items):
        item = items[i]
        if _is_digit_literal(item):
            digits = [item.token]
            i += 1
            seen_dot = False
            while i < len(items):
                if _is_digit_literal(items[i]):
                    digits.append(items[i].token)
                    i += 1
                elif (not seen_dot and isinstance(items[i], Literal)
                      and items[i].token == "." and i + 1 < len(items)
                      and _is_digit_literal(items[i + 1])):
                    digits.append(".")
                    seen_dot = True
                    i += 1
                else:
                    break
            out.append(token("mn", "".join(digits)))
            continue
        out.extend(_translate(item, ctx))
        i += 1
    return out


def _translate(node: AstNode, ctx: GenContext) -> list[MathMLNode]:
    if isinstance(node, Literal):
        return _literal(node, ctx)
    if isinstance(node, Curly):
        return [_group(_translate_items(node.children, ctx))]
    if isinstance(node, Sequence):
        return _translate_items(node.children, ctx)
    if isinstance(node, (Sub, Sup, SubSup)):
        return _script(node, ctx)
    if isinstance(node, Fun1):
        spec = _spec(node.command, ctx)
        return TRANSLATION_FNS[spec.translation_fn](ctx, spec, [node.arg])
    if isinstance(node, Fun2):
        spec = _spec(node.command, ctx)
        return TRANSLATION_FNS[spec.translation_fn](ctx, spec, [node.arg1, node.arg2])
    if isinstance(node, Infix):
        spec = _spec(node.command, ctx)
        return TRANSLATION_FNS[spec.translation_fn](ctx, spec, [node.left, node.right])
    if isinstance(node, Matrix):
        return _matrix_env(node, ctx)
    if isinstance(node, Delimited):
        return _delimited(node, ctx)
    if isinstance(node, IntentWrap):
        subtree = _slot(node.body, ctx)
        return [intent_mod.apply_intent(node, subtree)]
    if isinstance(node, Text):  # only reachable through text-class commands
        return [token("mtext", node.content)]
    raise TypeError(f"unknown AST node {node!r}")  # pragma: no cover


def _spec(name: str, ctx: GenContext) -> CommandSpec:
    spec = ctx.registry.lookup(name)
    if spec is None:  # prevented by whitelist validation
        raise LookupError(f"command {name!r} missing from registry")
    return spec


def _literal(node: Literal, ctx: GenContext) -> list[MathMLNode]:
    tok = node.token
    if tok.startswith("\\"):
        spec = _spec(tok[1:], ctx)
        return TRANSLATION_FNS[spec.translation_fn](ctx, spec, [])
    if tok.isdigit():
        return [token("mn", tok)]
    if tok.isascii() and tok.isalpha():
        return [token("mi", tok)]
    op = ctx.registry.operator(tok)
    if op is None:  # prevented by whitelist validation
        raise LookupError(f"literal {tok!r} missing from operator directory")
    return [token(op.element, op.text, **dict(op.attributes))]


def _script(node: Sub | Sup | SubSup, ctx: GenContext) -> list[MathMLNode]:
    base = node.base
    movable = (isinstance(base, Literal) and base.token.startswith("\\")
               and _spec(base.token[1:], ctx).translation_fn == "bigop")
    base_el = _slot(base, ctx)
    if isinstance(node, Sub):
        name = "munder" if movable else "msub"
        return [elem(name, [base_el, _slot(node.sub, ctx)])]
    if isinstance(node, Sup):
        name = "mover" if movable else "msup"
        return [elem(name, [base_el, _slot(node.sup, ctx)])]
    name = "munderover" if movable else "msubsup"
    return [elem(name, [base_el, _slot(node.sub, ctx), _slot(node.sup, ctx)])]


def _delimited(node: Delimited, ctx: GenContext) -> list[MathMLNode]:
    row: list[MathMLNode] = []
    if node.open != ".":
        row.append(token("mo", _delim_text(node.open, ctx)))
    row.extend(_translate_items(node.body.children, ctx))
    if node.close != ".":
        row.append(token("mo", _delim_text(node.close, ctx)))
    return [elem("mrow", row)]


def _delim_text(tok: str, ctx: GenContext) -> str:
    if tok.startswith("\\"):
        return decode_param(_spec(tok[1:], ctx).params[0])
    return tok


def _matrix_env(node: Matrix, ctx: GenContext) -> list[MathMLNode]:
    spec = _spec(node.env, ctx)
    rows = [
        elem("mtr", [elem("mtd", [_slot(cell, ctx)]) for cell in row])
        for row in node.rows
    ]
    attrs: dict[str, str] = {}
    if node.env == "cases":
        attrs["columnalign"] = "left left"
    elif node.env == "smallmatrix":
        attrs["rowspacing"] = "0.2em"
        attrs["columnspacing"] = "0.333em"
    table = MathMLNode("mtable", attrs, rows)
    params = spec.params
    open_fence = decode_param(params[0]) if len(params) > 0 and params[0] else ""
    close_fence = decode_param(params[1]) if len(params) > 1 and params[1] else ""
    if not open_fence and not close_fence:
        return [table]
    row: list[MathMLNode] = []
    if open_fence:
        row.append(token("mo", open_fence))
    row.append(table)
    if close_fence:
        row.append(token("mo", close_fence))
    return [elem("mrow", row)]


# -- translation functions (dispatch targets for registry `fn` ids) -----


def _fn_identifier(ctx, spec, args):
    return [token("mi", decode_param(spec.params[0]))]


def _fn_operator(ctx, spec, args):
    return [token("mo", decode_param(spec.params[0]))]


def _fn_bigop(ctx, spec, args):
    return [token("mo", decode_param(spec.params[0]))]


def _fn_function(ctx, spec, args):
    return [token("mi", spec.params[0])]


def _fn_delimiter(ctx, spec, args):
    return [token("mo", decode_param(spec.params[0]), stretchy="false")]


def _fn_space(ctx, spec, args):
    return [elem("mspace", width=spec.params[0])]


def _fn_text(ctx, spec, args):
    content = args[0].content if isinstance(args[0], Text) else ""
    return [token("mtext", content)]


def _fn_operatorname(ctx, spec, args):
    content = args[0].content if isinstance(args[0], Text) else ""
    return [token("mi", content, mathvariant="normal")]


def _fn_accent(ctx, spec, args):
    mark = token("mo", decode_param(spec.params[0]))
    return [elem("mover", [_slot(args[0], ctx), mark], accent="true")]


def _fn_under(ctx, spec, args):
    mark = token("mo", decode_param(spec.params[0]))
    return [elem("munder", [_slot(args[0], ctx), mark])]


def _fn_stacked(ctx, spec, args):
    decoration = _slot(args[0], ctx)
    base = _slot(args[1], ctx)
    name = "mover" if spec.params[0] == "over" else "munder"
    return [elem(name, [base, decoration])]


def _fn_radical(ctx, spec, args):
    return [elem("msqrt", [_slot(args[0], ctx)])]


def _fn_root(ctx, spec, args):
    return [elem("mroot", [_slot(args[1], ctx), _slot(args[0], ctx)])]


def _style_wrap(core: MathMLNode, style: str) -> MathMLNode:
    flag = "true" if style == "display" else "false"
    return elem("mstyle", [core], displaystyle=flag)


def _fn_fraction(ctx, spec, args):
    core = elem("mfrac", [_slot(args[0], ctx), _slot(args[1], ctx)])
    if spec.params:
        return [_style_wrap(core, spec.params[0])]
    return [core]


def _fn_binom(ctx, spec, args):
    core = elem("mfrac", [_slot(args[0], ctx), _slot(args[1], ctx)],
                linethickness="0")
    row = elem("mrow", [token("mo", spec.params[0]), core, token("mo", spec.params[1])])
    if len(spec.params) > 2:
        return [_style_wrap(row, spec.params[2])]
    return [row]


def _fn_atop(ctx, spec, args):
    return [elem("mfrac", [_slot(args[0], ctx), _slot(args[1], ctx)],
                 linethickness="0")]


def _fn_style(ctx, spec, args):
    variant = spec.params[0]
    arg = args[0]
    items = arg.children if isinstance(arg, (Curly, Sequence)) else (arg,)
    translated = _translate_items(items, ctx)
    if translated and all(
        t.element == "mi" and t.text is not None and t.text.isalpha() and not t.attributes
        for t in translated
    ):
        merged = "".join(t.text or "" for t in translated)
        return [token("mi", merged, mathvariant=variant)]
    if len(translated) == 1 and translated[0].is_token() and not translated[0].attributes:
        single = translated[0]
        single.attributes["mathvariant"] = variant
        return [single]
    return [MathMLNode("mstyle", {"mathvariant": variant}, translated)]


def _fn_phantom(ctx, spec, args):
    return [elem("mphantom", [_slot(args[0], ctx)])]


def _fn_enclose(ctx, spec, args):
    return [elem("menclose", [_slot(args[0], ctx)], notation=spec.params[0])]


def _fn_pmod(ctx, spec, args):
    return [elem("mrow", [
        token("mo", "(", stretchy="false"),
        token("mi", "mod"),
        elem("mspace", width="0.333em"),
        _slot(args[0], ctx),
        token("mo", ")", stretchy="false"),
    ])]


TRANSLATION_FNS = {
    "identifier": _fn_identifier,
    "operator": _fn_operator,
    "bigop": _fn_bigop,
    "function": _fn_function,
    "delimiter": _fn_delimiter,
    "space": _fn_space,
    "text": _fn_text,
    "operatorname": _fn_operatorname,
    "accent": _fn_accent,
    "under": _fn_under,
    "stacked": _fn_stacked,
    "radical": _fn_radical,
    "root": _fn_root,
    "fraction": _fn_fraction,
    "binom": _fn_binom,
    "atop": _fn_atop,
    "style": _fn_style,
    "phantom": _fn_phantom,
    "enclose": _fn_enclose,
    "pmod": _fn_pmod,
}

# Translation ids of registry entries translated from their own AST nodes
# (Matrix, IntentWrap) rather than through TRANSLATION_FNS.
STRUCTURAL_FNS = frozenset({"matrix", "intent"})
