"""AST-to-MathML visitor.

Each command dispatches through the translation-function id recorded in the
registry; the functions are grouped by transformation shape (all accents
share one, all matrix environments share one, ...), so new commands are
normally a data change only.  Every translation function returns one node,
and `_translate` appends it to the run being built.
"""

from __future__ import annotations

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


def to_mathml(ast: AstNode, registry: Registry,
              options: GenOptions | None = None) -> MathMLNode:
    """Translate a parser-produced AST into a presentation MathML tree.

    An intent reference error is located at a codepoint span of the source."""
    options = options or GenOptions()
    content: list[MathMLNode] = []
    _translate(ast, registry, content)
    if options.wrap_semantics:
        kids = [_group(content)]
        if options.annotate_tex:
            from .parser import render_tex

            kids.append(token("annotation", render_tex(ast),
                              encoding="application/x-tex"))
        content = [elem("semantics", kids)]
    return MathMLNode("math", {"display": options.display},
                      [_group(content)] if content else [])


def _group(nodes: list[MathMLNode]) -> MathMLNode:
    """mrow inference: multi-child content gets an mrow, single children do not."""
    return nodes[0] if len(nodes) == 1 else elem("mrow", nodes)


def _slot(node: AstNode, registry: Registry) -> MathMLNode:
    """Translate content destined for one layout slot (script, fraction part...).
    Lone nodes and run items go straight to `_NODES`: each call is a frame a level."""
    kind = type(node)
    if kind is not Curly and kind is not Sequence:
        return _NODES[kind](node, registry)
    out: list[MathMLNode] = []
    _translate(node.children, registry, out)
    return _group(out)


def _translate(node, registry: Registry, out: list[MathMLNode]) -> None:
    """Append the MathML of `node`, or of a run of siblings (a Sequence or a
    tuple of children), to `out`; a run merges adjacent digit literals into
    one mn.  Runs hold no Sequence: the parser makes one only where a slot,
    a fence body or the formula root stands."""
    kind = type(node)
    if kind is not tuple and kind is not Sequence:
        out.append(_NODES[kind](node, registry))
        return
    items = node if kind is tuple else node.children
    i, n = 0, len(items)
    while i < n:
        item = items[i]
        i += 1
        if type(item) is not Literal or len(item.token) != 1 or not item.token.isdigit():
            out.append(_NODES[type(item)](item, registry))
            continue
        digits, seen_dot = [item.token], False
        while i < n and type(items[i]) is Literal:
            tok = items[i].token
            if len(tok) == 1 and tok.isdigit():
                digits.append(tok)
                i += 1
                continue
            after = items[i + 1] if tok == "." and not seen_dot and i + 1 < n else None
            if type(after) is not Literal or len(after.token) != 1 or not after.token.isdigit():
                break
            digits += (".", after.token)
            seen_dot = True
            i += 2
        out.append(token("mn", "".join(digits)))


def _spec(name: str, registry: Registry) -> CommandSpec:
    spec = registry.lookup(name)
    if spec is None:  # prevented by whitelist validation
        raise LookupError(f"command {name!r} missing from registry")
    return spec


def _command(node: Fun1 | Fun2 | Infix, registry: Registry) -> MathMLNode:
    """A command with arguments, through its registry translation function."""
    kind = type(node)
    args = ((node.arg,) if kind is Fun1 else (node.arg1, node.arg2) if kind is Fun2
            else (node.left, node.right))
    spec = _spec(node.command, registry)
    return TRANSLATION_FNS[spec.translation_fn](registry, spec, args)


def _literal(node: Literal, registry: Registry) -> MathMLNode:
    tok = node.token
    if tok.startswith("\\"):
        spec = _spec(tok[1:], registry)
        return TRANSLATION_FNS[spec.translation_fn](registry, spec, ())
    if tok.isdigit():
        return token("mn", tok)
    if tok.isascii() and tok.isalpha():
        return token("mi", tok)
    op = registry.operator(tok)
    if op is None:  # prevented by whitelist validation
        raise LookupError(f"literal {tok!r} missing from operator directory")
    return MathMLNode(op.element, dict(op.attributes), [], op.text)


_SCRIPTS = {Sub: "msub", Sup: "msup", SubSup: "msubsup"}
_LIMITS = {Sub: "munder", Sup: "mover", SubSup: "munderover"}  # under a big operator


def _script(node: Sub | Sup | SubSup, registry: Registry) -> MathMLNode:
    base = node.base
    movable = (type(base) is Literal and base.token.startswith("\\")
               and _spec(base.token[1:], registry).translation_fn == "bigop")
    kids = [_slot(base, registry)]
    if type(node) is not Sup:
        kids.append(_slot(node.sub, registry))
    if type(node) is not Sub:
        kids.append(_slot(node.sup, registry))
    return elem((_LIMITS if movable else _SCRIPTS)[type(node)], kids)


def _delimited(node: Delimited, registry: Registry) -> MathMLNode:
    row: list[MathMLNode] = []
    if node.open != ".":
        row.append(token("mo", _delim_text(node.open, registry)))
    _translate(node.body, registry, row)
    if node.close != ".":
        row.append(token("mo", _delim_text(node.close, registry)))
    return elem("mrow", row)


def _delim_text(tok: str, registry: Registry) -> str:
    if tok.startswith("\\"):
        return decode_param(_spec(tok[1:], registry).params[0])
    return tok


_TABLE_ATTRS = {
    "cases": {"columnalign": "left left"},
    "smallmatrix": {"rowspacing": "0.2em", "columnspacing": "0.333em"},
}


def _matrix_env(node: Matrix, registry: Registry) -> MathMLNode:
    open_fence, close_fence = (*_spec(node.env, registry).params, "", "")[:2]
    rows = [
        elem("mtr", [elem("mtd", [_slot(cell, registry)]) for cell in row])
        for row in node.rows
    ]
    table = MathMLNode("mtable", dict(_TABLE_ATTRS.get(node.env, {})), rows)
    if not open_fence and not close_fence:
        return table
    row = [token("mo", decode_param(open_fence))] if open_fence else []
    row.append(table)
    if close_fence:
        row.append(token("mo", decode_param(close_fence)))
    return elem("mrow", row)


_NODES = {
    Literal: _literal,
    Curly: _slot,
    Sub: _script,
    Sup: _script,
    SubSup: _script,
    Fun1: _command,
    Fun2: _command,
    Infix: _command,
    Matrix: _matrix_env,
    Delimited: _delimited,
    IntentWrap: lambda node, registry: intent_mod.apply_intent(node, _slot(node.body, registry)),
    Text: lambda node, registry: token("mtext", node.content),  # only under text-class commands
}


# -- translation functions (dispatch targets for registry `fn` ids) -----


def _token_fn(element: str, **attributes: str):
    """A command that is one token: its text is the decoded first parameter."""
    def translate(registry, spec, args):
        return token(element, decode_param(spec.params[0]), **attributes)
    return translate


def _wrap_fn(element: str, *param_names: str):
    """A command that wraps its one argument; its parameters become attributes."""
    def translate(registry, spec, args):
        attrs = dict(zip(param_names, spec.params))
        return MathMLNode(element, attrs, [_slot(args[0], registry)])
    return translate


def _mark_fn(element: str, **attributes: str):
    """A command that sets the mark its first parameter names over or under its argument."""
    def translate(registry, spec, args):
        mark = token("mo", decode_param(spec.params[0]))
        return elem(element, [_slot(args[0], registry), mark], **attributes)
    return translate


def _fn_function(registry, spec, args):
    return token("mi", spec.params[0])


def _fn_space(registry, spec, args):
    return elem("mspace", width=spec.params[0])


def _fn_text(registry, spec, args):
    content = args[0].content if isinstance(args[0], Text) else ""
    return token("mtext", content)


def _fn_operatorname(registry, spec, args):
    content = args[0].content if isinstance(args[0], Text) else ""
    return token("mi", content, mathvariant="normal")


def _fn_stacked(registry, spec, args):
    decoration = _slot(args[0], registry)
    name = "mover" if spec.params[0] == "over" else "munder"
    return elem(name, [_slot(args[1], registry), decoration])


def _fn_root(registry, spec, args):
    return elem("mroot", [_slot(args[1], registry), _slot(args[0], registry)])


def _style_wrap(core: MathMLNode, params: tuple[str, ...], index: int) -> MathMLNode:
    """`core` under the display style named by params[index], if there is one."""
    if len(params) <= index:
        return core
    flag = "true" if params[index] == "display" else "false"
    return elem("mstyle", [core], displaystyle=flag)


def _fn_fraction(registry, spec, args):
    core = elem("mfrac", [_slot(args[0], registry), _slot(args[1], registry)])
    return _style_wrap(core, spec.params, 0)


def _fn_atop(registry, spec, args):
    return elem("mfrac", [_slot(args[0], registry), _slot(args[1], registry)],
                linethickness="0")


def _fn_binom(registry, spec, args):  # its own mfrac: via _fn_atop costs a frame a level
    core = elem("mfrac", [_slot(args[0], registry), _slot(args[1], registry)],
                linethickness="0")
    row = elem("mrow", [token("mo", spec.params[0]), core, token("mo", spec.params[1])])
    return _style_wrap(row, spec.params, 2)


def _fn_style(registry, spec, args):
    variant = spec.params[0]
    translated: list[MathMLNode] = []
    _translate(args[0].children if type(args[0]) is Curly else args[0], registry, translated)
    if translated and all(
        t.element == "mi" and t.text is not None and t.text.isalpha() and not t.attributes
        for t in translated
    ):
        merged = "".join(t.text or "" for t in translated)
        return token("mi", merged, mathvariant=variant)
    if len(translated) == 1 and translated[0].is_token() and not translated[0].attributes:
        single = translated[0]
        single.attributes["mathvariant"] = variant
        return single
    return MathMLNode("mstyle", {"mathvariant": variant}, translated)


def _fn_pmod(registry, spec, args):
    return elem("mrow", [
        token("mo", "(", stretchy="false"),
        token("mi", "mod"),
        elem("mspace", width="0.333em"),
        _slot(args[0], registry),
        token("mo", ")", stretchy="false"),
    ])


TRANSLATION_FNS = {
    "identifier": _token_fn("mi"),
    "operator": _token_fn("mo"),
    "bigop": _token_fn("mo"),
    "function": _fn_function,
    "delimiter": _token_fn("mo", stretchy="false"),
    "space": _fn_space,
    "text": _fn_text,
    "operatorname": _fn_operatorname,
    "accent": _mark_fn("mover", accent="true"),
    "under": _mark_fn("munder"),
    "stacked": _fn_stacked,
    "radical": _wrap_fn("msqrt"),
    "root": _fn_root,
    "fraction": _fn_fraction,
    "binom": _fn_binom,
    "atop": _fn_atop,
    "style": _fn_style,
    "phantom": _wrap_fn("mphantom"),
    "enclose": _wrap_fn("menclose", "notation"),
    "pmod": _fn_pmod,
}

# Translation ids of registry entries translated from their own AST nodes
# (Matrix, IntentWrap) rather than through TRANSLATION_FNS.
STRUCTURAL_FNS = frozenset({"matrix", "intent"})
