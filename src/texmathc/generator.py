"""AST-to-MathML visitor.

Each command dispatches through the translation-function id recorded in the
registry; the functions are grouped by transformation shape (all accents
share one, all matrix environments share one, ...), so new commands are
normally a data change only, and a new function is one row of `TRANSLATIONS`,
which the registry loader also reads.  Every translation function returns one
node, and `_translate` appends it to the run being built.
"""

from __future__ import annotations

from .mathml import GenOptions, MathMLNode, elem, shared, token
from .nodes import (
    AstNode,
    Curly,
    Delimited,
    Fun,
    Infix,
    IntentWrap,
    Literal,
    Matrix,
    Script,
    Sequence,
)
from .parser import render_tex
from .registry import CommandSpec, Registry, decode_param


def to_mathml(ast: AstNode, registry: Registry,
              options: GenOptions | None = None) -> MathMLNode:
    """Translate a parser-produced AST into a presentation MathML tree.

    Each letter, digit, operator, zero-argument command, fence and mark
    becomes the leaf that `registry` holds for it, shared between trees and
    read-only (see `mathml.shared`): replace one in its parent's children to
    change it.
    An unbound intent reference raises `IntentError` with no text (see `within`)."""
    options = options or GenOptions()
    content: list[MathMLNode] = []
    _translate(ast, registry, content)
    if options.wrap_semantics:
        kids = [_group(content)]
        if options.annotate_tex:
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
        out.append(token("mn", "".join(digits)) if len(digits) > 1 else _literal(item, registry))


def _spec(name: str, registry: Registry) -> CommandSpec:
    spec = registry.lookup(name)
    if spec is None:  # prevented by whitelist validation
        raise LookupError(f"command {name!r} missing from registry")
    return spec


def _command(node: Fun | Infix, registry: Registry) -> MathMLNode:
    """A command with arguments, through its registry translation function."""
    args = node.args if type(node) is Fun else (node.left, node.right)
    spec = _spec(node.command, registry)
    return TRANSLATION_FNS[spec.translation_fn](registry, spec, args)


def _literal(node: Literal, registry: Registry) -> MathMLNode:
    """The registry's one read-only leaf for the token, built at its first use."""
    leaf = registry.leaves.get(node.token)
    if leaf is None:
        leaf = registry.leaves[node.token] = shared(_leaf(node.token, registry))
    return leaf


def _mo(text: str, registry: Registry, **attributes: str) -> MathMLNode:
    """The registry's one read-only `mo` of a fence or mark, whose text a
    registry row or the grammar's delimiters give; keyed apart from tokens."""
    key, leaves = (text, *attributes.items()), registry.leaves
    return leaves.get(key) or leaves.setdefault(key, shared(token("mo", text, **attributes)))


def _leaf(tok: str, registry: Registry) -> MathMLNode:
    if tok.isdigit():
        return token("mn", tok)
    if tok.isascii() and tok.isalpha():
        return token("mi", tok)
    spec = _spec(tok[1:], registry) if tok.startswith("\\") else registry.characters.get(tok)
    if spec is None:  # prevented by whitelist validation
        raise LookupError(f"literal {tok!r} missing from registry")
    return TRANSLATION_FNS[spec.translation_fn](registry, spec, ())


# (has a sub, has a sup) -> element; the limits stand under a big operator.
_SCRIPTS = {(True, False): "msub", (False, True): "msup", (True, True): "msubsup"}
_LIMITS = {(True, False): "munder", (False, True): "mover", (True, True): "munderover"}


def _script(node: Script, registry: Registry) -> MathMLNode:
    base, sub, sup = node.base, node.sub, node.sup
    movable = (type(base) is Literal and base.token.startswith("\\")
               and _spec(base.token[1:], registry).translation_fn == "bigop")
    kids = [_slot(base, registry)]
    if sub is not None:
        kids.append(_slot(sub, registry))
    if sup is not None:
        kids.append(_slot(sup, registry))
    shape = (sub is not None, sup is not None)
    return elem((_LIMITS if movable else _SCRIPTS)[shape], kids)


def _delimited(node: Delimited, registry: Registry) -> MathMLNode:
    row: list[MathMLNode] = []
    if node.open != ".":
        row.append(_mo(_delim_text(node.open, registry), registry))
    _translate(node.body, registry, row)
    if node.close != ".":
        row.append(_mo(_delim_text(node.close, registry), registry))
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
    row = [_mo(decode_param(open_fence), registry)] if open_fence else []
    row.append(table)
    if close_fence:
        row.append(_mo(decode_param(close_fence), registry))
    return elem("mrow", row)


def _intent(node: IntentWrap, registry: Registry) -> MathMLNode:
    from . import intent as intent_mod  # loaded by the parser, which made `node`

    return intent_mod.apply_intent(node, _slot(node.body, registry))


_NODES = {
    Literal: _literal,
    Curly: _slot,
    Script: _script,
    Fun: _command,
    Infix: _command,
    Matrix: _matrix_env,
    Delimited: _delimited,
    IntentWrap: _intent,
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
        mark = _mo(decode_param(spec.params[0]), registry)
        return elem(element, [_slot(args[0], registry), mark], **attributes)
    return translate


def _fn_function(registry, spec, args):
    return token("mi", spec.params[0])


def _fn_space(registry, spec, args):
    return elem("mspace", width=spec.params[0])


def _fn_text(registry, spec, args):  # args[0] is the parser's Text
    return token("mtext", args[0].content)


def _fn_operatorname(registry, spec, args):
    return token("mi", args[0].content, mathvariant="normal")


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
    row = elem("mrow", [_mo(spec.params[0], registry), core, _mo(spec.params[1], registry)])
    return _style_wrap(row, spec.params, 2)


def _fn_style(registry, spec, args):
    variant = spec.params[0]
    translated: list[MathMLNode] = []
    _translate(args[0].children if type(args[0]) is Curly else args[0], registry, translated)
    if translated and all(
        t.element == "mi" and t.text is not None and t.text.isalpha() and not t.attributes
        for t in translated
    ):
        merged = "".join(t.text for t in translated)
        return token("mi", merged, mathvariant=variant)
    if len(translated) == 1 and translated[0].is_token() and not translated[0].attributes:
        single = translated[0]
        return token(single.element, single.text, mathvariant=variant)
    return MathMLNode("mstyle", {"mathvariant": variant}, translated)


def _fn_pmod(registry, spec, args):
    return elem("mrow", [
        _mo("(", registry, stretchy="false"),
        token("mi", "mod"),
        elem("mspace", width="0.333em"),
        _slot(args[0], registry),
        _mo(")", registry, stretchy="false"),
    ])


# Every translation id a registry row may name: its function, the number of
# arguments it renders, whether it takes them from either side of its command
# (infix), and the fewest and most parameters it reads.  The loader gives each
# row the arity and infix of its function, and rejects a row whose parameters
# do not fit; a character row must name a function of no arguments.  "matrix"
# and "intent" have no function: they are translated from their own AST nodes
# (Matrix, IntentWrap).
TRANSLATIONS = {
    "identifier": (_token_fn("mi"), 0, False, 1, 1),
    "operator": (_token_fn("mo"), 0, False, 1, 1),
    "bigop": (_token_fn("mo"), 0, False, 1, 1),
    "function": (_fn_function, 0, False, 1, 1),
    "delimiter": (_token_fn("mo", stretchy="false"), 0, False, 1, 1),
    "space": (_fn_space, 0, False, 1, 1),
    "text": (_fn_text, 1, False, 0, 0),
    "operatorname": (_fn_operatorname, 1, False, 0, 0),
    "accent": (_mark_fn("mover", accent="true"), 1, False, 1, 1),
    "under": (_mark_fn("munder"), 1, False, 1, 1),
    "stacked": (_fn_stacked, 2, False, 1, 1),
    "radical": (_wrap_fn("msqrt"), 1, False, 0, 0),
    "root": (_fn_root, 2, False, 0, 0),
    "fraction": (_fn_fraction, 2, False, 0, 1),
    "over": (_fn_fraction, 2, True, 0, 1),
    "binom": (_fn_binom, 2, False, 2, 3),
    "choose": (_fn_binom, 2, True, 2, 3),
    "atop": (_fn_atop, 2, True, 0, 0),
    "style": (_fn_style, 1, False, 1, 1),
    "phantom": (_wrap_fn("mphantom"), 1, False, 0, 0),
    "enclose": (_wrap_fn("menclose", "notation"), 1, False, 0, 1),
    "pmod": (_fn_pmod, 1, False, 0, 0),
    "matrix": (None, 0, False, 0, 2),
    "intent": (None, 2, False, 0, 0),
}
# The generator's dispatch: one subscript per command.
TRANSLATION_FNS = {fn_id: row[0] for fn_id, row in TRANSLATIONS.items() if row[0]}
