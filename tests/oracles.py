"""Independent oracles: tree edit distance and TeX tokenization.

Two deliberately different tree-edit-distance formulations, neither sharing
code with the production algorithm:

* ``ted_mapping_oracle`` enumerates every valid edit mapping (Tai mapping)
  between the two node sets and takes the cheapest; this is the textbook
  definition of TED.  Exponential; fine for trees up to ~7 nodes.
* ``ted_recursive_oracle`` is the plain memoized forest recursion (delete /
  insert / match on the leftmost roots) with no keyroot machinery; handles
  the bundled fixture corpora (tens of nodes).

``levenshtein_oracle`` is the plain dynamic program for the edit distance
between two sequences, the reference for the bit-vector string bound in
``texmathc.similarity``.

``tokenize_oracle`` is the parser's earlier tokenizer, one character at a
time, kept as the reference for the regex scanner in ``texmathc.parser``.

``normalize_oracle``, ``postorder_oracle`` and ``items_oracle`` are the
comparison's earlier path, kept as the reference for the normalizing walk
in ``texmathc.similarity``: a normalized copy of a ``MathMLNode`` tree
built bottom-up, then its postorder labels and leftmost leaves, and its
F-score multiset.  ``copy_tree`` deep-copies a ``MathMLNode`` tree.

``from_xml_oracle`` is the earlier XML reader, one frame per element, kept
as the reference for the reading rules of that walk, which ``from_xml`` now
runs with no rules applied.

``command_names`` lists the commands an AST references, for tests that
check every parsed command against the registry.

``preprocess_oracle`` is the earlier chemistry pass, a text rewriter that
replaced every ``\\ce{...}``/``\\pu{...}`` by its expansion before parsing;
it is the reference for the parser's in-place expansion.  ``closing_brace``
is its brace matcher, a scan of the text, the reference for the parser's
matching on its token list (raw arguments and chemistry bodies).

``escape_text_oracle`` and ``escape_attr_oracle`` are the serializer's
escapes without their fast path: every value goes through the whole
``replace`` chain.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from collections import Counter
from functools import lru_cache
from typing import Iterator

from texmathc.diagnostics import E_UNBALANCED_BRACE, ChemError
from texmathc.mathml import MathMLNode
from texmathc.mhchem import _err, expand_ce, expand_pu
from texmathc.nodes import (
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
from texmathc.similarity import _INFERRED_MROW_PARENTS, CompareOptions


def _flatten(root: MathMLNode):
    """Preorder ids, labels, parent links, children lists, ancestor sets."""
    labels: list[tuple[str, str]] = []
    parents: list[int] = []
    children: list[list[int]] = []

    def visit(node: MathMLNode, parent: int) -> None:
        idx = len(labels)
        labels.append((node.element, node.text or ""))
        parents.append(parent)
        children.append([])
        if parent >= 0:
            children[parent].append(idx)
        for child in node.children:
            visit(child, idx)

    visit(root, -1)
    ancestors: list[set[int]] = []
    for idx in range(len(labels)):
        chain = set()
        p = parents[idx]
        while p >= 0:
            chain.add(p)
            p = parents[p]
        ancestors.append(chain)
    return labels, children, ancestors


def ted_mapping_oracle(a: MathMLNode, b: MathMLNode) -> int:
    labels_a, _, anc_a = _flatten(a)
    labels_b, _, anc_b = _flatten(b)
    na, nb = len(labels_a), len(labels_b)
    best = na + nb  # empty mapping: delete everything, insert everything

    def consistent(i: int, j: int, pairs: list[tuple[int, int]]) -> bool:
        for i2, j2 in pairs:
            anc_ij = i2 in anc_a[i]          # i2 is an ancestor of i
            anc_ji = i in anc_a[i2]
            if anc_ij != (j2 in anc_b[j]):
                return False
            if anc_ji != (j in anc_b[j2]):
                return False
            if not anc_ij and not anc_ji:
                # siblings-wise: preorder must agree (preorder = id order)
                if (i2 < i) != (j2 < j):
                    return False
        return True

    def search(i: int, pairs: list[tuple[int, int]], used_b: set[int],
               cost_renames: int) -> None:
        nonlocal best
        mapped = len(pairs)
        if i == na:
            total = cost_renames + (na - mapped) + (nb - mapped)
            best = min(best, total)
            return
        # Optimistic bound: all remaining A nodes map to remaining B nodes free.
        remaining_a = na - i
        free = min(remaining_a, nb - len(used_b))
        optimistic = cost_renames + (na - mapped - free) + (nb - mapped - free)
        if optimistic >= best:
            return
        # Option 1: leave node i unmapped (costs a delete, counted at the end).
        search(i + 1, pairs, used_b, cost_renames)
        # Option 2: map node i to any unused consistent B node.
        for j in range(nb):
            if j in used_b:
                continue
            if not consistent(i, j, pairs):
                continue
            rename = 0 if labels_a[i] == labels_b[j] else 1
            pairs.append((i, j))
            used_b.add(j)
            search(i + 1, pairs, used_b, cost_renames + rename)
            pairs.pop()
            used_b.remove(j)

    search(0, [], set(), 0)
    return best


def ted_recursive_oracle(a: MathMLNode, b: MathMLNode) -> int:
    labels_a, children_a, _ = _flatten(a)
    labels_b, children_b, _ = _flatten(b)

    sizes_a = _sizes(children_a)
    sizes_b = _sizes(children_b)

    @lru_cache(maxsize=None)
    def dist(fa: tuple[int, ...], fb: tuple[int, ...]) -> int:
        if not fa:
            return sum(sizes_b[j] for j in fb)
        if not fb:
            return sum(sizes_a[i] for i in fa)
        v, rest_a = fa[0], fa[1:]
        w, rest_b = fb[0], fb[1:]
        delete_v = dist(tuple(children_a[v]) + rest_a, fb) + 1
        insert_w = dist(fa, tuple(children_b[w]) + rest_b) + 1
        rename = 0 if labels_a[v] == labels_b[w] else 1
        match = (dist(tuple(children_a[v]), tuple(children_b[w]))
                 + dist(rest_a, rest_b) + rename)
        return min(delete_v, insert_w, match)

    return dist((0,), (0,))


def levenshtein_oracle(a: list, b: list) -> int:
    """Unit-cost insert/delete/substitute distance, one DP row at a time."""
    previous = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        current = [i]
        for j, y in enumerate(b, 1):
            current.append(min(previous[j] + 1, current[j - 1] + 1,
                               previous[j - 1] + (x != y)))
        previous = current
    return previous[-1]


def _sizes(children: list[list[int]]) -> list[int]:
    sizes = [1] * len(children)
    for idx in range(len(children) - 1, -1, -1):
        for child in children[idx]:
            sizes[idx] += sizes[child]
    return sizes


def copy_tree(node: MathMLNode) -> MathMLNode:
    return MathMLNode(
        node.element,
        dict(node.attributes),
        [copy_tree(child) for child in node.children],
        node.text,
    )


def from_xml_oracle(text: str) -> MathMLNode:
    """A MathML document read one element at a time, recursively: namespace
    prefixes stripped from element and attribute names, no text on an element
    with children, a leaf's text whitespace-trimmed and none when empty."""
    return _convert(ET.fromstring(text))


def _convert(element: ET.Element) -> MathMLNode:
    nodes = []
    for child in element:  # a loop, not a comprehension: one frame per level
        nodes.append(_convert(child))
    attributes = {_local_name(key): value for key, value in element.attrib.items()}
    text = None if nodes else (element.text or "").strip() or None
    return MathMLNode(_local_name(element.tag), attributes, nodes, text)


def _local_name(name: str) -> str:
    return name[name.index("}") + 1:] if name[:1] == "{" and "}" in name else name


def normalize_oracle(tree: MathMLNode, options: CompareOptions) -> MathMLNode:
    """The tree as compared, built bottom-up in one pass; `tree` is not changed.

    A node's children are normalized first.  Then a stripped element gives
    way to its normalized children, and so (under `ignore_inferred_mrow`)
    does an mrow left with one child; an inferred-mrow parent left with one
    attribute-free mrow takes that mrow's children; and the ignored
    attributes are dropped.  The root is never replaced.
    """
    if (options.require_semantics_wrapper and tree.element == "math"
            and not any(child.element == "semantics" for child in tree.children)):
        tree = MathMLNode("math", tree.attributes,
                          [MathMLNode("semantics", {}, tree.children)])
    out: list[MathMLNode] = []
    _normalize_into(out, tree, options, root=True)
    return out[0]


def _normalize_into(out: list[MathMLNode], node: MathMLNode, options: CompareOptions,
                    root: bool = False) -> None:
    """Append what takes `node`'s place in its normalized parent to `out`."""
    mrows = options.ignore_inferred_mrow
    children: list[MathMLNode] = []
    for child in node.children:  # a loop, not a comprehension: one frame per level
        _normalize_into(children, child, options)
    if not root and (node.element in options.strip_elements
                     or mrows and node.element == "mrow" and len(children) == 1):
        out.extend(children)
        return
    if (mrows and node.element in _INFERRED_MROW_PARENTS and len(children) == 1
            and children[0].element == "mrow" and not children[0].attributes):
        children = children[0].children
    if options.ignored_attributes == "all":
        attributes = {}
    else:
        attributes = {k: v for k, v in node.attributes.items() if not options.ignores_attr(k)}
    out.append(MathMLNode(node.element, attributes, children, node.text))


def items_oracle(tree: MathMLNode) -> Counter:
    counter: Counter = Counter()
    for node in tree.iter():
        attrs = frozenset(node.attributes.items())
        counter[(node.element, node.text, attrs)] += 1
    return counter


def postorder_oracle(root: MathMLNode) -> tuple[list, list[int]]:
    """Postorder labels and leftmost-leaf indices, both 1-based (slot 0 unused).

    The subtree of node x is the postorder range lmld[x]..x, so the two
    arrays together fix the labelled ordered tree.
    """
    labels: list = [None]
    lmld = [0]

    def visit(node: MathMLNode) -> int:
        first = 0
        for child in node.children:
            leaf = visit(child)
            first = first or leaf
        labels.append((node.element, node.text or ""))
        lmld.append(first or len(lmld))
        return lmld[-1]

    visit(root)
    return labels, lmld


_LETTERS = re.compile(r"[A-Za-z]+")


def tokenize_oracle(source: str) -> list[tuple[str, str, int, int]]:
    """The parser's tokens as (kind, value, start, end), ending in eof: the
    tuple that a token text of `tokenize` and its `token_ends` offset give."""
    toks: list[tuple[str, str, int, int]] = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "\\":
            if i + 1 < n and source[i + 1] == "\\":
                toks.append(("newrow", "\\\\", i, i + 2))
                i += 2
                continue
            m = _LETTERS.match(source, i + 1)
            if m:
                toks.append(("cmd", m.group(0), i, m.end()))
                i = m.end()
            elif i + 1 < n:
                toks.append(("cmd", source[i + 1], i, i + 2))
                i += 2
            else:
                toks.append(("cmd", "", i, i + 1))
                i += 1
            continue
        kind = {
            "{": "lbrace", "}": "rbrace", "^": "sup", "_": "sub", "&": "amp",
        }.get(ch, "char")
        toks.append((kind, ch, i, i + 1))
        i += 1
    toks.append(("eof", "", n, n))
    return toks


def children_of(node: AstNode) -> tuple[AstNode, ...]:
    """All direct child nodes, in source order."""
    if isinstance(node, (Curly, Sequence)):
        return node.children
    if isinstance(node, Fun):
        return node.args
    if isinstance(node, Script):
        return tuple(n for n in (node.base, node.sub, node.sup) if n is not None)
    if isinstance(node, Infix):
        return (node.left, node.right)
    if isinstance(node, Matrix):
        return tuple(cell for row in node.rows for cell in row)
    if isinstance(node, Delimited):
        return (node.body,)
    if isinstance(node, IntentWrap):
        return (node.body,)
    return ()


def walk(node: AstNode) -> Iterator[AstNode]:
    """Depth-first pre-order traversal."""
    yield node
    for child in children_of(node):
        yield from walk(child)


def command_names(node: AstNode) -> Iterator[str]:
    """Every command name referenced anywhere in the tree (without backslash)."""
    for item in walk(node):
        if isinstance(item, Literal) and item.token.startswith("\\"):
            yield item.token[1:]
        elif isinstance(item, (Fun, Infix)):
            yield item.command
        elif isinstance(item, Matrix):
            yield item.env
        elif isinstance(item, Delimited):
            for tok in (item.open, item.close):
                if tok.startswith("\\"):
                    yield tok[1:]
        elif isinstance(item, IntentWrap):
            yield "intent"


# -- chemistry ------------------------------------------------------------

_ESCAPE = re.compile(r"\\([a-zA-Z]+|.?)", re.S)  # a command name or one escaped character
_BRACE_SCAN = re.compile(r"\\.|[{}]", re.S)


def closing_brace(text: str, start: int) -> int:
    """Index of the ``}`` matching the ``{`` at `start`, or -1 when unclosed.

    A backslash escapes the character after it, so ``\\{`` and ``\\}`` do
    not count.
    """
    depth = 0
    for m in _BRACE_SCAN.finditer(text, start):
        if m.group() == "{":
            depth += 1
        elif m.group() == "}":
            depth -= 1
            if depth == 0:
                return m.start()
    return -1


def preprocess_oracle(source: str) -> str:
    """Expand every chemistry environment; all other bytes pass through untouched."""
    out: list[str] = []
    done = 0  # source[:done] is already in `out`
    pos = 0
    n = len(source)
    while m := _ESCAPE.search(source, pos):
        name = m.group(1)
        pos = m.end()
        if name not in ("ce", "pu"):
            continue
        j = pos
        while j < n and source[j].isspace():
            j += 1
        if j >= n or source[j] != "{":
            raise _err(f"\\{name} requires a braced argument", source, m.start(), j)
        k = closing_brace(source, j)
        if k < 0:
            raise ChemError(E_UNBALANCED_BRACE, f"unterminated \\{name} argument",
                            (m.start(), n), source)
        body = source[j + 1:k]
        try:
            expansion = expand_ce(body) if name == "ce" else expand_pu(body)
        except ChemError as exc:
            raise exc.within(source, j + 1) from None
        out += (source[done:m.start()], expansion)
        done = pos = k + 1
    out.append(source[done:])
    return "".join(out)


# -- serializer -------------------------------------------------------------


def escape_text_oracle(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace("\r", "&#13;"))


def escape_attr_oracle(text: str) -> str:
    return (escape_text_oracle(text).replace('"', "&quot;").replace("\t", "&#9;")
            .replace("\n", "&#10;"))
