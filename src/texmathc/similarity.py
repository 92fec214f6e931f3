"""Structural comparison of MathML documents.

Two measures: an order-insensitive element F-score for quick regression
checks, and an exact ordered tree edit distance (unit-cost insert, delete,
rename) for in-depth comparison.  Both run on normalized trees so that
inferred mrows, ignorable attributes, and wrapper elements from other
renderers do not count as differences.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from collections import Counter

from .mathml import MathMLNode, serialize
from .value import Value

# Elements whose single-child mrow is structural bookkeeping, not content.
_INFERRED_MROW_PARENTS = frozenset({
    "math", "msqrt", "mstyle", "mtd", "mphantom", "mpadded", "menclose",
    "semantics",
})


class CompareOptions(Value, ignore_inferred_mrow=False, ignored_attributes=frozenset(),
                     strip_elements=frozenset(), require_semantics_wrapper=False):
    __slots__ = ("ignore_inferred_mrow", "ignored_attributes",  # names, or "all"
                 "strip_elements", "require_semantics_wrapper")

    def ignores_attr(self, name: str) -> bool:
        return self.ignored_attributes == "all" or name in self.ignored_attributes


FULL_NORMALIZATION = CompareOptions(
    ignore_inferred_mrow=True,
    ignored_attributes="all",
    strip_elements=frozenset({"annotation", "semantics"}),
)


class FScoreReport(Value):
    __slots__ = ("precision", "recall", "f1", "matched", "only_in_a", "only_in_b")


class TedResult(Value):
    __slots__ = ("distance", "node_count_a", "node_count_b")


class PairRow(Value, error=None):
    __slots__ = ("id", "ted", "f1", "error")


class CorpusReport(Value, errors=()):
    __slots__ = ("formula_count", "overall_ted", "average_ted", "rows", "errors")

    def to_dict(self) -> dict:
        return {
            "formula_count": self.formula_count,
            "overall_ted": self.overall_ted,
            "average_ted": round(self.average_ted, 3),
            "errors": list(self.errors),
            "rows": [
                {"id": r.id, "ted": r.ted, "f1": r.f1, "error": r.error}
                for r in self.rows
            ],
        }


# -- the normalizing walk ------------------------------------------------------


def _read(tree: MathMLNode, options: CompareOptions) -> tuple[list[int], list]:
    """The walk of `tree` read as its XML: a tree and its XML compare equal."""
    return _walk(ET.fromstring(serialize(tree)), options)


def _walk(root: ET.Element, options: CompareOptions) -> tuple[list[int], list]:
    """The normalized tree in postorder: the leftmost-leaf indices, 1-based
    (slot 0 unused), and the (element, text, attribute items) of every
    node, node x at items[x - 1].

    The subtree of node x is the postorder range lmld[x]..x, so the two
    arrays together fix the ordered tree.  Each element is read so:
    namespace prefixes are stripped from element and attribute names; an
    element with children has no text; a leaf's text is whitespace-trimmed,
    and none when nothing is left (an empty layout node such as `<mrow/>`).
    The rules, applied bottom-up as each node closes:

    * a stripped element gives way to its normalized children, and so
      (under `ignore_inferred_mrow`) does an mrow left with one child;
    * an inferred-mrow parent left with one attribute-free mrow takes that
      mrow's children;
    * the ignored attributes are dropped;
    * the root is never replaced.  Under `require_semantics_wrapper` a
      `math` root with no `semantics` child has its children wrapped in
      one, and so has no text.

    One loop reads the elements in document order and keeps the open ones
    on a stack, so a document of any depth walks from any caller.
    """
    if (options.require_semantics_wrapper and _local_name(root.tag) == "math"
            and all(_local_name(child.tag) != "semantics" for child in root)):
        wrapped = ET.Element(root.tag, root.attrib)
        ET.SubElement(wrapped, "semantics").extend(root)
        root = wrapped
    strip = options.strip_elements
    mrows = options.ignore_inferred_mrow
    every = options.ignored_attributes == "all"
    names: dict = {}  # tag -> local name
    lmld = [0]
    items: list = []
    # Open elements: [name, attributes, children left, index of the first
    # node emitted below, nodes emitted as its normalized children].
    stack: list = []
    for element in root.iter():
        name = names.get(element.tag) or names.setdefault(element.tag, _local_name(element.tag))
        children = len(element)
        if children:
            stack.append([name, element.attrib, children, len(lmld), 0])
            continue
        # A leaf closes at once, and then each element whose last child closed.
        attributes, start, count = element.attrib, len(lmld), 0
        text = (element.text or "").strip() or None
        while True:
            if stack and (name in strip or mrows and count == 1 and name == "mrow"):
                added = count
            else:
                # A single child is the last node emitted; dropping it leaves
                # its children in place, as the parent's.
                if (mrows and count == 1 and name in _INFERRED_MROW_PARENTS
                        and items[-1][0] == "mrow" and not items[-1][2]):
                    lmld.pop()
                    items.pop()
                lmld.append(start)
                items.append((name, text, () if every or not attributes
                              else _kept(attributes, options)))
                added = 1
            if not stack:
                return lmld, items
            parent = stack[-1]
            parent[4] += added
            parent[2] -= 1
            if parent[2]:
                break
            name, attributes, _, start, count = stack.pop()
            text = None


def _kept(attributes: dict, options: CompareOptions) -> tuple:
    """The attribute items, by local name, that `options` does not ignore."""
    if any("}" in key for key in attributes):
        attributes = {_local_name(key): value for key, value in attributes.items()}
    return tuple(item for item in attributes.items() if not options.ignores_attr(item[0]))


def _local_name(name: str) -> str:
    """`name` less the `{namespace}` prefix that ElementTree gives it."""
    return name[name.index("}") + 1:] if name[:1] == "{" and "}" in name else name


def normalize(tree: MathMLNode, options: CompareOptions) -> MathMLNode:
    """The tree as compared (see `_walk`); `tree` is not changed.  Not
    exported by the package; kept while the benchmark's tracer names it."""
    return _build(*_read(tree, options))


def _build(lmld: list[int], items: list) -> MathMLNode:
    """The tree that the walk's postorder arrays give."""
    built: list = [None]  # built[x]: node x
    for x, (element, text, attributes) in enumerate(items, 1):
        children = []
        y = x - 1  # the last child; each earlier one ends just left of the next's subtree
        while y >= lmld[x]:
            children.append(built[y])
            y = lmld[y] - 1
        children.reverse()
        built.append(MathMLNode(element, dict(attributes), children, text))
    return built[-1]


# -- element F-score --------------------------------------------------------


def element_fscore(a: MathMLNode, b: MathMLNode,
                   options: CompareOptions = CompareOptions()) -> FScoreReport:
    """Order-insensitive multiset overlap of (element, token text, attributes)."""
    return _fscore(_read(a, options)[1], _read(b, options)[1])


def _multiset(items: list) -> Counter:
    """The F-score multiset of the walk's items: attributes count as a set."""
    counter = Counter(items)
    for key in [key for key in counter if len(key[2]) > 1]:
        count = counter.pop(key)
        element, text, attributes = key
        counter[element, text, tuple(sorted(attributes))] += count
    return counter


def _fscore(items_a: list, items_b: list) -> FScoreReport:
    if items_a == items_b:  # equal lists are equal multisets: each meets itself whole
        matched = len(items_a)
    else:
        matched = sum((_multiset(items_a) & _multiset(items_b)).values())
    total_a = len(items_a)
    total_b = len(items_b)
    precision = matched / total_a if total_a else 0.0
    recall = matched / total_b if total_b else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return FScoreReport(
        precision=precision,
        recall=recall,
        f1=f1,
        matched=matched,
        only_in_a=total_a - matched,
        only_in_b=total_b - matched,
    )


# -- tree edit distance ------------------------------------------------------


def tree_edit_distance(a: MathMLNode, b: MathMLNode,
                       options: CompareOptions = CompareOptions()) -> TedResult:
    """Exact ordered tree edit distance with unit costs.

    Equal normalized trees are recognised from their postorder arrays in
    O(n).  Otherwise a lower bound L and an upper bound U are taken from
    the same arrays; for trees of one shape, L is raised to the edit
    distance between their postorder label strings.  When L and U still
    differ, one Zhang-Shasha run (`_ted`) gives the distance; its cost
    grows with the product of the two node counts and does not fall with
    the distance.
    """
    lmld_a, items_a = _read(a, options)
    lmld_b, items_b = _read(b, options)
    return TedResult(_distance(lmld_a, items_a, lmld_b, items_b), len(items_a), len(items_b))


def _distance(lmld_a: list[int], items_a: list, lmld_b: list[int], items_b: list) -> int:
    """The tree edit distance between two trees given as the walk's arrays.

    A node's label is its (element, text), coded as an int shared by both
    trees; slot 0 holds -1.  Trees equal but for attributes are settled by
    the bounds, which meet at 0.  Between the bounds, the postorder string
    distance (`_levenshtein`) raises the lower one where it can reach the
    upper one.  A pair the bounds leave open runs the kernel once.
    """
    if lmld_a == lmld_b and items_a == items_b:  # equal trees, attributes and all
        return 0
    codes: dict = {}
    la = [-1] + [codes.setdefault((element, text or ""), len(codes))
                 for element, text, _ in items_a]
    lb = [-1] + [codes.setdefault((element, text or ""), len(codes))
                 for element, text, _ in items_b]
    low, high = _bounds(la, lmld_a, lb, lmld_b)
    # The string bound is at most max(m, n), so it can reach `high` only
    # there, which takes equal shapes.
    if low < high <= max(len(items_a), len(items_b)):
        low = max(low, _levenshtein(la[1:], lb[1:]))
    if low == high:
        return low
    return _ted(la, lmld_a, lb, lmld_b)


def _bounds(la: list[int], lmld_a: list[int], lb: list[int], lmld_b: list[int]) -> tuple[int, int]:
    """A lower and an upper bound on the distance, from the postorder arrays.

    Lower: the size difference, and half the L1 distance of the label
    histograms (Kailing et al. 2004), since a rename moves two of its
    counts and an insert or delete one.  Upper: with equal leftmost-leaf
    arrays the shapes are equal, and renaming every differing label is an
    edit script; otherwise deleting and inserting every node.
    """
    m, n = len(la) - 1, len(lb) - 1
    histogram = Counter(la)
    histogram.subtract(lb)
    low = max(abs(m - n), (sum(map(abs, histogram.values())) + 1) // 2)
    high = sum(x != y for x, y in zip(la, lb)) if lmld_a == lmld_b else m + n
    return low, high


def _levenshtein(a: list[int], b: list[int]) -> int:
    """The edit distance between two code strings, a lower bound on the tree
    edit distance when they are the trees' postorder labels (Guha et al.,
    "Approximate XML joins", SIGMOD 2002): deleting, inserting or renaming a
    node deletes, inserts or renames one code and keeps the others' order.

    Myers' bit-vector algorithm in Hyyrö's form: a column of the DP over `a`
    is two ints, bit i set where the column steps up (pv) or down (mv) by one
    from row i to row i + 1, and `score` follows its last row.  `a` is not
    empty.
    """
    m = len(a)
    peq: dict[int, int] = {}  # code -> the bits of its positions in a
    for i, code in enumerate(a):
        peq[code] = peq.get(code, 0) | 1 << i
    full = (1 << m) - 1
    top = 1 << (m - 1)
    pv, mv, score = full, 0, m
    for code in b:
        eq = peq.get(code, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)  # negative: only the low m bits are read
        mh = pv & xh
        if ph & top:
            score += 1
        elif mh & top:
            score -= 1
        ph = ph << 1 | 1  # row 0 steps up by one in every column
        pv = (mh << 1 | ~(xv | ph)) & full
        mv = ph & xv
    return score


def _ted(la: list[int], lmld_a: list[int], lb: list[int], lmld_b: list[int]) -> int:
    """The tree edit distance between trees given as postorder label codes
    and leftmost leaves (both 1-based).

    Zhang-Shasha: for every pair of keyroots (i, j), a forest table over
    the subtrees of i and j gives the distance between every pair of
    subtrees whose roots lie on their leftmost paths, from the distances
    of the subtrees to their left, which earlier pairs computed.
    """
    m, n = len(la) - 1, len(lb) - 1
    leaves_a, keyroots_a = _keyroots(lmld_a)
    leaves_b, keyroots_b = _keyroots(lmld_b)
    treedist = [[0] * (n + 1) for _ in range(m + 1)]
    # A keyroot that is a leaf is its own leftmost path, and a tree edit
    # distance from a single node is the other tree's size less one if the
    # label occurs in it: these rows and columns need no forest table.
    rows = _single_node_distances(lb, lmld_b, {la[i] for i in leaves_a})
    for i in leaves_a:
        treedist[i] = rows[la[i]][:]
    columns = _single_node_distances(la, lmld_a, {lb[j] for j in leaves_b})
    for j in leaves_b:
        column = columns[lb[j]]
        for x in range(1, m + 1):
            treedist[x][j] = column[x]
    # fd[x][y]: distance between the forests lmld[i]..x of A and lmld[j]..y
    # of B for the keyroot pair (i, j) being computed; shared by all pairs.
    # Row or column lmld[x] - 1 holds the forest left of x's subtree.
    fd = [[0] * (n + 1) for _ in range(m + 1)]
    pa = [x - 1 for x in lmld_a]
    pb = [y - 1 for y in lmld_b]
    for i in keyroots_a:
        li1 = lmld_a[i] - 1
        for j in keyroots_b:
            lj1 = lmld_b[j] - 1
            prev = fd[li1]
            prev[lj1:j + 1] = range(j + 1 - lj1)
            for x in range(li1 + 1, i + 1):
                row = fd[x]
                left = row[lj1] = x - li1
                tdx = treedist[x]
                p = pa[x]
                # min(up + 1, left + 1, cost) with a single addition: the
                # smaller of up and left, plus one, if it is below cost.
                if p == li1:  # x's subtree is the whole A forest
                    ax = la[x]
                    for y in range(lj1 + 1, j + 1):
                        q = pb[y]
                        if q == lj1:  # both forests are whole trees
                            cost = prev[y - 1] + (ax != lb[y])
                        else:
                            cost = q - lj1 + tdx[y]
                        up = prev[y]
                        if left < up:
                            up = left
                        if up < cost:
                            cost = up + 1
                        if q == lj1:
                            tdx[y] = cost
                        row[y] = left = cost
                else:
                    base = fd[p]
                    for y in range(lj1 + 1, j + 1):
                        cost = base[pb[y]] + tdx[y]
                        up = prev[y]
                        if left < up:
                            up = left
                        if up < cost:
                            cost = up + 1
                        row[y] = left = cost
                prev = row
    return treedist[m][n]


def _single_node_distances(labels: list[int], lmld: list[int], wanted: set[int]) -> dict:
    """For each label code in `wanted`, the tree edit distance from a single
    node with that label to the subtree of every node x (slot x): the
    subtree's size, less one if the label occurs in it."""
    sizes = [x - first + 1 for x, first in enumerate(lmld)]
    parents = [0] * len(lmld)
    pending: list[int] = []  # nodes whose parent is still to come
    for x in range(1, len(lmld)):
        while pending and pending[-1] >= lmld[x]:
            parents[pending.pop()] = x
        pending.append(x)
    out = {code: sizes[:] for code in wanted}
    for x, code in enumerate(labels):
        distances = out.get(code)
        if distances is not None:  # the label occurs under x and its ancestors
            while x and distances[x] == sizes[x]:
                distances[x] -= 1
                x = parents[x]
    return out


def _keyroots(lmld: list[int]) -> tuple[list[int], list[int]]:
    """The keyroots that are leaves, and the other keyroots, each in
    postorder.  A keyroot is the highest node of its leftmost leaf."""
    highest = {}
    for x in range(1, len(lmld)):
        highest[lmld[x]] = x
    keyroots = sorted(highest.values())
    return ([x for x in keyroots if lmld[x] == x],
            [x for x in keyroots if lmld[x] != x])


# -- corpus aggregation -------------------------------------------------------


class ComparePair(Value):
    __slots__ = ("id", "a", "b")  # a, b: serialized MathML


def batch_compare(pairs: list[ComparePair],
                  options: CompareOptions = CompareOptions()) -> CorpusReport:
    """Per-pair TED and F-score plus Table-style aggregates.

    Each document is parsed and then walked once (`_walk`), and both
    measures read the walk's arrays.  A byte-identical pair is parsed once
    and scores TED 0 and F1 1.0 unwalked.  Pairs that fail to parse as XML
    are excluded from the aggregates and surfaced in the report header.
    """
    rows: list[PairRow] = []
    errors: list[str] = []
    overall = 0
    counted = 0
    for pair in sorted(pairs, key=lambda p: p.id):
        same = pair.b == pair.a
        try:
            root_a = ET.fromstring(pair.a)
            root_b = root_a if same else ET.fromstring(pair.b)
        except Exception as exc:
            errors.append(f"{pair.id}: XML parse failure: {exc}")
            rows.append(PairRow(pair.id, None, None, error=str(exc)))
            continue
        if same:  # the root is never replaced, so each side has a node
            ted, f1 = 0, 1.0
        else:
            lmld_a, items_a = _walk(root_a, options)
            lmld_b, items_b = _walk(root_b, options)
            ted, f1 = _distance(lmld_a, items_a, lmld_b, items_b), _fscore(items_a, items_b).f1
        rows.append(PairRow(pair.id, ted, f1))
        overall += ted
        counted += 1
    average = overall / counted if counted else 0.0
    return CorpusReport(
        formula_count=counted,
        overall_ted=overall,
        average_ted=average,
        rows=tuple(rows),
        errors=tuple(errors),
    )


def format_report_table(report: CorpusReport) -> str:
    """Human-readable aggregate block shaped like the evaluation tables."""
    mean_f1 = (
        sum(r.f1 for r in report.rows if r.f1 is not None) / report.formula_count
        if report.formula_count else 0.0
    )
    lines = []
    for message in report.errors:
        lines.append(f"! {message}")
    lines.append(f"Number of formulas\t{report.formula_count}")
    lines.append(f"Overall TED\t{report.overall_ted}")
    lines.append(f"Average TED\t{report.average_ted:.3f}")
    lines.append(f"Average F1\t{mean_f1:.3f}")
    return "\n".join(lines)
