"""Structural comparison of MathML documents.

Two measures: an order-insensitive element F-score for quick regression
checks, and an exact ordered tree edit distance (unit-cost insert, delete,
rename) for in-depth comparison.  Both run on normalized trees so that
inferred mrows, ignorable attributes, and wrapper elements from other
renderers do not count as differences.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .mathml import MathMLNode, from_xml

# Elements whose single-child mrow is structural bookkeeping, not content.
_INFERRED_MROW_PARENTS = frozenset({
    "math", "msqrt", "mstyle", "mtd", "mphantom", "mpadded", "menclose",
    "semantics",
})


@dataclass(frozen=True)
class CompareOptions:
    ignore_inferred_mrow: bool = False
    ignored_attributes: frozenset[str] | str = frozenset()  # names, or "all"
    strip_elements: frozenset[str] = frozenset()
    require_semantics_wrapper: bool = False

    def ignores_attr(self, name: str) -> bool:
        if self.ignored_attributes == "all":
            return True
        return name in self.ignored_attributes


FULL_NORMALIZATION = CompareOptions(
    ignore_inferred_mrow=True,
    ignored_attributes="all",
    strip_elements=frozenset({"annotation", "semantics"}),
)


@dataclass(frozen=True)
class FScoreReport:
    precision: float
    recall: float
    f1: float
    matched: int
    only_in_a: int
    only_in_b: int


@dataclass(frozen=True)
class TedResult:
    distance: int
    node_count_a: int
    node_count_b: int


@dataclass(frozen=True)
class PairRow:
    id: str
    ted: int | None
    f1: float | None
    error: str | None = None


@dataclass(frozen=True)
class CorpusReport:
    formula_count: int
    overall_ted: int
    average_ted: float
    rows: tuple[PairRow, ...]
    errors: tuple[str, ...] = ()

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


def normalize(tree: MathMLNode, options: CompareOptions) -> MathMLNode:
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


# -- element F-score --------------------------------------------------------


def _items(tree: MathMLNode) -> Counter:
    counter: Counter = Counter()
    for node in tree.iter():
        attrs = frozenset(node.attributes.items())
        counter[(node.element, node.text, attrs)] += 1
    return counter


def element_fscore(a: MathMLNode, b: MathMLNode,
                   options: CompareOptions = CompareOptions()) -> FScoreReport:
    """Order-insensitive multiset overlap of (element, token text, attributes)."""
    items_a = _items(normalize(a, options))
    items_b = _items(normalize(b, options))
    matched = sum((items_a & items_b).values())
    total_a = sum(items_a.values())
    total_b = sum(items_b.values())
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


def _postorder(root: MathMLNode) -> tuple[list, list[int]]:
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


def tree_edit_distance(a: MathMLNode, b: MathMLNode,
                       options: CompareOptions = CompareOptions()) -> TedResult:
    """Exact ordered tree edit distance with unit costs (Zhang-Shasha).

    Equal normalized trees are recognised from their postorder arrays in
    O(n) and skip the dynamic program.
    """
    labels_a, lmld_a = _postorder(normalize(a, options))
    labels_b, lmld_b = _postorder(normalize(b, options))
    m, n = len(labels_a) - 1, len(labels_b) - 1
    if labels_a == labels_b and lmld_a == lmld_b:
        return TedResult(0, m, n)
    codes: dict = {}
    la = [codes.setdefault(label, len(codes)) for label in labels_a]
    lb = [codes.setdefault(label, len(codes)) for label in labels_b]
    # Row or column lmld[x] - 1 of fd holds the forest left of x's subtree.
    pa = [x - 1 for x in lmld_a]
    pb = [y - 1 for y in lmld_b]
    keyroots_b = [(pb[j], j, range(lmld_b[j], j + 1)) for j in _keyroots(lmld_b)]
    treedist = [[0] * (n + 1) for _ in range(m + 1)]
    # fd[x][y]: distance between the forests lmld[i]..x of A and lmld[j]..y
    # of B for the keyroot pair (i, j) being computed; shared by all pairs.
    fd = [[0] * (n + 1) for _ in range(m + 1)]
    for i in _keyroots(lmld_a):
        li = lmld_a[i]
        empty = fd[li - 1]
        for lj1, j, ys in keyroots_b:
            empty[lj1:j + 1] = range(j + 1 - lj1)
            prev = empty
            for x in range(li, i + 1):
                row = fd[x]
                left = row[lj1] = prev[lj1] + 1
                tdx = treedist[x]
                # min(up + 1, left + 1, cost) with a single addition: the
                # smaller of up and left, plus one, if it is below cost.
                if pa[x] == li - 1:  # x's subtree is the whole A forest
                    ax = la[x]
                    for y in ys:
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
                    base = fd[pa[x]]
                    for y in ys:
                        cost = base[pb[y]] + tdx[y]
                        up = prev[y]
                        if left < up:
                            up = left
                        if up < cost:
                            cost = up + 1
                        row[y] = left = cost
                prev = row
    return TedResult(treedist[m][n], m, n)


def _keyroots(lmld: list[int]) -> list[int]:
    """The highest node of each leftmost leaf, in postorder."""
    highest = {leaf: x for x, leaf in enumerate(lmld) if x}
    return sorted(highest.values())


# -- corpus aggregation -------------------------------------------------------


@dataclass(frozen=True)
class ComparePair:
    id: str
    a: str  # serialized MathML
    b: str


def batch_compare(pairs: list[ComparePair],
                  options: CompareOptions = CompareOptions()) -> CorpusReport:
    """Per-pair TED and F-score plus Table-style aggregates.

    Pairs that fail to parse as XML, or that are nested too deeply for the
    interpreter's stack, are excluded from the aggregates and surfaced in
    the report header.
    """
    rows: list[PairRow] = []
    errors: list[str] = []
    overall = 0
    counted = 0
    for pair in sorted(pairs, key=lambda p: p.id):
        try:
            tree_a = from_xml(pair.a)
            tree_b = from_xml(pair.b)
        except Exception as exc:
            errors.append(f"{pair.id}: XML parse failure: {exc}")
            rows.append(PairRow(pair.id, None, None, error=str(exc)))
            continue
        try:
            ted = tree_edit_distance(tree_a, tree_b, options)
            score = element_fscore(tree_a, tree_b, options)
        except RecursionError as exc:  # read, but nested too deeply to walk
            errors.append(f"{pair.id}: too deeply nested to compare: {exc}")
            rows.append(PairRow(pair.id, None, None, error=str(exc)))
            continue
        rows.append(PairRow(pair.id, ted.distance, score.f1))
        overall += ted.distance
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
