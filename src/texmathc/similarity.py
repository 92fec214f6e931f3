"""Structural comparison of MathML documents.

Two measures: an order-insensitive element F-score for quick regression
checks, and an exact ordered tree edit distance (unit-cost insert, delete,
rename) for in-depth comparison.  Both run on normalized trees so that
inferred mrows, ignorable attributes, and wrapper elements from other
renderers do not count as differences.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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
    """Exact ordered tree edit distance with unit costs.

    Equal normalized trees are recognised from their postorder arrays in
    O(n).  Otherwise a lower bound L and an upper bound U are taken from
    the same arrays, and when they differ the Zhang-Shasha kernel runs
    banded to a cutoff k (see `_ted_within`), k doubling from about L
    until the distance is found; past `FULL_BAND_SHARE` of the node count
    it runs unbanded.
    """
    labels_a, lmld_a = _postorder(normalize(a, options))
    labels_b, lmld_b = _postorder(normalize(b, options))
    m, n = len(labels_a) - 1, len(labels_b) - 1
    if labels_a == labels_b and lmld_a == lmld_b:
        return TedResult(0, m, n)
    codes: dict = {}
    la = [codes.setdefault(label, len(codes)) for label in labels_a]
    lb = [codes.setdefault(label, len(codes)) for label in labels_b]
    low, high = _bounds(la, lmld_a, lb, lmld_b)
    if low == high:
        return TedResult(low, m, n)
    k = high if high <= 2 * low else max(low, 1)
    while k < FULL_BAND_SHARE * (m + n):
        distance = _ted_within(la, lmld_a, lb, lmld_b, k)
        if distance <= k:
            return TedResult(distance, m, n)
        k = min(2 * k, high)
    return TedResult(_ted_within(la, lmld_a, lb, lmld_b), m, n)


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


# A cutoff k at or above this share of m + n runs the kernel unbanded.  A
# banded run there costs about a sixth of an unbanded one (200-600 nodes),
# so a search that fails below it wastes about a third of one at most, and
# unrelated trees, whose lower bound is above it (tools/ted_scaling.py),
# run unbanded at once.
FULL_BAND_SHARE = 0.1


def _ted_within(la: list[int], lmld_a: list[int], lb: list[int], lmld_b: list[int],
                k: int | None = None) -> int:
    """min(TED, k + 1) for trees given as postorder label codes and leftmost
    leaves (both 1-based); with no k, the distance itself.

    Zhang-Shasha with a k-strip band (Touzet, CPM 2005).  A mapping maps
    the nodes left of, below and after x in A to those left of, below and
    after y in B, so when it maps x to y it leaves at least

        |li - lj| + |size(x) - size(y)| + |(m - x) - (n - y)|

    nodes unmapped (li, lj: their leftmost leaves).  With a cost of at most
    k, a keyroot pair runs only when its leftmost paths hold such a pair
    (x, y), and its rows and columns stop at the last one.  In its table
    only the cells whose two forests differ in size by at most
    k - |li - lj| are computed; every other `fd` cell, and every `treedist`
    cell left uncomputed, counts as k + 1.  Each cell then holds at least
    min(its distance, k + 1), and every cell that a mapping of cost <= k
    passes through is exact.
    """
    m, n = len(la) - 1, len(lb) - 1
    leaves_a, paths_a = _leftmost_paths(lmld_a)
    leaves_b, paths_b = _leftmost_paths(lmld_b)
    if k is None:  # every keyroot pair, whole
        k = 2 * (m + n)
        pairs = [(i, j, i, j) for i in paths_a for j in paths_b]
    else:
        # On the leftmost paths of keyroots i and j, with d = li - lj and s
        # the subtree size difference, x - y = d + s and the bound above is
        # |d| + |s| + |m - n - d - s| <= k: y - x lies in lo..hi.
        pairs = []
        starts = sorted((lmld_b[j], j) for j in paths_b)
        firsts = [first for first, _ in starts]
        for i, path_i in paths_a.items():
            li = path_i[0]
            for lj, j in starts[bisect_left(firsts, li - k):bisect_right(firsts, li + k)]:
                d = li - lj
                e = m - n - d
                slack = k - abs(d) - abs(e)
                if slack < 0:
                    continue
                lo = -d - max(0, e) - slack // 2
                hi = -d - min(0, e) + slack // 2
                if j - li < lo or lj - i > hi:
                    continue
                path_j = paths_b[j]
                for last_x in reversed(path_i):
                    if _meets(path_j, last_x + lo, last_x + hi):
                        break
                else:
                    continue
                for last_y in reversed(path_j):
                    if _meets(path_i, last_y - hi, last_y - lo):
                        break
                pairs.append((i, j, last_x, last_y))
        pairs.sort()
    over = k + 1
    treedist = [[over] * (n + 1) for _ in range(m + 1)]
    # A keyroot that is a leaf is its own leftmost path, and a tree edit
    # distance from a single node is the other tree's size less one if the
    # label occurs in it: these rows and columns need no forest table.
    rows = _single_node_distances(lb, lmld_b, {la[i] for i in leaves_a})
    for i in leaves_a:
        treedist[i] = rows[la[i]][:]
    columns = _single_node_distances(la, lmld_a, {lb[j] for j in leaves_b})
    for j in leaves_b:
        column = columns[lb[j]]
        for x in range(max(1, j - k), min(m, j + k) + 1):
            treedist[x][j] = column[x]
    # fd[x][y]: distance between the forests lmld[i]..x of A and lmld[j]..y
    # of B for the keyroot pair (i, j) being computed; shared by all pairs.
    # Row or column lmld[x] - 1 holds the forest left of x's subtree.
    fd = [[over] * (n + 2) for _ in range(m + 1)]
    pa = [x - 1 for x in lmld_a]
    pb = [y - 1 for y in lmld_b]
    for i, j, last_x, last_y in pairs:
        li1, lj1 = lmld_a[i] - 1, lmld_b[j] - 1
        width = k - abs(li1 - lj1)  # the band's half-width for this pair
        prev = fd[li1]
        hi = lj1 + width
        if hi >= last_y:
            hi = last_y
        else:
            prev[hi + 1] = over
        prev[lj1:hi + 1] = range(hi + 1 - lj1)
        for x in range(li1 + 1, last_x + 1):
            # Row x's band: the B forests at most `width` nodes larger or
            # smaller than the A forest.  Cells outside it may hold values
            # from an earlier keyroot pair, except the one to its right, set
            # to k + 1 for the row below.
            size = x - li1
            row = fd[x]
            lo = lj1 + size - width
            if lo > lj1:
                left = over
            else:
                lo = lj1 + 1
                left = row[lj1] = size
            hi = lj1 + size + width
            if hi >= last_y:
                hi = last_y
            else:
                row[hi + 1] = over
            tdx = treedist[x]
            p = pa[x]
            # min(up + 1, left + 1, cost) with a single addition: the
            # smaller of up and left, plus one, if it is below cost.
            if p == li1:  # x's subtree is the whole A forest
                ax = la[x]
                for y in range(lo, hi + 1):
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
                prev = row
                continue
            base = fd[p]
            # Cells read from row p lie in lj1..hi - 1; its band is q_lo..q_hi.
            q_lo = lj1 + p - li1 - width
            q_hi = q_lo + 2 * width
            if q_lo <= lj1 and hi <= q_hi:
                for y in range(lo, hi + 1):
                    cost = base[pb[y]] + tdx[y]
                    up = prev[y]
                    if left < up:
                        up = left
                    if up < cost:
                        cost = up + 1
                    row[y] = left = cost
            else:
                for y in range(lo, hi + 1):
                    q = pb[y]
                    cost = base[q] + tdx[y] if q_lo <= q <= q_hi else over
                    up = prev[y]
                    if left < up:
                        up = left
                    if up < cost:
                        cost = up + 1
                    row[y] = left = cost
            prev = row
    return min(treedist[m][n], over)


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


def _leftmost_paths(lmld: list[int]) -> tuple[list[int], dict[int, list[int]]]:
    """The keyroots that are leaves, and the leftmost path, bottom up, of
    every other keyroot, keyroots in postorder.

    A keyroot is the highest node of its leftmost leaf; the nodes that share
    that leaf form its path.
    """
    paths: dict[int, list[int]] = {}
    for x in range(1, len(lmld)):
        paths.setdefault(lmld[x], []).append(x)
    leaves = sorted(path[0] for path in paths.values() if len(path) == 1)
    return leaves, dict(sorted((path[-1], path) for path in paths.values() if len(path) > 1))


def _meets(path: list[int], lo: int, hi: int) -> bool:
    """Whether the sorted `path` holds a node in lo..hi."""
    at = bisect_left(path, lo)
    return at < len(path) and path[at] <= hi


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
