from __future__ import annotations

import gc
import json
import random
import re
import sys
import xml.etree.ElementTree as ET
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CORPORA
from oracles import (
    copy_tree,
    from_xml_oracle,
    items_oracle,
    levenshtein_oracle,
    normalize_oracle,
    postorder_oracle,
    ted_mapping_oracle,
    ted_recursive_oracle,
)
from texmathc import convert_formula, from_xml, parse, similarity
from texmathc.generator import to_mathml
from texmathc.mathml import GenOptions, MathMLNode, serialize
from texmathc.similarity import (
    _INFERRED_MROW_PARENTS,
    _bounds,
    _fscore,
    _levenshtein,
    _multiset,
    _walk,
    _ted,
    FULL_NORMALIZATION,
    CompareOptions,
    ComparePair,
    batch_compare,
    element_fscore,
    format_report_table,
    tree_edit_distance,
)


def normalize(tree: MathMLNode, options: CompareOptions) -> MathMLNode:
    """The tree as compared: the walk of `tree`'s XML, rebuilt as a tree."""
    return similarity._build(*similarity._read(tree, options))


def math(*children_xml: str) -> MathMLNode:
    return from_xml("<math>" + "".join(children_xml) + "</math>")


# -- normalize ----------------------------------------------------------------


def test_single_child_mrow_unwrapped():
    tree = math("<mrow><mi>x</mi></mrow>")
    out = normalize(tree, CompareOptions(ignore_inferred_mrow=True))
    assert out == math("<mi>x</mi>")
    # ...but never at the root
    root = from_xml("<mrow><mi>x</mi></mrow>")
    assert normalize(root, CompareOptions(ignore_inferred_mrow=True)) == root


def test_strip_semantics_and_annotation():
    tree = from_xml(
        "<math><semantics><mrow><mi>x</mi></mrow>"
        '<annotation encoding="application/x-tex">x</annotation></semantics></math>')
    out = normalize(tree, CompareOptions(
        strip_elements=frozenset({"annotation", "semantics"})))
    assert out == math("<mrow><mi>x</mi></mrow>")


def test_no_options_is_identity():
    tree = math("<mrow><mi>x</mi><mo>+</mo><mi>y</mi></mrow>")
    assert normalize(tree, CompareOptions()) == tree


def test_require_semantics_wrapper():
    tree = math("<mi>x</mi>")
    out = normalize(tree, CompareOptions(require_semantics_wrapper=True))
    assert out.children[0].element == "semantics"
    # already wrapped: unchanged
    again = normalize(out, CompareOptions(require_semantics_wrapper=True))
    assert again == out
    # only a math root is wrapped, and one with any semantics child is not
    for unchanged in ("<mrow><mi>x</mi></mrow>",
                      "<math><mi>x</mi><semantics><mi>y</mi></semantics></math>"):
        tree = from_xml(unchanged)
        assert normalize(tree, CompareOptions(require_semantics_wrapper=True)) == tree
    empty = normalize(math(), CompareOptions(require_semantics_wrapper=True))
    assert empty == math("<semantics></semantics>")
    # a root with only text: the wrapper takes the place of the text
    options = CompareOptions(require_semantics_wrapper=True)
    text_only = from_xml("<math>x</math>")
    expected = normalize_oracle(text_only, options)
    assert expected == math("<semantics></semantics>")
    assert normalize(text_only, options) == expected
    (row,) = batch_compare([ComparePair("p", "<math>x</math>",
                                        "<math><semantics/></math>")], options).rows
    assert (row.ted, row.f1) == (ted_recursive_oracle(expected, expected), 1.0)


def test_ignored_attributes():
    tree = from_xml('<math><mo stretchy="false" fence="true">(</mo></math>')
    out = normalize(tree, CompareOptions(ignored_attributes=frozenset({"stretchy"})))
    assert out.children[0].attributes == {"fence": "true"}
    out_all = normalize(tree, CompareOptions(ignored_attributes="all"))
    assert out_all.children[0].attributes == {}


def test_inferred_mrow_inside_layout_slot():
    tree = from_xml("<math><msqrt><mrow><mi>a</mi><mi>b</mi></mrow></msqrt></math>")
    out = normalize(tree, CompareOptions(ignore_inferred_mrow=True))
    assert [c.element for c in out.children[0].children] == ["mi", "mi"]
    # an mrow with attributes is not inferred
    kept = from_xml('<math><msqrt><mrow y="2"><mi>a</mi><mi>b</mi></mrow></msqrt></math>')
    assert normalize(kept, CompareOptions(ignore_inferred_mrow=True)) == kept


def test_mfrac_slots_not_flattened():
    # positional children of mfrac must survive mrow normalization
    tree = from_xml(
        "<math><mfrac><mrow><mi>a</mi><mi>b</mi></mrow><mi>c</mi></mfrac></math>")
    out = normalize(tree, CompareOptions(ignore_inferred_mrow=True))
    assert len(out.children[0].children) == 2


@pytest.mark.parametrize("options", [
    CompareOptions(),
    CompareOptions(ignore_inferred_mrow=True),
    FULL_NORMALIZATION,
])
def test_normalize_idempotent(options):
    tree = from_xml(
        "<math><semantics><mrow><mrow><mi>x</mi></mrow><mo>+</mo>"
        "<msqrt><mrow><mi>y</mi></mrow></msqrt></mrow>"
        "<annotation>x+sqrt(y)</annotation></semantics></math>")
    once = normalize(tree, options)
    assert normalize(once, options) == once


def test_stripped_wrapper_is_transparent():
    wrapped = from_xml("<math><msqrt><mrow><semantics><mi>a</mi><mi>b</mi></semantics></mrow>"
                       "<mo>+</mo></msqrt></math>")
    bare = from_xml("<math><msqrt><mrow><mi>a</mi><mi>b</mi></mrow><mo>+</mo></msqrt></math>")
    assert normalize(wrapped, FULL_NORMALIZATION) == normalize(bare, FULL_NORMALIZATION)
    assert tree_edit_distance(wrapped, bare, FULL_NORMALIZATION).distance == 0
    # the mrow keeps its two children; they are not spliced into the msqrt
    assert normalize(wrapped, FULL_NORMALIZATION) == bare


def test_stripped_wrapper_can_hide_the_semantics_child_from_the_wrapper_rule():
    """The wrapper rule reads the root's children as written, before stripping."""
    hidden = "<math><annotation><mi>a</mi><semantics></semantics></annotation></math>"
    bare = "<math><mi>a</mi><semantics></semantics></math>"
    options = CompareOptions(strip_elements=frozenset({"annotation"}),
                             require_semantics_wrapper=True)
    (row,) = batch_compare([ComparePair("p", hidden, bare)], options).rows
    assert (row.ted, row.f1, row.error) == (1, pytest.approx(6 / 7), None)
    (row,) = batch_compare([ComparePair("p", hidden, bare)],
                           CompareOptions(strip_elements=frozenset({"annotation"}))).rows
    assert (row.ted, row.f1) == (0, 1.0)


_NORMALIZE_OPTIONS = [
    FULL_NORMALIZATION,
    CompareOptions(ignore_inferred_mrow=True, ignored_attributes="all",
                   strip_elements=frozenset({"annotation", "semantics"}),
                   require_semantics_wrapper=True),
    CompareOptions(strip_elements=frozenset({"semantics"})),
    CompareOptions(ignore_inferred_mrow=True, ignored_attributes=frozenset({"x"}),
                   strip_elements=frozenset({"annotation"})),
]
_LEAVES = st.builds(lambda element, text: MathMLNode(element, {}, [], text),
                    st.sampled_from(["mi", "mo", "mn"]), st.sampled_from("ab"))
_LAYOUT = ["mrow", "mrow", "semantics", "annotation", "msqrt", "mfrac", "mstyle"]
_NESTED = st.recursive(_LEAVES, lambda children: st.builds(
    MathMLNode, st.sampled_from(_LAYOUT),
    st.sampled_from([{}, {"x": "1"}, {"y": "2"}]), st.lists(children, max_size=3)),
    max_leaves=24)
_MATH = st.builds(lambda children: MathMLNode("math", {}, children),
                  st.lists(_NESTED, max_size=3))


def _rule_applies(node: MathMLNode, options: CompareOptions, root: bool = True) -> bool:
    """Whether some normalization rule would still change `node`'s subtree."""
    kids = node.children
    if any(options.ignores_attr(name) for name in node.attributes):
        return True
    if not root and node.element in options.strip_elements:
        return True
    if options.ignore_inferred_mrow and (
            not root and node.element == "mrow" and len(kids) == 1
            or node.element in _INFERRED_MROW_PARENTS and len(kids) == 1
            and kids[0].element == "mrow" and not kids[0].attributes):
        return True
    return any(_rule_applies(child, options, root=False) for child in kids)


@settings(max_examples=300, deadline=None)
@given(_MATH, st.sampled_from(_NORMALIZE_OPTIONS), st.data())
def test_normalize_properties(tree, options, data):
    snapshot = serialize(tree)
    once = normalize(tree, options)
    assert serialize(tree) == snapshot  # the input is not changed
    assert not _rule_applies(once, options)
    assert normalize(once, options) == once
    # Wrapping a run of siblings in a stripped element changes nothing.
    parents = [node for node in tree.iter() if not node.is_token()]
    parent = data.draw(st.sampled_from(parents))
    start = data.draw(st.integers(0, len(parent.children)))
    stop = data.draw(st.integers(start, len(parent.children)))
    wrapper = data.draw(st.sampled_from(sorted(options.strip_elements)))
    parent.children[start:stop] = [MathMLNode(wrapper, {}, parent.children[start:stop])]
    assert normalize(tree, options) == once


_MATHML_NS = ' xmlns="http://www.w3.org/1998/Math/MathML"'
# Root tags, each with a dressed variant that reads the same: in the MathML
# namespace, its attributes namespaced or in another order.
_ROOTS = [
    ("<math>", f"<math{_MATHML_NS}>"),
    ('<math display="block" x="1">', f'<math{_MATHML_NS} xmlns:m="urn:m" display="block" m:x="1">'),
    ('<math x="1" y="2">', f'<math{_MATHML_NS} y="2" x="1">'),
]


def _documents(tree: MathMLNode, roots: tuple[str, str]) -> tuple[str, str]:
    """`tree` serialized under the plain root, and dressed: under the other
    root, with whitespace around token text and between elements, and text
    before each first child."""
    plain, dressed = roots
    inner = serialize(tree)[len("<math>"):]
    padded = re.sub(r">([^<]+)<", r"> \1 <", inner)
    padded = re.sub(r"(<[a-z]+[^>]*>)(?=<[a-z])", r"\1 t ", padded).replace("><", ">\n  <")
    return plain + inner, dressed + padded


def _read(document: str, options: CompareOptions) -> tuple[list[int], list]:
    """The walk's arrays for a serialized document, as `batch_compare` reads it."""
    return _walk(ET.fromstring(document), options)


def _oracle_f1(a: MathMLNode, b: MathMLNode) -> float:
    items_a, items_b = items_oracle(a), items_oracle(b)
    matched = sum((items_a & items_b).values())
    precision = matched / sum(items_a.values())
    recall = matched / sum(items_b.values())
    return 2 * precision * recall / (precision + recall) if matched else 0.0


@settings(max_examples=150, deadline=None)
@given(_MATH, _MATH, st.sampled_from(_ROOTS), st.sampled_from(_ROOTS),
       st.sampled_from([CompareOptions(), *_NORMALIZE_OPTIONS, CompareOptions(
           strip_elements=frozenset({"annotation"}), require_semantics_wrapper=True)]))
def test_walk_matches_the_reference_path(tree_a, tree_b, roots_a, roots_b, options):
    """One walk over the parsed XML gives what reading, normalizing and
    walking the normalized copy gave, and reads a dressed document as the
    plain one; with no rules applied, it reads either as the recursive
    reader does."""
    expected = []
    documents = []
    for tree, roots in ((tree_a, roots_a), (tree_b, roots_b)):
        plain, dressed = _documents(tree, roots)
        lmld, items = _read(dressed, options)
        again = _read(plain, options)
        assert (lmld, _multiset(items)) == (again[0], _multiset(again[1]))
        read = from_xml_oracle(dressed)
        assert from_xml(dressed) == read and from_xml(plain) == from_xml_oracle(plain)
        reference = normalize_oracle(read, options)
        labels = [None] + [(element, text or "") for element, text, _ in items]
        assert (labels, lmld) == postorder_oracle(reference)
        multiset = Counter()
        for (element, text, attributes), count in _multiset(items).items():
            multiset[element, text, frozenset(attributes)] += count
        assert multiset == items_oracle(reference)
        assert serialize(normalize(read, options)) == serialize(reference)
        expected.append(reference)
        documents.append(dressed)
    (row,) = batch_compare([ComparePair("p", *documents)], options).rows
    assert row.ted == ted_recursive_oracle(*expected)
    assert row.f1 == _oracle_f1(*expected)


# -- F-score ------------------------------------------------------------------


def test_fscore_identity():
    tree = math("<mrow><mi>x</mi><mo>+</mo><mn>1</mn></mrow>")
    report = element_fscore(tree, tree)
    assert report.f1 == 1.0
    assert report.only_in_a == report.only_in_b == 0


@pytest.mark.parametrize("document", [
    "<math></math>",
    "<math><mrow><mi>x</mi><mo>+</mo><mi>x</mi></mrow>"
    "<mn mathvariant='bold' class='a'>1</mn><mn class='a' mathvariant='bold'>1</mn></math>",
])
def test_fscore_of_one_item_list_equals_that_of_its_copy(document):
    """Scoring a list against itself (an identical pair walked once) or an
    equal copy counts as matched what the multiset intersection counts."""
    items = _read(document, CompareOptions())[1]
    matched = sum((_multiset(items) & _multiset(list(items))).values())
    assert _fscore(items, items).matched == _fscore(items, list(items)).matched == matched
    assert _fscore(items, items) == _fscore(items, list(items))
    empty: list = []
    assert _fscore(empty, empty) == _fscore(empty, [])


def test_fscore_half():
    a = math("<mi>x</mi>")
    b = math("<mi>y</mi>")
    report = element_fscore(a, b)
    # multisets {math, mi:x} vs {math, mi:y}: one match out of two on each side
    assert report.precision == 0.5
    assert report.recall == 0.5
    assert report.f1 == 0.5


def test_fscore_ignore_mrow_makes_equal():
    a = math("<mrow><mi>x</mi></mrow>")
    b = math("<mi>x</mi>")
    assert element_fscore(a, b, CompareOptions(ignore_inferred_mrow=True)).f1 == 1.0
    assert element_fscore(a, b).f1 < 1.0


def test_fscore_symmetry():
    a = math("<mrow><mi>x</mi><mo>+</mo><mi>y</mi></mrow>")
    b = math("<mrow><mi>x</mi><mi>y</mi></mrow>")
    ab = element_fscore(a, b)
    ba = element_fscore(b, a)
    assert ab.f1 == ba.f1
    assert ab.precision == ba.recall
    assert ab.recall == ba.precision


def test_fscore_is_order_insensitive():
    a = math("<mrow><mi>x</mi><mo>+</mo><mi>y</mi></mrow>")
    b = math("<mrow><mi>y</mi><mo>+</mo><mi>x</mi></mrow>")
    assert element_fscore(a, b).f1 == 1.0
    # ...which is exactly where F-score and TED diverge by design
    assert tree_edit_distance(a, b).distance > 0


# -- tree edit distance --------------------------------------------------------


def test_ted_identity():
    tree = math("<mrow><mi>x</mi><mo>+</mo><mi>y</mi></mrow>")
    result = tree_edit_distance(tree, tree)
    assert result.distance == 0
    assert result.node_count_a == result.node_count_b == 5


def test_ted_single_rename():
    assert tree_edit_distance(math("<mi>x</mi>"), math("<mi>y</mi>")).distance == 1


def test_ted_single_delete_vs_oracle():
    a = math("<mrow><mi>x</mi><mo>+</mo><mi>y</mi></mrow>")
    b = math("<mrow><mi>x</mi><mi>y</mi></mrow>")
    got = tree_edit_distance(a, b).distance
    assert got == 1
    assert got == ted_mapping_oracle(a, b) == ted_recursive_oracle(a, b)


def test_ted_attributes_do_not_affect_labels():
    a = math('<mo stretchy="false">(</mo>')
    b = math("<mo>(</mo>")
    assert tree_edit_distance(a, b).distance == 0


def test_ted_bounds():
    a = math("<mi>x</mi>")
    b = math("<mrow><mi>a</mi><mi>b</mi><mi>c</mi></mrow>")
    result = tree_edit_distance(a, b)
    assert 0 < result.distance <= result.node_count_a + result.node_count_b


LABELS = [("mi", "x"), ("mi", "y"), ("mo", "+"), ("mn", "1"), ("mrow", None),
          ("mfrac", None), ("msup", None)]


def rand_tree(rng: random.Random, max_nodes: int) -> MathMLNode:
    count = rng.randint(1, max_nodes)
    nodes = []
    for _ in range(count):
        element, text = rng.choice(LABELS)
        nodes.append(MathMLNode(element, {}, [], text))
    for i in range(1, count):
        parent = nodes[rng.randrange(i)]
        parent.text = None
        parent.children.append(nodes[i])
    return nodes[0]


def test_ted_matches_oracles_on_random_trees():
    rng = random.Random(1234)
    for _ in range(120):
        a = rand_tree(rng, 6)
        b = rand_tree(rng, 6)
        got = tree_edit_distance(a, b).distance
        assert got == ted_mapping_oracle(a, b)
        assert got == ted_recursive_oracle(a, b)


def test_ted_metric_axioms():
    rng = random.Random(99)
    trees = [rand_tree(rng, 6) for _ in range(30)]
    for _ in range(300):
        a, b, c = rng.choice(trees), rng.choice(trees), rng.choice(trees)
        dab = tree_edit_distance(a, b).distance
        dba = tree_edit_distance(b, a).distance
        dac = tree_edit_distance(a, c).distance
        dbc = tree_edit_distance(b, c).distance
        assert tree_edit_distance(a, a).distance == 0
        assert dab == dba
        assert dac <= dab + dbc


def test_ted_zero_implies_f1_one():
    rng = random.Random(7)
    for _ in range(60):
        a = rand_tree(rng, 6)
        b = rand_tree(rng, 6)
        if tree_edit_distance(a, b, FULL_NORMALIZATION).distance == 0:
            assert element_fscore(a, b, FULL_NORMALIZATION).f1 == 1.0
        if element_fscore(a, b, FULL_NORMALIZATION).f1 < 1.0:
            assert tree_edit_distance(a, b, FULL_NORMALIZATION).distance > 0


def test_ted_same_postorder_labels_different_shape():
    # Both postorder label sequences are mi, mo, mrow.
    a = from_xml("<mrow><mo><mi>x</mi></mo></mrow>")
    b = from_xml("<mrow><mi>x</mi><mo/></mrow>")
    got = tree_edit_distance(a, b).distance
    assert got > 0
    assert got == ted_mapping_oracle(a, b) == ted_recursive_oracle(a, b)


def test_ted_equal_trees_report_normalized_node_counts():
    a = math("<mrow><mrow><mi>x</mi></mrow><mo>+</mo><mi>y</mi></mrow>")
    b = math('<mrow><mi mathvariant="italic">x</mi><mo>+</mo><mrow><mi>y</mi></mrow></mrow>')
    result = tree_edit_distance(a, b, FULL_NORMALIZATION)
    # math(mi, mo, mi): the mrows are spliced out, the attribute dropped
    assert (result.distance, result.node_count_a, result.node_count_b) == (0, 4, 4)
    unnormalized = tree_edit_distance(a, b)
    assert (unnormalized.node_count_a, unnormalized.node_count_b) == (6, 6)


@pytest.mark.parametrize("options", [CompareOptions(), FULL_NORMALIZATION])
def test_a_tree_compares_equal_to_its_xml_read_back(registry, options):
    """Token text is read by one rule on both sides: a tree and its own
    serialization, read back, are at distance 0 with F1 1.0, also where the
    text has surrounding spaces or is empty."""
    cases = json.loads((CORPORA / "combined_423.json").read_text("utf-8"))["cases"]
    sources = [(case["input"], case["options"].get("chem", False)) for case in cases]
    for source, chem in sources + [(r"\text{ if }", False), (r"\text{}", False)]:
        tree = to_mathml(parse(source, registry, allow_chem=chem).ast, registry)
        back = from_xml(serialize(tree))
        assert tree_edit_distance(tree, back, options).distance == 0, source
        assert element_fscore(tree, back, options).f1 == 1.0, source


# Up to 30 nodes over a two- or three-letter alphabet, so that equal label
# sequences and equal subtrees are common: (label, parent pick) per node in
# preorder, node i hanging under node pick % i.
_SHAPES = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2 ** 16)),
                   min_size=1, max_size=30)
_EDITS = st.lists(st.tuples(st.integers(0, 29), st.integers(0, 2), st.integers(0, 2 ** 16)),
                  max_size=3)


def _tree(shape, alphabet: int) -> MathMLNode:
    nodes = [MathMLNode(("mi", "mo", "mrow")[label % alphabet]) for label, _ in shape]
    for i in range(1, len(nodes)):
        nodes[shape[i][1] % i].children.append(nodes[i])
    return nodes[0]


@settings(max_examples=200, deadline=None)
@given(_SHAPES, _SHAPES, _EDITS, st.sampled_from([2, 3]))
def test_ted_matches_recursive_oracle_on_small_alphabets(shape_a, shape_b, edits, alphabet):
    """An unrelated tree, and A itself after up to three label or parent edits."""
    a = _tree(shape_a, alphabet)
    edited = list(shape_a)
    for index, label, parent in edits:
        if index < len(edited):
            edited[index] = (label, parent)
    for b in (_tree(shape_b, alphabet), _tree(edited, alphabet)):
        result = tree_edit_distance(a, b)
        assert result.distance == ted_recursive_oracle(a, b)
        assert (result.node_count_a, result.node_count_b) == (len(shape_a), len(list(b.iter())))


def _arrays(a: MathMLNode, b: MathMLNode):
    """The kernel's input: postorder label codes and leftmost leaves of a and b."""
    (labels_a, lmld_a), (labels_b, lmld_b) = postorder_oracle(a), postorder_oracle(b)
    codes: dict = {}
    la = [codes.setdefault(label, len(codes)) for label in labels_a]
    lb = [codes.setdefault(label, len(codes)) for label in labels_b]
    return la, lmld_a, lb, lmld_b


@settings(max_examples=400, deadline=None)
@given(_SHAPES, _SHAPES, _EDITS, st.sampled_from([2, 3]))
@example([(1, 0), (0, 0), (0, 0), (1, 2), (1, 3), (1, 2)],
         [(0, 0), (0, 0), (0, 1), (0, 0), (0, 3), (1, 0), (1, 5)], [], 3)
@example([(2, 0), (2, 0), (0, 1), (2, 2), (2, 3), (1, 1), (2, 0), (0, 6), (2, 7)],
         [(1, 0), (0, 0), (2, 1), (2, 0), (1, 3), (0, 4), (1, 5), (2, 6), (2, 3)], [], 3)
def test_kernel_matches_the_recursive_oracle(shape_a, shape_b, edits, alphabet):
    """The kernel alone, past the bounds that settle many of these pairs
    before it runs in tree_edit_distance."""
    a = _tree(shape_a[:20], alphabet)
    edited = list(shape_a[:20])
    for index, label, parent in edits:
        if index < len(edited):
            edited[index] = (label, parent)
    for b in (_tree(shape_b[:20], alphabet), _tree(edited, alphabet)):
        assert _ted(*_arrays(a, b)) == ted_recursive_oracle(a, b)


@settings(max_examples=200, deadline=None)
@given(_SHAPES, _SHAPES, _EDITS, st.sampled_from([2, 3]))
@example([(0, 0)], [(1, 0)], [], 2)  # one node each
def test_bounds_enclose_the_distance(shape_a, shape_b, edits, alphabet):
    """Histogram and rename bounds, and the postorder string distance, which
    is checked against the plain DP also on strings past 64 codes, where
    its bit vectors take more than one machine word."""
    a = _tree(shape_a, alphabet)
    edited = list(shape_a)
    for index, label, parent in edits:
        if index < len(edited):
            edited[index] = (label, parent)
    for b in (_tree(shape_b, alphabet), _tree(edited, alphabet)):
        arrays = _arrays(a, b)
        low, high = _bounds(*arrays)
        sa, sb = arrays[0][1:], arrays[2][1:]
        string = _levenshtein(sa, sb)
        assert string == levenshtein_oracle(sa, sb)
        assert max(low, string) <= ted_recursive_oracle(a, b) <= high
        long_a, long_b = sa * (64 // len(sa) + 1), sb * (64 // len(sb) + 1)
        assert _levenshtein(long_a, long_b) == levenshtein_oracle(long_a, long_b)


def _corpus_pieces() -> list[MathMLNode]:
    cases = json.loads((CORPORA / "combined_423.json").read_text("utf-8"))["cases"]
    return [body for case in cases for body in from_xml(case["expect"]["mathml"]).children]


def _edited(rng: random.Random, tree: MathMLNode, edits: int) -> MathMLNode:
    """A copy of `tree` after `edits` renames, node deletions or node insertions."""
    out = copy_tree(tree)
    for _ in range(edits):
        kind = rng.choice(("rename", "delete", "insert"))
        if kind == "rename":
            node = rng.choice(list(out.iter())[1:])  # never the root
            if node.text is None:
                node.element = "mstyle" if node.element != "mstyle" else "mpadded"
            else:
                node.text = "q" if node.text != "q" else "+"
            continue
        node = rng.choice([node for node in out.iter() if node.children])
        if kind == "delete":  # a child gives way to its children
            spot = rng.randrange(len(node.children))
            child = node.children[spot]
            if child.text is None:
                node.children[spot:spot + 1] = child.children
            else:
                del node.children[spot]
        else:  # a new mrow above a run of the node's children
            start = rng.randrange(len(node.children) + 1)
            end = rng.randrange(start, len(node.children) + 1)
            node.children[start:end] = [MathMLNode("mrow", {}, node.children[start:end])]
    return out


def test_kernel_matches_the_oracle_on_edited_corpus_trees():
    """80-200 node trees from corpus formulas against copies with up to five
    renames, deletions or insertions: small distances, mostly between trees
    of different shapes, where the bounds stay apart."""
    rng = random.Random(2005)
    pieces = [piece for piece in _corpus_pieces() if len(list(piece.iter())) <= 40]
    for _ in range(40):
        target = rng.randint(80, 200)
        children: list[MathMLNode] = []
        while sum(len(list(child.iter())) for child in children) < target:
            children.append(copy_tree(rng.choice(pieces)))
        a = MathMLNode("math", {}, [MathMLNode("mrow", {}, children)])
        b = _edited(rng, a, rng.randint(1, 5))
        expected = ted_recursive_oracle(a, b)
        assert 0 < expected
        assert _ted(*_arrays(a, b)) == tree_edit_distance(a, b).distance == expected


def _kernel_runs(monkeypatch, a: MathMLNode, b: MathMLNode) -> tuple[int, int]:
    """The distance, and how many kernel runs it took."""
    runs = []

    def recording(*args):
        runs.append(args)
        return _ted(*args)

    monkeypatch.setattr(similarity, "_ted", recording)
    return tree_edit_distance(a, b).distance, len(runs)


def test_loose_bounds_take_one_kernel_run(monkeypatch):
    """One leaf moves from under an mrow to under the next: the labels and
    sizes are equal, so L = 0, and the shapes differ, so U = m + n and the
    string bound is not taken.  TED = 2."""
    names = [f"<mi>{c}</mi>" for c in "abcdefghijklmnopqrst"]
    a = math("<mrow>" + names[0] + "<mrow>" + names[1] + "</mrow>" + "".join(names[2:]) + "</mrow>")
    b = math("<mrow><mrow>" + names[0] + "</mrow>" + "".join(names[1:]) + "</mrow>")
    assert _bounds(*_arrays(a, b)) == (0, 46)
    distance, runs = _kernel_runs(monkeypatch, a, b)
    assert distance == 2 == ted_recursive_oracle(a, b)
    assert runs == 1


def test_string_bound_settles_swapped_labels(monkeypatch):
    """Two swapped labels leave the histograms equal: L = 0 and U = 2.  The
    postorder strings are 2 apart, so the pair needs no kernel run."""
    names = [f"<mi>{c}</mi>" for c in "abcdefghijklmnopqrst"]
    a = math("<mrow>" + "".join(names) + "</mrow>")
    names[3], names[11] = names[11], names[3]
    b = math("<mrow>" + "".join(names) + "</mrow>")
    assert _bounds(*_arrays(a, b)) == (0, 2)
    distance, runs = _kernel_runs(monkeypatch, a, b)
    assert distance == 2 == ted_recursive_oracle(a, b)
    assert runs == 0


# -- batch comparison -----------------------------------------------------------


def test_batch_self_pairs():
    doc = serialize(math("<mrow><mi>x</mi><mo>+</mo><mi>y</mi></mrow>"))
    pairs = [ComparePair(f"p{i}", doc, doc) for i in range(5)]
    report = batch_compare(pairs)
    assert report.formula_count == 5
    assert report.overall_ted == 0
    assert report.average_ted == 0.0


def test_batch_arithmetic():
    base = serialize(math("<mrow><mi>x</mi><mo>+</mo><mi>y</mi></mrow>"))
    one_off = serialize(math("<mrow><mi>x</mi><mo>+</mo><mi>z</mi></mrow>"))
    three_off = serialize(math("<mi>q</mi>"))
    report = batch_compare([
        ComparePair("a", base, one_off),
        ComparePair("b", base, three_off),
    ])
    assert report.overall_ted == sum(r.ted for r in report.rows)
    assert report.average_ted == report.overall_ted / 2
    assert f"{report.average_ted:.3f}" in format_report_table(report)


def test_batch_surfaces_xml_failures():
    good = serialize(math("<mi>x</mi>"))
    report = batch_compare([
        ComparePair("ok", good, good),
        ComparePair("broken", "<math><mi>x</mi>", good),
    ])
    assert report.formula_count == 1
    assert len(report.errors) == 1
    assert "broken" in report.errors[0]
    assert any(r.error for r in report.rows)
    assert format_report_table(report).startswith("!")


def test_batch_reads_back_the_deepest_conversion():
    # 128 nested matrices with a TeX annotation: about 640 levels of MathML
    doc = convert_formula("\\begin{pmatrix} a " * 128 + "\\end{pmatrix}" * 128,
                          options=GenOptions(wrap_semantics=True, annotate_tex=True))
    (row,) = batch_compare([ComparePair("deep", doc, doc)]).rows
    assert (row.ted, row.f1, row.error) == (0, 1.0, None)


def _chain(depth: int) -> str:
    return "<math>" + "<mrow>" * depth + "<mi>x</mi>" + "</mrow>" * depth + "</math>"


@pytest.mark.parametrize("options", [CompareOptions(), FULL_NORMALIZATION])
def test_batch_survives_any_nesting_depth(options):
    """A deep pair compares, byte-identical or not, at every depth around
    the recursion limit."""
    limit = sys.getrecursionlimit()
    for depth in [400, *range(limit - 100, limit + 1), 2000]:
        doc = _chain(depth)
        spaced = doc.replace("<mi>x</mi>", "<mi> x </mi>")  # read as `doc`, but walked
        report = batch_compare([ComparePair("chain", doc, doc),
                                ComparePair("spaced", doc, spaced)], options)
        for row in report.rows:
            assert (row.ted, row.f1, row.error) == (0, 1.0, None), depth
        assert report.errors == () and report.formula_count == 2


_DEEP = _chain(2000)


def _stack_depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def _from_depth(frames: int, call):
    """`call()` from a caller `frames` frames deep, counting every frame on
    the stack."""
    return call() if _stack_depth() >= frames else _from_depth(frames, call)


def test_batch_compares_a_deep_document_from_a_deep_caller():
    """Documents of any depth compare, and read into a tree, from a caller
    near the recursion limit too: a chain of n mrows is n deletions from its
    leaf, none once single-child mrows give way."""
    depths = (2000, 100_000)
    pairs = [ComparePair(str(depth), _chain(depth), "<math><mi>x</mi></math>")
             for depth in depths]
    for options, distances in ((CompareOptions(), {"2000": 2000, "100000": 100_000}),
                               (FULL_NORMALIZATION, {"2000": 0, "100000": 0})):
        report = _from_depth(950, lambda: batch_compare(pairs, options))
        assert {row.id: row.ted for row in report.rows} == distances
        assert report.errors == () and all(row.error is None for row in report.rows)
    for depth, pair in zip(depths, pairs):
        tree = _from_depth(950, lambda: from_xml(pair.a))
        assert sum(1 for _ in tree.iter()) == depth + 2  # the math root, the mrows, the leaf
        assert _from_depth(950, lambda: tree == from_xml(pair.a))


def test_batch_reads_an_identical_pair_once(monkeypatch):
    """A byte-identical pair is parsed once and not walked.  A document that
    does not parse gives the one error row and message it gives against any
    other document."""
    doc = serialize(math("<mrow><mi>x</mi><mo>+</mo><mi>y</mi></mrow>"))
    bad, prefix = "<math><mi>x</mi>", "p: XML parse failure: "
    report = batch_compare([ComparePair("p", bad, bad)])
    assert report == batch_compare([ComparePair("p", bad, doc)])
    (error,) = report.errors
    (row,) = report.rows
    assert error.startswith(prefix) and error == prefix + row.error
    calls = Counter()

    def counting(name, function):
        def call(*args):
            calls[name] += 1
            return function(*args)
        return call

    monkeypatch.setattr(ET, "fromstring", counting("parse", ET.fromstring))
    monkeypatch.setattr(similarity, "_walk", counting("walk", _walk))
    (row,) = batch_compare([ComparePair("p", doc, doc)]).rows
    assert (row.ted, row.f1, row.error) == (0, 1.0, None)
    assert calls == {"parse": 1}


def test_comparison_leaves_no_garbage():
    """No call leaves a reference cycle behind for the cyclic collector."""
    a = math("<mrow><mi>x</mi><mo>+</mo><msqrt><mrow><mi>y</mi></mrow></msqrt></mrow>")
    b = math('<mrow><mi>x</mi><mo stretchy="false">-</mo><mi>z</mi></mrow>')
    pair = ComparePair("p", serialize(a), _MATHML_NS.join(["<math", serialize(b)[5:]]))
    options = CompareOptions(ignore_inferred_mrow=True, require_semantics_wrapper=True)
    pairs = [pair, ComparePair("malformed", "<math><mi>x</mi>", "<math><mi>x</mi>"),
             ComparePair("deep", _DEEP, _DEEP),
             ComparePair("deep and leaf", _DEEP, "<math><mi>x</mi></math>")]
    calls = [lambda: tree_edit_distance(a, b, options), lambda: element_fscore(a, b, options),
             lambda: batch_compare(pairs, options)]
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_report_table_shape():
    doc = serialize(math("<mi>x</mi>"))
    table = format_report_table(batch_compare([ComparePair("p", doc, doc)]))
    lines = table.splitlines()
    assert lines[0].startswith("Number of formulas")
    assert lines[1].startswith("Overall TED")
    assert lines[2].startswith("Average TED")
    assert lines[3].startswith("Average F1")


def test_two_renderer_corpus_against_oracle():
    data = json.loads((CORPORA / "two_renderer.json").read_text("utf-8"))
    options = CompareOptions(strip_elements=frozenset({"annotation"}),
                             require_semantics_wrapper=True)
    pairs = [ComparePair(p["id"], p["a_inline"], p["b_inline"])
             for p in data["pairs"]]
    report = batch_compare(pairs, options)
    expected = 0
    for pair in pairs:
        a = normalize(from_xml(pair.a), options)
        b = normalize(from_xml(pair.b), options)
        expected += ted_recursive_oracle(a, b)
    assert report.overall_ted == expected
    assert report.average_ted == expected / len(pairs)
