"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line on success (pytest shows it with -s);
a failure reads as the criterion number plus the offending detail.
"""

from __future__ import annotations

import json
import random
import time
import xml.dom.minidom as minidom

import pytest

from conftest import CORPORA, FIXTURES
from coverage_corpus import coverage_corpus
from oracles import (
    command_names,
    preprocess_oracle,
    ted_mapping_oracle,
    ted_recursive_oracle,
)
from texmathc import (
    check_formula,
    convert_formula,
    from_xml,
    parse,
    parse_intent,
    render_tex,
)
from texmathc.cache import RenderCache
from texmathc.diagnostics import E_INTENT_SYNTAX, IntentError
from texmathc.intent import HINTS, STRUCTURE_KINDS
from texmathc.mathml import GenOptions
from texmathc.similarity import (
    CompareOptions,
    ComparePair,
    batch_compare,
    element_fscore,
    normalize,
    tree_edit_distance,
)


def _load_combined():
    return json.loads((CORPORA / "combined_423.json").read_text("utf-8"))["cases"]


def _case_options(case):
    raw = case.get("options", {})
    return (GenOptions(display=raw.get("display", "inline")), raw.get("chem", False))


def test_criterion_1_registry_coverage(registry):
    started = time.monotonic()
    failures = []
    cases = coverage_corpus(registry)
    assert len(cases) == len(registry.commands)
    for cid, source, chem in cases:
        try:
            output = convert_formula(source, chem=chem)
            minidom.parseString(output)  # independent well-formedness checker
        except Exception as exc:
            failures.append((cid, str(exc)))
    elapsed = time.monotonic() - started
    assert not failures, failures[:10]
    assert elapsed < 10.0, f"coverage run took {elapsed:.1f}s"
    print(f"\nPASS criterion-1: {len(cases)} registry commands convert "
          f"to well-formed XML in {elapsed:.2f}s")


def test_criterion_2_figure2_fixtures():
    cases = json.loads((FIXTURES / "figure2.json").read_text("utf-8"))["cases"]
    assert len(cases) == 8
    options = CompareOptions(ignore_inferred_mrow=True, ignored_attributes="all")
    for case in cases:
        output = convert_formula(case["input"],
                                 options=GenOptions(display=case["display"]))
        score = element_fscore(from_xml(output), from_xml(case["mathml"]), options)
        assert score.f1 == 1.0, (case["id"], score)
    print("\nPASS criterion-2: all 8 reference fixtures match at F1 = 1.0")


LABELS = [("mi", "x"), ("mi", "y"), ("mo", "+"), ("mn", "1"), ("mrow", None),
          ("mfrac", None)]


def _random_tree(rng, max_nodes):
    from texmathc.mathml import MathMLNode

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


def test_criterion_3_ted_oracle_and_axioms():
    started = time.monotonic()
    rng = random.Random(20240101)
    mismatches = 0
    for _ in range(500):
        a = _random_tree(rng, 6)
        b = _random_tree(rng, 6)
        if tree_edit_distance(a, b).distance != ted_mapping_oracle(a, b):
            mismatches += 1
    assert mismatches == 0
    trees = [_random_tree(rng, 6) for _ in range(60)]
    for _ in range(1000):
        a, b, c = rng.choice(trees), rng.choice(trees), rng.choice(trees)
        dab = tree_edit_distance(a, b).distance
        assert tree_edit_distance(a, a).distance == 0
        assert dab == tree_edit_distance(b, a).distance
        assert tree_edit_distance(a, c).distance <= dab + tree_edit_distance(b, c).distance
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"\nPASS criterion-3: 500 oracle comparisons exact, 1000 triples "
          f"satisfy metric axioms in {elapsed:.2f}s")


def test_criterion_4_table_shape():
    data = json.loads((CORPORA / "two_renderer.json").read_text("utf-8"))
    options = CompareOptions(strip_elements=frozenset({"annotation"}),
                             require_semantics_wrapper=True)
    pairs = [ComparePair(p["id"], p["a_inline"], p["b_inline"])
             for p in data["pairs"]]
    report = batch_compare(pairs, options)
    expected_overall = sum(
        ted_recursive_oracle(normalize(from_xml(p.a), options),
                             normalize(from_xml(p.b), options))
        for p in pairs)
    assert report.overall_ted == expected_overall
    assert report.formula_count == len(pairs)
    rendered_average = f"{report.average_ted:.3f}"
    assert rendered_average == f"{report.overall_ted / len(pairs):.3f}"
    print(f"\nPASS criterion-4: overall TED {report.overall_ted} equals the "
          f"oracle sum; average reported as {rendered_average}")


def _intent_positives(rng):
    fixed = [
        "open-interval($x,$y)",
        "imaginary-part", "binomial-coefficient", "_private", "a",
        "0", "7", "42", "-1", "3.5", "-3.5", "0.001",
        "$x", "$arg-name", "$x2",
        "f()", "f($x)", "f(1,2,3)", "f(g(h(1)))", "f(x)(y)",
        "power($base,$exp)", "root(:common,$x)",
        "divide( $a , $b )",
    ]
    fixed += [":" + kind for kind in sorted(STRUCTURE_KINDS)]
    fixed += [f"op@{hint}($a,$b)" for hint in sorted(HINTS)]

    def gen_expr(depth):
        roll = rng.random()
        if depth <= 0 or roll < 0.35:
            return rng.choice(["velocity", "x", "mass-of", "_tmp", "q9",
                               "3", "-2.5", "10.01", "$a", "$b", "$idx",
                               ":common", ":matrix"])
        head = rng.choice(["plus", "times", "interval", "set", "f"])
        hint = rng.choice(["", "@infix", "@prefix", "@silent", "@function"])
        args = ",".join(gen_expr(depth - 1) for _ in range(rng.randint(0, 3)))
        return f"{head}{hint}({args})"

    generated = {gen_expr(3) for _ in range(40)}
    return fixed + sorted(generated)


def _mutate(expr, rng):
    """One guaranteed-illegal token edit."""
    mutators = [
        lambda s: s + "(",                 # unbalanced open
        lambda s: s + ")",                 # trailing close
        lambda s: "$" + "1" + s,           # reference with leading digit
        lambda s: ":" + s + ":",           # stray colon
        lambda s: s + "@nosuchhint()",     # unknown hint
        lambda s: "," + s,                 # leading separator
        lambda s: s.replace("(", "((", 1) if "(" in s else s + "((",
        lambda s: s + " $",                # bare reference sigil
        lambda s: s + "..",                # illegal token
        lambda s: "--" + s,                # double sign
    ]
    return rng.choice(mutators)(expr)


def test_criterion_5_intent_grammar():
    rng = random.Random(77)
    positives = _intent_positives(rng)
    assert len(positives) >= 50
    for text in positives:
        parse_intent(text)  # must not raise
    negatives = []
    seen = set(positives)
    while len(negatives) < 50:
        mutated = _mutate(rng.choice(positives), rng)
        if mutated not in seen:
            seen.add(mutated)
            negatives.append(mutated)
    for text in negatives:
        with pytest.raises(IntentError) as err:
            parse_intent(text)
        assert err.value.diagnostic.code == E_INTENT_SYNTAX, text
    print(f"\nPASS criterion-5: {len(positives)} positives parse, "
          f"{len(negatives)} mutated negatives rejected")


def test_criterion_6_intent_injection():
    annotated = convert_formula("\\intent{(x,y)}{intent='open-interval($x,$y)'}")
    tree = from_xml(annotated)
    row = tree.children[0]
    assert row.element == "mrow"
    assert row.attributes.get("intent") == "open-interval($x,$y)"
    args = {n.text: n.attributes.get("arg") for n in row.iter() if n.element == "mi"}
    assert args == {"x": "x", "y": "y"}
    plain = from_xml(convert_formula("(x,y)"))
    options = CompareOptions(ignore_inferred_mrow=True, ignored_attributes="all")
    distance = tree_edit_distance(tree, plain, options).distance
    assert distance == 0
    print("\nPASS criterion-6: intent and arg attributes land on the fence "
          "mrow and identifiers; structural TED is 0")


def test_criterion_7_mhchem_subset(registry):
    cases = json.loads((CORPORA / "mhchem_conformance.json").read_text("utf-8"))["cases"]
    assert len(cases) >= 116
    for case in cases:
        expanded = preprocess_oracle(case["input"])
        result = parse(expanded, registry, allow_chem=True)
        assert result.ok, (case["id"], result.errors)
        convert_formula(case["input"], chem=True)
        assert preprocess_oracle(expanded) == expanded, case["id"]
    print(f"\nPASS criterion-7: {len(cases)} chemistry cases expand, re-parse, "
          "convert; preprocessing is idempotent")


def _fuzz_inputs(registry, total):
    rng = random.Random(0xF022)
    valid = [source for _, source, chem in coverage_corpus(registry) if not chem]
    specials = list("\\{}^_&%$#~ []()|ABCxyz0123456789")
    produced = 0
    while produced < total:
        if produced % 2 == 0:
            length = rng.randint(0, 40)
            raw = bytes(rng.randrange(256) for _ in range(length))
            yield raw.decode("utf-8", errors="replace")
        else:
            base = list(rng.choice(valid))
            for _ in range(rng.randint(1, 4)):
                action = rng.randrange(3)
                pos = rng.randrange(len(base) + 1)
                if action == 0:
                    base.insert(pos, rng.choice(specials))
                elif action == 1 and base:
                    del base[min(pos, len(base) - 1)]
                elif base:
                    base[min(pos, len(base) - 1)] = rng.choice(specials)
            yield "".join(base)
        produced += 1


def test_criterion_8_robustness(registry):
    total = 100_000
    started = time.monotonic()
    slowest = 0.0
    for source in _fuzz_inputs(registry, total):
        t0 = time.monotonic()
        result = parse(source, registry)
        dt = time.monotonic() - t0
        slowest = max(slowest, dt)
        assert dt < 1.0, f"parse took {dt:.2f}s on {source!r}"
        if result.ok:
            for name in command_names(result.ast):
                assert registry.lookup(name) is not None, (source, name)
    elapsed = time.monotonic() - started
    print(f"\nPASS criterion-8: {total} fuzz inputs, no crash, slowest parse "
          f"{slowest * 1000:.1f}ms, total {elapsed:.1f}s")


def test_criterion_9_round_trip(registry):
    checked = 0
    for case in _load_combined():
        _, chem = _case_options(case)
        source = preprocess_oracle(case["input"]) if chem else case["input"]
        first = parse(source, registry, allow_chem=chem)
        assert first.ok, case["id"]
        second = parse(render_tex(first.ast), registry, allow_chem=chem)
        assert second.ok and second.ast == first.ast, case["id"]
        checked += 1
    cases = json.loads((CORPORA / "mhchem_conformance.json").read_text("utf-8"))["cases"]
    for case in cases:
        source = preprocess_oracle(case["input"])
        first = parse(source, registry, allow_chem=True)
        second = parse(render_tex(first.ast), registry, allow_chem=True)
        assert second.ok and second.ast == first.ast, case["id"]
        checked += 1
    print(f"\nPASS criterion-9: {checked} corpus cases round-trip through "
          "corrected TeX unchanged")


def test_criterion_10_throughput():
    cases = _load_combined()
    assert len(cases) == 423
    started = time.monotonic()
    for case in cases:
        options, chem = _case_options(case)
        diagnostics = check_formula(case["input"], chem=chem)
        assert not any(d.severity == "error" for d in diagnostics), case["id"]
        convert_formula(case["input"], chem=chem, options=options)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"423-case corpus took {elapsed:.2f}s"
    print(f"\nPASS criterion-10: 423 cases validate + convert in {elapsed:.2f}s")


def test_criterion_11_cache_semantics(tmp_path):
    cache = RenderCache(tmp_path / "cache")
    events: list[str] = []
    convert = lambda: convert_formula("x^2", cache=cache, log=events.append)
    first = convert()
    second = convert()
    cache.purge()
    third = convert()
    assert first == second == third
    kinds = [e.split()[1] for e in events]
    assert kinds == ["miss", "hit", "miss"]
    # cache on vs cache off across the full corpus
    for case in _load_combined():
        options, chem = _case_options(case)
        with_cache = convert_formula(case["input"], chem=chem, options=options,
                                     cache=cache)
        without = convert_formula(case["input"], chem=chem, options=options)
        assert with_cache == without, case["id"]
    print("\nPASS criterion-11: miss/hit/miss cycle with byte-identical "
          "output; cache on == cache off across 423 cases")
