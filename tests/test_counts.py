"""Per-pass counts of the corpus batch path: deterministic, no timings.

One pass over the 552 corpus formulas (the 423 combined cases and the 129
mhchem conformance inputs), as the corpus benchmark runs it: check each
source, convert it under its own options, and check it with an unknown
command appended.  The counts are what the library does in that pass, read
by wrapping `tokenize`, `token_ends` and `to_mathml` where the library
calls them.  A change that moves a count edits it here and says why.
"""

from __future__ import annotations

import json
from collections import Counter

from conftest import CORPORA
from texmathc import check_formula, convert_formula, generator, parser, pipeline
from texmathc.mathml import GenOptions


def _formulas():
    combined = json.loads((CORPORA / "combined_423.json").read_text("utf-8"))["cases"]
    chem = json.loads((CORPORA / "mhchem_conformance.json").read_text("utf-8"))["cases"]
    return ([(c["input"], bool(c["options"].get("chem")), c["options"].get("display", "inline"))
             for c in combined] + [(c["input"], True, "inline") for c in chem])


def _errors(source, chem):
    return [d.code for d in check_formula(source, chem=chem) if d.severity == "error"]


def test_corpus_pass_counts(monkeypatch):
    counts, step = Counter(), ""
    tokenize, token_ends, to_mathml = parser.tokenize, parser.token_ends, generator.to_mathml

    def counted_tokenize(source):
        tokens = tokenize(source)
        counts[f"{step} tokens"] += len(tokens)
        return tokens

    def counted_token_ends(source):
        counts[f"{step} offsets"] += 1
        return token_ends(source)

    def counted_to_mathml(*args):
        tree = to_mathml(*args)
        counts[f"{step} nodes"] += sum(1 for _ in tree.iter())
        return tree

    monkeypatch.setattr(parser, "tokenize", counted_tokenize)
    monkeypatch.setattr(parser, "token_ends", counted_token_ends)
    monkeypatch.setattr(pipeline, "to_mathml", counted_to_mathml)
    monkeypatch.setattr(generator, "to_mathml", counted_to_mathml)  # as `parse` imports it
    formulas = _formulas()
    assert len(formulas) == 552
    for source, chem, display in formulas:
        step = "check"
        assert _errors(source, chem) == []
        step = "convert"
        output = convert_formula(source, chem=chem, options=GenOptions(display=display))
        counts["output bytes"] += len(output.encode("utf-8"))
        step = "unknown"
        assert _errors(source + " \\zzbenchunknown", chem) == ["E_UNKNOWN_COMMAND"]
    # 12,924 tokens: each source read twice, its variant once; 3,580 nodes in
    # the 552 converted trees, and 10 more each time `parse` generates one of the
    # two `\intent` sources to bind its references: once in check, once in convert;
    # token offsets only where a parse needs a span: 150 sources (140 with
    # chemistry, 5 with a raw argument, 3 that warn, 2 with `\intent`) in each of
    # check and convert, and every variant, whose unknown command fails
    assert counts == {
        "check tokens": 4_124, "convert tokens": 4_124, "unknown tokens": 4_676,
        "check offsets": 150, "convert offsets": 150, "unknown offsets": 552,
        "convert nodes": 3_590, "check nodes": 10, "output bytes": 60_118,
    }
