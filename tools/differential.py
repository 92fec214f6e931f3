#!/usr/bin/env python3
"""Run two revisions of texmathc on the same inputs and report every output
that differs.

    python3 tools/differential.py BASE [HEAD] [--expect FILE] [--count N]

BASE and HEAD are git revisions; without HEAD the working tree is the head
side.  Each revision is extracted with ``git archive`` into a temporary
directory (no worktree is registered) and run in its own subprocess, which
imports ``texmathc`` from that tree's ``src/`` and writes one JSON line per
(entry point, input).  Both subprocesses run this file's worker on the same
inputs file, so only the package differs.  Lines are compared as they
arrive.

Inputs, built once from SEED:

* the sources of ``corpora/combined_423.json`` and
  ``corpora/mhchem_conformance.json``, and the pairs of
  ``corpora/two_renderer.json``;
* COUNT generated sources, a quarter of each shape: splices of corpus
  sources; random joins of PIECES (scripts, ``\\sqrt[``, infix commands,
  ``\\text{``, ``\\{``, ``\\\\``, a lone ``\\``, unbalanced braces, ``\\intent``
  fragments, non-ASCII text); ``\\ce``/``\\pu`` commands and random joins
  around them whose bodies have the shapes of ``tools/gen_chem_expansions.py``;
* chains of 128 and 129 levels of every form of nesting, the same chains
  126 to 128 levels deep around each of CHEM_CORES, and numbers of
  LONG_DIGITS digits in plain TeX and in a ``\\pu`` exponent;
* COUNT // 10 ``\\ce``/``\\pu`` commands, each followed by one of
  CHEM_TAILS (scripts, primes) and inside a ``\\sqrt[…]`` index, alone and
  beside other items;
* GENERATION_FAILURES, sources that are well formed but whose intent
  references do not bind to the generated tree, so that ``parse`` refuses
  them after generating it (``E_INTENT_UNBOUND_REF``,
  ``E_INTENT_AMBIGUOUS_REF``): a name bound nowhere, one bound twice, the
  same after a deprecated command, a name an ``arg`` pair gives an absent
  identifier, and the name of a command for its identifier;
* COUNT // 3 chemistry bodies for ``expand_ce``/``expand_pu``;
* MathML pairs: the two-renderer pairs, neighbouring reference outputs of
  the combined corpus, seeded random trees against one another, against
  a copy and against a copy with one token changed, and ``<mrow>`` chains of
  CHAIN_DEPTHS levels against a leaf and against themselves.

Entry points: ``check_formula`` (chemistry off and on); ``convert_formula``
bytes or diagnostics under display {inline, block} x {plain, semantics,
semantics + annotation} x chemistry {off, on}; the ``render_tex`` round trip
(the corrected TeX and whether it re-parses to the same tree);
``expand_ce``/``expand_pu``; ``batch_compare(...).to_dict()`` under
COMPARE_OPTIONS, on batches of BATCH pairs; ``from_xml`` of each side of each
pair (every node's element, text, attributes and child count, in document
order); ``tree_edit_distance`` (the distance and both node counts) and
``element_fscore`` under COMPARE_OPTIONS, on each pair read by ``from_xml``.

Every entry point runs under the default registry only, so a change to how
the parser reads a registry row (a command admitted without its row, a
``deprecated`` flag that does not warn) shows here only when that registry
is affected; ``tests/test_registry.py`` covers every row removed and every
row marked deprecated.

The report gives, per entry point, how many outcomes were compared and how
many differ, then the first SHOW differing cases of each.  The exit
status is 1 when a difference is not listed in the ``--expect`` file, 0
otherwise.  That file holds one JSON object per line: ``entry`` (an entry
point name, or a prefix of one ending before a ``/``) and either ``input``
(the exact source, body or batch name) or ``pattern`` (a regular expression
searched in it).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 20261019
SHOW = 5  # differing cases shown per entry point
COUNT = 60000
BATCH = 50
LONG_DIGITS = 4400
PIECES = (
    "x", "y", "2", "10", "+", "-", "=", ".", ",", " ", "^", "_", "^{", "_{", "{", "}", "}}",
    "\\sum", "\\int", "\\alpha", "\\sqrt", "\\sqrt[", "]", "\\frac", "\\over", "\\choose",
    "\\atop", "\\hat", "\\mathbf", "\\left(", "\\right)", "\\left.", "\\right\\}", "\\{",
    "\\}", "\\\\", "&", "\\", "\\begin{pmatrix}", "\\end{pmatrix}", "\\text{", "\\text{a b}",
    "\\operatorname{", "\\intent{", "\\intent{x}{intent='f($x)'}", "{intent='", "$x", "'}",
    ", arg='x=x'", "\\ce{", "\\pu{", "\\and", "\\badcmd", "é", "日本", "\ud800", "\r", "#",
)
CHAINS = {
    "braced": ("\\sqrt{", "x", "}"),
    "unbraced": ("\\sqrt ", "x", ""),
    "fraction": ("\\frac{a", "x", "}{b}"),
    "binom": ("\\binom a", "x", ""),
    "root index": ("\\sqrt[", "x", "]{y}"),
    "script": ("x^{", "x", "}"),
    "subscript": ("\\sum_{", "x", "}"),
    "intent": ("\\intent{", "x", "}{intent='a'}"),
    "fence": ("\\left(", "x", "\\right)"),
    "matrix": ("\\begin{pmatrix}", "x", "\\end{pmatrix}"),
}
# Chemistry at the bottom of a chain: scripts after it, an unbraced script
# argument (two levels), a root index, an empty and an ungrouped expansion.
CHEM_CORES = ("\\ce{H}", "\\ce{->}", "\\ce{}", "x^\\ce{2}", "\\ce{H2}_3", "\\ce{H}^2",
              "\\pu{1 s2}^3", "\\sqrt[\\ce{H}]{x}", "\\sqrt\\ce{H2O}")
CHEM_TAILS = ("_2", "^2", "'", "''", "_{2}^{3}", "^{+}", "^2_3'", " x", "^\\ce{H}")
GENERATION_FAILURES = ("\\intent{x+y}{intent='f($z)'}", "\\intent{x+x}{intent='f($x)'}",
                       "\\and\\intent{x+x}{intent='f($x)'}",
                       "\\intent{a+b}{intent='f($y)', arg='x=y'}",
                       "\\intent{\\alpha}{intent='f($alpha)'}")
LEAVES = ("mi", "mo", "mn")
INNER = ("mrow", "mrow", "msqrt", "mfrac", "msup", "semantics", "annotation", "mstyle")
TEXTS = ("a", "b", "x", "+", "=", "1", "2")
CHAIN_DEPTHS = (1000, 5000)  # levels of <mrow> around one <mi>
COMPARE_OPTIONS = {  # name -> CompareOptions keyword arguments
    "none": {},
    "full": {"ignore_inferred_mrow": True, "ignored_attributes": "all",
             "strip_elements": frozenset({"annotation", "semantics"})},
    "strip annotation, require semantics": {"strip_elements": frozenset({"annotation"}),
                                            "require_semantics_wrapper": True},
    "ignore mrow": {"ignore_inferred_mrow": True},
    "strip semantics": {"strip_elements": frozenset({"semantics"})},
}


# -- inputs ------------------------------------------------------------------


def _corpus(name: str) -> dict:
    return json.loads((ROOT / "corpora" / name).read_text("utf-8"))


def _tree(rng: random.Random, budget: int) -> str:
    """A random MathML element of at most `budget` nodes."""
    if budget <= 1 or rng.random() < 0.3:
        return "<{0}>{1}</{0}>".format(rng.choice(LEAVES), rng.choice(TEXTS))
    tag = rng.choice(INNER)
    kids, left = [], budget - 1
    while left > 0 and len(kids) < 4:
        size = rng.randint(1, left)
        kids.append(_tree(rng, size))
        left -= size
    attr = ' mathvariant="bold"' if rng.random() < 0.2 else ""
    return f"<{tag}{attr}>{''.join(kids)}</{tag}>"


def build_inputs(seed: int, count: int) -> dict:
    sys.path.insert(0, str(ROOT / "tools"))
    from gen_chem_expansions import body  # the chemistry body shapes

    rng = random.Random(seed)
    combined = _corpus("combined_423.json")["cases"]
    corpus = [c["input"] for c in combined] + [
        c["input"] for c in _corpus("mhchem_conformance.json")["cases"]]
    sources = list(corpus)
    for k in range(count):
        shape = k % 4
        if shape == 0:
            picks = rng.choices(corpus, k=rng.randint(1, 3))
            source = "".join(s[rng.randint(0, len(s)):][:rng.randint(1, 40)] for s in picks)
        elif shape == 1:
            source = "".join(rng.choices(PIECES, k=rng.randint(1, 12)))
        elif shape == 2:
            source = "\\%s{%s}" % (rng.choice(("ce", "pu")), body(rng, rng.randrange(3)))
        else:
            pieces = rng.choices(PIECES, k=rng.randint(0, 6))
            pieces.insert(rng.randint(0, len(pieces)), "\\%s{%s}" % (
                rng.choice(("ce", "pu")), body(rng, rng.randrange(3))))
            source = "".join(pieces)
        sources.append(source)
    for head, core, tail in CHAINS.values():
        sources += [head * n + core + tail * n for n in (128, 129)]
        sources += [head * n + chem_core + tail * n
                    for chem_core in CHEM_CORES for n in (126, 127, 128)]
    chem = random.Random(seed + 1)  # leaves the other inputs as they were
    for _ in range(count // 10):
        command = "\\%s{%s}" % (chem.choice(("ce", "pu")), body(chem, chem.randrange(3)))
        sources += [command + chem.choice(CHEM_TAILS), f"\\sqrt[{command}]{{x}}",
                    f"\\sqrt[n {command}{chem.choice(CHEM_TAILS)}]{{x}}"]
    sources.append("\\intent{x}{intent='" + "f(" * 129 + "a" + ")" * 129 + "'}")
    digits = "1" * LONG_DIGITS
    sources += [digits, f"x^{{{digits}}}", f"\\pu{{1e{digits} m}}", f"\\pu{{1.5e-{digits}}}"]
    sources += GENERATION_FAILURES

    bodies = [body(rng, k % 3) for k in range(count // 3)]
    bodies += [s[4:-1] for s in corpus if s.startswith(("\\ce{", "\\pu{")) and s.endswith("}")]
    bodies += [f"1e{digits} m", f"2E-{digits}"]

    pairs = []
    for p in _corpus("two_renderer.json")["pairs"]:
        pairs.append((f"two_renderer/{p['id']}", p["a_inline"], p["b_inline"]))
    refs = [c["expect"]["mathml"] for c in combined if "mathml" in c.get("expect", {})]
    pairs += [(f"corpus/{k}", a, b) for k, (a, b) in enumerate(zip(refs, refs[1:]))]
    for k in range(count // 20):
        a = f"<math>{_tree(rng, rng.randint(1, 40))}</math>"
        b = f"<math>{_tree(rng, rng.randint(1, 40))}</math>"
        changed = re.sub(r">[^<]+<", ">z<", a, count=1)
        pairs += [(f"random/{k}/ab", a, b), (f"random/{k}/aa", a, a),
                  (f"random/{k}/ba", b, a), (f"random/{k}/az", a, changed)]
    for depth in CHAIN_DEPTHS:
        chain = "<math>" + "<mrow>" * depth + "<mi>x</mi>" + "</mrow>" * depth + "</math>"
        pairs += [(f"chain/{depth}/leaf", chain, "<math><mi>x</mi></math>"),
                  (f"chain/{depth}/same", chain, chain)]
    return {"sources": sources, "bodies": bodies, "pairs": pairs}


# -- the worker (runs against one tree) ----------------------------------------


def work(tree: Path, inputs_path: Path) -> None:
    sys.path.insert(0, str(tree / "src"))
    sys.setrecursionlimit(1000)  # the interpreter's default: depth verdicts depend on it
    import texmathc
    from texmathc import ConversionFailed, GenOptions, check_formula, convert_formula, parse
    from texmathc import default_registry, expand_ce, expand_pu, from_xml, render_tex
    from texmathc.similarity import (CompareOptions, ComparePair, batch_compare,
                                     element_fscore, tree_edit_distance)

    if not Path(texmathc.__file__).is_relative_to(tree):
        raise SystemExit(f"texmathc was imported from {texmathc.__file__}, not from {tree}")
    inputs = json.loads(inputs_path.read_text("utf-8"))
    registry = default_registry()
    out = sys.stdout

    def emit(entry: str, key: str, fn) -> None:
        try:
            outcome = fn()
        except Exception as exc:  # a crash is an outcome too
            outcome = ["raise", type(exc).__name__, str(exc)]
        out.write(json.dumps([entry, key, outcome]) + "\n")

    def converted(source, chem, options):
        try:
            return convert_formula(source, chem=chem, options=options)
        except ConversionFailed as exc:
            return [str(exc), [d.format_line() for d in exc.diagnostics]]

    def round_trip(source, chem):
        result = parse(source, registry, allow_chem=chem)
        if not result.ok:
            return None
        tex = render_tex(result.ast)
        again = parse(tex, registry, allow_chem=chem)
        return [tex, again.ok and again.ast == result.ast,
                [d.format_line() for d in again.diagnostics]]

    def expanded(fn, text):
        try:
            return fn(text)
        except texmathc.diagnostics.DiagnosticError as exc:
            diag = exc.diagnostic
            return ["error", type(exc).__name__, str(exc), diag and diag.format_line()]

    displays = [(display, kind, GenOptions(display=display, wrap_semantics=semantics,
                                           annotate_tex=annotate))
                for display in ("inline", "block")
                for kind, semantics, annotate in (("plain", False, False),
                                                  ("semantics", True, False),
                                                  ("semantics+annotation", True, True))]
    for source in inputs["sources"]:
        for chem in (False, True):
            on = "chem on" if chem else "chem off"
            emit(f"check_formula/{on}", source,
                 lambda: [d.format_line() for d in check_formula(source, chem=chem)])
            for display, kind, options in displays:
                emit(f"convert_formula/{display}/{kind}/{on}", source,
                     lambda: converted(source, chem, options))
            emit(f"render_tex/{on}", source, lambda: round_trip(source, chem))
    for text in inputs["bodies"]:
        emit("expand_ce", text, lambda: expanded(expand_ce, text))
        emit("expand_pu", text, lambda: expanded(expand_pu, text))
    pairs = [ComparePair(*pair) for pair in inputs["pairs"]]
    for name, kwargs in COMPARE_OPTIONS.items():
        options = CompareOptions(**kwargs)
        for start in range(0, len(pairs), BATCH):
            emit(f"batch_compare/{name}", f"pairs {start}-{start + BATCH - 1}",
                 lambda: batch_compare(pairs[start:start + BATCH], options).to_dict())
    read: dict = {}  # document -> its tree, read once

    def tree(document):
        if document not in read:
            read[document] = from_xml(document)
        return read[document]

    def nodes(document):  # a summary built without recursion
        return [[node.element, node.text, node.attributes, len(node.children)]
                for node in tree(document).iter()]

    for pair_id, a, b in inputs["pairs"]:
        emit("from_xml", f"{pair_id}/a", lambda: nodes(a))
        emit("from_xml", f"{pair_id}/b", lambda: nodes(b))

    def ted(a, b, options):
        result = tree_edit_distance(tree(a), tree(b), options)
        return [result.distance, result.node_count_a, result.node_count_b]

    def fscore(a, b, options):
        report = element_fscore(tree(a), tree(b), options)
        return [report.precision, report.recall, report.f1, report.matched,
                report.only_in_a, report.only_in_b]

    for name, kwargs in COMPARE_OPTIONS.items():
        options = CompareOptions(**kwargs)
        for pair_id, a, b in inputs["pairs"]:
            emit(f"tree_edit_distance/{name}", pair_id, lambda: ted(a, b, options))
            emit(f"element_fscore/{name}", pair_id, lambda: fscore(a, b, options))
    out.flush()


# -- the driver ----------------------------------------------------------------


def extract(rev: str, into: Path) -> Path:
    """The tree of git revision `rev`, extracted into the new directory `into`."""
    into.mkdir()
    archive = into.with_suffix(".tar")
    subprocess.run(["git", "-C", str(ROOT), "archive", "-o", str(archive), rev], check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    archive.unlink()
    return into


def _expected(path: Path | None) -> list[dict]:
    if path is None:
        return []
    return [json.loads(line) for line in path.read_text("utf-8").splitlines() if line.strip()]


def _listed(expect: list[dict], entry: str, key: str) -> bool:
    for item in expect:
        name = item["entry"]
        if entry != name and not entry.startswith(name + "/"):
            continue
        if item.get("input") == key or "pattern" in item and re.search(item["pattern"], key):
            return True
    return False


def _short(value, limit: int = 300) -> str:
    text = json.dumps(value)  # ASCII: generated inputs hold lone surrogates
    return text if len(text) <= limit else text[:limit] + f"... ({len(text)} chars)"


def compare(trees: list[Path], inputs_path: Path, expect: list[dict]) -> int:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    procs = [subprocess.Popen([sys.executable, __file__, "--worker", str(tree), str(inputs_path)],
                              stdout=subprocess.PIPE, text=True, env=env, encoding="utf-8")
             for tree in trees]
    counts: dict[str, list[int]] = {}  # entry -> [outcomes, differing, expected]
    shown: dict[str, list[str]] = {}
    line_a = line_b = ""
    try:
        while True:
            line_a, line_b = (proc.stdout.readline() for proc in procs)
            if not line_a or not line_b:
                break
            a, b = json.loads(line_a), json.loads(line_b)
            if a[:2] != b[:2]:
                raise SystemExit(f"the workers went out of step: {a[:2]} against {b[:2]}")
            entry, key = a[0], a[1]
            row = counts.setdefault(entry, [0, 0, 0])
            row[0] += 1
            if line_a == line_b:
                continue
            row[1] += 1
            if _listed(expect, entry, key):
                row[2] += 1
                continue
            cases = shown.setdefault(entry, [])
            if len(cases) < SHOW:
                cases.append(f"  input {_short(key)}\n    base {_short(a[2])}\n"
                             f"    head {_short(b[2])}")
    finally:
        if line_a or line_b:  # a worker still writing would block on a full pipe
            for proc in procs:
                proc.kill()
    codes = [proc.wait() for proc in procs]
    if any(codes) or line_a or line_b:
        raise SystemExit(f"a worker failed (exit status {codes}) or stopped early")
    print(f"{'entry point':52} {'outcomes':>9} {'differ':>7} {'expected':>9}")
    for entry, (total, differ, expected) in counts.items():
        print(f"{entry:52} {total:9} {differ:7} {expected:9}")
    for entry, cases in shown.items():
        print(f"\nfirst differences in {entry}:")
        print("\n".join(cases))
    unexpected = sum(differ - expected for _, differ, expected in counts.values())
    print(f"\n{sum(row[0] for row in counts.values())} outcomes, "
          f"{unexpected} unexpected differences")
    return 1 if unexpected else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision of the base side")
    parser.add_argument("head", nargs="?", help="git revision of the head side "
                        "(default: the working tree)")
    parser.add_argument("--expect", type=Path, help="JSON lines of expected differences")
    parser.add_argument("--count", type=int, default=COUNT, help="generated sources")
    args = parser.parse_args(argv)
    expect = _expected(args.expect)
    with tempfile.TemporaryDirectory(prefix="texmathc-differential-") as tmp:
        tmp_path = Path(tmp)
        inputs = build_inputs(SEED, args.count)
        inputs_path = tmp_path / "inputs.json"
        inputs_path.write_text(json.dumps(inputs), "utf-8")
        print(f"{len(inputs['sources'])} sources, {len(inputs['bodies'])} chemistry bodies, "
              f"{len(inputs['pairs'])} MathML pairs (seed {SEED})", flush=True)
        trees = [extract(args.base, tmp_path / "base"),
                 extract(args.head, tmp_path / "head") if args.head else ROOT]
        return compare(trees, inputs_path, expect)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        work(Path(sys.argv[2]), Path(sys.argv[3]))
    else:
        raise SystemExit(main())
