#!/usr/bin/env python3
"""Print start-up times and the scaling series: front-end time against input
size, TED time against tree size.

Start-up, in fresh processes with ``src/`` on ``PYTHONPATH``: the bare
interpreter (``python -c pass``), ``import texmathc`` + ``default_registry()``
(also timed inside the process, as the benchmark's ``setup_s`` is), and the
one-shot commands ``python -m texmathc check`` and ``convert --no-cache`` on
STARTUP_FORMULA.  Each of STARTUP_ROUNDS rounds runs every process once, in
alternating order; each cell is the median over the rounds.  Whether the
interpreter may write a bytecode cache is printed with the table: without
one, every process also compiles the modules it imports.

Front end, timed through the public entry points (cache off):

* flat: one line of TeX of about SIZES characters, made of whole copies of
  PIECE (ordinary atoms, scripts and braced arguments, no deep nesting);
* nesting: an unbraced ``\\sqrt`` chain of DEPTHS levels, ``\\sqrt \\sqrt ... x``,
  which nests one argument per level up to the parser's cap of 128;
* chemistry: one ``\\ce{...}`` of about SIZES characters whose body is
  whole copies of CE_PIECE (a reaction: coefficients, subscripts, ``+`` and an
  arrow), checked and converted with chemistry on;
* raw argument: one ``\\text{...}`` of about SIZES characters whose content
  is whole copies of TEXT_PIECE (words, spaces, escaped braces and a
  balanced group), the path of a raw argument: its braces are matched on the
  token texts, and its text is sliced from the source at the token offsets
  that the parse computes for it.

Chemistry against plain TeX, ``parse`` alone (tokenize, expand, check,
build the tree), best of PARSE_REPEAT rounds: for each of CHEM_SIZES, one
``\\ce{...}`` of whole copies of CE_PIECE next to plain TeX of whole copies
of PIECE of about the same length, in µs per source character, and the
ratio of the two; then the same over the corpora the benchmark's
corpus_convert workload reads: its chemistry formulas (the ``chem`` cases of
``corpora/combined_423.json`` and every ``corpora/mhchem_conformance.json``
input) against the other combined cases.

Each cell is the best of FRONT_REPEAT calls of ``check_formula`` or
``convert_formula``, one per round; each round times every cell once, so a
change of machine speed during the run reaches all cells alike.  The
per-unit column divides the convert time by the characters or levels, so a
linear front end keeps it flat.

Tree edit distance: for each of TREE_SIZES, side A is built from the frozen
reference MathML of ``corpora/combined_423.json``: whole formula bodies,
picked with a fixed seed, under one ``mrow`` until the tree has exactly that
many nodes.  Four pairs are timed per size:

* identical: A against a copy of itself;
* relabelled: A against a copy with max(1, size // 15) token texts changed;
* edited: A against a copy after EDITS seeded mrow insertions or removals
  (its own seed per size), a small distance between trees of different
  shapes, which the bounds leave to the dynamic program;
* unrelated: A against a tree of the same size built independently (its
  own seeded picks), the case where a small distance cannot be exploited.

Trees are compared without normalization (``CompareOptions()``), so the
node counts are exact.  Each pair gets two times, each the best of
TED_REPEAT calls: ``tree_edit_distance`` on the two trees (which includes
the normalizing walk over each), and ``batch_compare`` on the two
serialized documents, the whole compare path: parsing, one walk per
document, the distance and the F-score.

Compare read, the two steps ``batch_compare`` takes per document before
any distance: ``ET.fromstring`` (parse) and the normalizing walk over the
parsed elements (``similarity._walk``, ``CompareOptions()``), each the best
of READ_REPEAT calls and per node in µs.  Documents of READ_SIZES nodes are
built as the TED trees are; ``<mrow>`` chains of READ_DEPTHS levels hold
one ``<mi>``.  Nothing is asserted.

    PYTHONPATH=src python3 tools/scaling.py
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from texmathc import check_formula, convert_formula, default_registry, from_xml, parse  # noqa: E402
from texmathc.mathml import MathMLNode, serialize  # noqa: E402
from texmathc.similarity import (  # noqa: E402
    CompareOptions,
    ComparePair,
    _walk,
    batch_compare,
    tree_edit_distance,
)

SIZES = (1_000, 3_000, 10_000, 30_000, 100_000)
DEPTHS = (10, 32, 64, 100, 128)
FRONT_REPEAT = 5  # rounds; each cell is the best of its N calls
STARTUP_ROUNDS = 20  # N of median-of-N
STARTUP_FORMULA = "\\frac{a}{b}+x^{2}"
_IMPORT = ("import time\n"
           "t = time.perf_counter()\n"
           "import texmathc\n"
           "texmathc.default_registry()\n"
           "print(time.perf_counter() - t)\n")
# (label, interpreter arguments); the import row prints its own time.
STARTUP = (
    ("bare interpreter: `python -c pass`", ("-c", "pass")),
    ("`import texmathc` + `default_registry()`", ("-c", _IMPORT)),
    ("one-shot `python -m texmathc check`", ("-m", "texmathc", "check", STARTUP_FORMULA)),
    ("one-shot `python -m texmathc convert --no-cache`",
     ("-m", "texmathc", "convert", "--no-cache", STARTUP_FORMULA)),
)
PIECE = "x_{1}^{2}+\\alpha y-\\frac{a}{b}\\cdot 3 = "
CE_PIECE = "2H2 + O2 -> 2H2O + "
TEXT_PIECE = "some words \\{a\\} {b} and "
CHEM_SIZES = (30, 100, 300, 1_000, 3_000, 10_000)
PARSE_REPEAT = 30
TREE_SIZES = (50, 100, 200, 300, 400, 600)
TED_REPEAT = 3
SEED = 2024
EDITS = 3
READ_SIZES = (10, 100, 1_000, 10_000)
READ_DEPTHS = (10, 100, 1_000, 10_000, 100_000)
READ_REPEAT = 5


def best_of(call, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = perf_counter()
        call()
        best = min(best, perf_counter() - start)
    return best


def cpu_name() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def startup_rows() -> list[str]:
    """One row per STARTUP process: median wall time and, for the import, in-process time."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    wall: list[list[float]] = [[] for _ in STARTUP]
    inner: list[float] = []
    order = list(enumerate(STARTUP))
    for round_ in range(STARTUP_ROUNDS):
        for i, (_, args) in order[::-1] if round_ % 2 else order:
            start = perf_counter()
            done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=120, check=True)
            wall[i].append(perf_counter() - start)
            if args[1] == _IMPORT:
                inner.append(float(done.stdout))
    rows = []
    for (label, args), times in zip(STARTUP, wall):
        own = f"{statistics.median(inner) * 1e3:.1f} ms" if args[1] == _IMPORT else "—"
        rows.append(f"| {label} | {statistics.median(times) * 1e3:.1f} ms | {own} |")
    return rows


def front_rows(cells: list[tuple[str, str, int, str, bool]]) -> list[str]:
    """Best check and convert time of each (label, source, units, unit, chem) cell."""
    registry = default_registry()
    best = [[float("inf"), float("inf")] for _ in cells]
    for _ in range(FRONT_REPEAT):
        for (_, source, _, _, chem), times in zip(cells, best):
            times[0] = min(times[0], best_of(
                lambda: check_formula(source, registry=registry, chem=chem), 1))
            times[1] = min(times[1], best_of(
                lambda: convert_formula(source, registry=registry, chem=chem), 1))
    return [f"| {label} | {len(source)} | {check * 1e3:.2f} ms | {convert * 1e3:.2f} ms "
            f"| {convert / units * 1e6:.2f} µs/{unit} |"
            for (label, source, units, unit, _), (check, convert) in zip(cells, best)]


def parse_rows() -> list[str]:
    """µs per character of ``parse``: chemistry and plain TeX, side by side."""
    def corpus(name: str) -> list[dict]:
        return json.loads((ROOT / "corpora" / name).read_text("utf-8"))["cases"]

    combined = corpus("combined_423.json")
    chem = [c["input"] for c in combined if c["options"].get("chem")]
    chem += [c["input"] for c in corpus("mhchem_conformance.json")]
    plain = [c["input"] for c in combined if not c["options"].get("chem")]
    rows = [(f"\\ce of about {size} chars against plain TeX",
             ["\\ce{" + CE_PIECE * max(1, (size - 5) // len(CE_PIECE)) + "}"],
             [PIECE * max(1, size // len(PIECE))]) for size in CHEM_SIZES]
    rows.append((f"corpus_convert: {len(chem)} chemistry against {len(plain)} plain formulas",
                 chem, plain))
    registry = default_registry()
    best = [[float("inf"), float("inf")] for _ in rows]
    for _ in range(PARSE_REPEAT):
        for (_, *sides), times in zip(rows, best):
            for k, sources in enumerate(sides):
                start = perf_counter()
                for source in sources:
                    parse(source, registry, allow_chem=k == 0)
                times[k] = min(times[k], perf_counter() - start)
    out = []
    for (label, chem_sources, plain_sources), (chem_s, plain_s) in zip(rows, best):
        chem_chars = sum(map(len, chem_sources))
        plain_chars = sum(map(len, plain_sources))
        per_chem, per_plain = chem_s / chem_chars * 1e6, plain_s / plain_chars * 1e6
        out.append(f"| {label} | {chem_chars} | {chem_s * 1e3:.3f} ms | {per_chem:.2f} µs "
                   f"| {plain_chars} | {plain_s * 1e3:.3f} ms | {per_plain:.2f} µs "
                   f"| {per_chem / per_plain:.2f} |")
    return out


def _copy(tree: MathMLNode) -> MathMLNode:
    """An equal, independent tree: every tree here is read by ``from_xml``,
    which reads a serialized tree back as it was."""
    return from_xml(serialize(tree))


def _size(node: MathMLNode) -> int:
    return 1 + sum(_size(child) for child in node.children)


def _pieces() -> list[tuple[int, MathMLNode]]:
    """(node count, body) of every reference formula, smallest first."""
    cases = json.loads((ROOT / "corpora" / "combined_423.json").read_text("utf-8"))["cases"]
    pieces = [(_size(body), body) for case in cases
              for body in from_xml(case["expect"]["mathml"]).children]
    pieces.sort(key=lambda piece: piece[0])
    return pieces


def build(rng: random.Random, pieces, size: int) -> MathMLNode:
    """A ``math`` tree of exactly `size` nodes (size >= 3)."""
    children: list[MathMLNode] = []
    remaining = size - 2  # math and its mrow
    while remaining > 0:
        fitting = [body for count, body in pieces if count <= remaining]
        body = _copy(rng.choice(fitting)) if fitting else MathMLNode("mi", {}, [], "x")
        children.append(body)
        remaining -= _size(body)
    return MathMLNode("math", {}, [MathMLNode("mrow", {}, children)])


def relabel(rng: random.Random, tree: MathMLNode, size: int) -> MathMLNode:
    out = _copy(tree)
    tokens = [node for node in out.iter() if not node.children and node.text]
    for node in rng.sample(tokens, min(len(tokens), max(1, size // 15))):
        node.text = rng.choice([c for c in "abcdefghijklmnopqrstuvwxyz0123456789"
                                if c != node.text])
    return out


def reshape(rng: random.Random, tree: MathMLNode) -> MathMLNode:
    """A copy of `tree` after EDITS edits, each a new mrow above a run of a
    node's children or, half the time where the node has one, an mrow child
    giving way to its children."""
    out = _copy(tree)
    for _ in range(EDITS):
        node = rng.choice([node for node in out.iter() if node.children])
        kids = node.children
        mrows = [k for k, child in enumerate(kids) if child.element == "mrow" and child.children]
        if mrows and rng.random() < 0.5:
            k = rng.choice(mrows)
            kids[k:k + 1] = kids[k].children
        else:
            start = rng.randrange(len(kids))
            end = rng.randrange(start + 1, len(kids) + 1)
            kids[start:end] = [MathMLNode("mrow", {}, kids[start:end])]
    return out


def ted_cells(a: MathMLNode, b: MathMLNode) -> tuple[float, float, int]:
    """Best TED time, best batch_compare time, and the distance."""
    options = CompareOptions()
    pair = [ComparePair("pair", serialize(a), serialize(b))]
    ted = best_of(lambda: tree_edit_distance(a, b, options), TED_REPEAT)
    batch = best_of(lambda: batch_compare(pair, options), TED_REPEAT)
    return ted, batch, tree_edit_distance(a, b, options).distance


def read_rows(rng: random.Random, pieces) -> list[str]:
    documents = [(f"document, {size} nodes", serialize(build(rng, pieces, size)))
                 for size in READ_SIZES]
    documents += [(f"`<mrow>` chain, {depth} levels",
                   "<math>" + "<mrow>" * depth + "<mi>x</mi>" + "</mrow>" * depth + "</math>")
                  for depth in READ_DEPTHS]
    options = CompareOptions()
    out = []
    for label, document in documents:
        root = ET.fromstring(document)
        nodes = sum(1 for _ in root.iter())
        parse = best_of(lambda: ET.fromstring(document), READ_REPEAT)
        walk = best_of(lambda: _walk(root, options), READ_REPEAT)
        out.append(f"| {label} | {nodes} | {parse * 1e3:.3f} ms | {parse / nodes * 1e6:.2f} µs "
                   f"| {walk * 1e3:.3f} ms | {walk / nodes * 1e6:.2f} µs |")
    return out


def main() -> int:
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    print(f"# Python {platform.python_version()} ({platform.python_implementation()}), "
          f"CPU: {cpu_name()}")
    bytecode = "off" if sys.flags.dont_write_bytecode else "on"
    print(f"\n# start-up: median of {STARTUP_ROUNDS} alternating rounds of fresh processes, "
          f"formula {STARTUP_FORMULA}, bytecode cache writes {bytecode}")
    print("| process | wall | in process |")
    print("|---|---:|---:|")
    print("\n".join(startup_rows()), flush=True)
    print(f"\n# front end: best of {FRONT_REPEAT} rounds of one call per cell, no cache, "
          f"default registry")
    print("| input | chars | check | convert | convert per unit |")
    print("|---|---:|---:|---:|---:|")
    cells = []
    for size in SIZES:
        source = PIECE * (size // len(PIECE))
        cells.append(("flat", source, len(source), "char", False))
    for depth in DEPTHS:
        cells.append((f"\\sqrt chain, depth {depth}", "\\sqrt " * depth + "x", depth,
                      "level", False))
    for size in SIZES:
        source = "\\ce{" + CE_PIECE * (size // len(CE_PIECE)) + "}"
        cells.append(("\\ce reaction", source, len(source), "char", True))
    for size in SIZES:
        source = "\\text{" + TEXT_PIECE * (size // len(TEXT_PIECE)) + "}"
        cells.append(("\\text raw argument", source, len(source), "char", False))
    print("\n".join(front_rows(cells)), flush=True)
    print(f"\n# parse only: chemistry against plain TeX, best of {PARSE_REPEAT} rounds, "
          f"default registry")
    print("| input | chem chars | chem parse | per char | plain chars | plain parse "
          "| per char | chem / plain |")
    print("|---|---:|---:|---:|---:|---:|---:|---:|")
    print("\n".join(parse_rows()), flush=True)
    print(f"\n# best of {TED_REPEAT} calls of tree_edit_distance (TED) and of batch_compare "
          f"(batch), CompareOptions(), seed {SEED}")
    print("| nodes | identical TED | batch | relabelled TED | batch | distance "
          "| edited TED | batch | distance | unrelated TED | batch | distance |")
    print("|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|")
    rng = random.Random(SEED)
    pieces = _pieces()
    ms = 1e3
    for size in TREE_SIZES:
        a = build(rng, pieces, size)
        same, same_batch, _ = ted_cells(a, _copy(a))
        changed, changed_batch, distance = ted_cells(a, relabel(rng, a, size))
        edited, edited_batch, near = ted_cells(a, reshape(random.Random(SEED - size), a))
        other, other_batch, far = ted_cells(a, build(random.Random(SEED + size), pieces, size))
        print(f"| {size} | {same * ms:.2f} ms | {same_batch * ms:.2f} ms "
              f"| {changed * ms:.1f} ms | {changed_batch * ms:.1f} ms | {distance} "
              f"| {edited * ms:.1f} ms | {edited_batch * ms:.1f} ms | {near} "
              f"| {other * ms:.1f} ms | {other_batch * ms:.1f} ms | {far} |", flush=True)
    print(f"\n# compare read: best of {READ_REPEAT} calls of ET.fromstring (parse) and of the "
          f"normalizing walk, CompareOptions(), seed {SEED}")
    print("| document | nodes | parse | per node | walk | per node |")
    print("|---|---:|---:|---:|---:|---:|")
    print("\n".join(read_rows(random.Random(SEED), pieces)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
