#!/usr/bin/env python3
"""Print the scaling series: front-end time against input size, TED time against tree size.

Front end, timed through the public entry points (cache off):

* flat: one line of TeX of about SIZES characters, made of whole copies of
  PIECE (ordinary atoms, scripts and braced arguments, no deep nesting);
* nesting: an unbraced ``\\sqrt`` chain of DEPTHS levels, ``\\sqrt \\sqrt ... x``,
  which nests one argument per level up to the parser's cap of 128.

Each cell is the best of FRONT_REPEAT calls of ``check_formula`` or
``convert_formula``; the per-unit column divides the convert time by the
characters or levels, so a linear front end keeps it flat.

Tree edit distance: for each of TREE_SIZES, side A is built from the frozen
reference MathML of ``corpora/combined_423.json``: whole formula bodies,
picked with a fixed seed, under one ``mrow`` until the tree has exactly that
many nodes.  Three pairs are timed per size:

* identical: A against a copy of itself;
* relabelled: A against a copy with max(1, size // 15) token texts changed;
* unrelated: A against a tree of the same size built independently (its
  own seeded picks), the case where a small distance cannot be exploited.

Trees are compared without normalization (``CompareOptions()``), so the
node counts are exact.  Each pair gets two times, each the best of
TED_REPEAT calls: ``tree_edit_distance`` on the two trees (which includes
the normalizing walk over each), and ``batch_compare`` on the two
serialized documents, the whole compare path: parsing, one walk per
document, the distance and the F-score.  Nothing is asserted.

    PYTHONPATH=src python3 tools/scaling.py
"""

from __future__ import annotations

import json
import platform
import random
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from texmathc import check_formula, convert_formula, default_registry  # noqa: E402
from texmathc.mathml import MathMLNode, from_xml, serialize  # noqa: E402
from texmathc.similarity import (  # noqa: E402
    CompareOptions,
    ComparePair,
    batch_compare,
    tree_edit_distance,
)

SIZES = (1_000, 3_000, 10_000, 30_000, 100_000)
DEPTHS = (10, 32, 64, 100, 128)
FRONT_REPEAT = 5  # N of best-of-N
PIECE = "x_{1}^{2}+\\alpha y-\\frac{a}{b}\\cdot 3 = "
TREE_SIZES = (50, 100, 200, 300, 400, 600)
TED_REPEAT = 3
SEED = 2024


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


def front_row(label: str, source: str, units: int, unit: str) -> str:
    registry = default_registry()
    check = best_of(lambda: check_formula(source, registry=registry), FRONT_REPEAT)
    convert = best_of(lambda: convert_formula(source, registry=registry), FRONT_REPEAT)
    return (f"| {label} | {len(source)} | {check * 1e3:.2f} ms | {convert * 1e3:.2f} ms "
            f"| {convert / units * 1e6:.2f} µs/{unit} |")


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


def ted_cells(a: MathMLNode, b: MathMLNode) -> tuple[float, float, int]:
    """Best TED time, best batch_compare time, and the distance."""
    options = CompareOptions()
    pair = [ComparePair("pair", serialize(a), serialize(b))]
    ted = best_of(lambda: tree_edit_distance(a, b, options), TED_REPEAT)
    batch = best_of(lambda: batch_compare(pair, options), TED_REPEAT)
    return ted, batch, tree_edit_distance(a, b, options).distance


def main() -> int:
    print(f"# Python {platform.python_version()} ({platform.python_implementation()}), "
          f"CPU: {cpu_name()}")
    print(f"\n# front end: best of {FRONT_REPEAT} calls, no cache, default registry")
    print("| input | chars | check | convert | convert per unit |")
    print("|---|---:|---:|---:|---:|")
    for size in SIZES:
        source = PIECE * (size // len(PIECE))
        print(front_row("flat", source, len(source), "char"), flush=True)
    for depth in DEPTHS:
        print(front_row(f"\\sqrt chain, depth {depth}", "\\sqrt " * depth + "x", depth,
                        "level"), flush=True)
    print(f"\n# best of {TED_REPEAT} calls of tree_edit_distance (TED) and of batch_compare "
          f"(batch), CompareOptions(), seed {SEED}")
    print("| nodes | identical TED | batch | relabelled TED | batch | distance "
          "| unrelated TED | batch | distance |")
    print("|---:|---:|---:|---:|---:|---:|---:|---:|---:|")
    rng = random.Random(SEED)
    pieces = _pieces()
    ms = 1e3
    for size in TREE_SIZES:
        a = build(rng, pieces, size)
        same, same_batch, _ = ted_cells(a, _copy(a))
        changed, changed_batch, distance = ted_cells(a, relabel(rng, a, size))
        other, other_batch, far = ted_cells(a, build(random.Random(SEED + size), pieces, size))
        print(f"| {size} | {same * ms:.2f} ms | {same_batch * ms:.2f} ms "
              f"| {changed * ms:.1f} ms | {changed_batch * ms:.1f} ms | {distance} "
              f"| {other * ms:.1f} ms | {other_batch * ms:.1f} ms | {far} |", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
