#!/usr/bin/env python3
"""Print the tree edit distance scaling series: TED time against tree size.

For each size, side A is built from the frozen reference MathML of
``corpora/combined_423.json``: whole formula bodies, picked with a fixed
seed, under one ``mrow`` until the tree has exactly that many nodes.  Three
pairs are timed per size:

* identical: A against a deep copy of itself;
* relabelled: A against a copy with max(1, size // 15) token texts changed;
* unrelated: A against a tree of the same size built independently (its
  own seeded picks), the case where a small distance cannot be exploited.

Trees are compared without normalization (``CompareOptions()``), so the
node counts are exact; the time includes the one bottom-up pass in which
``normalize`` builds each tree as compared.  Each cell is the best of
REPEAT timed calls of ``tree_edit_distance``.
Nothing is asserted.

    PYTHONPATH=src python3 tools/ted_scaling.py
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

from texmathc.mathml import MathMLNode, from_xml  # noqa: E402
from texmathc.similarity import CompareOptions, tree_edit_distance  # noqa: E402

SIZES = (50, 100, 200, 300, 400, 600)
REPEAT = 3  # N of best-of-N
SEED = 2024


def _size(node: MathMLNode) -> int:
    return 1 + sum(_size(child) for child in node.children)


def _pieces() -> list[tuple[int, MathMLNode]]:
    """(node count, body) of every reference formula, smallest first."""
    cases = json.loads((ROOT / "corpora" / "combined_423.json").read_text("utf-8"))["cases"]
    pieces = []
    for case in cases:
        for body in from_xml(case["expect"]["mathml"]).children:
            pieces.append((_size(body), body))
    pieces.sort(key=lambda piece: piece[0])
    return pieces


def build(rng: random.Random, pieces, size: int) -> MathMLNode:
    """A ``math`` tree of exactly `size` nodes (size >= 3)."""
    children: list[MathMLNode] = []
    remaining = size - 2  # math and its mrow
    while remaining > 0:
        fitting = [body for count, body in pieces if count <= remaining]
        body = rng.choice(fitting).copy() if fitting else MathMLNode("mi", {}, [], "x")
        children.append(body)
        remaining -= _size(body)
    return MathMLNode("math", {}, [MathMLNode("mrow", {}, children)])


def relabel(rng: random.Random, tree: MathMLNode, size: int) -> MathMLNode:
    out = tree.copy()
    tokens = [node for node in out.iter() if not node.children and node.text]
    for node in rng.sample(tokens, min(len(tokens), max(1, size // 15))):
        node.text = rng.choice([c for c in "abcdefghijklmnopqrstuvwxyz0123456789"
                                if c != node.text])
    return out


def best_of(a: MathMLNode, b: MathMLNode) -> tuple[float, int]:
    options = CompareOptions()
    best = float("inf")
    for _ in range(REPEAT):
        start = perf_counter()
        result = tree_edit_distance(a, b, options)
        best = min(best, perf_counter() - start)
    return best, result.distance


def cpu_name() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main() -> int:
    print(f"# Python {platform.python_version()} ({platform.python_implementation()}), "
          f"CPU: {cpu_name()}")
    print(f"# best of {REPEAT} calls of tree_edit_distance, CompareOptions(), seed {SEED}")
    print("| nodes | identical | relabelled | relabelled TED | unrelated | unrelated TED |")
    print("|---:|---:|---:|---:|---:|---:|")
    rng = random.Random(SEED)
    pieces = _pieces()
    for size in SIZES:
        a = build(rng, pieces, size)
        same, _ = best_of(a, a.copy())
        changed, distance = best_of(a, relabel(rng, a, size))
        other, far = best_of(a, build(random.Random(SEED + size), pieces, size))
        print(f"| {size} | {same * 1e3:.2f} ms | {changed * 1e3:.1f} ms | {distance} "
              f"| {other * 1e3:.1f} ms | {far} |", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
