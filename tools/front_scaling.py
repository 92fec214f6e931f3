#!/usr/bin/env python3
"""Print the front-end scaling series: check and convert time against input size.

Two series, each timed through the public entry points (cache off):

* flat: one line of TeX of about SIZES characters, made of whole copies of
  PIECE (ordinary atoms, scripts and braced arguments, no deep nesting);
* nesting: an unbraced ``\\sqrt`` chain of DEPTHS levels, ``\\sqrt \\sqrt ... x``,
  which nests one argument per level up to the parser's cap of 128.

Each cell is the best of REPEAT calls of ``check_formula`` or
``convert_formula``; the per-unit column divides the convert time by the
characters or levels, so a linear front end keeps it flat.  Nothing is
asserted.

    PYTHONPATH=src python3 tools/front_scaling.py
"""

from __future__ import annotations

import platform
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from texmathc import check_formula, convert_formula, default_registry  # noqa: E402

SIZES = (1_000, 3_000, 10_000, 30_000, 100_000)
DEPTHS = (10, 32, 64, 100, 128)
REPEAT = 5  # N of best-of-N
PIECE = "x_{1}^{2}+\\alpha y-\\frac{a}{b}\\cdot 3 = "


def best_of(call) -> float:
    best = float("inf")
    for _ in range(REPEAT):
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


def row(label: str, source: str, units: int, unit: str) -> str:
    registry = default_registry()
    check = best_of(lambda: check_formula(source, registry=registry))
    convert = best_of(lambda: convert_formula(source, registry=registry))
    return (f"| {label} | {len(source)} | {check * 1e3:.2f} ms | {convert * 1e3:.2f} ms "
            f"| {convert / units * 1e6:.2f} µs/{unit} |")


def main() -> int:
    print(f"# Python {platform.python_version()} ({platform.python_implementation()}), "
          f"CPU: {cpu_name()}")
    print(f"# best of {REPEAT} calls, no cache, default registry")
    print("| input | chars | check | convert | convert per unit |")
    print("|---|---:|---:|---:|---:|")
    for size in SIZES:
        source = PIECE * (size // len(PIECE))
        print(row("flat", source, len(source), "char"), flush=True)
    for depth in DEPTHS:
        print(row(f"\\sqrt chain, depth {depth}", "\\sqrt " * depth + "x", depth, "level"),
              flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
