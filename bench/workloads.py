"""Seeded inputs, reference outputs and operations of the three workloads.

A workload is a fixed list of operations (one *pass*) built from the seed.
The runner times each operation and then hands its output to the
operation's check.  Every expected value comes from the frozen corpora, from
how the input was constructed, or from the independent TED oracle in
``tests/oracles.py`` applied to trees normalized by this file's own
normalizer; none comes from the converter or from ``tree_edit_distance``.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import xml.etree.ElementTree as ET
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import texmathc
from texmathc.cache import RenderCache
from texmathc.mathml import GenOptions
from texmathc.similarity import CompareOptions, ComparePair

ROOT = Path(__file__).resolve().parent.parent
CORPORA = ROOT / "corpora"

# Appended at top level to every valid formula in corpus_convert; it must
# not be a registry command (the benchmark's tests check this).
UNKNOWN_COMMAND = "\\zzbenchunknown"


@dataclass(frozen=True)
class Formula:
    id: str
    source: str
    chem: bool
    display: str
    ref: str | None  # frozen reference MathML; None for the mhchem inputs


@dataclass
class Op:
    id: str
    call: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is right


def load_formulas() -> list[Formula]:
    """The 423 combined cases plus the 129 mhchem conformance inputs."""
    combined = json.loads((CORPORA / "combined_423.json").read_text("utf-8"))
    chem = json.loads((CORPORA / "mhchem_conformance.json").read_text("utf-8"))
    formulas = [
        Formula(case["id"], case["input"], bool(case["options"].get("chem")),
                case["options"].get("display", "inline"), case["expect"]["mathml"])
        for case in combined["cases"]
    ]
    formulas += [Formula(case["id"], case["input"], True, "inline", None)
                 for case in chem["cases"]]
    return formulas


def _utf8_len(text: str) -> int:
    return len(text.encode("utf-8"))


def _element_count(mathml: str) -> int:
    # The serializer closes every element with an end tag and escapes "<"
    # in text, so end tags count elements exactly.
    return mathml.count("</")


def _ref_body(ref: str) -> str:
    """The content between ``<math display=...>`` and ``</math>``."""
    return ref[ref.index(">") + 1:-len("</math>")]


def with_unknown_command(source: str) -> tuple[str, tuple[int, int]]:
    """`source` with UNKNOWN_COMMAND appended, and that command's byte span."""
    prefix = source + " "
    start = _utf8_len(prefix)
    return prefix + UNKNOWN_COMMAND, (start, start + _utf8_len(UNKNOWN_COMMAND))


class Workload:
    """One pass of operations plus the checks that need a whole pass."""

    name = ""
    tail_pct = 99.9  # fixed per workload from its op count: >= 10 samples beyond
    probe_every_ns = 100_000_000  # longest stretch of operations between speed probes
    warmup_s = 0.0  # untimed passes before timing: at least one, and this long

    def __init__(self):
        self.ops: list[Op] = []
        self.counts: Counter = Counter()

    def begin_pass(self) -> None:
        self.counts = Counter()

    def end_pass(self) -> list[str]:
        """Whole-pass problems (empty when none)."""
        return []

    def finish(self) -> list[tuple[str, str, int]]:
        """Checks made after the timed loop: (op id, message, times run)."""
        return []

    def close(self) -> None:
        pass


class CorpusConvert(Workload):
    """The library batch path, cache off: check, convert, check a bad variant."""

    name = "corpus_convert"

    def __init__(self, seed: int):
        super().__init__()
        formulas = load_formulas()
        random.Random(seed).shuffle(formulas)
        for f in formulas:
            options = GenOptions(display=f.display)
            variant, span = with_unknown_command(f.source)
            self.ops += [
                Op(f"{f.id}:check",
                   lambda f=f: texmathc.check_formula(f.source, chem=f.chem),
                   self._check_valid),
                Op(f"{f.id}:convert",
                   lambda f=f, o=options: texmathc.convert_formula(
                       f.source, chem=f.chem, options=o),
                   lambda out, ref=f.ref: self._check_convert(ref, out)),
                Op(f"{f.id}:unknown",
                   lambda f=f, v=variant: texmathc.check_formula(v, chem=f.chem),
                   lambda out, span=span: self._check_unknown(span, out)),
            ]

    def _histogram(self, diagnostics) -> list:
        for d in diagnostics:
            self.counts[f"diag.{d.code}"] += 1
        return [d for d in diagnostics if d.severity == "error"]

    def _check_valid(self, diagnostics) -> str | None:
        errors = self._histogram(diagnostics)
        if errors:
            return "valid formula rejected: " + "; ".join(d.format_line() for d in errors)
        return None

    def _check_convert(self, ref: str | None, out) -> str | None:
        if not isinstance(out, str):
            return f"convert returned {type(out).__name__}"
        self.counts["mathml_bytes"] += _utf8_len(out)
        self.counts["mathml_nodes"] += _element_count(out)
        if ref is None:
            return None if out.startswith("<math") else "output is not a math element"
        return None if out == ref else "output differs from the frozen reference"

    def _check_unknown(self, span: tuple[int, int], diagnostics) -> str | None:
        errors = self._histogram(diagnostics)
        got = [(d.code, tuple(d.span)) for d in errors]
        if got != [("E_UNKNOWN_COMMAND", span)]:
            return f"expected E_UNKNOWN_COMMAND at {span[0]}-{span[1]}, got {got}"
        return None


# (display, wrap_semantics, annotate_tex)
CACHE_VARIANTS = tuple((display, sem, ann) for display in ("inline", "block")
                       for sem, ann in ((False, False), (True, False), (True, True)))


def expected_variant(ref: str, display: str, semantics: bool, annotate: bool):
    """Reference for one option variant, from the frozen inline reference.

    Returns the exact bytes, or for ``--annotate-tex`` (whose annotation
    text is the converter's own corrected TeX) a (prefix, suffix) pair.
    """
    body = _ref_body(ref)
    head = f'<math display="{display}">'
    if not semantics:
        return head + body + "</math>"
    head += "<semantics>" + (body or "<mrow></mrow>")
    if not annotate:
        return head + "</semantics></math>"
    return (head + '<annotation encoding="application/x-tex">',
            "</annotation></semantics></math>")


class CacheMixed(Workload):
    """Zipf-popular convert requests through a RenderCache that starts each pass empty.

    One cache directory serves the whole run.  After each pass its entry
    files are removed and its two-level fan-out directories stay, as they
    do in any cache that has been in use for a while; so every pass sees
    the same misses, and no timed write pays for creating a directory.
    """

    name = "cache_mixed"
    ZIPF_S = 1.2
    STREAM = 6000
    # The file system's cost per new cache entry settles only after a few
    # seconds of steady writing and removal, so the timing starts then.
    warmup_s = 8.0

    def __init__(self, seed: int, workdir: Path):
        super().__init__()
        self.workdir = Path(workdir)
        self.cache = RenderCache(self.workdir / "cache")
        self.events: list[str] = []
        rng = random.Random(seed)
        # One key per distinct (source, chem): the cache key is content, so
        # an input present in both corpora is one entry.  Combined cases come
        # first, so the kept copy has the frozen reference when one exists.
        unique = {(f.source, f.chem): f for f in reversed(load_formulas())}
        keys = [(f, v) for f in reversed(unique.values()) for v in CACHE_VARIANTS]
        rng.shuffle(keys)  # popularity rank
        weights = [1.0 / (rank + 1) ** self.ZIPF_S for rank in range(len(keys))]
        stream = rng.choices(range(len(keys)), weights, k=self.STREAM)
        seen: set[int] = set()
        for position, index in enumerate(stream):
            f, (display, sem, ann) = keys[index]
            options = GenOptions(display=display, wrap_semantics=sem, annotate_tex=ann)
            expect = expected_variant(f.ref, display, sem, ann) if f.ref else None
            self.ops.append(Op(
                f"{position}:{f.id}:{display}:{int(sem)}{int(ann)}",
                lambda f=f, o=options: texmathc.convert_formula(
                    f.source, chem=f.chem, options=o, cache=self.cache,
                    log=self.events.append),
                lambda out, k=index, hit=index in seen, e=expect: self._check(k, hit, e, out),
            ))
            seen.add(index)
        self.distinct = len(seen)
        self.expected_hits = self.STREAM - self.distinct

    def begin_pass(self) -> None:
        super().begin_pass()
        self.first_bytes = {}
        self.events.clear()

    def _check(self, key: int, expect_hit: bool, expect, out) -> str | None:
        events = self.events[:]
        self.events.clear()
        if not isinstance(out, str):
            return f"convert returned {type(out).__name__}"
        self.counts["mathml_bytes"] += _utf8_len(out)
        self.counts["mathml_nodes"] += _element_count(out)
        outcome = events[0].split()[1] if len(events) == 1 else f"{len(events)} events"
        self.counts["cache_hits"] += outcome == "hit"
        if outcome != ("hit" if expect_hit else "miss"):
            return f"cache outcome {outcome}, expected {'hit' if expect_hit else 'miss'}"
        first = self.first_bytes.setdefault(key, out)
        if out != first:
            return "hit bytes differ from the miss bytes for the same key"
        if isinstance(expect, str) and out != expect:
            return "output differs from the frozen reference"
        if isinstance(expect, tuple):
            prefix, suffix = expect
            middle = out[len(prefix):-len(suffix)]
            if not (out.startswith(prefix) and out.endswith(suffix)) or "<" in middle:
                return "annotated output does not wrap the frozen reference"
        return None

    def end_pass(self) -> list[str]:
        directory = self.cache.directory
        entries = 0
        written = 0
        if directory.is_dir():
            for path in directory.rglob("*"):
                if path.is_file():
                    entries += 1
                    written += path.stat().st_size
                    path.unlink()
        self.counts["cache_entries"] = entries
        self.counts["cache_bytes"] = written
        problems = []
        if entries != self.distinct:
            problems.append(f"{entries} cache entries written, expected {self.distinct}")
        if self.counts["cache_hits"] != self.expected_hits:
            problems.append(f"{self.counts['cache_hits']} hits, expected {self.expected_hits}")
        return problems

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# -- compare_trees ------------------------------------------------------------

# The CLI's --ignore-mrow --ignore-all-attrs --strip annotation --strip semantics.
COMPARE_OPTIONS = CompareOptions(
    ignore_inferred_mrow=True,
    ignored_attributes="all",
    strip_elements=frozenset({"annotation", "semantics"}),
)
# Parents whose single mrow child is bookkeeping (the documented rule).
_INFERRED_MROW_PARENTS = frozenset({
    "math", "msqrt", "mstyle", "mtd", "mphantom", "mpadded", "menclose", "semantics",
})
MATHML_NS = "http://www.w3.org/1998/Math/MathML"


class RefNode:
    """Minimal tree with the fields the oracle reads."""

    __slots__ = ("element", "text", "children")

    def __init__(self, element: str, text: str | None, children: list["RefNode"]):
        self.element = element
        self.text = text
        self.children = children

    def key(self):
        return (self.element, self.text, tuple(c.key() for c in self.children))


def ref_normalize(xml: str) -> RefNode:
    """COMPARE_OPTIONS normalization, written independently of texmathc.

    Bottom-up: attributes dropped, stripped elements spliced into their
    parent, single-child mrows replaced by their child, and a lone mrow
    under an inferred-mrow parent spliced into it.
    """
    (root,) = _ref_norm(ET.fromstring(xml))
    return root


def _ref_norm(el: ET.Element) -> list[RefNode]:
    tag = el.tag.rsplit("}", 1)[-1]
    kids = [node for child in el for node in _ref_norm(child)]
    if tag in COMPARE_OPTIONS.strip_elements:
        return kids
    if tag == "mrow" and len(kids) == 1:
        return kids
    if tag in _INFERRED_MROW_PARENTS and len(kids) == 1 and kids[0].element == "mrow":
        kids = kids[0].children
    text = None if len(el) else ((el.text or "").strip() or None)
    return [RefNode(tag, text, kids)]


@dataclass
class TreePair:
    id: str
    kind: str  # manifest, identical, rewrite, relabel
    a: str
    b: str
    size: int  # element count of side A

    @property
    def expected_by_construction(self) -> bool:
        return self.kind in ("identical", "rewrite")


def _pieces() -> list[tuple[int, str]]:
    """(element count, MathML) of every frozen reference's math content."""
    combined = json.loads((CORPORA / "combined_423.json").read_text("utf-8"))
    pieces = []
    for case in combined["cases"]:
        body = _ref_body(case["expect"]["mathml"])
        if body:
            pieces.append((_element_count(body), body))
    pieces.sort()
    return pieces


def _concatenate(rng: random.Random, pieces, target: int) -> str:
    """Reference content of exactly `target` elements, math and mrow included."""
    sizes = [size for size, _ in pieces]
    remaining = target - 2
    parts = []
    while remaining > 0:
        size, body = pieces[rng.randrange(bisect_right(sizes, remaining))]
        parts.append(body)
        remaining -= size
    return '<math display="inline"><mrow>' + "".join(parts) + "</mrow></math>"


_TOKEN_ATTRS = {"mi": ("mathvariant", "italic"), "mo": ("stretchy", "false"),
                "mn": ("class", "num")}


def _rewrite(rng: random.Random, xml: str) -> str:
    """Renderer-style differences that COMPARE_OPTIONS normalizes away."""
    root = ET.fromstring(xml)
    for el in root.iter():
        if el.tag in _TOKEN_ATTRS and rng.random() < 0.3:
            el.set(*_TOKEN_ATTRS[el.tag])
    for parent in list(root.iter()):
        for index, child in enumerate(list(parent)):
            if rng.random() < 0.15:
                wrapper = ET.Element("mrow")
                wrapper.append(child)
                parent[index] = wrapper
    semantics = ET.Element("semantics")
    semantics.extend(list(root))
    annotation = ET.SubElement(semantics, "annotation", encoding="application/x-tex")
    annotation.text = "x"
    root[:] = [semantics]
    root.set("xmlns", MATHML_NS)
    return ET.tostring(root, encoding="unicode")


_LABELS = "abcdefghijklmnopqrstuvwxyz0123456789"


def _relabel(rng: random.Random, xml: str, size: int) -> str:
    """A with max(1, size // 15) token label edits."""
    root = ET.fromstring(xml)
    tokens = [el for el in root.iter() if len(el) == 0 and (el.text or "").strip()]
    for el in rng.sample(tokens, min(len(tokens), max(1, size // 15))):
        if el.tag == "mi" and rng.random() < 0.3:
            el.tag = "mn"
        else:
            el.text = rng.choice([c for c in _LABELS if c != el.text])
    return ET.tostring(root, encoding="unicode")


def log_grid(count: int, low: int, high: int) -> list[int]:
    return [round(low * (high / low) ** (i / (count - 1))) for i in range(count)]


# Side-A sizes of the seeded pairs: 29 on a log-uniform grid over 10..400,
# and 20 more over 10..50 so that the median operation is one of many
# small pairs of about the same cost; a single median pair's cost moved
# with the content the seed picked for it.  16 + 49 = 65 pairs: an odd
# count, so the pooled median falls inside the samples of pairs, not on an
# edge between two of them, and a tenth of 65 is 6.5 pairs, so the pooled
# p90 falls in the middle of one pair's samples as well.
COMPARE_SIZES = log_grid(29, 10, 400) + log_grid(20, 10, 50)


def compare_pairs(seed: int, sizes: list[int] = COMPARE_SIZES) -> list[TreePair]:
    """The 16 two_renderer pairs plus one constructed pair per size in `sizes`.

    The sizes are fixed and the kinds of side B rotate over them, so every
    seed has the same cost profile; the seed picks the content.
    """
    manifest = json.loads((CORPORA / "two_renderer.json").read_text("utf-8"))
    pairs = [TreePair(f"manifest:{p['id']}", "manifest", p["a_inline"], p["b_inline"],
                      _element_count(p["a_inline"]))
             for p in manifest["pairs"]]
    rng = random.Random(seed)
    pieces = _pieces()
    kinds = ("identical", "rewrite", "relabel")
    for i, target in enumerate(sizes):
        a = _concatenate(rng, pieces, target)
        kind = kinds[i % len(kinds)]
        if kind == "identical":
            b = a
        elif kind == "rewrite":
            b = _rewrite(rng, a)
            if ref_normalize(a).key() != ref_normalize(b).key():
                raise ValueError(f"seed {seed}, pair {i}: rewrite survives normalization")
        else:
            b = _relabel(rng, a, target)
        pairs.append(TreePair(f"seeded:{i}:{kind}:{target}", kind, a, b, target))
    rng.shuffle(pairs)
    return pairs


def oracle_ted(pair: TreePair) -> int:
    """Expected TED: 0 by construction, else the independent oracle."""
    if pair.expected_by_construction:
        return 0
    a, b = ref_normalize(pair.a), ref_normalize(pair.b)
    from oracles import ted_recursive_oracle

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 50_000))
    try:
        return ted_recursive_oracle(a, b)
    finally:
        sys.setrecursionlimit(limit)


class CompareTrees(Workload):
    """batch_compare([pair]) per pair under the CLI's full normalization."""

    name = "compare_trees"
    tail_pct = 90.0
    # Operations take 1 ms to 2 s, so each gets a speed probe on either side.
    probe_every_ns = 0

    def __init__(self, seed: int):
        super().__init__()
        self.pairs = compare_pairs(seed)
        self.observed: dict[str, set[int]] = {p.id: set() for p in self.pairs}
        self.runs: Counter = Counter()
        for pair in self.pairs:
            compare = ComparePair(pair.id, pair.a, pair.b)
            self.ops.append(Op(
                pair.id,
                lambda c=compare: texmathc.batch_compare([c], COMPARE_OPTIONS),
                lambda out, p=pair: self._check(p, out),
            ))

    def _check(self, pair: TreePair, report) -> str | None:
        self.runs[pair.id] += 1
        if report.errors or len(report.rows) != 1 or report.rows[0].ted is None:
            return f"comparison failed: {report.errors}"
        row = report.rows[0]
        self.observed[pair.id].add(row.ted)
        self.counts["ted_sum"] += row.ted
        self.counts["pairs"] += 1
        if pair.expected_by_construction and (row.ted != 0 or row.f1 != 1.0):
            return f"{pair.kind} pair gave TED {row.ted}, F1 {row.f1}; expected 0 and 1.0"
        return None

    def finish(self) -> list[tuple[str, str, int]]:
        failures = []
        for pair in self.pairs:
            if pair.expected_by_construction:
                continue
            expected = oracle_ted(pair)
            seen = self.observed[pair.id]
            if seen and seen != {expected}:
                failures.append((pair.id, f"TED {sorted(seen)}, oracle {expected}",
                                 self.runs[pair.id]))
        return failures


WORKLOADS = {
    CorpusConvert.name: CorpusConvert,
    CacheMixed.name: CacheMixed,
    CompareTrees.name: CompareTrees,
}
