"""Per-layer tracing for the benchmark, done from outside the package.

Every target is a function or method of ``texmathc`` that the package looks
up by name at call time.  ``Tracer.install`` replaces the original object
under every name in the ``texmathc`` modules that refers to it (so
``pipeline.parse`` and ``parser.parse`` are both covered; a target named at
a use site, such as ``parser.byte_offsets``, only there), and
``Tracer.uninstall`` puts the originals back.  Nothing under ``src/``
changes.

Spans nest through a stack of child-time accumulators, so a span's self
time is its duration minus the time of the spans it caused.  Per-call
counting (``post`` hooks) runs after the span closes; its time is charged
to neither the span nor its parent, so it shows as trace overhead
(``trace.unattributed_ms``) instead of layer time.  Spans are aggregated by name as
they close rather than kept one by one: a traced run makes millions.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import perf_counter_ns


def _count_nodes(node) -> int:
    return 1 + sum(_count_nodes(child) for child in node.children)


def _utf8(text) -> int:
    return len(text.encode("utf-8")) if isinstance(text, str) else 0


def _post_preprocess(counts, args, kwargs, result):
    counts["mhchem.bytes_in"] += _utf8(args[0] if args else kwargs.get("source"))
    counts["mhchem.bytes_out"] += _utf8(result)


def _post_tokenize(counts, args, kwargs, result):
    counts["parser.tokens"] += len(result)


def _post_to_mathml(counts, args, kwargs, result):
    counts["mathml.nodes_out"] += _count_nodes(result)


def _post_serialize(counts, args, kwargs, result):
    counts["mathml.bytes_out"] += _utf8(result)


def _post_cache_get(counts, args, kwargs, result):
    counts["cache.hits"] += result is not None


def _post_cache_put(counts, args, kwargs, result):
    counts["cache.bytes_written"] += _utf8(args[2] if len(args) > 2 else kwargs.get("value"))


def _post_ted(counts, args, kwargs, result):
    counts["similarity.ted.node_pairs"] += result.node_count_a * result.node_count_b


# (span name, defining module, attribute path, post hook).  A span is named
# after the module that does the work; a target missing from the code under
# test is reported as absent, never an error, so the trace survives
# refactors that fold or rename a stage.
TARGETS = (
    ("mhchem.preprocess", "texmathc.mhchem", "preprocess", _post_preprocess),
    ("parser.tokenize", "texmathc.parser", "tokenize", _post_tokenize),
    ("parser.byte_offsets", "texmathc.parser", "byte_offsets", None),
    ("parser.parse", "texmathc.parser", "parse", None),
    ("parser.render_tex", "texmathc.parser", "render_tex", None),
    ("generator.to_mathml", "texmathc.generator", "to_mathml", _post_to_mathml),
    ("intent.apply_intent", "texmathc.intent", "apply_intent", None),
    ("mathml.serialize", "texmathc.mathml", "serialize", _post_serialize),
    ("mathml.from_xml", "texmathc.mathml", "from_xml", None),
    ("pipeline.convert_formula", "texmathc.pipeline", "convert_formula", None),
    ("pipeline.check_formula", "texmathc.pipeline", "check_formula", None),
    ("cache.key_for", "texmathc.cache", "RenderCache.key_for", None),
    ("cache.get", "texmathc.cache", "RenderCache.get", _post_cache_get),
    ("cache.put", "texmathc.cache", "RenderCache.put", _post_cache_put),
    ("similarity.normalize", "texmathc.similarity", "normalize", None),
    ("similarity.ted", "texmathc.similarity", "tree_edit_distance", _post_ted),
    ("similarity.fscore", "texmathc.similarity", "element_fscore", None),
    ("similarity.batch_compare", "texmathc.similarity", "batch_compare", None),
)


class Tracer:
    """Aggregated span self times, call counts and per-call counters."""

    def __init__(self):
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack = [0]  # child time of each open span; [0] is the op level
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, post):
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        counts = self.counts

        def traced(*args, **kwargs):
            stack.append(0)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self_ns[name] += end - start - stack.pop()
                calls[name] += 1
                stack[-1] += end - start
            if post is not None:
                post(counts, args, kwargs, result)
                stack[-1] += perf_counter_ns() - end
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that exists; list the ones that do not."""
        self.absent = []
        for name, module_name, path, post in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name)
                continue
            if isinstance(owner, type):
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                wrapped = self._wrap(name, fn, post)
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, staticmethod(wrapped) if is_static else wrapped)
                continue
            wrapped = self._wrap(name, raw, post)
            if getattr(raw, "__module__", None) == module_name:
                modules = [m for n, m in list(sys.modules.items())
                           if n == "texmathc" or n.startswith("texmathc.")]
            else:
                modules = [owner]
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is raw:
                        self._restore.append((module, alias, raw))
                        setattr(module, alias, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
