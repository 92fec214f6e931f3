"""End-to-end orchestration: validate (expanding chemistry), generate, serialize, cache;
the generator's error, a codepoint span of the source, is located in bytes here."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .diagnostics import Diagnostic, DiagnosticError
from .generator import to_mathml
from .mathml import GenOptions, serialize
from .parser import parse
from .registry import Registry, default_registry

if TYPE_CHECKING:  # a cache and its hashing load only when a caller passes one
    from .cache import RenderCache


class ConversionFailed(Exception):
    """Validation or annotation failure; carries the diagnostics."""

    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(d.format_line() for d in diagnostics))
        self.diagnostics = diagnostics

    def __reduce__(self):  # `args` holds only the joined message
        return type(self), (self.diagnostics,)


def check_formula(source: str, *, chem: bool = False,
                  registry: Registry | None = None) -> list[Diagnostic]:
    """All diagnostics for `source`; empty means valid with no warnings."""
    registry = registry or default_registry()
    result = parse(source, registry, allow_chem=chem)
    if result.ok and "\\intent" in source:
        # Intent references bind to the generated tree: the check `convert` makes.
        try:
            to_mathml(result.ast, registry, GenOptions())
        except DiagnosticError as exc:
            return [exc.within(source, 0).diagnostic, *result.warnings]
    return list(result.diagnostics)


def convert_formula(source: str, *, chem: bool = False,
                    options: GenOptions | None = None,
                    registry: Registry | None = None,
                    cache: RenderCache | None = None,
                    log: Callable[[str], None] | None = None) -> str:
    """Serialized MathML for `source`; raises ConversionFailed on bad input.

    With a cache, the second identical invocation serves the stored bytes.
    A cache that cannot serve or store an entry costs a re-render, not an error.
    """
    registry = registry or default_registry()
    options = options or GenOptions()
    key = None
    if cache is not None:
        key = cache.key_for(
            f"{source}\x1fchem={chem}", options.fingerprint(), registry.digest)
        hit = cache.get(key)
        if hit is not None:
            if log:
                log(f"cache hit {key[:12]}")
            return hit
        if log:
            log(f"cache miss {key[:12]}")
    result = parse(source, registry, allow_chem=chem)
    if not result.ok:
        raise ConversionFailed(list(result.diagnostics))
    try:
        tree = to_mathml(result.ast, registry, options)
    except DiagnosticError as exc:
        raise ConversionFailed([exc.within(source, 0).diagnostic, *result.warnings]) from None
    output = serialize(tree)
    if key is not None:
        try:
            cache.put(key, output)
        except OSError as exc:
            if log:
                log(f"cache write skipped: {exc}")
    return output
