"""Data-driven whitelist of supported commands and literal operator tokens.

The registry is loaded from a tab-separated text file (see ``data/registry.txt``
for the shipped default).  New macros are added by editing the table, not the
code: each record names the generator function that renders it plus the
parameters that function needs (codepoints as uppercase hex, fences and
widths literally).
"""

from __future__ import annotations

import re
from functools import cached_property, lru_cache
from pathlib import Path

from .value import Value

FLAGS = ("chem-only", "deprecated")
MAX_ARITY = 2

_HEX_PARAM = re.compile(r"^[0-9A-F]{4,6}$")


class RegistryError(ValueError):
    """Malformed registry data; loading fails atomically."""


class CommandSpec(Value, chem_only=False, deprecated=False):
    """One whitelisted command: a row of the translation mapping table."""

    __slots__ = ("name", "arity", "translation_fn", "params", "chem_only", "deprecated")

    def __post_init__(self) -> None:
        if not 0 <= self.arity <= MAX_ARITY:
            raise RegistryError(f"command {self.name!r}: arity {self.arity} out of range")


class OperatorSpec(Value, attributes=()):
    """Mapping of a literal source token to its MathML token element."""

    # element: mo, mi or mn; codepoint: uppercase hex of the emitted character(s)
    __slots__ = ("token", "element", "codepoint", "attributes")

    def __post_init__(self) -> None:
        if self.element not in ("mo", "mi", "mn"):
            raise RegistryError(f"operator {self.token!r}: element must be mo/mi/mn")

    @property
    def text(self) -> str:
        return decode_param(self.codepoint)


class Registry(Value):
    """Immutable after load; shared freely between concurrent parses."""

    # Computed at first use, in `__dict__`: `digest`, the generator's `leaves`, and
    # the parser's `literals` (`parser.leaf_table`) and `chem_ready`.
    __slots__ = ("version", "commands", "operators", "__dict__")

    def lookup(self, name: str) -> CommandSpec | None:
        """Exact-match command lookup; None means not whitelisted."""
        return self.commands.get(name)

    def operator(self, token: str) -> OperatorSpec | None:
        return self.operators.get(token)

    @cached_property
    def digest(self) -> str:
        """SHA-256 of the registry's content, computed on first use."""
        import hashlib

        return hashlib.sha256(dump_registry(self).encode("utf-8")).hexdigest()

    @cached_property
    def leaves(self) -> dict:
        """The generator's shared MathML leaf of each literal token, by token,
        and of each fence or mark `mo`, by (text, *attributes)."""
        return {}


def decode_param(param: str) -> str:
    """Decode a table parameter: uppercase-hex codepoints become characters,
    anything else is taken literally."""
    if _HEX_PARAM.match(param):
        return chr(int(param, 16))
    return param


def _split_attrs(text: str) -> tuple[tuple[str, str], ...]:
    if text == "-":
        return ()
    pairs = []
    for chunk in text.split(";"):
        if "=" not in chunk:
            raise RegistryError(f"attribute {chunk!r} is not key=value")
        key, _, value = chunk.partition("=")
        pairs.append((key, value))
    return tuple(pairs)


def parse_registry_text(text: str) -> Registry:
    """Parse registry file content.  Raises RegistryError naming the bad line."""
    # Imported here: the generator imports this module for its types.
    from .generator import TRANSLATIONS

    version: str | None = None
    commands: dict[str, CommandSpec] = {}
    operators: dict[str, OperatorSpec] = {}
    section = None
    radical = None  # (line, name) of the first radical row

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            if line.startswith("version"):
                version = line.split(None, 1)[1].strip() if len(line.split(None, 1)) > 1 else ""
                if not version:
                    raise RegistryError("empty version")
                continue
            if line.strip() in ("[commands]", "[operators]"):
                section = line.strip()
                continue
            fields = line.split("\t")
            if section == "[commands]":
                if len(fields) not in (4, 5):
                    raise RegistryError("expected 4 or 5 tab-separated fields")
                name, arity_text, fn, params_text = fields[:4]
                flags = fields[4].split(",") if len(fields) == 5 else ()
                try:
                    arity = int(arity_text)
                except ValueError:
                    raise RegistryError(f"arity {arity_text!r} is not an integer") from None
                if name in commands:
                    raise RegistryError(f"duplicate command {name!r}")
                for i, flag in enumerate(flags):
                    if flag not in FLAGS or flag in flags[:i]:
                        raise RegistryError(f"{'unknown' if flag not in FLAGS else 'repeated'} "
                                            f"flag {flag!r}")
                params = () if params_text == "-" else tuple(params_text.split(","))
                spec = CommandSpec(name, arity, fn, params, "chem-only" in flags,
                                   "deprecated" in flags)
                _check_shape(spec, TRANSLATIONS)
                commands[name] = spec
                if fn == "radical" and radical is None:
                    radical = lineno, name
            elif section == "[operators]":
                if len(fields) != 4:
                    raise RegistryError("expected 4 tab-separated fields")
                token, element, codepoint, attrs_text = fields
                if token in operators:
                    raise RegistryError(f"duplicate operator {token!r}")
                operators[token] = OperatorSpec(token, element, codepoint,
                                                _split_attrs(attrs_text))
            else:
                raise RegistryError("content outside any section")
        except RegistryError as exc:
            raise RegistryError(f"line {lineno}: {exc}") from None

    if version is None:
        raise RegistryError("missing version header")
    if radical and getattr(commands.get("root"), "translation_fn", None) != "root":
        raise RegistryError(f"line {radical[0]}: command {radical[1]!r}: an index needs "
                            "a 'root' row with translation function root")

    return Registry(version, commands, operators)


def _check_shape(spec: CommandSpec, translations: dict) -> None:
    """Raise unless the arity and parameters of `spec` fit its `generator.TRANSLATIONS` row."""
    fn = spec.translation_fn
    if fn not in translations:
        raise RegistryError(f"command {spec.name!r}: unknown translation function {fn!r}")
    _, arities, fewest, most = translations[fn]
    if spec.arity not in arities:
        raise RegistryError(f"command {spec.name!r}: {fn} takes arity "
                            f"{' or '.join(map(str, arities))}, not arity {spec.arity}")
    if not fewest <= len(spec.params) <= most:
        wanted = str(fewest) if fewest == most else f"{fewest} to {most}"
        raise RegistryError(f"command {spec.name!r}: {len(spec.params)} parameters given, "
                            f"{fn} takes {wanted}")
    if fn == "intent" and spec.name != "intent":
        raise RegistryError(f"command {spec.name!r}: only \\intent is read as the intent macro")


def load_registry(source: str | Path) -> Registry:
    """Load a registry from the file `source` (`default_registry` is the embedded one)."""
    text = Path(source).read_text(encoding="utf-8")
    return parse_registry_text(text)


@lru_cache(maxsize=1)
def default_registry() -> Registry:
    return load_registry(Path(__file__).parent / "data" / "registry.txt")


def dump_registry(registry: Registry) -> str:
    """Serialize back to the file format; load(dump(load(x))) == load(x)."""
    lines = [f"version {registry.version}", "", "[commands]"]
    for spec in registry.commands.values():
        params = ",".join(spec.params) if spec.params else "-"
        fields = [spec.name, str(spec.arity), spec.translation_fn, params]
        flags = [flag for flag, on in zip(FLAGS, (spec.chem_only, spec.deprecated)) if on]
        if flags:
            fields.append(",".join(flags))
        lines.append("\t".join(fields))
    lines.append("")
    lines.append("[operators]")
    for op in registry.operators.values():
        attrs = ";".join(f"{k}={v}" for k, v in op.attributes) if op.attributes else "-"
        lines.append("\t".join([op.token, op.element, op.codepoint, attrs]))
    lines.append("")
    return "\n".join(lines)
