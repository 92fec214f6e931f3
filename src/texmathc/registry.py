"""Data-driven whitelist of supported commands and characters.

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
_SECTIONS = {"[commands]": "command", "[characters]": "character"}

_HEX_PARAM = re.compile(r"^[0-9A-F]{4,6}$")


class RegistryError(ValueError):
    """Malformed registry data; loading fails atomically."""


class CommandSpec(Value, chem_only=False, deprecated=False):
    """One row of the translation mapping table: a whitelisted command, or a
    character.  `arity` and `infix` are those of its translation function."""

    __slots__ = ("name", "translation_fn", "params", "arity", "infix", "chem_only", "deprecated")


class Registry(Value):
    """Immutable after load; shared freely between concurrent parses."""

    # Computed at first use, in `__dict__`: `digest`, the generator's `leaves`, and
    # the parser's `literals` (`parser.leaf_table`) and `chem_ready`.
    __slots__ = ("version", "commands", "characters", "__dict__")

    def lookup(self, name: str) -> CommandSpec | None:
        """Exact-match command lookup; None means not whitelisted."""
        return self.commands.get(name)

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


def parse_registry_text(text: str) -> Registry:
    """Parse registry file content.  Raises RegistryError naming the bad line."""
    # Imported here: the generator imports this module for its types.
    from .generator import TRANSLATIONS

    version: str | None = None
    tables: dict[str, dict[str, CommandSpec]] = {"command": {}, "character": {}}
    kind = None  # the kind of row the current section holds
    radical = None  # (line, name) of the first radical row

    for lineno, line in enumerate(text.splitlines(), start=1):
        head = line.strip()
        if not head or head.startswith("#"):
            continue
        try:
            if head.startswith("[") and head.endswith("]") and "\t" not in line:
                if head not in _SECTIONS:
                    raise RegistryError(f"unknown section {head!r}")
                kind = _SECTIONS[head]
                continue
            if kind is None:
                word, *rest = head.split(None, 1)
                if word != "version":
                    raise RegistryError("content outside any section")
                if version is not None:
                    raise RegistryError("repeated version")
                if not rest:
                    raise RegistryError("empty version")
                version = rest[0]
                continue
            spec = _read_row(kind, line.split("\t"), TRANSLATIONS)
            table = tables[kind]
            if spec.name in table:
                raise RegistryError(f"duplicate {kind} {spec.name!r}")
            table[spec.name] = spec
            if spec.translation_fn == "radical" and radical is None:
                radical = lineno, spec.name
        except RegistryError as exc:
            raise RegistryError(f"line {lineno}: {exc}") from None

    commands = tables["command"]
    if version is None:
        raise RegistryError("missing version header")
    if radical and getattr(commands.get("root"), "translation_fn", None) != "root":
        raise RegistryError(f"line {radical[0]}: command {radical[1]!r}: an index needs "
                            "a 'root' row with translation function root")

    return Registry(version, commands, tables["character"])


def _read_row(kind: str, fields: list[str], translations: dict) -> CommandSpec:
    """The `name fn params [flags]` row `fields` of a `kind` section, with the
    arity and infix of its `generator.TRANSLATIONS` row; raise unless it fits."""
    if len(fields) not in (3, 4):
        raise RegistryError("expected 3 or 4 tab-separated fields")
    name, fn, params_text, *flags = fields
    if fn not in translations:
        raise RegistryError(f"{kind} {name!r}: unknown translation function {fn!r}")
    function, arity, infix, fewest, most = translations[fn]
    params = () if params_text == "-" else tuple(params_text.split(","))
    if not fewest <= len(params) <= most:
        wanted = str(fewest) if fewest == most else f"{fewest} to {most}"
        raise RegistryError(f"{kind} {name!r}: {len(params)} parameters given, "
                            f"{fn} takes {wanted}")
    if fn == "intent" and name != "intent":
        raise RegistryError(f"{kind} {name!r}: only \\intent is read as the intent macro")
    if kind == "character":
        if len(name) != 1:
            raise RegistryError(f"character {name!r}: a character row names one character")
        if function is None or arity:
            raise RegistryError(f"character {name!r}: {fn} does not render a bare character")
        if flags:
            raise RegistryError(f"character {name!r}: a character row takes no flags")
    flags = flags[0].split(",") if flags else ()
    for i, flag in enumerate(flags):
        if flag not in FLAGS or flag in flags[:i]:
            raise RegistryError(f"{'unknown' if flag not in FLAGS else 'repeated'} flag {flag!r}")
    return CommandSpec(name, fn, params, arity, infix, "chem-only" in flags, "deprecated" in flags)


def load_registry(source: str | Path) -> Registry:
    """Load a registry from the file `source` (`default_registry` is the embedded one)."""
    text = Path(source).read_text(encoding="utf-8")
    return parse_registry_text(text)


@lru_cache(maxsize=1)
def default_registry() -> Registry:
    return load_registry(Path(__file__).parent / "data" / "registry.txt")


def dump_registry(registry: Registry) -> str:
    """Serialize back to the file format; load(dump(load(x))) == load(x)."""
    lines = [f"version {registry.version}"]
    for section, specs in zip(_SECTIONS, (registry.commands, registry.characters)):
        lines += ["", section]
        for spec in specs.values():
            params = ",".join(spec.params) if spec.params else "-"
            fields = [spec.name, spec.translation_fn, params]
            flags = [flag for flag, on in zip(FLAGS, (spec.chem_only, spec.deprecated)) if on]
            if flags:
                fields.append(",".join(flags))
            lines.append("\t".join(fields))
    lines.append("")
    return "\n".join(lines)
