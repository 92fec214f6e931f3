from __future__ import annotations

import pytest
from coverage_corpus import example_for_command

from texmathc.diagnostics import E_UNKNOWN_COMMAND, W_DEPRECATED
from texmathc.generator import TRANSLATIONS
from texmathc.pipeline import check_formula
from texmathc.registry import (
    CommandSpec,
    Registry,
    RegistryError,
    decode_param,
    dump_registry,
    load_registry,
    parse_registry_text,
)

MINIMAL = """\
version 0.test
[commands]
ddot\taccent\t00A8
pmatrix\tmatrix\t(,)
versionmark\tidentifier\t0076
[characters]
+\toperator\t002B
(\tdelimiter\t0028
"""


def test_table1_rows_in_default(registry):
    ddot = registry.lookup("ddot")
    assert ddot is not None
    assert ddot.translation_fn == "accent"
    assert ddot.params == ("00A8",)

    tilde = registry.lookup("tilde")
    assert tilde.translation_fn == "accent"
    assert tilde.params == ("007E",)

    bar = registry.lookup("bar")
    assert bar.translation_fn == "accent"
    assert bar.params == ("00AF",)

    pmatrix = registry.lookup("pmatrix")
    assert pmatrix.translation_fn == "matrix"
    assert pmatrix.params == ("(", ")")

    matrix = registry.lookup("matrix")
    assert matrix.translation_fn == "matrix"
    assert matrix.params == ()


def test_lookup_absent_is_none(registry):
    assert registry.lookup("notacommand") is None


def test_default_registry_breadth(registry):
    assert len(registry.commands) >= 200
    used_fns = {spec.translation_fn for spec in registry.commands.values()}
    assert used_fns == set(TRANSLATIONS), (
        "every translation function must be exercised by the shipped data")


def test_every_fn_resolves(registry):
    assert {fn for fn, row in TRANSLATIONS.items() if row[0] is None} == {"matrix", "intent"}
    for spec in registry.commands.values():
        assert spec.translation_fn in TRANSLATIONS, spec.name


def test_categories_and_arities(registry):
    for spec in registry.commands.values():
        assert 0 <= spec.arity <= 2
        assert (spec.arity, spec.infix) == TRANSLATIONS[spec.translation_fn][1:3]
    assert {name for name, spec in registry.commands.items() if spec.infix} == {
        "over", "choose", "atop"}
    assert registry.lookup("ce").chem_only
    assert registry.lookup("pu").chem_only
    assert registry.lookup("longrightleftharpoons").chem_only
    assert registry.lookup("intent").translation_fn == "intent"


def test_parse_minimal_registry():
    reg = parse_registry_text(MINIMAL)
    assert reg.version == "0.test"
    assert reg.lookup("ddot").params == ("00A8",)
    assert reg.lookup("versionmark").params == ("0076",)  # a row, not the header
    assert reg.characters["("] == CommandSpec("(", "delimiter", ("0028",), 0, False)


def test_empty_command_list_is_legal():
    reg = parse_registry_text("version 1\n[commands]\n[characters]\n")
    assert isinstance(reg, Registry)
    assert reg.commands == {}


def test_unknown_translation_fn_rejected():
    bad = "version 1\n[commands]\nfoo\tnosuchfn\t-\n"
    with pytest.raises(RegistryError, match="foo"):
        parse_registry_text(bad)


_NEVER_READ = "an ASCII letter or digit, or whitespace, is never read by its row"
_NO_TOKEN = "no token names it (not ASCII letters)"


@pytest.mark.parametrize(("text", "message"), [
    ("version 1\n[commands]\nfoo\tidentifier\n", "line 3: expected 3 or 4 tab-separated fields"),
    ("version\n[commands]\n", "line 1: empty version"),
    ("version 1\n[commands]\nfoo\tx\tidentifier\t0061\n",
     "line 3: command 'foo': unknown translation function 'x'"),
    ("version 1\n[commands]\nfoo\tidentifier\t0061\tbogus\n",
     "line 3: unknown flag 'bogus'"),
    ("version 1\n[characters]\n+\toperator\n", "line 3: expected 3 or 4 tab-separated fields"),
    ("version 1\n[characters]\n+\toperator\t002B\n+\toperator\t002B\n",
     "line 4: duplicate character '+'"),
    ("version 1\nfoo\tidentifier\t0061\n", "line 2: content outside any section"),
    ("version 1\n[characters]\n(\tdelimiter\t0028\tstretchy\n",
     "line 3: character '(': a character row takes no flags"),
    # rows of older formats: with an arity column, and with a category column too
    ("version 1\n[commands]\nand\t0\toperator\t2227\tliteral\tdeprecated\n",
     "line 3: expected 3 or 4 tab-separated fields"),
    ("version 1\n[commands]\nddot\taccent\t00A8\tfunction\n", "line 3: unknown flag 'function'"),
    ("version 1\n[commands]\nfoo\tidentifier\t0061\t\n", "line 3: unknown flag ''"),
    ("version 1\n[commands]\nfoo\tidentifier\t0061\tdeprecated,deprecated\n",
     "line 3: repeated flag 'deprecated'"),
    ("version 1\n[commands]\nalpha\t0\tidentifier\t03B1\n",
     "line 3: command 'alpha': unknown translation function '0'"),
    ("version 1\n[operators]\n+\tmo\t002B\t-\n", "line 2: unknown section '[operators]'"),
    ("version 1\n[characters]\n+\tmo\t002B\t-\n",
     "line 3: character '+': unknown translation function 'mo'"),
    # the header is read once, before the first section
    ("version 1\n[commands]\nversionmark\tidentifier\t0076\nversionmark\tidentifier\t0076\n",
     "line 4: duplicate command 'versionmark'"),
    ("version 1\n[commands]\nversion 2\n", "line 3: expected 3 or 4 tab-separated fields"),
    ("version 1\nversion 2\n[commands]\n", "line 2: repeated version"),
    # a character row names one character, renders with no arguments and has no flags
    ("version 1\n[characters]\n<=\toperator\t2264\n",
     "line 3: character '<=': a character row names one character"),
    ("version 1\n[characters]\n\toperator\t2264\n",
     "line 3: character '': a character row names one character"),
    ("version 1\n[characters]\n|\tmatrix\t-\n",
     "line 3: character '|': matrix does not render a bare character"),
    ("version 1\n[characters]\n/\tover\t-\n",
     "line 3: character '/': over does not render a bare character"),
    ("version 1\n[characters]\n~\taccent\t007E\n",
     "line 3: character '~': accent does not render a bare character"),
    ("version 1\n[characters]\n+\toperator\t002B\tdeprecated\n",
     "line 3: character '+': a character row takes no flags"),
    # nor one the tokenizer reads without a row (a letter, a digit) or skips (whitespace)
    ("version 1\n[characters]\na\toperator\t002B\n",
     f"line 3: character 'a': {_NEVER_READ}"),
    ("version 1\n[characters]\n7\toperator\t0037\n",
     f"line 3: character '7': {_NEVER_READ}"),
    ("version 1\n[characters]\n \toperator\t0020\n",
     f"line 3: character ' ': {_NEVER_READ}"),
    ("version 1\n[characters]\n\u00a0\toperator\t00A0\n",
     f"line 3: character '\\xa0': {_NEVER_READ}"),
    # a command of two or more characters that no token names: `\\a1` is `\\a` then `1`
    ("version 1\n[commands]\na1\tidentifier\t03B1\n", f"line 3: command 'a1': {_NO_TOKEN}"),
    ("version 1\n[commands]\ntwo words\tidentifier\t03B1\n",
     f"line 3: command 'two words': {_NO_TOKEN}"),
    ("version 1\n[commands]\n<=\toperator\t2264\n", f"line 3: command '<=': {_NO_TOKEN}"),
    ("version 1\n[commands]\n\u03b1\u03b2\tidentifier\t03B1\n",
     f"line 3: command '\u03b1\u03b2': {_NO_TOKEN}"),
], ids=["command-fields", "empty-version", "arity-not-integer", "unknown-flag",
        "operator-fields", "duplicate-operator", "outside-section", "attribute-without-equals",
        "old-six-fields", "old-five-fields", "empty-flags", "repeated-flag", "old-arity-column",
        "old-operators-section", "old-operator-row", "versionmark-row", "version-in-a-section",
        "repeated-version", "character-name-two", "character-name-empty", "character-matrix",
        "character-infix", "character-with-argument", "character-flag",
        "character-letter", "character-digit", "character-space", "character-no-break-space",
        "command-letters-and-digit", "command-two-words", "command-two-marks",
        "command-non-ascii-letters"])
def test_malformed_line_identified(text, message):
    with pytest.raises(RegistryError) as err:
        parse_registry_text(text)
    assert str(err.value) == message


def test_row_with_both_flags(registry):
    """A `chem-only,deprecated` row survives a dump, is refused without
    chemistry and warns with it."""
    head, _, tail = dump_registry(registry).partition("[commands]\n")
    row = "foo\toperator\t2227\tchem-only,deprecated"
    both = parse_registry_text(head + "[commands]\n" + row + "\n" + tail)
    assert row in dump_registry(both).split("\n")
    assert parse_registry_text(dump_registry(both)) == both
    assert [(d.code, d.message) for d in check_formula("a \\foo b", registry=both)] == [
        (E_UNKNOWN_COMMAND, "\\foo is only available after chemistry preprocessing")]
    assert [(d.code, d.message) for d in check_formula("a \\foo b", chem=True, registry=both)] \
        == [(W_DEPRECATED, "\\foo is deprecated")]


@pytest.mark.parametrize("section, row, message", [
    ("[characters]", "~\taccent\t005E", "character '~': accent does not render a bare character"),
    ("[characters]", "~\ttext\t-", "character '~': text does not render a bare character"),
    ("[commands]", "foo\tspace\t-", "command 'foo': 0 parameters given"),
    ("[commands]", "foo\tstyle\tbold,italic", "command 'foo': 2 parameters given"),
    ("[commands]", "foo\tintent\t-", "command 'foo': only \\\\intent"),
], ids=["accent-0", "text-0", "space-no-param", "style-2-params", "intent-foo"])
def test_row_its_function_cannot_render_rejected(registry, section, row, message):
    """Such a row added to the default registry would load, pass `check` and
    crash `convert`."""
    head, _, tail = dump_registry(registry).partition(section + "\n")
    line = head.count("\n") + 2
    with pytest.raises(RegistryError, match=f"line {line}: {message}"):
        parse_registry_text(head + section + "\n" + row + "\n" + tail)


def test_radical_without_root_rejected(registry):
    """Without a `root` row, `\\sqrt[3]{x}` passed `check` and crashed `convert`."""
    lines = dump_registry(registry).split("\n")
    lines.remove("root\troot\t-")
    sqrt_line = lines.index("sqrt\tradical\t-") + 1
    with pytest.raises(RegistryError, match=f"line {sqrt_line}: command 'sqrt': .*'root'"):
        parse_registry_text("\n".join(lines))


def test_missing_version_rejected():
    with pytest.raises(RegistryError, match="version"):
        parse_registry_text("[commands]\n")


def test_duplicate_command_rejected():
    bad = ("version 1\n[commands]\n"
           "foo\tidentifier\t0041\n"
           "foo\tidentifier\t0042\n")
    with pytest.raises(RegistryError, match="duplicate"):
        parse_registry_text(bad)


def test_dump_load_round_trip(registry):
    dumped = dump_registry(registry)
    reloaded = parse_registry_text(dumped)
    assert reloaded == registry
    assert dump_registry(reloaded) == dumped


def test_load_registry_from_file(tmp_path):
    path = tmp_path / "reg.txt"
    path.write_text(MINIMAL, encoding="utf-8")
    reg = load_registry(path)
    assert reg.lookup("ddot") is not None


def test_decode_param():
    assert decode_param("00A8") == "¨"
    assert decode_param("(") == "("
    assert decode_param("mod") == "mod"
    assert decode_param("1em") == "1em"


def _rows_edited(registry, edit):
    """Each command of `registry` with the registry whose row of it is `edit`ed
    (None drops the row), skipping those the loader refuses."""
    lines = dump_registry(registry).split("\n")
    first = lines.index("[commands]") + 1  # one row per command, in order
    for row, spec in enumerate(registry.commands.values(), first):
        edited = edit(lines[row])
        try:
            yield spec, parse_registry_text(
                "\n".join(lines[:row] + [edited] * (edited is not None) + lines[row + 1:]))
        except RegistryError:
            continue


def test_every_command_is_admitted_by_its_row(registry):
    """Without its row, a command's example is refused, `\\intent` and, under
    chemistry, `\\ce` and `\\pu` too."""
    def errors(source, chem, registry):
        return [d for d in check_formula(source, chem=chem, registry=registry)
                if d.severity == "error"]

    admitted, refused = [], []
    for spec, without in _rows_edited(registry, lambda row: None):
        source, chem = example_for_command(spec)
        assert errors(source, chem, registry) == [], spec.name
        (refused if errors(source, chem, without) else admitted).append(spec.name)
    assert admitted == []
    assert len(refused) == len(registry.commands) - 1  # all but `root`, which `\sqrt[` needs


def test_every_character_is_admitted_by_its_row(registry):
    lines = dump_registry(registry).split("\n")
    first = lines.index("[characters]") + 1  # one row per character, in order
    for row, char in enumerate(registry.characters, first):
        without = parse_registry_text("\n".join(lines[:row] + lines[row + 1:]))
        source = f"x {char} y"
        assert list(check_formula(source, registry=registry)) == [], char
        assert [(d.code, d.message) for d in check_formula(source, registry=without)] == [
            (E_UNKNOWN_COMMAND, f"character {char!r} is not whitelisted")], char


def test_every_deprecated_row_warns(registry):
    """Marked deprecated, each row warns where its command is read: a delimiter
    and an environment, `\\intent`, `\\ce` and `\\pu` too.  (A row already
    deprecated would repeat its flag, which the loader refuses.)"""
    def mark(row):
        return row + (",deprecated" if row.count("\t") == 3 else "\tdeprecated")

    silent, checked = [], 0
    for spec, marked in _rows_edited(registry, mark):
        source, chem = example_for_command(spec)
        found = [(d.code, d.message) for d in check_formula(source, chem=chem, registry=marked)]
        if (W_DEPRECATED, f"\\{spec.name} is deprecated") not in found:
            silent.append(spec.name)
        checked += 1
    assert silent == []
    assert checked == sum(not spec.deprecated for spec in registry.commands.values())
