from __future__ import annotations

import pytest
from coverage_corpus import example_for_command

from texmathc.diagnostics import E_UNKNOWN_COMMAND, W_DEPRECATED
from texmathc.generator import TRANSLATIONS
from texmathc.pipeline import check_formula
from texmathc.registry import (
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
ddot\t1\taccent\t00A8
pmatrix\t0\tmatrix\t(,)
[operators]
+\tmo\t002B\t-
(\tmo\t0028\tstretchy=false
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
    assert registry.lookup("ce").chem_only
    assert registry.lookup("pu").chem_only
    assert registry.lookup("longrightleftharpoons").chem_only
    assert registry.lookup("intent").translation_fn == "intent"


def test_parse_minimal_registry():
    reg = parse_registry_text(MINIMAL)
    assert reg.version == "0.test"
    assert reg.lookup("ddot").params == ("00A8",)
    assert reg.operator("(").attributes == (("stretchy", "false"),)


def test_empty_command_list_is_legal():
    reg = parse_registry_text("version 1\n[commands]\n[operators]\n")
    assert isinstance(reg, Registry)
    assert reg.commands == {}


def test_unknown_translation_fn_rejected():
    bad = "version 1\n[commands]\nfoo\t0\tnosuchfn\t-\n"
    with pytest.raises(RegistryError, match="foo"):
        parse_registry_text(bad)


@pytest.mark.parametrize(("text", "message"), [
    ("version 1\n[commands]\nfoo\t0\n", "line 3: expected 4 or 5 tab-separated fields"),
    ("version\n[commands]\n", "line 1: empty version"),
    ("version 1\n[commands]\nfoo\tx\tidentifier\t0061\n",
     "line 3: arity 'x' is not an integer"),
    ("version 1\n[commands]\nfoo\t0\tidentifier\t0061\tbogus\n",
     "line 3: unknown flag 'bogus'"),
    ("version 1\n[operators]\n+\tmo\t002B\n", "line 3: expected 4 tab-separated fields"),
    ("version 1\n[operators]\n+\tmo\t002B\t-\n+\tmo\t002B\t-\n",
     "line 4: duplicate operator '+'"),
    ("version 1\nfoo\t0\tidentifier\t0061\n", "line 2: content outside any section"),
    ("version 1\n[operators]\n(\tmo\t0028\tstretchy\n",
     "line 3: attribute 'stretchy' is not key=value"),
    # rows of the older format, with a column between params and flags
    ("version 1\n[commands]\nand\t0\toperator\t2227\tliteral\tdeprecated\n",
     "line 3: expected 4 or 5 tab-separated fields"),
    ("version 1\n[commands]\nddot\t1\taccent\t00A8\tfunction\n", "line 3: unknown flag 'function'"),
    ("version 1\n[commands]\nfoo\t0\tidentifier\t0061\t\n", "line 3: unknown flag ''"),
    ("version 1\n[commands]\nfoo\t0\tidentifier\t0061\tdeprecated,deprecated\n",
     "line 3: repeated flag 'deprecated'"),
], ids=["command-fields", "empty-version", "arity-not-integer", "unknown-flag",
        "operator-fields", "duplicate-operator", "outside-section", "attribute-without-equals",
        "old-six-fields", "old-five-fields", "empty-flags", "repeated-flag"])
def test_malformed_line_identified(text, message):
    with pytest.raises(RegistryError) as err:
        parse_registry_text(text)
    assert str(err.value) == message


def test_row_with_both_flags(registry):
    """A `chem-only,deprecated` row survives a dump, is refused without
    chemistry and warns with it."""
    head, _, tail = dump_registry(registry).partition("[commands]\n")
    row = "foo\t0\toperator\t2227\tchem-only,deprecated"
    both = parse_registry_text(head + "[commands]\n" + row + "\n" + tail)
    assert row in dump_registry(both).split("\n")
    assert parse_registry_text(dump_registry(both)) == both
    assert [(d.code, d.message) for d in check_formula("a \\foo b", registry=both)] == [
        (E_UNKNOWN_COMMAND, "\\foo is only available after chemistry preprocessing")]
    assert [(d.code, d.message) for d in check_formula("a \\foo b", chem=True, registry=both)] \
        == [(W_DEPRECATED, "\\foo is deprecated")]


def test_arity_past_two_rejected():
    # no translation function takes three arguments
    bad = "version 1\n[commands]\nfoo\t2\tfraction\t-\nbar\t3\tfraction\t-\n"
    with pytest.raises(RegistryError, match="line 4: command 'bar': arity 3 out of range"):
        parse_registry_text(bad)


@pytest.mark.parametrize("row, shape", [
    ("foo\t0\taccent\t005E", "arity 0"),
    ("foo\t0\ttext\t-", "arity 0"),
    ("foo\t0\tspace\t-", "0 parameters given"),
    ("foo\t1\tidentifier\t0061", "arity 1"),
    ("foo\t1\tfraction\t-", "arity 1"),
    ("foo\t1\tstyle\tbold,italic", "2 parameters given"),
    ("foo\t2\tintent\t-", "only \\\\intent"),
], ids=["accent-0", "text-0", "space-no-param", "identifier-1", "fraction-1", "style-2-params",
        "intent-foo"])
def test_row_its_function_cannot_render_rejected(registry, row, shape):
    """Such a row added to the default registry used to load, pass `check`
    and crash `convert`."""
    head, _, tail = dump_registry(registry).partition("[commands]\n")
    with pytest.raises(RegistryError, match=f"line 4: command 'foo': .*{shape}"):
        parse_registry_text(head + "[commands]\n" + row + "\n" + tail)


def test_radical_without_root_rejected(registry):
    """Without a `root` row, `\\sqrt[3]{x}` passed `check` and crashed `convert`."""
    lines = dump_registry(registry).split("\n")
    lines.remove("root\t2\troot\t-")
    sqrt_line = lines.index("sqrt\t1\tradical\t-") + 1
    with pytest.raises(RegistryError, match=f"line {sqrt_line}: command 'sqrt': .*'root'"):
        parse_registry_text("\n".join(lines))


def test_missing_version_rejected():
    with pytest.raises(RegistryError, match="version"):
        parse_registry_text("[commands]\n")


def test_duplicate_command_rejected():
    bad = ("version 1\n[commands]\n"
           "foo\t0\tidentifier\t0041\n"
           "foo\t0\tidentifier\t0042\n")
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


def test_every_deprecated_row_warns(registry):
    """Marked deprecated, each row warns where its command is read: a delimiter
    and an environment, `\\intent`, `\\ce` and `\\pu` too.  (A row already
    deprecated would repeat its flag, which the loader refuses.)"""
    def mark(row):
        return row + (",deprecated" if row.count("\t") == 4 else "\tdeprecated")

    silent, checked = [], 0
    for spec, marked in _rows_edited(registry, mark):
        source, chem = example_for_command(spec)
        found = [(d.code, d.message) for d in check_formula(source, chem=chem, registry=marked)]
        if (W_DEPRECATED, f"\\{spec.name} is deprecated") not in found:
            silent.append(spec.name)
        checked += 1
    assert silent == []
    assert checked == sum(not spec.deprecated for spec in registry.commands.values())
