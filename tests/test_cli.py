from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import texmathc
from texmathc import convert_formula
from texmathc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- check --------------------------------------------------------------------


def test_check_valid(capsys):
    code, out, err = run(capsys, "check", "x^2")
    assert code == 0
    assert out == "" and err == ""


def test_check_unknown_command(capsys):
    code, out, err = run(capsys, "check", "\\badcmd")
    assert code == 1
    assert out == ""
    assert err.startswith("error:E_UNKNOWN_COMMAND:0-7:")


def test_check_chem(capsys):
    code, _, _ = run(capsys, "check", "--chem", "\\ce{H2O}")
    assert code == 0
    code, _, _ = run(capsys, "check", "\\ce{H2O}")
    assert code == 1


def test_check_and_convert_agree_on_unbound_intent_reference(capsys):
    source = "\\intent{x}{intent='f(\\$y)'}"
    for argv in (("check", source), ("convert", "--no-cache", source)):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:E_INTENT_UNBOUND_REF:21-24:")


def _diagnostic_rows():
    """The README's table of diagnostic codes: (code, example, chem, line)."""
    from conftest import REPO_ROOT

    readme = (REPO_ROOT / "README.md").read_text("utf-8")
    section = readme.split("### Diagnostic codes\n", 1)[1].split("\n#", 1)[0]
    rows = []
    for line in section.splitlines():
        if line.startswith("| `"):  # not the header or the rule under it
            code, _, _, example, chem, printed = line.strip("| ").split(" | ")
            rows.append((code.strip("`"), example, chem, printed.strip("`")))
    return rows


def test_readme_gives_every_diagnostic_code_a_checked_example(capsys):
    from texmathc import diagnostics

    rows = _diagnostic_rows()
    codes = [value for name, value in vars(diagnostics).items() if re.fullmatch("[EW]_[A-Z_]+", name)]
    assert len(codes) == 13 and sorted(code for code, *_ in rows) == sorted(codes)
    for code, example, chem, printed in rows:
        source = "".join(piece * int(count or 1)
                         for piece, count in re.findall(r"`([^`]+)`(?:×(\d+))?", example))
        assert chem in ("yes", "no") and source, code
        status, out, err = run(capsys, "check", *(["--chem"] if chem == "yes" else []), source)
        assert (status, out, err) == (int(code[0] == "E"), "", printed + "\n"), code
        assert printed.split(":")[1] == code


def test_check_json_on_stdout(capsys):
    code, out, err = run(capsys, "check", "--json", "\\badcmd")
    assert code == 1
    payload = json.loads(out)
    assert payload[0]["code"] == "E_UNKNOWN_COMMAND"
    assert err == ""


def test_check_file_input(tmp_path, capsys):
    path = tmp_path / "f.tex"
    path.write_text("\\frac{1}{2}", encoding="utf-8")
    code, _, _ = run(capsys, "check", "--file", str(path))
    assert code == 0


def test_check_unreadable_file(capsys, tmp_path):
    code, out, err = run(capsys, "check", "--file", str(tmp_path / "missing.tex"))
    assert code == 2
    assert "cannot read" in err


def test_file_spans_index_the_bytes_of_the_file(capsys, tmp_path):
    path = tmp_path / "f.tex"
    path.write_bytes(b"\n x\r\n\\bad\n")
    code, _, err = run(capsys, "check", "--file", str(path))
    assert code == 1
    assert err.startswith("error:E_UNKNOWN_COMMAND:5-9:")


def _stdin(monkeypatch, data: bytes) -> None:
    """Feed `data` on stdin, decoded as a C-locale interpreter would."""
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
        io.BytesIO(data), encoding="utf-8", errors="surrogateescape"))


@pytest.mark.parametrize("command", ["check", "convert"])
def test_undecodable_input_is_an_input_error(capsys, tmp_path, monkeypatch, command):
    path = tmp_path / "f.tex"
    path.write_bytes(b"\xff")
    _stdin(monkeypatch, b"\xff")
    for argv in ((command, "--file", str(path)), (command, "-")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read input: 'utf-8' codec can't decode byte 0xff")


def test_stdin_input(capsys, monkeypatch):
    _stdin(monkeypatch, "é\\bad\n".encode("utf-8"))
    code, _, err = run(capsys, "check")
    assert code == 1
    assert err.startswith("error:E_UNKNOWN_COMMAND:0-2:")


# -- convert ------------------------------------------------------------------


def test_convert_identifier(capsys):
    code, out, _ = run(capsys, "convert", "x")
    assert code == 0
    assert out == '<math display="inline"><mi>x</mi></math>\n'


def test_convert_block_display(capsys):
    code, out, _ = run(capsys, "convert", "--display", "block", "\\sqrt{1-z^3}")
    assert code == 0
    assert out.startswith('<math display="block"><msqrt>')


def test_convert_intent(capsys):
    code, out, _ = run(capsys, "convert",
                       "\\intent{(x,y)}{intent='open-interval($x,$y)'}")
    assert code == 0
    assert 'intent="open-interval($x,$y)"' in out


def test_convert_rejects_an_undecodable_argument_byte_in_raw_text(capsys):
    # An argv byte that is not UTF-8 arrives as a lone surrogate, which
    # stdout would write back as the raw byte: not XML.
    code, out, err = run(capsys, "convert", "\\text{\udcff}")
    assert (code, out) == (1, "")
    assert err.startswith("error:E_UNKNOWN_COMMAND:6-9:")


def test_convert_failure_keeps_stdout_clean(capsys):
    code, out, err = run(capsys, "convert", "\\badcmd")
    assert code == 1
    assert out == ""
    assert "E_UNKNOWN_COMMAND" in err


def test_convert_cache_hit_pattern(capsys):
    code1, out1, err1 = run(capsys, "convert", "--verbose", "x+y")
    code2, out2, err2 = run(capsys, "convert", "--verbose", "x+y")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "cache miss" in err1
    assert "cache hit" in err2


def test_convert_no_cache_byte_identical(capsys):
    _, cached, _ = run(capsys, "convert", "\\frac{a}{b}")
    _, uncached, _ = run(capsys, "convert", "--no-cache", "\\frac{a}{b}")
    assert cached == uncached


# -- cache --------------------------------------------------------------------


def test_cache_purge_empty(capsys):
    code, out, _ = run(capsys, "cache", "purge")
    assert code == 0
    assert out == "0 entries removed\n"


def test_cache_stats_after_convert(capsys):
    run(capsys, "convert", "x")
    code, out, _ = run(capsys, "cache", "stats")
    assert code == 0
    assert out.startswith("1 entry,")


def test_unusable_cache_directory_still_converts(tmp_path):
    """`python -m texmathc` with the cache directory set to a regular file."""
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("", encoding="utf-8")
    src = str(Path(texmathc.__file__).resolve().parents[1])
    env = {**os.environ, "TEXMATHC_CACHE_DIR": str(blocker),
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-m", "texmathc", "convert", "--verbose", "x+y"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == convert_formula("x+y") + "\n"
    miss, skipped = done.stderr.splitlines()
    assert miss.startswith("cache miss ") and len(miss.split()) == 3
    assert skipped.startswith("cache write skipped")


def test_a_default_registry_that_fails_to_load_exits_2(capsys, monkeypatch):
    def broken():
        raise ValueError("bad row")

    monkeypatch.setattr("texmathc.cli.default_registry", broken)
    code, out, err = run(capsys, "check", "x")
    assert (code, out, err) == (2, "", "error: default registry failed to load: bad row\n")


def test_convert_purge_convert_cycle(capsys):
    _, out1, err1 = run(capsys, "convert", "--verbose", "x^2")
    code, purged, _ = run(capsys, "cache", "purge")
    assert code == 0 and purged == "1 entries removed\n"
    _, out2, err2 = run(capsys, "convert", "--verbose", "x^2")
    assert out1 == out2
    assert "cache miss" in err1 and "cache miss" in err2


# -- corpus -------------------------------------------------------------------


def write_manifest(tmp_path, cases):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"version": 1, "cases": cases}), encoding="utf-8")
    return path


def test_corpus_empty(capsys, tmp_path):
    path = write_manifest(tmp_path, [])
    code, out, _ = run(capsys, "corpus", str(path))
    assert code == 0
    assert out.startswith("0 cases")


def test_corpus_error_expectation(capsys, tmp_path):
    path = write_manifest(tmp_path, [
        {"id": "bad", "input": "\\nope", "expect": {"error_code": "E_UNKNOWN_COMMAND"}},
        {"id": "ok", "input": "x", "expect": {"valid_only": True}},
    ])
    code, out, _ = run(capsys, "corpus", str(path))
    assert code == 0
    assert "2 passed" in out


def test_corpus_failure_exit(capsys, tmp_path):
    path = write_manifest(tmp_path, [
        {"id": "wrong", "input": "x", "expect": {"mathml": "<math>stale</math>"}},
    ])
    code, out, err = run(capsys, "corpus", str(path))
    assert code == 1
    assert "FAIL wrong" in err


def test_corpus_update_refs(capsys, tmp_path):
    path = write_manifest(tmp_path, [
        {"id": "c", "input": "x^2", "expect": {"mathml": "stale"}},
    ])
    code, out, _ = run(capsys, "corpus", str(path), "--update-refs", "--report", "json")
    assert code == 0
    assert json.loads(out)["results"] == [{"id": "c", "outcome": "pass", "detail": ""}]
    refreshed = json.loads(path.read_text(encoding="utf-8"))
    assert refreshed["cases"][0]["expect"]["mathml"].startswith("<math")
    code, out, _ = run(capsys, "corpus", str(path))
    assert code == 0 and "1 passed" in out


def test_corpus_bad_manifest(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "corpus", str(path))
    assert code == 2


@pytest.mark.parametrize("manifest", [{"cases": [1]}, [], {"cases": 3}, {"cases": {}}, {}])
def test_corpus_malformed_manifest(capsys, tmp_path, manifest):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    code, out, err = run(capsys, "corpus", str(path))
    assert (code, out) == (2, "")
    assert err == "error: manifest must be an object with a list of objects under \"cases\"\n"


def test_corpus_reports_each_failed_expectation(capsys, tmp_path):
    path = write_manifest(tmp_path, [
        {"id": "two", "input": "x", "expect": {"valid_only": True, "error_code": "E_BAD_ENV"}},
        {"id": "none", "input": "x", "expect": {"error_code": "E_UNKNOWN_COMMAND"}},
        {"id": "other", "input": "\\nope", "expect": {"error_code": "E_BAD_ENV"}},
        {"id": "invalid", "input": "\\nope", "expect": {"valid_only": True}},
    ])
    results = [
        {"id": "two", "outcome": "error",
         "detail": "case must carry exactly one expectation kind"},
        {"id": "none", "outcome": "fail",
         "detail": "expected E_UNKNOWN_COMMAND, got no errors"},
        {"id": "other", "outcome": "fail",
         "detail": "expected E_BAD_ENV, got ['E_UNKNOWN_COMMAND']"},
        {"id": "invalid", "outcome": "fail",
         "detail": "unexpected errors: ['E_UNKNOWN_COMMAND']"},
    ]
    code, out, err = run(capsys, "corpus", str(path))
    assert (code, out) == (1, "4 cases: 0 passed, 3 failed, 1 errored\n")
    assert err == "".join(f"{r['outcome'].upper()} {r['id']}: {r['detail']}\n" for r in results)
    code, out, err = run(capsys, "corpus", str(path), "--report", "json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"cases": 4, "passed": 0, "failed": 3, "errored": 1,
                               "results": results}


def test_corpus_json_report(capsys, tmp_path):
    path = write_manifest(tmp_path, [{"id": "a", "input": "x",
                                      "expect": {"valid_only": True}}])
    code, out, _ = run(capsys, "corpus", str(path), "--report", "json")
    assert code == 0
    assert json.loads(out)["passed"] == 1


# -- compare ------------------------------------------------------------------


def test_compare_same_file(capsys, tmp_path):
    doc = tmp_path / "a.mathml"
    doc.write_text('<math><mi>x</mi></math>', encoding="utf-8")
    code, out, _ = run(capsys, "compare", str(doc), str(doc))
    assert code == 0
    assert "Overall TED\t0" in out
    assert "f1=1.000" in out


def test_compare_strip_normalization(capsys, tmp_path):
    plain = tmp_path / "plain.mathml"
    wrapped = tmp_path / "wrapped.mathml"
    plain.write_text('<math><mrow><mi>x</mi></mrow></math>', encoding="utf-8")
    wrapped.write_text(
        '<math><semantics><mrow><mi>x</mi></mrow>'
        '<annotation encoding="application/x-tex">x</annotation></semantics></math>',
        encoding="utf-8")
    code, out, _ = run(capsys, "compare", str(plain), str(wrapped),
                       "--strip", "annotation", "--strip", "semantics")
    assert code == 0
    assert "Overall TED\t0" in out
    styled = tmp_path / "styled.mathml"
    styled.write_text('<math><mrow><mi mathvariant="normal">x</mi></mrow></math>',
                      encoding="utf-8")
    assert "f1=0.667" in run(capsys, "compare", str(plain), str(styled))[1]
    code, out, _ = run(capsys, "compare", str(plain), str(styled), "--ignore-all-attrs")
    assert code == 0
    assert "f1=1.000" in out


def test_compare_manifest_json_report(capsys, tmp_path):
    manifest = tmp_path / "pairs.json"
    manifest.write_text(json.dumps({"version": 1, "pairs": [
        {"id": "p1", "a_inline": "<math><mi>x</mi></math>",
         "b_inline": "<math><mi>y</mi></math>"},
    ]}), encoding="utf-8")
    code, out, _ = run(capsys, "compare", "--manifest", str(manifest),
                       "--report", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["overall_ted"] == 1
    assert payload["rows"][0]["id"] == "p1"


_NOT_PAIRS = "error: manifest must be an object with a list of objects under \"pairs\""


@pytest.mark.parametrize("manifest, message", [
    ({"pairs": [1]}, _NOT_PAIRS),
    ([], _NOT_PAIRS),
    ({"pairs": {}}, _NOT_PAIRS),
    ({}, _NOT_PAIRS),
    ({"pairs": [{"id": 1, "a_inline": "", "b_inline": ""}]}, "error: pair id 1 is not a string"),
    ({"pairs": [{"id": "p", "a_path": 5, "b_inline": ""}]}, "error: expected str"),
])
def test_compare_malformed_manifest(capsys, tmp_path, manifest, message):
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    code, out, err = run(capsys, "compare", "--manifest", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(message)


def test_compare_manifest_empty_inline_document(capsys, tmp_path):
    """An empty inline document is read as given, not from a path."""
    manifest = tmp_path / "pairs.json"
    manifest.write_text(json.dumps({"pairs": [
        {"id": "p1", "a_inline": "", "b_inline": "<math><mi>y</mi></math>"},
    ]}), encoding="utf-8")
    code, out, _ = run(capsys, "compare", "--manifest", str(manifest), "--report", "json")
    assert code == 1
    (row,) = json.loads(out)["rows"]
    assert row["ted"] is None and row["error"].startswith("no element found")


def test_compare_xml_failure_exit(capsys, tmp_path):
    good = tmp_path / "good.mathml"
    bad = tmp_path / "bad.mathml"
    good.write_text("<math><mi>x</mi></math>", encoding="utf-8")
    bad.write_text("<math><mi>x</math>", encoding="utf-8")
    code, out, _ = run(capsys, "compare", str(good), str(bad))
    assert code == 1


def test_compare_needs_input(capsys):
    code, _, err = run(capsys, "compare")
    assert code == 2
    assert "need two files" in err


# -- bundled corpora ------------------------------------------------------------


def test_full_coverage_corpus_all_pass(capsys):
    from conftest import CORPORA

    code, out, err = run(capsys, "corpus", str(CORPORA / "combined_423.json"))
    assert code == 0, err
    assert "423 cases: 423 passed" in out


def test_two_renderer_manifest_report(capsys):
    from conftest import CORPORA

    code, out, _ = run(capsys, "compare",
                       "--manifest", str(CORPORA / "two_renderer.json"),
                       "--strip", "annotation", "--require-semantics",
                       "--report", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["formula_count"] == 16
    assert payload["overall_ted"] == sum(r["ted"] for r in payload["rows"])
