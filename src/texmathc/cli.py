"""Command-line surface: check, convert, corpus, compare, cache.

Exit codes: 0 success, 1 validation/comparison failure, 2 environment or
I/O failure.  Machine-consumable payload goes to stdout only; diagnostics
and progress go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .cache import RenderCache
from .diagnostics import ERROR
from .mathml import GenOptions
from .pipeline import ConversionFailed, check_formula, convert_formula
from .registry import default_registry
from .similarity import (
    CompareOptions,
    ComparePair,
    batch_compare,
    format_report_table,
)


def _read_input(args) -> str:
    if getattr(args, "file", None):
        return Path(args.file).read_text(encoding="utf-8").strip()
    if args.input == "-":
        return sys.stdin.read().strip()
    return args.input


def _gen_options(display: str, semantics: bool, annotate: bool) -> GenOptions:
    """Output options; a TeX annotation implies the semantics wrapper."""
    return GenOptions(display=display, wrap_semantics=semantics or annotate,
                      annotate_tex=annotate)


def cmd_check(args) -> int:
    try:
        source = _read_input(args)
    except OSError as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return 2
    diagnostics = check_formula(source, chem=args.chem)
    if args.json:
        print(json.dumps([d.to_dict() for d in diagnostics]))
    else:
        for diag in diagnostics:
            print(diag.format_line(), file=sys.stderr)
    return 1 if any(d.severity == ERROR for d in diagnostics) else 0


def cmd_convert(args) -> int:
    try:
        source = _read_input(args)
    except OSError as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return 2
    options = _gen_options(args.display, args.semantics, args.annotate_tex)
    cache = None if args.no_cache else RenderCache()
    log = (lambda msg: print(msg, file=sys.stderr)) if args.verbose else None
    try:
        output = convert_formula(source, chem=args.chem, options=options,
                                 cache=cache, log=log)
    except ConversionFailed as exc:
        for diag in exc.diagnostics:
            print(diag.format_line(), file=sys.stderr)
        return 1
    print(output)
    return 0


def _case_options(case: dict) -> tuple[GenOptions, bool]:
    raw = case.get("options", {})
    options = _gen_options(raw.get("display", "inline"), raw.get("semantics", False),
                           raw.get("annotate_tex", False))
    return options, raw.get("chem", False)


def cmd_corpus(args) -> int:
    path = Path(args.manifest)
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
        cases = manifest["cases"]
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load manifest: {exc}", file=sys.stderr)
        return 2
    results = []
    passed = failed = errored = 0
    for case in cases:
        case_id = case.get("id", "?")
        expect = case.get("expect", {})
        try:
            if sum(k in expect for k in ("mathml", "error_code", "valid_only")) != 1:
                raise ValueError("case must carry exactly one expectation kind")
            options, chem = _case_options(case)
            outcome, detail = _run_case(case["input"], expect, options, chem,
                                        update=args.update_refs)
            if outcome == "pass" and args.update_refs and "mathml" in expect:
                expect["mathml"] = detail
                detail = ""
        except Exception as exc:  # manifest rows must never kill the run
            outcome, detail = "error", str(exc)
        if outcome == "pass":
            passed += 1
        elif outcome == "fail":
            failed += 1
        else:
            errored += 1
        results.append({"id": case_id, "outcome": outcome, "detail": detail})
    if args.update_refs:
        path.write_text(json.dumps(manifest, indent=1, ensure_ascii=False) + "\n",
                        encoding="utf-8")
        print(f"updated {path}", file=sys.stderr)
    summary = {"cases": len(cases), "passed": passed, "failed": failed,
               "errored": errored, "results": results}
    if args.report == "json":
        print(json.dumps(summary, indent=1))
    else:
        for row in results:
            if row["outcome"] != "pass":
                print(f"{row['outcome'].upper()} {row['id']}: {row['detail']}",
                      file=sys.stderr)
        print(f"{len(cases)} cases: {passed} passed, {failed} failed, {errored} errored")
    return 0 if failed == 0 and errored == 0 else 1


def _run_case(source: str, expect: dict, options: GenOptions, chem: bool,
              update: bool = False) -> tuple[str, str]:
    if "error_code" in expect:
        diagnostics = check_formula(source, chem=chem)
        codes = [d.code for d in diagnostics if d.severity == ERROR]
        if expect["error_code"] in codes:
            return "pass", ""
        return "fail", f"expected {expect['error_code']}, got {codes or 'no errors'}"
    if "valid_only" in expect:
        diagnostics = check_formula(source, chem=chem)
        errors = [d for d in diagnostics if d.severity == ERROR]
        if errors:
            return "fail", f"unexpected errors: {[d.code for d in errors]}"
        return "pass", ""
    # mathml expectation
    output = convert_formula(source, chem=chem, options=options)
    if update:
        return "pass", output
    if output == expect.get("mathml"):
        return "pass", ""
    return "fail", "output does not match reference MathML"


def _compare_options(args) -> CompareOptions:
    ignored: frozenset[str] | str
    if args.ignore_all_attrs:
        ignored = "all"
    else:
        ignored = frozenset(args.ignore_attr or [])
    return CompareOptions(
        ignore_inferred_mrow=args.ignore_mrow,
        ignored_attributes=ignored,
        strip_elements=frozenset(args.strip or []),
        require_semantics_wrapper=args.require_semantics,
    )


def cmd_compare(args) -> int:
    pairs: list[ComparePair] = []
    try:
        if args.manifest:
            data = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
            base = Path(args.manifest).parent
            for entry in data["pairs"]:
                a = entry.get("a_inline") or Path(base, entry["a_path"]).read_text("utf-8")
                b = entry.get("b_inline") or Path(base, entry["b_path"]).read_text("utf-8")
                pairs.append(ComparePair(entry["id"], a, b))
        else:
            if not (args.a and args.b):
                print("error: need two files or --manifest", file=sys.stderr)
                return 2
            pairs.append(ComparePair(
                "pair",
                Path(args.a).read_text(encoding="utf-8"),
                Path(args.b).read_text(encoding="utf-8"),
            ))
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = batch_compare(pairs, _compare_options(args))
    if args.report == "json":
        print(json.dumps(report.to_dict(), indent=1))
    else:
        print(format_report_table(report))
        for row in report.rows:
            if row.error is None:
                print(f"{row.id}\tted={row.ted}\tf1={row.f1:.3f}")
    return 1 if report.errors else 0


def _temp_files(count: int) -> str:
    return f"{count} temp file" + ("" if count == 1 else "s")


def cmd_cache(args) -> int:
    cache = RenderCache()
    try:
        if args.action == "purge":
            removed = cache.purge()
            temps = f" and {_temp_files(removed.temp_files)}" if removed.temp_files else ""
            print(f"{removed.entries} entries{temps} removed")
        else:
            count, size, temp_files = cache.stats()
            noun = "entry" if count == 1 else "entries"
            temps = f", {_temp_files(temp_files)}" if temp_files else ""
            print(f"{count} {noun}, {size} bytes{temps}")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="texmathc",
        description="Validate whitelisted LaTeX math, convert it to MathML, "
                    "and compare MathML structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate a formula")
    p_check.add_argument("input", nargs="?", default="-",
                         help="formula, or - for stdin")
    p_check.add_argument("--file", help="read the formula from a file")
    p_check.add_argument("--chem", action="store_true",
                         help="allow \\ce{...}/\\pu{...} chemistry (mhchem subset)")
    p_check.add_argument("--json", action="store_true",
                         help="emit diagnostics as a JSON array on stdout")
    p_check.set_defaults(func=cmd_check)

    p_convert = sub.add_parser("convert", help="convert a formula to MathML")
    p_convert.add_argument("input", nargs="?", default="-")
    p_convert.add_argument("--file", help="read the formula from a file")
    p_convert.add_argument("--display", choices=["inline", "block"], default="inline")
    p_convert.add_argument("--chem", action="store_true")
    p_convert.add_argument("--semantics", action="store_true",
                           help="wrap the output in a semantics element")
    p_convert.add_argument("--annotate-tex", action="store_true",
                           help="include the normalized TeX as an annotation "
                                "(implies --semantics)")
    p_convert.add_argument("--no-cache", action="store_true")
    p_convert.add_argument("--verbose", action="store_true",
                           help="report cache hits/misses on stderr")
    p_convert.set_defaults(func=cmd_convert)

    p_corpus = sub.add_parser("corpus", help="run a corpus manifest")
    p_corpus.add_argument("manifest")
    p_corpus.add_argument("--update-refs", action="store_true",
                          help="regenerate stored MathML expectations")
    p_corpus.add_argument("--report", choices=["table", "json"], default="table")
    p_corpus.set_defaults(func=cmd_corpus)

    p_compare = sub.add_parser("compare", help="compare MathML documents")
    p_compare.add_argument("a", nargs="?")
    p_compare.add_argument("b", nargs="?")
    p_compare.add_argument("--manifest", help="JSON manifest of document pairs")
    p_compare.add_argument("--ignore-mrow", action="store_true")
    p_compare.add_argument("--ignore-attr", action="append", metavar="NAME")
    p_compare.add_argument("--ignore-all-attrs", action="store_true")
    p_compare.add_argument("--strip", action="append", metavar="ELEMENT")
    p_compare.add_argument("--require-semantics", action="store_true")
    p_compare.add_argument("--report", choices=["table", "json"], default="table")
    p_compare.set_defaults(func=cmd_compare)

    p_cache = sub.add_parser("cache", help="manage the render cache")
    p_cache.add_argument("action", choices=["purge", "stats"])
    p_cache.set_defaults(func=cmd_cache)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Touch the default registry early so a broken data file fails loudly.
    try:
        default_registry()
    except Exception as exc:
        print(f"error: default registry failed to load: {exc}", file=sys.stderr)
        return 2
    args = build_arg_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
