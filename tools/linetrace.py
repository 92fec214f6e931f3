"""Pytest plugin: list the lines of the `texmathc` package that a test run never executes.

Run from the repository root, with the tier-1 tests or any subset of them:

    PYTHONPATH=src:tools python -m pytest -q -p linetrace

The plugin installs a tracer with `sys.settrace` and `threading.settrace`
at `pytest_configure`, before any test module imports `texmathc`, and follows
only frames whose code lives in the package's directory.  At the end of the
run it prints, per module, the executable lines that no `call` or `line`
event reached.  The executable lines are those of the module's compiled code
objects, nested code included (`co_lines()`).  It takes no options.

Subprocesses are not traced, so `__main__.py` always shows, whatever the
tests run through `python -m texmathc`.
Tracing makes the run about two and a half times slower.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import threading

_PACKAGE = os.path.dirname(importlib.util.find_spec("texmathc").origin)  # not imported
_ran: set[tuple[str, int]] = set()


def _local(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    filename = frame.f_code.co_filename
    if not filename.startswith(_PACKAGE):
        return None
    _ran.add((filename, frame.f_lineno))
    return _local


def _executable(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _executable(const)
    return lines


def _ranges(lines: list[int]) -> str:
    """`1, 3-5, 9` for [1, 3, 4, 5, 9]."""
    out: list[str] = []
    start = end = lines[0]
    for line in lines[1:] + [None]:
        if line == end + 1:
            end = line
            continue
        out.append(str(start) if start == end else f"{start}-{end}")
        start = end = line
    return ", ".join(out)


def never_run() -> dict[str, list[int]]:
    """Module file name -> its executable lines that no event reached so far."""
    report = {}
    for name in sorted(os.listdir(_PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(_PACKAGE, name)
        with open(path, encoding="utf-8") as f:
            code = compile(f.read(), path, "exec")
        missed = sorted(line for line in _executable(code) if (path, line) not in _ran)
        if missed:
            report[name] = missed
    return report


def pytest_configure(config):
    sys.settrace(_global)
    threading.settrace(_global)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    terminalreporter.section("lines of texmathc never run")
    report = never_run()
    for name, lines in report.items():
        terminalreporter.write_line(f"{name}: {_ranges(lines)}")
    if not report:
        terminalreporter.write_line("none")
