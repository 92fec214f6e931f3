"""Start-up: `import texmathc` loads what check and convert run, and no more."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import texmathc
from texmathc import convert_formula

SRC = str(Path(texmathc.__file__).resolve().parents[1])
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}

# Loaded only by comparison, `\intent`, chemistry, a render cache or the command line.
ON_FIRST_USE = ("texmathc.similarity", "texmathc.intent", "texmathc.mhchem", "texmathc.cache",
                "texmathc.cli", "xml.etree.ElementTree", "hashlib")
INTENT = r"\intent{x}{intent='a'}"

_COLD = r"""
import json, sys
before = set(sys.modules)
import texmathc
registry = texmathc.default_registry()
checked = texmathc.check_formula(r"\frac{a}{b}+x^2", registry=registry)
converted = texmathc.convert_formula(r"\frac{a}{b}+x^2", registry=registry)
loaded = sorted(set(sys.modules) - before)

import importlib
for name in texmathc.__all__:
    value = getattr(texmathc, name)
    assert getattr(importlib.import_module(value.__module__), name) is value, name
star = {}
exec("from texmathc import *", star)
assert all(star[name] is getattr(texmathc, name) for name in texmathc.__all__)
try:
    texmathc.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown name resolved")

assert texmathc.cache.RenderCache.key_for
intent = texmathc.convert_formula(sys.argv[1])
pair = texmathc.similarity.ComparePair("p", converted, intent)
report = texmathc.batch_compare([pair], texmathc.CompareOptions())
print(json.dumps({"checked": [d.code for d in checked], "loaded": loaded, "intent": intent,
                  "compared": [row.error for row in report.rows]}))
"""


def _run(*args: str) -> subprocess.CompletedProcess:
    done = subprocess.run([sys.executable, *args], env=ENV, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done


def test_cold_import_loads_only_check_and_convert():
    cold = json.loads(_run("-c", _COLD, INTENT).stdout)
    assert cold["checked"] == []
    assert "texmathc.pipeline" in cold["loaded"]
    assert [m for m in ON_FIRST_USE if m in cold["loaded"]] == []
    # what loads on first use works after a cold import
    assert cold["intent"] == convert_formula(INTENT)
    assert cold["compared"] == [None]
    # `-X importtime` lists every module the process imports, one per line;
    # the value classes are plain slotted classes, so no `dataclasses` (and
    # its `inspect`) either
    for command in (["check", "x^2"], ["convert", "--no-cache", "x^2"]):
        done = _run("-X", "importtime", "-m", "texmathc", *command)
        imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
        assert "texmathc.cli" in imported, command
        unwanted = {"texmathc.similarity", "dataclasses", "inspect"}
        assert sorted(unwanted & imported) == [], command
