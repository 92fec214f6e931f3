"""texmathc: whitelist-validated LaTeX math to presentation MathML.

Importing the package loads what `check_formula` and `convert_formula` run.
Comparison (`similarity`), `\\intent` (`intent`), chemistry (`mhchem`) and
the render cache (`cache`) load on first use: the first lookup of one of
their names here (PEP 562), the parser's first `\\intent`, `\\ce` or `\\pu`,
or a caller's cache.
"""

import importlib

from .diagnostics import Diagnostic
from .generator import to_mathml
from .mathml import GenOptions, MathMLNode, from_xml, serialize
from .parser import ParseResult, parse, render_tex
from .pipeline import ConversionFailed, check_formula, convert_formula
from .registry import CommandSpec, Registry, default_registry, load_registry

__version__ = "0.1.0"

__all__ = [
    "CommandSpec",
    "CompareOptions",
    "ConversionFailed",
    "CorpusReport",
    "Diagnostic",
    "FScoreReport",
    "GenOptions",
    "MathMLNode",
    "ParseResult",
    "Registry",
    "TedResult",
    "apply_intent",
    "batch_compare",
    "check_formula",
    "convert_formula",
    "default_registry",
    "element_fscore",
    "expand_ce",
    "expand_pu",
    "from_xml",
    "load_registry",
    "parse",
    "parse_intent",
    "render_tex",
    "serialize",
    "to_mathml",
    "tree_edit_distance",
]

# Names loaded on first use -> the submodule that defines them.  The
# submodules are listed too, so `texmathc.similarity` works after a bare
# `import texmathc`.
_LAZY = {
    "intent": "intent",
    "apply_intent": "intent",
    "parse_intent": "intent",
    "mhchem": "mhchem",
    "expand_ce": "mhchem",
    "expand_pu": "mhchem",
    "similarity": "similarity",
    "CompareOptions": "similarity",
    "CorpusReport": "similarity",
    "FScoreReport": "similarity",
    "TedResult": "similarity",
    "batch_compare": "similarity",
    "element_fscore": "similarity",
    "tree_edit_distance": "similarity",
    "cache": "cache",
}


def __getattr__(name: str):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    value = module if name == home else getattr(module, name)
    globals()[name] = value  # later lookups skip this function
    return value
