"""texmathc: whitelist-validated LaTeX math to presentation MathML."""

from .diagnostics import Diagnostic
from .generator import to_mathml
from .intent import apply_intent, parse_intent
from .mathml import GenOptions, MathMLNode, from_xml, serialize
from .mhchem import expand_ce, expand_pu
from .parser import ParseResult, parse, render_tex
from .pipeline import ConversionFailed, check_formula, convert_formula
from .registry import CommandSpec, Registry, default_registry, load_registry
from .similarity import (
    CompareOptions,
    CorpusReport,
    FScoreReport,
    TedResult,
    batch_compare,
    element_fscore,
    normalize,
    tree_edit_distance,
)

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
    "normalize",
    "parse",
    "parse_intent",
    "render_tex",
    "serialize",
    "to_mathml",
    "tree_edit_distance",
]
