"""Synthesize one realistic example formula per registry command.

This backs the full-coverage regression corpus: every whitelisted command
must validate, convert, and serialize.  Commands with arguments get
plausible argument shapes per translation function.
"""

from __future__ import annotations

from texmathc.registry import CommandSpec, Registry


def example_for_command(spec: CommandSpec) -> tuple[str, bool]:
    """(example input, needs chemistry preprocessing)."""
    name = spec.name
    cmd = "\\" + name
    fn = spec.translation_fn
    if spec.chem_only:
        if name == "ce":
            return ("\\ce{2H2 + O2 -> 2H2O}", True)
        if name == "pu":
            return ("\\pu{123 kJ}", True)
        return (f"a {cmd} b", True)
    if fn == "intent":
        return ("\\intent{x}{intent='sample-concept'}", False)
    if fn == "matrix":
        return (f"\\begin{{{name}}} a & b \\\\ c & d \\end{{{name}}}", False)
    if fn == "delimiter":
        return (f"\\left{cmd} x \\right.", False)
    if fn == "style":
        return (f"{cmd}{{AB}}", False)
    if spec.infix:
        return (f"{{a {cmd} b}}", False)
    if spec.arity == 0:
        if fn == "bigop":
            return (f"{cmd}_{{i=1}}^{{n}} x_{{i}}", False)
        if fn == "function":
            return (f"{cmd} x", False)
        return (f"a {cmd} b", False)
    if spec.arity == 1:
        if fn in ("text", "operatorname"):
            return (f"{cmd}{{sample}}", False)
        if fn == "radical":
            return (f"{cmd}{{x+1}}", False)
        if fn == "pmod":
            return (f"x {cmd}{{n}}", False)
        return (f"{cmd}{{x}}", False)
    if spec.arity == 2:
        if fn == "root":
            return (f"{cmd}{{3}}{{x+1}}", False)
        if fn == "stacked":
            return (f"{cmd}{{a}}{{b}}", False)
        return (f"{cmd}{{a}}{{b}}", False)
    return (cmd, False)


def coverage_corpus(registry: Registry) -> list[tuple[str, str, bool]]:
    """(case id, input, chem) for every command in the registry."""
    cases = []
    for name in sorted(registry.commands):
        source, chem = example_for_command(registry.commands[name])
        safe = name.strip() or "space"
        safe = {",": "comma", ";": "semicolon", ":": "colon", "!": "bang",
                "{": "lbrace-cmd", "}": "rbrace-cmd", "|": "vbar",
                " ": "space"}.get(safe, safe)
        cases.append((f"cmd-{safe}", source, chem))
    return cases
