"""Presentation-MathML tree: node type, serializer, and XML reader."""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

# The supported presentation element set (27 members; fences are expressed
# as mrow + stretchy mo rather than mfenced).
SUPPORTED_ELEMENTS = frozenset({
    "math", "mrow", "mi", "mo", "mn", "mtext", "mspace", "ms",
    "mfrac", "msqrt", "mroot", "msub", "msup", "msubsup",
    "munder", "mover", "munderover", "mmultiscripts",
    "mtable", "mtr", "mtd",
    "mstyle", "mpadded", "mphantom", "menclose",
    "semantics", "annotation",
})

TOKEN_ELEMENTS = frozenset({"mi", "mo", "mn", "mtext", "ms", "annotation"})


@dataclass(slots=True)
class MathMLNode:
    """Element name, ordered attributes, and either children or text."""

    element: str
    attributes: dict[str, str] = field(default_factory=dict)
    children: list["MathMLNode"] = field(default_factory=list)
    text: str | None = None

    def __post_init__(self) -> None:
        if self.text is not None and self.children:
            raise ValueError(f"<{self.element}> cannot carry both text and children")

    def is_token(self) -> bool:
        return self.text is not None

    def iter(self):
        """This node and its descendants in document order, at any depth."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


# Both keep the keyword dict, which each call builds anew, and `elem` keeps
# the list it is given: callers pass one they built for the node.
def token(element: str, text: str, **attributes: str) -> MathMLNode:
    return MathMLNode(element, attributes, [], text)


def elem(element: str, children: list[MathMLNode] | None = None,
         **attributes: str) -> MathMLNode:
    return MathMLNode(element, attributes, [] if children is None else children)


@dataclass(frozen=True)
class GenOptions:
    """Output options: display mode, optional semantics/annotation wrapping."""

    display: str = "inline"  # "inline" or "block"
    wrap_semantics: bool = False
    annotate_tex: bool = False

    def __post_init__(self) -> None:
        if self.display not in ("inline", "block"):
            raise ValueError(f"display must be inline or block, got {self.display!r}")
        if self.annotate_tex and not self.wrap_semantics:
            raise ValueError("annotate_tex requires wrap_semantics")

    def fingerprint(self) -> str:
        return f"display={self.display};semantics={self.wrap_semantics};annotate={self.annotate_tex}"


_TEXT_SPECIALS = frozenset("&<>\r")
_ATTR_SPECIALS = frozenset('&<>\r"\t\n')


def _escape_text(text: str) -> str:
    # A raw carriage return would be read back as a newline (XML end-of-line
    # handling), so it is written as a character reference.
    if _TEXT_SPECIALS.isdisjoint(text):
        return text
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace("\r", "&#13;"))


def _escape_attr(text: str) -> str:
    # Attribute-value normalization reads a raw tab or newline back as a space.
    if _ATTR_SPECIALS.isdisjoint(text):
        return text
    return (_escape_text(text).replace('"', "&quot;").replace("\t", "&#9;")
            .replace("\n", "&#10;"))


def serialize(tree: MathMLNode) -> str:
    """Deterministic UTF-8 XML: insertion-ordered attributes, literal non-ASCII,
    no whitespace between elements."""
    out: list[str] = []
    _write(tree, out)
    return "".join(out)


def _write(node: MathMLNode, out: list[str]) -> None:
    out.append("<" + node.element)
    for name, value in node.attributes.items():
        out.append(f' {name}="{_escape_attr(value)}"')
    out.append(">")
    if node.text is not None:
        out.append(_escape_text(node.text))
    else:
        for child in node.children:
            _write(child, out)
    out.append("</" + node.element + ">")


def from_xml(text: str) -> MathMLNode:
    """Read any MathML document into a MathMLNode tree.

    Lenient by design: reference renderers emit elements and attributes
    outside our generated subset, and comparison must still work.  Each
    element is read by `xml_parts`.
    """
    return _convert(ET.fromstring(text))


def _convert(element: ET.Element) -> MathMLNode:
    name, text, attributes, children = xml_parts(element)
    nodes = []
    for child in children:  # a loop, not a comprehension: one frame per level
        nodes.append(_convert(child))
    return MathMLNode(name, dict(attributes), nodes, text)


def xml_parts(element: ET.Element) -> tuple[str, str | None, dict[str, str], ET.Element]:
    """(name, text, attributes, children) of a parsed element, as read.

    Namespace prefixes are stripped from element and attribute names.  An
    element with children has no text; otherwise its text is
    whitespace-trimmed, and pure-whitespace text is none (an empty layout
    node such as `<mrow/>`).  The children are the element itself, which
    iterates over them, and the attributes may be the element's own dict.
    """
    name = element.tag
    if "}" in name:
        name = _local(name)
    attributes = element.attrib
    if attributes and any("}" in key for key in attributes):
        attributes = {_local(key): value for key, value in attributes.items()}
    if len(element):
        return name, None, attributes, element
    return name, (element.text or "").strip() or None, attributes, element


def _local(name: str) -> str:
    """`name` less the `{namespace}` prefix that ElementTree gives it."""
    return name[name.index("}") + 1:] if name[:1] == "{" and "}" in name else name
