"""Presentation-MathML tree: node type, serializer, and XML reader."""

from __future__ import annotations

from types import MappingProxyType
from typing import TYPE_CHECKING

from .value import Value

if TYPE_CHECKING:
    import xml.etree.ElementTree as ET

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


class MathMLNode(Value, attributes=None, children=None, text=None):
    """Element name, ordered attributes, and either children or text; the one
    value whose fields can be assigned.  A leaf from `shared` is read-only and
    carries its `markup`; a copy or a pickle of any node is an editable node."""

    __slots__ = ("element", "attributes", "children", "text", "__dict__")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None
    __copy__ = __deepcopy__ = None
    markup = None  # a shared leaf's serialized text

    def __reduce__(self):
        return MathMLNode, (self.element, dict(self.attributes), list(self.children), self.text)

    def __post_init__(self) -> None:
        if self.text is not None and self.children:
            raise ValueError(f"<{self.element}> cannot carry both text and children")
        if self.attributes is None:
            self.attributes = {}
        if self.children is None:
            self.children = []

    def is_token(self) -> bool:
        return self.text is not None

    def iter(self):
        """This node and its descendants in document order, at any depth."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


def shared(node: MathMLNode) -> MathMLNode:
    """A read-only copy of the leaf `node` that trees may share, with its
    markup written once."""
    leaf = MathMLNode(node.element, MappingProxyType(node.attributes), (), node.text)
    leaf.markup = serialize(leaf)
    return leaf


# Both keep the keyword dict, which each call builds anew, and `elem` keeps
# the list it is given: callers pass one they built for the node.
def token(element: str, text: str, **attributes: str) -> MathMLNode:
    return MathMLNode(element, attributes, [], text)


def elem(element: str, children: list[MathMLNode] | None = None,
         **attributes: str) -> MathMLNode:
    return MathMLNode(element, attributes, children)


class GenOptions(Value, display="inline", wrap_semantics=False, annotate_tex=False):
    """Output options: display mode, optional semantics/annotation wrapping."""

    __slots__ = ("display", "wrap_semantics", "annotate_tex")

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
            if child.markup is None:
                _write(child, out)
            else:
                out.append(child.markup)
    out.append("</" + node.element + ">")


def from_xml(text: str) -> MathMLNode:
    """Read any MathML document into a MathMLNode tree.

    Lenient by design: reference renderers emit elements and attributes
    outside our generated subset, and comparison must still work.  Each
    element is read by `xml_parts`.
    """
    import xml.etree.ElementTree as ET  # loaded here: check and convert never read XML

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
        name = local_name(name)
    attributes = element.attrib
    if attributes and any("}" in key for key in attributes):
        attributes = {local_name(key): value for key, value in attributes.items()}
    if len(element):
        return name, None, attributes, element
    return name, token_text(element.text), attributes, element


def token_text(text: str | None) -> str | None:
    """Text as read and compared: whitespace-trimmed, and none when nothing
    is left."""
    return (text or "").strip() or None


def local_name(name: str) -> str:
    """`name` less the `{namespace}` prefix that ElementTree gives it."""
    return name[name.index("}") + 1:] if name[:1] == "{" and "}" in name else name
