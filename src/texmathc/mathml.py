"""Presentation-MathML tree: node type, serializer, and XML reader."""

from __future__ import annotations

from types import MappingProxyType

from .value import Value


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
    """Read any MathML document into a MathMLNode tree: the comparison's walk
    (`similarity._walk`) with no rules applied, rebuilt as a tree.

    Lenient by design: reference renderers emit elements and attributes
    outside our generated subset, and comparison must still work.
    """
    import xml.etree.ElementTree as ET  # loaded here: check and convert never read XML

    from .similarity import CompareOptions, _build, _walk

    return _build(*_walk(ET.fromstring(text), CompareOptions()))
