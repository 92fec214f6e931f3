"""Findings (byte spans), the error that stops a stage (codepoint spans) and the error codes."""

from __future__ import annotations

from .value import Value

ERROR = "error"
WARNING = "warning"

# Stable machine identifiers. Tools match on these, not on message text.
E_UNKNOWN_COMMAND = "E_UNKNOWN_COMMAND"
E_UNBALANCED_BRACE = "E_UNBALANCED_BRACE"
E_BAD_DELIM = "E_BAD_DELIM"
E_BAD_ENV = "E_BAD_ENV"
E_EMPTY_ARG = "E_EMPTY_ARG"
E_DOUBLE_SCRIPT = "E_DOUBLE_SCRIPT"
E_AMBIGUOUS_INFIX = "E_AMBIGUOUS_INFIX"
E_TOO_DEEP = "E_TOO_DEEP"
E_CHEM_SYNTAX = "E_CHEM_SYNTAX"
E_INTENT_SYNTAX = "E_INTENT_SYNTAX"
E_INTENT_UNBOUND_REF = "E_INTENT_UNBOUND_REF"
E_INTENT_AMBIGUOUS_REF = "E_INTENT_AMBIGUOUS_REF"
W_DEPRECATED = "W_DEPRECATED"

class Diagnostic(Value):
    """One validation finding, located by byte span in the source formula."""

    __slots__ = ("severity", "code", "message", "span")  # span: bytes, end exclusive

    def __post_init__(self) -> None:
        if self.severity not in (ERROR, WARNING):
            raise ValueError(f"bad severity {self.severity!r}")
        if self.span[0] > self.span[1] or self.span[0] < 0:
            raise ValueError(f"bad span {self.span!r}")

    def format_line(self) -> str:
        start, end = self.span
        return f"{self.severity}:{self.code}:{start}-{end}:{self.message}"

    def to_dict(self) -> dict:
        return {
            "severity": self.severity,
            "code": self.code,
            "message": self.message,
            "span": [self.span[0], self.span[1]],
        }


class DiagnosticError(Exception):
    """The finding that stops a stage (parser, chemistry, intent, generator).

    `span` is in codepoints of `text`, the text the stage read, clamped there
    as `byte_offsets` clamps.  The generator holds only a tree, so its errors
    have no text until `within` locates them in the source.
    """

    def __init__(self, code: str, message: str, span: tuple[int, int], text: str | None = None):
        super().__init__(message)
        self.code = code
        self.message = message
        self.span = span if text is None else _clamp(span, len(text))
        self.text = text

    def __reduce__(self):  # `args` holds only the message
        return type(self), (self.code, self.message, self.span, self.text)

    @property
    def diagnostic(self) -> Diagnostic | None:
        """The finding located in UTF-8 bytes of `text`; None without a text."""
        if self.text is None:
            return None
        span = self.span if self.text.isascii() else byte_offsets(self.text, [self.span])[0]
        return Diagnostic(ERROR, self.code, self.message, span)

    def within(self, outer: str, start: int) -> DiagnosticError:
        """This error, raised on the text found at codepoint `start` of `outer`,
        located in `outer` instead."""
        span = (self.span[0] + start, self.span[1] + start)
        return type(self)(self.code, self.message, span, outer)


class ChemError(DiagnosticError):
    pass


class IntentError(DiagnosticError):
    pass


def _clamp(span: tuple[int, int], n: int) -> tuple[int, int]:
    """`span` kept on a text of `n` codepoints (see `byte_offsets`)."""
    start, end = span
    if start < end <= n:  # already on the text, as most spans are
        return span
    if not n:
        return 0, 1
    start = min(start, n - 1)
    return start, min(max(end, start + 1), n)


def byte_offsets(text: str, spans: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """UTF-8 byte spans of the codepoint `spans` of `text`, found in one pass.

    Diagnostic spans are byte-based so they stay meaningful to non-Python
    consumers of the CLI output.  A span is at least one codepoint wide; one
    that starts at or past the end of a non-empty text moves back onto its
    last codepoint; an empty text gives (0, 1).  A lone surrogate counts the
    three bytes "surrogatepass" encodes it to.
    """
    n = len(text)
    clamped = [_clamp(span, n) for span in spans]
    if text.isascii():  # one byte per codepoint
        return clamped
    at = {}
    pos = total = 0
    for point in sorted({p for span in clamped for p in span}):
        total += len(text[pos:point].encode("utf-8", "surrogatepass"))
        at[point] = total
        pos = point
    return [(at[start], at[end]) for start, end in clamped]
