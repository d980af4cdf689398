"""Static extraction of RNG stream draws and registry matching.

The ``stream-registry`` rule reasons about one syntactic event: *a
named draw from a* :class:`~repro.sim.streams.RandomStreams` *family*
(``streams.get("page-choice")``, ``self._streams.bernoulli(
"fault-msg-loss", p)``, ...).  This module recognizes those calls,
extracts whatever is provable about the stream-name argument, and
implements the matching semantics for registry *patterns* — registered
names may contain ``{placeholder}`` segments (``"disk-service-{node}"``)
that stand for any non-empty text, mirroring the f-strings that draw
them.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

__all__ = [
    "STREAM_DRAW_METHODS",
    "StreamDraw",
    "compile_patterns",
    "draw_is_registered",
    "is_draw_call",
    "iter_stream_draws",
    "pattern_regex",
]

#: RandomStreams methods whose first argument is a stream name.
STREAM_DRAW_METHODS = frozenset({"bernoulli", "exponential", "fresh", "get"})


@dataclass(frozen=True)
class StreamDraw:
    """One stream-draw call site with what is provable about its name.

    Exactly one of three shapes:

    * ``name`` set — the argument is a string literal;
    * ``prefix`` set — an f-string whose head is a string literal (the
      tail is dynamic);
    * neither — the name is fully dynamic (a variable, a call, an
      f-string opening with an interpolation) and nothing is provable.
    """

    line: int
    col: int
    name: Optional[str] = None
    prefix: Optional[str] = None

    @property
    def dynamic(self) -> bool:
        """Whether nothing at all is provable about the name."""
        return self.name is None and self.prefix is None

    def provably_prefixed(self, head: str) -> bool:
        """Whether the drawn name provably starts with ``head``."""
        if self.name is not None:
            return self.name.startswith(head)
        if self.prefix is not None:
            return self.prefix.startswith(head)
        return False


def is_draw_call(node: ast.AST) -> bool:
    """``streams.get(...)`` / ``self.streams.fresh(...)`` /
    ``self._streams.bernoulli(...)``: a named-stream method call on a
    receiver spelled like a stream family."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in STREAM_DRAW_METHODS
    ):
        return False
    receiver = node.func.value
    if isinstance(receiver, ast.Name):
        return "streams" in receiver.id
    return isinstance(receiver, ast.Attribute) and "streams" in receiver.attr


def _draw_from_call(node: ast.Call) -> StreamDraw:
    line = node.lineno
    col = node.col_offset + 1
    if not node.args:
        return StreamDraw(line=line, col=col)
    name_arg = node.args[0]
    if isinstance(name_arg, ast.Constant):
        if isinstance(name_arg.value, str):
            return StreamDraw(line=line, col=col, name=name_arg.value)
        return StreamDraw(line=line, col=col)
    if isinstance(name_arg, ast.JoinedStr) and name_arg.values:
        head = name_arg.values[0]
        if isinstance(head, ast.Constant) and isinstance(
            head.value, str
        ):
            return StreamDraw(line=line, col=col, prefix=head.value)
    return StreamDraw(line=line, col=col)


def iter_stream_draws(tree: ast.AST) -> Iterator[StreamDraw]:
    """Every stream-draw call site in ``tree``."""
    for node in ast.walk(tree):
        if is_draw_call(node):
            yield _draw_from_call(node)


# ----------------------------------------------------------------------
# Registry-pattern matching
# ----------------------------------------------------------------------

_PLACEHOLDER_RE = re.compile(r"\{[^{}]*\}")


def pattern_regex(pattern: str) -> "re.Pattern[str]":
    """Compile a registry pattern to a full-match regex.

    Each ``{placeholder}`` matches any non-empty text; everything else
    is literal.
    """
    parts = []
    last = 0
    for match in _PLACEHOLDER_RE.finditer(pattern):
        parts.append(re.escape(pattern[last : match.start()]))
        parts.append(".+")
        last = match.end()
    parts.append(re.escape(pattern[last:]))
    return re.compile("".join(parts))


def literal_prefix(pattern: str) -> str:
    """The constant head of a pattern (up to its first placeholder)."""
    match = _PLACEHOLDER_RE.search(pattern)
    return pattern if match is None else pattern[: match.start()]


@dataclass(frozen=True)
class CompiledPattern:
    """One registry entry ready for matching."""

    pattern: str
    regex: "re.Pattern[str]"
    prefix: str
    has_placeholder: bool


def compile_patterns(
    patterns: Sequence[str],
) -> list[CompiledPattern]:
    """Compile registry entries once for a batch of draws."""
    return [
        CompiledPattern(
            pattern=p,
            regex=pattern_regex(p),
            prefix=literal_prefix(p),
            has_placeholder=_PLACEHOLDER_RE.search(p) is not None,
        )
        for p in patterns
    ]


def draw_is_registered(
    draw: StreamDraw, compiled: Sequence[CompiledPattern]
) -> bool:
    """Whether a draw resolves to some registered stream name.

    Exact names must full-match a pattern.  F-string draws are checked
    by prefix compatibility: the constant head must be consistent with
    some entry's literal prefix (one a prefix of the other), and the
    entry must either carry a placeholder or extend beyond the head —
    a typo in the constant head therefore always fails.  Fully dynamic
    draws are unprovable either way and never reported here.
    """
    if draw.name is not None:
        return any(c.regex.fullmatch(draw.name) for c in compiled)
    if draw.prefix is not None:
        head = draw.prefix
        for c in compiled:
            if not (c.has_placeholder or len(c.pattern) > len(head)):
                continue
            if head.startswith(c.prefix) or c.prefix.startswith(head):
                return True
        return False
    return True  # dynamic: nothing provable
