"""The problem-file format: one module J/I per file.

    # comment
    n: <int>
    label: <free text, optional>
    J: unit | zero | x<i>*x<j>[, ...]
    I: unit | zero | x<i>*x<j>[, ...]

Keys may appear in any order; n, J and I are required.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from .errors import ParseError
from .ideals import MAX_VARIABLES, IdealPair, MonomialIdeal, parse_ideal


@dataclass(frozen=True)
class ProblemFile:
    """One problem: n, the texts of J and I, an optional label, and the
    line and column where each text starts in its file, where pair()
    places an error in it."""

    n: int
    upper_text: str
    lower_text: str
    label: Optional[str] = None
    upper_at: tuple[int, int] = (1, 1)
    lower_at: tuple[int, int] = (1, 1)

    def pair(self) -> IdealPair:
        upper = _parse_value(self.upper_text, self.n, self.upper_at)
        return IdealPair(_parse_value(self.lower_text, self.n, self.lower_at), upper)


def _parse_value(text: str, n: int, at: tuple[int, int]) -> MonomialIdeal:
    """parse_ideal on the text of a value that starts at line and column
    `at` of its file, with the position of its error moved there."""
    try:
        return parse_ideal(text, n)
    except ParseError as exc:
        line, column = at
        if exc.line is None:  # an empty text
            raise ParseError(exc.reason, line) from None
        raise ParseError(exc.reason, line + exc.line - 1, column + exc.column - 1) from None


_KEYS = ("n", "label", "J", "I")


def parse_problem_text(text: str) -> ProblemFile:
    seen: dict[str, str] = {}
    at: dict[str, tuple[int, int]] = {}  # the line and first column of each value
    for lineno, raw in enumerate(text.splitlines(), start=1):
        hash_pos = raw.find("#")
        line = raw[:hash_pos] if hash_pos >= 0 else raw
        if not line.strip():
            continue
        key, sep, value = line.partition(":")
        key = key.strip()
        if not sep or key not in _KEYS:
            raise ParseError(f"expected one of {', '.join(_KEYS)} followed by ':'", lineno)
        if key in seen:
            raise ParseError(f"duplicate key {key!r}", lineno)
        seen[key] = value.strip()
        at[key] = lineno, len(line) - len(value.lstrip()) + 1
    for key in ("n", "J", "I"):
        if key not in seen:
            raise ParseError(f"missing required key {key!r}")
    try:
        n = int(seen["n"])
    except ValueError:
        raise ParseError(f"n must be an integer, got {seen['n']!r}", at["n"][0]) from None
    if not 1 <= n <= MAX_VARIABLES:
        raise ParseError(f"n must be in 1..{MAX_VARIABLES}, got {n}", at["n"][0])
    return ProblemFile(n=n, upper_text=seen["J"], lower_text=seen["I"],
                       label=seen.get("label") or None,
                       upper_at=at["J"], lower_at=at["I"])


def parse_problem_file(path: Union[str, Path]) -> ProblemFile:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read problem file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read problem file {path}: {exc}") from None
    return parse_problem_text(text)
