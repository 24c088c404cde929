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
from .ideals import MAX_VARIABLES, IdealPair, parse_ideal


@dataclass(frozen=True)
class ProblemFile:
    n: int
    upper_text: str
    lower_text: str
    label: Optional[str] = None

    def pair(self) -> IdealPair:
        upper = parse_ideal(self.upper_text, self.n)
        return IdealPair(parse_ideal(self.lower_text, self.n), upper)


_KEYS = ("n", "label", "J", "I")


def parse_problem_text(text: str) -> ProblemFile:
    seen: dict[str, str] = {}
    lines: dict[str, int] = {}
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
        lines[key] = lineno
    for key in ("n", "J", "I"):
        if key not in seen:
            raise ParseError(f"missing required key {key!r}")
    try:
        n = int(seen["n"])
    except ValueError:
        raise ParseError(f"n must be an integer, got {seen['n']!r}", lines["n"]) from None
    if not 1 <= n <= MAX_VARIABLES:
        raise ParseError(f"n must be in 1..{MAX_VARIABLES}, got {n}", lines["n"])
    return ProblemFile(n=n, upper_text=seen["J"], lower_text=seen["I"],
                       label=seen.get("label") or None)


def parse_problem_file(path: Union[str, Path]) -> ProblemFile:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read problem file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read problem file {path}: {exc}") from None
    return parse_problem_text(text)
