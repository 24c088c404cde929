"""Exact binomial machinery: greedy expansions, Macaulay's growth bound, h-vector bounds."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional, Sequence


def binomial(a: int, b: int) -> int:
    """C(a, b) with the boundary convention 0 for b < 0 or b > a >= 0.

    A negative upper index is rejected; no in-range transform produces one.
    """
    if a < 0:
        raise ValueError(f"negative upper index {a} in binomial coefficient")
    if b < 0 or b > a:
        return 0
    return comb(a, b)


def binomial_ext(a: int, b: int) -> int:
    """C(a, b) extended to negative upper index: (-1)^b * C(b-a-1, b)."""
    if b < 0:
        return 0
    if a >= 0:
        return comb(a, b) if b <= a else 0
    return (-1) ** b * comb(b - a - 1, b)


@dataclass(frozen=True)
class MacaulayExpansion:
    """The unique greedy expansion of a positive integer at a level.

    terms is the descending list of (n_i, i) pairs with
    n_k > n_{k-1} > ... > n_j >= j >= 1.
    """

    k: int
    terms: tuple[tuple[int, int], ...]

    def value(self) -> int:
        return sum(comb(n_i, i) for n_i, i in self.terms)


def expand(ell: int, k: int) -> MacaulayExpansion:
    """Greedy binomial expansion of ell at level k.

    Each step picks the largest n with C(n, i) <= remainder, then moves one
    level down; the remainder hits zero by level 1 at the latest.
    """
    if ell < 1 or k < 1:
        raise ValueError("expansion is defined for positive ell and k")
    terms = []
    remainder = ell
    level = k
    while remainder > 0:
        terms.append((_greedy_top(remainder, level), level))
        remainder -= comb(terms[-1][0], level)
        level -= 1
    return MacaulayExpansion(k, tuple(terms))


def _greedy_top(remainder: int, level: int) -> int:
    """Largest n with C(n, level) <= remainder, by doubling then bisection."""
    if level == 1:
        return remainder
    hi = level + 1
    while comb(hi, level) <= remainder:
        hi *= 2
    lo = level  # C(level, level) = 1 <= remainder
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if comb(mid, level) <= remainder:
            lo = mid
        else:
            hi = mid
    return lo


def macaulay_growth_bound(ell: int, k: int) -> int:
    """Macaulay's bound ell^<k> on the next value of an O-sequence.

    Both indices of every expansion term shift: (n_i, i) -> (n_i+1, i+1).
    This is the classical growth bound; it differs from the pseudopower,
    which shifts only the lower index.  The h-vector (1,1,1,1,0) of a
    quartic hypersurface shows the difference: 1^<1> = 1 admits it while
    the lower-shift value C(1,2) = 0 would reject a Cohen-Macaulay ring.
    """
    if k < 1:
        raise ValueError("growth-bound level must be positive")
    if ell < 0:
        raise ValueError("growth-bound argument must be nonnegative")
    if ell == 0:
        return 0
    return sum(comb(n_i + 1, i + 1) for n_i, i in expand(ell, k).terms)


def cm_admissible(h: Sequence[int], n: int, d: int) -> tuple[bool, Optional[tuple[int, int]]]:
    """Test the two numerical conditions a Cohen-Macaulay h-vector satisfies.

    Condition 1: 0 <= h_k <= C(n-d+k-1, k) for 0 <= k <= d.
    Condition 2: 0 <= h_{k+1} <= h_k^<k> for 1 <= k <= d-1, with Macaulay's
    growth bound (see `macaulay_growth_bound`).
    Returns (True, None) or (False, (condition, k)) for the first violation.
    """
    if len(h) != d + 1:
        raise ValueError("h-vector must have entries 0..d")
    for k in range(d + 1):
        if not 0 <= h[k] <= binomial_ext(n - d + k - 1, k):
            return False, (1, k)
    for k in range(1, d):
        if not 0 <= h[k + 1] <= macaulay_growth_bound(h[k], k):
            return False, (2, k)
    return True, None


def chu_vandermonde_check(n: int, d: int, k: int) -> bool:
    """Evaluate both sides of the alternating-sum identity and compare.

    sum_j (-1)^(k-j) C(d-j, k-j) C(n, j) = C(n-d+k-1, k); the right side
    needs the extended convention when n < d - k + 1.
    """
    if not (0 <= k <= d and n >= 0):
        raise ValueError("requires 0 <= k <= d and n >= 0")
    lhs = sum((-1) ** (k - j) * binomial(d - j, k - j) * binomial(n, j) for j in range(k + 1))
    return lhs == binomial_ext(n - d + k - 1, k)
