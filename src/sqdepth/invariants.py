"""Counting invariants of a module J/I and their binomial transforms.

alpha counts the subsets A with x_A in J \\ I by cardinality, on subset
tables over the variables the generators of I and J use, each other
variable multiplying the counts by (1 + t).  The level-q transform beta is
the signed binomial transform of alpha; the Hilbert depth is the largest
level at which every transform entry is nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, repeat
from math import comb
from operator import add, gt, lshift, mul, or_, sub
from typing import Callable, Optional, Sequence

from .ideals import (
    IdealPair, check_table_budget, degree_counts, membership_table, relabel_onto,
)
from .macaulay import binomial_ext


@dataclass(frozen=True)
class AlphaVector:
    """Counts alpha_0..alpha_n of squarefree monomials in J \\ I by degree."""

    n: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.n + 1:
            raise ValueError("alpha vector must have n+1 entries")
        if any(c < 0 for c in self.counts):
            raise ValueError("alpha entries are counts and cannot be negative")

    @property
    def min_degree(self) -> int:
        return _first_positive(self.counts)

    @property
    def max_degree(self) -> int:
        return _last_positive(self.counts)


def _first_negative(values: Sequence[int]) -> Optional[int]:
    """The first k with values[k] < 0, or None.  min(values), one C-level
    scan, settles the common nonnegative row."""
    if min(values) >= 0:
        return None
    return next(k for k, v in enumerate(values) if v < 0)


def _first_positive(counts: Sequence[int]) -> int:
    for k, c in enumerate(counts):
        if c > 0:
            return k
    raise ValueError("all entries are zero")


def _last_positive(counts: Sequence[int]) -> int:
    for k in range(len(counts) - 1, -1, -1):
        if counts[k] > 0:
            return k
    raise ValueError("all entries are zero")


def _transform_rows(counts: Sequence[int], top: int) -> list[tuple[int, ...]]:
    """The transforms of `counts` at levels 0..top, by the Pascal recurrence
    beta_0^{q+1} = a_0, beta_k^{q+1} = beta_k^q - beta_{k-1}^q and
    beta_{q+1}^{q+1} = a_{q+1} - beta_q^q; missing counts are zero."""
    padded = list(counts[:top + 1]) + [0] * (top + 1 - len(counts))
    rows = [(padded[0],)]
    for q in range(top):
        prev = rows[-1]
        rows.append((prev[0], *map(sub, prev[1:], prev), padded[q + 1] - prev[-1]))
    return rows


def alpha(pair: IdealPair) -> AlphaVector:
    """Count members of J \\ I by degree.

    Whether x_A lies in J or in I depends only on the part of A in the
    support, the variables some generator of I or J uses.  So both ideals
    are relabeled onto those s variables (one if there are none) and
    counted there on subset tables of all 2^s masks; each of the n - s
    other variables is free, which multiplies the counts by (1 + t).  The
    table budget bounds s, not n.  The table's size picks its container
    (see sqdepth.ideals): for s <= ideals.SMALL_TABLE (14) each table is
    one int of 2^s bits from its closure to the count, which measured
    faster than numpy's per-call cost on tables that small; above that it
    is packed uint64 words.
    """
    support = reduce(or_, pair.lower.generators + pair.upper.generators, 0)
    upper, lower = relabel_onto(pair.upper, support), relabel_onto(pair.lower, support)
    check_table_budget(upper.n, of=pair.n)
    table = membership_table(upper) & ~membership_table(lower)
    counts = degree_counts(table, upper.n)
    for _ in range(pair.n - upper.n):  # times 1 + t: Pascal's rule
        counts = (counts[0], *map(add, counts[1:], counts), counts[-1])
    return AlphaVector(pair.n, counts)


def hdepth_of_alpha(alpha_vec: AlphaVector) -> int:
    """Largest q with beta^q entirely nonnegative.

    Scans downward from the degree bound max{k : alpha_k > 0}; the scan is
    guaranteed to stop at min{k : alpha_k > 0} or above.
    """
    rows = _transform_rows(alpha_vec.counts, alpha_vec.max_degree)
    return _hdepth_of_rows(rows, alpha_vec.min_degree)


def _hdepth_of_rows(rows: Sequence[tuple[int, ...]], bottom: int) -> int:
    """The largest level q >= bottom whose row is nonnegative, scanning down
    from the last of the Pascal rows 0..max_degree of an alpha vector."""
    for q in range(len(rows) - 1, bottom - 1, -1):
        if min(rows[q]) >= 0:
            return q
    raise AssertionError("transform scan fell through its lower bound")


def first_recurrence_failure(alpha_vec: AlphaVector) -> Optional[tuple[str, int, int]]:
    """Exact check of the two transform identities at every level d = 1..n,
    from one pass of Pascal rows.

    Verifies beta_k^{d+1} = beta_k^d - beta_{k-1}^d for 1 <= k <= d, and the
    complement identity beta_k^d(complement) = C(n-d+k-1, k) - beta_k^d
    where the complement counts are C(n,j) - alpha_j.  beta^d is the
    production Pascal row; beta^{d+1} and the complement transform come from
    the direct binomial formula, so a wrong row cannot agree with itself.
    Returns None when all hold, else (identity name, first failing k, d) at
    the lowest failing level.

    Each side of each identity at each level is one int: its row evaluated
    at T = 2^w.  A Pascal row r^d becomes r^d(T) = sum_k r_k T^k, and the
    direct formula at level q becomes sum_j a_j T^j (1 - T)^(q-j) (see
    `_points`).  The level recurrence then reads
    direct^{d+1}(T) = (1 - T) r^d(T) + a_{d+1} T^(d+1); its digits at k = 0
    and k = d + 1 hold for correct rows but are not part of the identity, so
    a difference there alone is no failure.  The complement's direct
    transform is linear in its counts, so it is the direct transform of the
    counts C(n, j) (cached with the bounds, see `_complement_gaps`) minus
    direct^d(T), which the level below already evaluated.

    Why equal ints mean equal rows: let M < 2^L bound every entry read, that
    is the rows, alpha, the C(n, j) and the bounds; M also bounds the
    complement counts, which lie between -alpha_j and C(n, j).  A direct
    coefficient at level q <= n + 1 sums C(q-j, k-j) terms of size at most
    M, and sum_j C(q-j, k-j) = C(q+1, k) <= 2^(n+2), so every coefficient e_k
    of either difference has |e_k| <= M (2^(n+2) + 3) < 2^(L+n+3).  With
    w = L + n + 4 that is below 2^(w-1) = T/2, so the difference has exactly
    one expansion in balanced base-T digits, and its digits are the
    per-entry differences: the int is zero exactly when the identity holds
    at level d, and otherwise its first nonzero digit in range is the first
    failing k.
    """
    n, counts = alpha_vec.n, alpha_vec.counts
    rows = _transform_rows(counts, n)
    subsets, largest_fixed = _complement_entries(binomial_ext, n)
    largest = max(max(map(max, rows)), -min(map(min, rows)), max(counts), largest_fixed)
    w = n + 4 + largest.bit_length()
    points = _points(n, w)
    gaps = _complement_gaps(binomial_ext, n, w)
    shifts = range(0, (n + 1) * w, w)
    subset_counts = not any(map(gt, counts, subsets))
    direct = sum(map(mul, counts, points[1]))
    for d in range(1, n + 1):
        at_d = sum(map(lshift, rows[d], shifts))
        above = sum(map(mul, counts, points[d + 1]))
        top = counts[d + 1] << (d + 1) * w if d < n else 0
        diff = above - (at_d - (at_d << w) + top)
        if diff:
            digits = _balanced_digits(diff, w, d + 2)
            k = next((k for k in range(1, d + 1) if digits[k]), None)
            if k is not None:
                return ("level-recurrence", k, d)
        if not subset_counts:
            raise ValueError("alpha exceeds the binomial bound; not a subset count")
        diff = gaps[d] - (direct - at_d)
        if diff:
            digits = _balanced_digits(diff, w, d + 1)
            return ("complement-identity", next(k for k, e in enumerate(digits) if e), d)
        direct = above
    return None


def _balanced_digits(value: int, w: int, count: int) -> list[int]:
    """The digits e_0..e_{count-1}, low digit first, of
    value = sum_k e_k 2^(wk) with every |e_k| < 2^(w-1)."""
    half, mask = 1 << (w - 1), (1 << w) - 1
    digits = []
    for _ in range(count):
        digit = ((value + half) & mask) - half
        digits.append(digit)
        value = (value - digit) >> w
    return digits


# The caches below key on n <= 63 and on w, which one alpha vector's entries
# fix; a verify sweep meets a few widths per n, and 64 keys bound them.
@lru_cache(maxsize=64)
def _points(n: int, w: int) -> tuple[tuple[int, ...], ...]:
    """points[q][j] = T^j (1 - T)^(q-j) at T = 2^w, for 0 <= j <= q <= n + 1.

    Expanding (1 - T)^(q-j) gives sum_k (-1)^(k-j) C(q-j, k-j) T^k, so
    sum_j a_j points[q][j] is the direct formula for beta^q at T.  Built from
    the powers of (1 - T) alone, never from the Pascal rows.
    """
    powers = [1]
    for _ in range(n + 1):
        powers.append(powers[-1] - (powers[-1] << w))
    return tuple(tuple(powers[q - j] << j * w for j in range(q + 1)) for q in range(n + 2))


def _complement_bounds(binomial: Callable[[int, int], int], n: int, d: int) -> tuple[int, ...]:
    # binomial(n-d+k-1, k) for k = 0..d: the complement identity at level d
    return tuple(binomial(n - d + k - 1, k) for k in range(d + 1))


@lru_cache(maxsize=64)
def _complement_entries(binomial: Callable[[int, int], int], n: int) -> tuple[tuple[int, ...], int]:
    """C(n, j) for j = 0..n, and the largest absolute value among them and the
    bounds of every level 0..n.  Keyed on the binomial function, which the
    check reads at call time."""
    subsets = tuple(map(comb, repeat(n), range(n + 1)))
    bounds = chain.from_iterable(_complement_bounds(binomial, n, d) for d in range(n + 1))
    return subsets, max(max(subsets), *map(abs, bounds))


@lru_cache(maxsize=64)
def _complement_gaps(binomial: Callable[[int, int], int], n: int, w: int) -> tuple[int, ...]:
    """gaps[d] = sum_j C(n, j) points[d][j] - sum_k bounds_k T^k for d = 0..n.

    The complement's direct transform at level d is the first sum minus
    direct^d(T), so the complement identity at level d reads
    gaps[d] = direct^d(T) - r^d(T).
    """
    points = _points(n, w)
    subsets = _complement_entries(binomial, n)[0]
    return tuple(
        sum(map(mul, subsets, points[d]))
        - sum(map(lshift, _complement_bounds(binomial, n, d), range(0, (d + 1) * w, w)))
        for d in range(n + 1)
    )
