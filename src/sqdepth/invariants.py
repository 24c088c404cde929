"""Counting invariants of a module J/I and their binomial transforms.

alpha counts the subsets A with x_A in J \\ I by cardinality, on subset
tables over the variables the generators of I and J use, each other
variable multiplying the counts by (1 + t).  The level-q transform beta is
the signed binomial transform of alpha; the Hilbert depth is the largest
level at which every transform entry is nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from math import comb
from operator import add, mul, or_, sub
from typing import Optional, Sequence

from .complexes import ComplexLike, f_vector
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


@dataclass(frozen=True)
class BetaVector:
    """The level-q signed binomial transform, entries for k = 0..q."""

    level: int
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.level + 1:
            raise ValueError("beta vector at level q must have q+1 entries")

    def first_negative(self) -> Optional[int]:
        for k, v in enumerate(self.values):
            if v < 0:
                return k
        return None


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


@cache
def _signed_binomials(q: int) -> tuple[tuple[int, ...], ...]:
    # Row k holds (-1)^(k-j) C(q-j, k-j) for j = 0..k.  It depends on the
    # level alone; q <= MAX_VARIABLES + 1 bounds the cache at 65 keys.
    return tuple(
        tuple((-1) ** (k - j) * comb(q - j, k - j) for j in range(k + 1))
        for k in range(q + 1)
    )


def _direct_transform(counts: Sequence[int], q: int) -> tuple[int, ...]:
    # beta_k^q = sum_j (-1)^(k-j) C(q-j, k-j) a_j; map stops at the shorter
    # sequence, so entries beyond the input length count as zero.  Only the
    # recurrence check uses it, as the side that does not go through the
    # Pascal rows.
    return tuple(sum(map(mul, row, counts)) for row in _signed_binomials(q))


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


def beta(alpha_vec: AlphaVector, q: int) -> BetaVector:
    """The level-q transform of an alpha vector, 0 <= q <= n."""
    return beta_table(alpha_vec, q, q)[0]


def alpha_from_beta(beta_vec: BetaVector, d: int) -> AlphaVector:
    """Invert the level-d transform; recovers alpha_0..alpha_d."""
    if d != beta_vec.level:
        raise ValueError("inversion level must match the beta vector level")
    values = beta_vec.values
    counts = tuple(
        sum(comb(d - j, k - j) * values[j] for j in range(k + 1)) for k in range(d + 1)
    )
    return AlphaVector(d, counts)


def beta_table(alpha_vec: AlphaVector, q_lo: int, q_hi: int) -> list[BetaVector]:
    """The transforms at levels q_lo..q_hi, from one pass of Pascal rows."""
    for q in (q_lo, q_hi):
        if not 0 <= q <= alpha_vec.n:
            raise ValueError(f"level {q} outside 0..{alpha_vec.n}")
    if q_lo > q_hi:
        raise ValueError(f"levels {q_lo}..{q_hi} are out of order")
    rows = _transform_rows(alpha_vec.counts, q_hi)
    return [BetaVector(q, rows[q]) for q in range(q_lo, q_hi + 1)]


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


def hdepth(pair: IdealPair) -> int:
    """Hilbert depth of J/I."""
    return hdepth_of_alpha(alpha(pair))


def dim_module(pair: IdealPair) -> int:
    """Krull dimension of J/I, read off as max{k : alpha_k > 0}."""
    return alpha(pair).max_degree


def h_vector(x: ComplexLike, level: Optional[int] = None) -> BetaVector:
    """h-vector of a complex or relative complex via its face counts.

    The default level is dim+1; an explicit level is used when transforming
    skeleta, where the truncation may sit below the requested level.
    """
    counts = f_vector(x)
    if level is None:
        if not counts:
            raise ValueError("empty complex has no intrinsic level; pass one explicitly")
        level = len(counts) - 1
    return BetaVector(level, _transform_rows(counts, level)[level])


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
    """
    rows = _transform_rows(alpha_vec.counts, alpha_vec.n)
    complement = _complement_counts(alpha_vec)
    for d in range(1, alpha_vec.n + 1):
        failure = _level_failure(alpha_vec, complement, rows[d], d)
        if failure is not None:
            return (*failure, d)
    return None


def _complement_counts(alpha_vec: AlphaVector) -> Optional[tuple[int, ...]]:
    # C(n, j) - alpha_j, or None when alpha exceeds a binomial bound.
    complement = tuple(comb(alpha_vec.n, j) - c for j, c in enumerate(alpha_vec.counts))
    return None if min(complement) < 0 else complement


def _level_failure(alpha_vec: AlphaVector, complement: Optional[tuple[int, ...]],
                   at_d: tuple[int, ...], d: int) -> Optional[tuple[str, int]]:
    """Both identities at level d against the production row at_d."""
    at_d1 = _direct_transform(alpha_vec.counts, d + 1)
    for k in range(1, d + 1):
        if at_d1[k] != at_d[k] - at_d[k - 1]:
            return ("level-recurrence", k)
    if complement is None:
        raise ValueError("alpha exceeds the binomial bound; not a subset count")
    comp_at_d = _direct_transform(complement, d)
    n = alpha_vec.n
    for k in range(d + 1):
        if comp_at_d[k] != binomial_ext(n - d + k - 1, k) - at_d[k]:
            return ("complement-identity", k)
    return None
