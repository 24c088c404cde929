"""Squarefree monomials and monomial ideals as bitmasks over x_1..x_n.

A squarefree monomial is identified with its variable set, stored as an
integer mask (bit i-1 set means x_i divides the monomial).  Ideals are kept
as canonical antichains of generator masks, so equal ideals compare equal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, lru_cache, reduce
from itertools import islice
from math import comb
from operator import and_, or_
from typing import Iterable

import numpy as np

from .errors import CapExceededError, InvalidPairError, ParseError

MAX_VARIABLES = 63
DEFAULT_ENUMERATION_CAP = 24


def _canonical_masks(masks: Iterable[int]) -> tuple[int, ...]:
    # by value, then stably by degree: two sorts without a Python-level key
    by_value = sorted(set(masks))
    try:
        return tuple(sorted(by_value, key=int.bit_count))
    except TypeError:  # numpy ints, which int.bit_count does not take
        return tuple(sorted(by_value, key=lambda m: m.bit_count()))


def _is_antichain(masks) -> bool:
    return all(
        not (a != b and a & ~b == 0) for a in masks for b in masks
    )


def _check_masks(masks: Iterable[int], n: int) -> None:
    """Reject a variable count outside 1..MAX_VARIABLES or a mask outside 0..2^n-1."""
    if not 1 <= n <= MAX_VARIABLES:
        raise ValueError(f"variable count must be in 1..{MAX_VARIABLES}, got {n}")
    for m in masks:
        if not 0 <= m < (1 << n):
            raise ValueError(f"mask {m:#x} out of range for n={n}")


def face_vertices(mask: int) -> list[int]:
    """The set bits of a mask, lowest first, as one-bit masks: the
    vertices of a face, or the variables of a monomial."""
    vertices = []
    while mask:
        v = mask & -mask
        vertices.append(v)
        mask ^= v
    return vertices


def _monomial_text(mask: int) -> str:
    """x_A as text: the product of its variables, or 1 for the empty mask."""
    if mask == 0:
        return "1"
    return "*".join(f"x{v.bit_length()}" for v in face_vertices(mask))


@dataclass(frozen=True)
class MonomialIdeal:
    """A squarefree monomial ideal given by its minimal generators.

    ``generators`` holds the generator masks: the divisibility antichain in
    canonical order (degree, then mask value).  The zero ideal has no
    generators; the unit ideal is generated by the empty mask (the
    monomial 1).
    """

    n: int
    generators: tuple[int, ...]

    def __post_init__(self):
        masks = list(self.generators)
        _check_masks(masks, self.n)
        if masks != list(_canonical_masks(masks)) or not _is_antichain(masks):
            raise ValueError("generators must be a canonically ordered antichain")

    @classmethod
    def zero(cls, n: int) -> "MonomialIdeal":
        return cls(n, ())

    @classmethod
    def unit(cls, n: int) -> "MonomialIdeal":
        return cls(n, (0,))

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @property
    def is_unit(self) -> bool:
        return bool(self.generators) and self.generators[0] == 0

    def contains(self, mask: int) -> bool:
        """Membership test for x_mask: some generator divides it."""
        _check_masks((mask,), self.n)
        return any(g & ~mask == 0 for g in self.generators)

    def __str__(self):
        if self.is_zero:
            return "zero"
        if self.is_unit:
            return "unit"
        return ", ".join(_monomial_text(g) for g in self.generators)


def minimalize(masks: Iterable[int], n: int) -> MonomialIdeal:
    """The ideal generated by these masks: the divisibility antichain of
    the distinct ones, ordered by degree, then by mask value.  An empty
    generating set yields the zero ideal.

    Each mask m in canonical order is kept unless a kept one divides it.
    The divisor test looks up the 2^|m| submasks of m in a set of the kept
    masks when that is fewer steps than a scan of the kept masks, counting
    16 steps for building the submasks, and scans the kept masks otherwise.
    The containment check of `IdealPair` uses the same test.
    """
    masks = _canonical_masks(masks)
    _check_masks(masks, n)
    # kept is a canonically ordered antichain of checked masks by
    # construction
    _, kept = _split_by_divisors(masks, (), absorb=True)
    return _trusted_ideal(n, tuple(kept))


def _split_by_divisors(masks: Iterable[int], divisors: Iterable[int],
                       absorb: bool = False) -> tuple[list[int], list[int]]:
    """The masks that one of the divisors divides, and the rest, each in
    the order given, by the submask-or-scan test of `minimalize`.  With
    `absorb`, each mask of the rest joins the divisors before the next
    mask is tested."""
    divisors = list(divisors)
    divisor_set = set(divisors)
    divided: list[int] = []
    rest: list[int] = []
    for m in masks:
        # building the submasks costs about 16 scan steps, then one per submask
        if (1 << m.bit_count()) + 16 < len(divisors):
            submasks = [0]
            for v in face_vertices(m):  # the submasks of m, by doubling
                submasks += [s | v for s in submasks]
            found = not divisor_set.isdisjoint(submasks)
        else:
            # k divides m when k & ~m is 0, which stops `all` at a divisor
            found = not all(map((~m).__and__, divisors))
        if found:
            divided.append(m)
        else:
            rest.append(m)
            if absorb:
                divisors.append(m)
                divisor_set.add(m)
    return divided, rest


def _trusted_ideal(n: int, generators: tuple[int, ...]) -> MonomialIdeal:
    # For generators known to be a canonically ordered antichain of masks
    # below 2^n: the O(g^2) checks of __post_init__ are skipped.
    ideal = object.__new__(MonomialIdeal)
    object.__setattr__(ideal, "n", n)
    object.__setattr__(ideal, "generators", generators)
    return ideal


def relabel_onto(ideal: MonomialIdeal, support: int) -> MonomialIdeal:
    """The ideal on max(1, |support|) variables whose generators are the
    ideal's, each inside `support`, with the variables of `support`
    renumbered 1, 2, ... in order.  The renumbering keeps divisibility,
    degrees and the order of mask values, so the generators stay a
    canonically ordered antichain.
    """
    n = max(support.bit_count(), 1)
    return _trusted_ideal(n, _relabeled(ideal.generators, support))


def _relabeled(masks: Iterable[int], support: int, spread: bool = False) -> tuple[int, ...]:
    # masks inside `support`, with its variables renumbered 1, 2, ... in
    # order, or with `spread` the inverse; either keeps degrees and the order
    # of mask values.  Each run of consecutive variables moves as one.
    masks = list(masks)
    renumbered, at = [0] * len(masks), 0
    while support:
        low = (support & -support).bit_length() - 1
        ones = support >> low & ~((support >> low) + 1)  # the run, moved to bit 0
        source, target = (at, low) if spread else (low, at)
        renumbered = [r | (m >> source & ones) << target for r, m in zip(renumbered, masks)]
        at, support = at + ones.bit_length(), support ^ ones << low
    return tuple(renumbered)


@dataclass(frozen=True)
class IdealPair:
    """A validated pair I < J presenting the module J/I.

    The quotient S/I is the pair (I, unit); the ideal I viewed as a module
    is the pair (zero, I).
    """

    lower: MonomialIdeal
    upper: MonomialIdeal

    def __post_init__(self):
        if self.lower.n != self.upper.n:
            raise InvalidPairError("I and J live in different rings")
        _, outside = _split_by_divisors(self.lower.generators, self.upper.generators)
        if outside:
            raise InvalidPairError(f"generator {_monomial_text(outside[0])} of I does not lie in J")
        if self.lower == self.upper:
            raise InvalidPairError("I and J are equal as ideals")

    @property
    def n(self) -> int:
        return self.upper.n

    @classmethod
    def quotient(cls, ideal: MonomialIdeal) -> "IdealPair":
        """S/I as the pair (I, unit)."""
        return cls(ideal, MonomialIdeal.unit(ideal.n))

    @classmethod
    def module(cls, ideal: MonomialIdeal) -> "IdealPair":
        """The ideal I viewed as the module (zero, I)."""
        return cls(MonomialIdeal.zero(ideal.n), ideal)


# ---------------------------------------------------------------------------
# Subset tables.  All 2^n enumeration funnels through these kernels.
#
# A table is a set of masks, bit m standing for mask m, and its size picks
# its container.  A table over at most 2^SMALL_TABLE masks is one Python int
# of 2^n bits.  A larger one is packed into uint64 words: bit m & 63 of word
# m >> 6 (the bits the int holds, little-endian).  A table stays in its
# container from the closure that builds it to the count or extremal-mask
# read that uses it, and callers combine tables with & and & ~ in either.
# A kernel walks the n mask bits of a table one at a time and picks its path
# from the container.  Mask bits inside a word (all n of an int, 0..5 of a
# packed word) are shift-and-mask steps; bits 6.. of a packed table index
# words and are handled with strided views, as on a plain array of 2^(n-6)
# entries.  A table over 2^14 masks is 256 words, where numpy's cost per
# call outweighs its speed per word: measured on a closure, complement,
# maximal masks and degree counts, the int path is 2-5x faster up to
# n = 14, about even at n = 15-16 and 3-5x slower from n = 18 on.
# ---------------------------------------------------------------------------

# A call holds up to this many tables of one size at once (alpha: two
# membership tables, a complement and their intersection), and fails before
# allocating when their estimated size exceeds the budget.
TABLES_PER_CALL = 4
TABLE_MEMORY_BUDGET = 1 << 30
# Tables over at most 2^SMALL_TABLE masks are one int.
SMALL_TABLE = 14


class _IntTable(int):
    """A closed or complemented table as one int, whose len() is the word
    count of its packed table, as for a packed array (perfbench/spans.py
    sizes membership tables so).  & and ~ on it give plain ints."""

    def __new__(cls, bits: int, n: int):
        table = super().__new__(cls, bits)
        table.n = n
        return table

    def __len__(self) -> int:
        return word_count(self.n)


@lru_cache(maxsize=None)
def popcount_table(n: int) -> np.ndarray:
    """uint8 array of length 2^n with the popcount of every index."""
    pc = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        pc = np.concatenate([pc, pc + 1])
    pc.setflags(write=False)
    return pc


def word_count(n: int) -> int:
    """Number of uint64 words in a packed table over 2^n masks."""
    return 1 << max(n - 6, 0)


def check_table_budget(n: int, of: int | None = None) -> None:
    """Refuse subset tables over 2^n masks that exceed the budget, before
    any is allocated.  `of`, if given, is the variable count of the input
    whose n used variables the tables span; if it differs from n, the
    message names both."""
    estimate = TABLES_PER_CALL * 8 * word_count(n)
    if estimate > TABLE_MEMORY_BUDGET:
        count = f"n={n} needs" if of in (None, n) else f"{n} of the n={of} variables need"
        raise CapExceededError(
            f"{count} about {estimate} bytes of subset tables "
            f"({TABLES_PER_CALL} of {8 * word_count(n)} bytes), over the "
            f"budget of {TABLE_MEMORY_BUDGET} bytes"
        )


@lru_cache(maxsize=None)
def _int_masks(size: int) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """For a word of 2^size bits: (2^b, positions whose bit b is clear) for
    b < size, a run of 2^b ones in every 2^(b+1) bits, and the positions of
    popcount t for t <= size.  A word of 2^n < 2^size bits uses them as they
    are, since an AND of nonnegative ints stops at the shorter one."""
    steps = []
    for b in range(size):
        low, width = (1 << (1 << b)) - 1, 2 << b
        while width < 1 << size:  # doubling the run of ones and zeros
            low |= low << width
            width <<= 1
        steps.append((1 << b, low))
    degrees = (1,)
    for k in range(size):  # below 2^(k+1): popcount t below 2^k, or t-1 plus bit k
        degrees = tuple(a | b << (1 << k) for a, b in zip(degrees + (0,), (0,) + degrees))
    return tuple(steps), degrees


@lru_cache(maxsize=None)
def _layout(n: int, packed: bool) -> tuple[tuple, tuple, range]:
    """How a kernel walks the mask bits of a table over 2^n masks: the
    in-word steps and popcount positions of `_int_masks`, and the bits that
    index words.  An int is one word of 2^n bits; a packed word holds 64,
    its masks as numpy scalars, with which numpy reuses temporary arrays."""
    steps, degrees = _int_masks(6 if packed else max(n, SMALL_TABLE))
    steps, degrees = steps[:n], degrees[:n + 1]
    if not packed:
        return steps, degrees, range(0)
    return (tuple((np.uint64(s), np.uint64(low)) for s, low in steps),
            tuple(map(np.uint64, degrees)), range(6, n))


def _halves(words: np.ndarray, b: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views of the words whose index has bit b-6 clear, and of their partners
    with that bit set, for a mask bit b >= 6."""
    view = words.reshape(-1, 2, 1 << (b - 6))
    rows, width = view.shape[0], view.shape[2]
    if rows < 64 * width:
        return [(view[:, 0, :], view[:, 1, :])]
    # numpy walks many short rows slowly; one long strided column each is faster
    return [(view[:, 0, c], view[:, 1, c]) for c in range(width)]


def _close(table: int | np.ndarray, n: int, upward: bool,
           along: int | None = None) -> int | np.ndarray:
    """Close a table upward (supersets) or downward (subsets) along the mask
    bits set in `along`, all n by default, and return it: packed words
    change in place, an int does not.  The steps along different bits
    commute, so in-word bits go first."""
    steps, _, word_bits = _layout(n, isinstance(table, np.ndarray))
    if along is not None:
        bits, in_word = [v.bit_length() - 1 for v in face_vertices(along)], len(steps)
        steps = [steps[b] for b in bits if b < in_word]
        word_bits = [b for b in bits if b >= in_word]
    for shift, low in steps:
        if upward:
            table |= (table & low) << shift
        else:
            table |= (table >> shift) & low
    for b in word_bits:
        for low, high in _halves(table, b):
            if upward:
                high |= low
            else:
                low |= high
    return table


def _closed_table(seeds: Iterable[int], n: int, upward: bool) -> int | np.ndarray:
    """The table of the seed masks, closed upward or downward: one int over
    at most 2^SMALL_TABLE masks, packed words over more."""
    if n <= SMALL_TABLE:
        x = 0
        for m in seeds:
            x |= 1 << m
        return _IntTable(_close(x, n, upward), n)
    seeds = np.fromiter(seeds, dtype=np.uint64)
    words = np.zeros(word_count(n), dtype=np.uint64)
    np.bitwise_or.at(words, (seeds >> np.uint64(6)).astype(np.intp),
                     np.uint64(1) << (seeds & np.uint64(63)))
    return _close(words, n, upward) if len(seeds) else words


def membership_table(ideal: MonomialIdeal) -> int | np.ndarray:
    """Table over all 2^n masks: x_A in the ideal.

    Seeded with the generators, then closed upward one bit at a time.
    """
    check_table_budget(ideal.n)
    if not ideal.is_unit:
        return _closed_table(ideal.generators, ideal.n, upward=True)
    if ideal.n <= SMALL_TABLE:  # the unit ideal holds every mask
        return _IntTable((1 << (1 << ideal.n)) - 1, ideal.n)
    return np.full(word_count(ideal.n), (1 << (1 << min(ideal.n, 6))) - 1, dtype=np.uint64)


def _colon_table(ideal: MonomialIdeal,
                 other: MonomialIdeal) -> tuple[int | np.ndarray, int, int]:
    """The subset table of (I : J) over the s variables of the support of I
    (those its generators use), s, and the support as a mask.

    A variable outside the support is a nonzerodivisor mod I, so
    (I : x_v) = I and the bits of J's generators outside it are dropped.
    (I : J) is the intersection of (I : g) over the generators g of J, and
    the table of (I : g) holds A when I's holds A | g.  A generator g with
    no bit in the support gives (I : g) = I, which every (I : g') contains,
    so then (I : J) = I and I's own table is returned; the unit ideal J = S
    is such a case.  Otherwise, as I's table is upward closed, the table
    of (I : g) is one downward step along each bit of g.  An int takes
    the steps along all bits of each g.  Packed words take those along the
    in-word bits once for all generators that share them, in one scratch
    copy of I's table; the word-index bits of g then pick the words of the
    masks A | g as a view, ANDed into the colon in place.  So at most four
    tables are live: I's, the colon, the copy and a temporary of a step.
    The table budget bounds s, as it does for alpha.
    """
    if ideal.n != other.n:
        raise ValueError("ideals live in different rings")
    if other.is_zero:
        raise ValueError("colon by the zero ideal is undefined")
    support = reduce(or_, ideal.generators, 0)
    s = support.bit_count()
    check_table_budget(s, of=ideal.n)
    table = _closed_table(_relabeled(ideal.generators, support), s, upward=True)
    alongs = _relabeled({g & support for g in other.generators}, support)
    if 0 in alongs:
        return table, s, support
    if isinstance(table, int):
        steps = (_close(table, s, upward=False, along=along) for along in alongs)
        return reduce(and_, steps), s, support
    by_in_word: dict[int, list[int]] = {}
    for along in alongs:
        by_in_word.setdefault(along & 63, []).append(along >> 6)
    colon_table, scratch = np.full_like(table, ~np.uint64(0)), np.empty_like(table)
    for in_word, word_masks in by_in_word.items():
        closed = table
        if in_word:  # closed along the in-word bits in one scratch copy
            np.copyto(scratch, table)
            closed = _close(scratch, s, upward=False, along=in_word)
        for w in word_masks:
            shape, picked = _split_words(w, max(s - 6, 0))
            view = colon_table.reshape(shape)
            view &= closed.reshape(shape)[picked]
    return colon_table, s, support


@lru_cache(maxsize=None)
def _split_words(w: int, k: int) -> tuple[tuple[int, ...], tuple[slice, ...]]:
    """A shape for 2^k words with an axis of length 2 for each bit set in
    w, the runs of index bits between them merged, and the index that
    takes the words whose index has those bits set, keeping their axes to
    broadcast over both words of each pair."""
    shape, picked, top = [], [], k
    for b in reversed([v.bit_length() - 1 for v in face_vertices(w)]):
        shape += [1 << (top - b - 1), 2]
        picked += [slice(None), slice(1, 2)]
        top = b
    return tuple(shape + [1 << top]), tuple(picked + [slice(None)])


def downward_closure_table(masks: Iterable[int], n: int) -> int | np.ndarray:
    """Table over all 2^n masks: subset of one of the seeds."""
    check_table_budget(n)
    return _closed_table(masks, n, upward=False)


def complement(table: int | np.ndarray, n: int) -> int | np.ndarray:
    """The masks not in the table; the bits at and above 2^n stay clear."""
    if isinstance(table, int):
        return _IntTable(~table & ((1 << (1 << n)) - 1), n)
    return ~table & np.uint64((1 << (1 << min(n, 6))) - 1)


def degree_counts(table: int | np.ndarray, n: int) -> tuple[int, ...]:
    """Number of masks in the table by popcount, entries for 0..n.

    An int is counted with one AND and popcount per degree.  On a packed
    table, row t of ``counts`` starts as the number of in-word positions of
    popcount t in each word.  Folding the top half of the words onto the
    bottom half, one row lower, accounts for the highest word-index bit;
    after all n-6 folds one column of n+1 degree counts is left.  Each fold
    uses the smallest unsigned dtype that holds C(k, k//2) for the 2^k
    masks one column then covers, so counts stay exact integers.
    """
    _, degrees, _ = _layout(n, isinstance(table, np.ndarray))
    if isinstance(table, int):
        return tuple((table & d).bit_count() for d in degrees)
    counts = np.empty((len(degrees), len(table)), dtype=np.uint8)
    for t, d in enumerate(degrees):
        np.bitwise_count(table & d, out=counts[t])
    for k in range(len(degrees), n + 1):
        half = counts.shape[1] // 2
        folded = np.zeros((counts.shape[0] + 1, half),
                          dtype=np.min_scalar_type(comb(k, k // 2)))
        folded[:-1] = counts[:, :half]
        folded[1:] += counts[:, half:]
        counts = folded
    return tuple(counts[:n + 1, 0].tolist())


def _masks_of(table: np.ndarray) -> tuple[int, ...]:
    nonzero = np.flatnonzero(table)
    words = table[nonzero].astype("<u8", copy=False)
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    rows, positions = np.nonzero(bits.reshape(-1, 64))
    return _canonical_masks((nonzero[rows] * 64 + positions).tolist())


def _set_bits(x: int) -> list[int]:
    """The set bits of x, lowest first, found in its binary string read
    lowest bit first: the masks of a table of one int in ascending order."""
    bits = bin(x)[:1:-1]
    masks = []
    m = bits.find("1")
    while m >= 0:
        masks.append(m)
        m = bits.find("1", m + 1)
    return masks


def _int_members(x: int) -> tuple[int, ...]:
    return tuple(sorted(_set_bits(x), key=int.bit_count))


def maximal_masks(table: int | np.ndarray, n: int) -> tuple[int, ...]:
    """Masks in the table with no marked proper superset, canonically ordered."""
    small = isinstance(table, int)
    kept = table if small else table.copy()
    steps, _, word_bits = _layout(n, not small)
    for shift, low in steps:
        kept &= ~((table >> shift) & low)
    for b in word_bits:
        for (_, t_high), (k_low, _) in zip(_halves(table, b), _halves(kept, b)):
            k_low &= ~t_high
    return _int_members(kept) if small else _masks_of(kept)


# ---------------------------------------------------------------------------
# Text grammar: `zero` | `unit` | comma/whitespace-separated x<i>*x<j>*...
# with # comments to end of line.
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"[^\s,]+")
_FACTOR_RE = re.compile(r"x([1-9][0-9]*)\Z")
_PRODUCT_RE = re.compile(r"x[1-9][0-9]*(?:\*x[1-9][0-9]*)*\Z")


def _lines(text: str) -> list[str]:
    # each line with its comment cut
    return [line.partition("#")[0] for line in text.splitlines()]


def _position(text: str, index: int) -> tuple[int, int]:
    """The line and column of the token numbered `index` (from 0) in the
    text, for an error message: only an error reads a position."""
    positions = ((lineno, m.start() + 1) for lineno, line in enumerate(_lines(text), start=1)
                 for m in _TOKEN_RE.finditer(line))
    return next(islice(positions, index, None))


def _parse_product(token: str, line: int, col: int, n: int) -> int:
    # One factor at a time, so an error names the factor and its column.
    mask = 0
    offset = 0
    for factor in token.split("*"):
        fcol = col + offset
        m = _FACTOR_RE.match(factor)
        if not m:
            raise ParseError(
                f"malformed variable token {factor!r} (expected x<i>)", line, fcol
            )
        index = int(m.group(1))
        if not 1 <= index <= n:
            raise ParseError(f"variable index {index} out of range 1..{n}", line, fcol)
        bit = 1 << (index - 1)
        if mask & bit:
            raise ParseError(
                f"repeated variable x{index} in product (non-squarefree)", line, fcol
            )
        mask |= bit
        offset += len(factor) + 1
    return mask


@cache
def _variable_bits() -> dict[str, int]:
    # the index text of each of the MAX_VARIABLES variables, and its bit
    return {str(i): 1 << (i - 1) for i in range(1, MAX_VARIABLES + 1)}


def parse_ideal(text: str, n: int) -> MonomialIdeal:
    """Parse one ideal from text; see the grammar in the text-grammar
    section above.

    The tokens are read as plain strings, line by line.  Each product
    token is checked against the grammar by one regex and read with one
    split; only a token that fails is located, by its line and column, and
    read again factor by factor for its error.  The products are
    minimalized by `minimalize`.
    """
    tokens = [token for line in _lines(text) for token in _TOKEN_RE.findall(line)]
    if not tokens:
        raise ParseError("empty ideal specification")
    if "zero" in tokens or "unit" in tokens:
        if len(tokens) > 1:
            first = min(tokens.index(word) for word in ("zero", "unit") if word in tokens)
            line, col = _position(text, first)
            raise ParseError(
                f"keyword {tokens[first]!r} cannot be combined with generators", line, col
            )
        return MonomialIdeal.zero(n) if tokens[0] == "zero" else MonomialIdeal.unit(n)
    bits = _variable_bits()
    masks = []
    for i, token in enumerate(tokens):
        if _PRODUCT_RE.match(token):
            # an index text outside the table, say a huge one, gives None
            # and is never turned into an int or a shift here
            factors = [*map(bits.get, token[1:].split("*x"))]
            if None not in factors:
                # a repeated variable carries in the sum, losing a set bit
                mask = sum(factors)
                if mask.bit_count() == len(factors) and mask.bit_length() <= n:
                    masks.append(mask)
                    continue
        line, col = _position(text, i)
        masks.append(_parse_product(token, line, col, n))  # raises the located error
    return minimalize(masks, n)
