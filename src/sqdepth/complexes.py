"""Simplicial complexes and relative complexes in facet representation.

Faces are bitmasks over the ambient vertex set 1..n.  A complex stores only
its facets (the maximal faces); the void complex, which has no faces at all,
is represented by an empty facet tuple.  The complex whose single face is
the empty set has facet tuple (0,).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice
from typing import Iterable, Union

import numpy as np

from .ideals import (
    IdealPair,
    MonomialIdeal,
    _canonical_masks,
    _colon_table,
    _spread,
    complement,
    degree_counts,
    downward_closure_table,
    maximal_masks,
    membership_table,
    minimal_masks,
)


@dataclass(frozen=True)
class SimplicialComplex:
    """Facets in canonical order.  Constructors guarantee the antichain
    property; only order and mask range are revalidated here, since facet
    sets can be large (skeleta of big simplices)."""

    n: int
    facets: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"n={self.n} is negative")
        masks = list(self.facets)
        if any(not 0 <= m < (1 << self.n) for m in masks):
            raise ValueError("facet mask out of range")
        if masks != list(_canonical_masks(masks)):
            raise ValueError("facets must be distinct and canonically ordered")

    @classmethod
    def void(cls, n: int) -> "SimplicialComplex":
        return cls(n, ())

    @classmethod
    def full_simplex(cls, n: int) -> "SimplicialComplex":
        return cls(n, ((1 << n) - 1,))

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def dim(self) -> int:
        if self.is_void:
            raise ValueError("the void complex has no dimension")
        return max(m.bit_count() for m in self.facets) - 1

    def has_face(self, mask: int) -> bool:
        return any(mask & ~f == 0 for f in self.facets)


def _faces_of_size(facets: Iterable[list[int]], k: int, limit: int) -> set[int]:
    """The faces of k vertices of the complex with these facets, each given
    by its vertices; listing stops once more than `limit` are found."""
    faces: set[int] = set()
    for vertices in facets:
        faces.update(islice(map(sum, combinations(vertices, k)), limit + 1))
        if len(faces) > limit:
            break
    return faces


@dataclass(frozen=True)
class RelativeComplex:
    """A pair (delta, gamma) of nested complexes; its faces are delta minus gamma."""

    delta: SimplicialComplex
    gamma: SimplicialComplex

    def __post_init__(self):
        if self.delta.n != self.gamma.n:
            raise ValueError("delta and gamma live on different vertex sets")
        for f in self.gamma.facets:
            if not self.delta.has_face(f):
                raise ValueError("gamma is not a subcomplex of delta")

    @property
    def n(self) -> int:
        return self.delta.n

    @cached_property
    def facets(self) -> tuple[int, ...]:
        """The facets of delta outside gamma, canonically ordered: every face
        outside gamma sits inside one of them, so they are the maximal faces
        of the pair."""
        return tuple(f for f in self.delta.facets if not self.gamma.has_face(f))

    @property
    def is_empty(self) -> bool:
        return not self.facets

    @property
    def dim(self) -> int:
        if not self.facets:
            raise ValueError("relative complex has no faces")
        return max(f.bit_count() for f in self.facets) - 1


ComplexLike = Union[SimplicialComplex, RelativeComplex]


def complex_of_ideal(ideal: MonomialIdeal) -> SimplicialComplex:
    """The Stanley-Reisner complex {A : x_A not in I} of a non-unit ideal."""
    if ideal.is_unit:
        raise ValueError("the unit ideal corresponds to the void complex")
    table = complement(membership_table(ideal), ideal.n)
    return SimplicialComplex(ideal.n, maximal_masks(table, ideal.n))


def complex_of_colon(ideal: MonomialIdeal, other: MonomialIdeal) -> SimplicialComplex:
    """The Stanley-Reisner complex of the colon ideal (I : J), read off the
    subset table that `ideals.colon` reads its generators from, without
    listing them: the maximal masks outside the table, spread back onto the
    n variables, each with the vertices outside the support of I, on which
    the colon does not depend.  A unit colon gives the void complex."""
    table, s, support = _colon_table(ideal, other)
    free = ((1 << ideal.n) - 1) & ~support
    facets = _spread(maximal_masks(complement(table, s), s), support)
    return SimplicialComplex(ideal.n, tuple(f | free for f in facets))


def ideal_of_complex(complex_: SimplicialComplex) -> MonomialIdeal:
    """The Stanley-Reisner ideal, generated by the minimal non-faces."""
    if complex_.is_void:
        raise ValueError("the void complex corresponds to the unit ideal")
    table = complement(downward_closure_table(complex_.facets, complex_.n), complex_.n)
    return MonomialIdeal(complex_.n, minimal_masks(table, complex_.n))


def relative_of_pair(pair: IdealPair) -> RelativeComplex:
    """The relative complex (Delta(I), Delta(J)) presenting J/I."""
    delta = complex_of_ideal(pair.lower)
    if pair.upper.is_unit:
        gamma = SimplicialComplex.void(pair.n)
    else:
        gamma = complex_of_ideal(pair.upper)
    return RelativeComplex(delta, gamma)


def pair_of_relative(psi: RelativeComplex) -> IdealPair:
    """The ideal pair (I_delta, I_gamma) whose module is presented by psi."""
    lower = ideal_of_complex(psi.delta)
    if psi.gamma.is_void:
        upper = MonomialIdeal.unit(psi.n)
    else:
        upper = ideal_of_complex(psi.gamma)
    return IdealPair(lower, upper)


def face_table(x: ComplexLike) -> int | np.ndarray:
    """Subset table over all 2^n masks: the faces of x.  Its size picks its
    container (see `sqdepth.ideals`): one int for n <= ideals.SMALL_TABLE
    (14), packed uint64 words above.

    Built from the facets alone (downward closures); a relative complex
    keeps the faces of delta that are not faces of gamma.  Masking the table
    with popcount <= d' gives the (d'-1)-skeleton without listing its facets.
    """
    if isinstance(x, RelativeComplex):
        return face_table(x.delta) & ~face_table(x.gamma)
    return downward_closure_table(x.facets, x.n)


def f_vector(x: ComplexLike) -> tuple[int, ...]:
    """Face counts by dimension, up to the last nonzero one: entry i counts
    the faces of dimension i - 1; relative counts are delta minus gamma."""
    entries = list(degree_counts(face_table(x), x.n))
    while entries and entries[-1] == 0:
        entries.pop()
    return tuple(entries)


def link_facets(facets: tuple[int, ...], face: int) -> tuple[int, ...]:
    """Facets of the link of `face` in the complex with these facets: the
    facets containing it, with it removed; empty when it is not a face.
    Removing the same bits from each keeps them distinct and canonical."""
    return tuple(f ^ face for f in facets if face & ~f == 0)

