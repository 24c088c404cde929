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
    MAX_VARIABLES,
    IdealPair,
    MonomialIdeal,
    _canonical_masks,
    _colon_table,
    _relabeled,
    complement,
    degree_counts,
    downward_closure_table,
    maximal_masks,
)


@dataclass(frozen=True)
class SimplicialComplex:
    """Facets in canonical order on n <= MAX_VARIABLES vertices, as for
    ideals.  Constructors guarantee the antichain property; only order and
    mask range are revalidated here, since facet sets can be large."""

    n: int
    facets: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"n={self.n} is negative")
        if self.n > MAX_VARIABLES:
            raise ValueError(f"n={self.n} is above {MAX_VARIABLES}")
        masks = list(self.facets)
        if any(not 0 <= m < (1 << self.n) for m in masks):
            raise ValueError("facet mask out of range")
        if masks != list(_canonical_masks(masks)):
            raise ValueError("facets must be distinct and canonically ordered")

    @classmethod
    def void(cls, n: int) -> "SimplicialComplex":
        return cls(n, ())

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
    """The Stanley-Reisner complex {A : x_A not in I}, which is the complex
    of (I : S) = I, so it is built over the support of I as in
    `complex_of_colon`.  The unit ideal gives the void complex."""
    return complex_of_colon(ideal, MonomialIdeal.unit(ideal.n))


def complex_of_colon(ideal: MonomialIdeal, other: MonomialIdeal) -> SimplicialComplex:
    """The Stanley-Reisner complex of the colon ideal (I : J), read off its
    subset table over the support of I (`ideals._colon_table`) without
    listing its generators: the maximal masks outside the table, spread
    back onto the n variables, each with the vertices outside the support
    of I, on which the colon does not depend.  A unit colon gives the void
    complex."""
    table, s, support = _colon_table(ideal, other)
    table = complement(table, s)  # the colon's table is freed before the maximal masks
    free = ((1 << ideal.n) - 1) & ~support
    facets = _relabeled(maximal_masks(table, s), support, spread=True)
    return SimplicialComplex(ideal.n, tuple(f | free for f in facets))


def relative_of_pair(pair: IdealPair) -> RelativeComplex:
    """The relative complex (Delta(I), Delta(J)) presenting J/I; gamma is
    void for a quotient, whose J is the unit ideal."""
    return RelativeComplex(complex_of_ideal(pair.lower), complex_of_ideal(pair.upper))


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

