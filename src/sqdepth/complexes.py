"""Simplicial complexes and relative complexes in facet representation.

Faces are bitmasks over the ambient vertex set 1..n.  A complex stores only
its facets (the maximal faces); the void complex, which has no faces at all,
is represented by an empty facet tuple.  The complex whose single face is
the empty set has facet tuple (0,).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from typing import Iterable, Optional, Union

import numpy as np

from .ideals import (
    IdealPair,
    MonomialIdeal,
    _canonical_masks,
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

    def faces_of_size(self, k: int, limit: int) -> list[int]:
        """The faces of k vertices in ascending mask order.  Listing stops
        once more than `limit` are found, so a caller that compares the
        length with its limit never holds much more than twice that many."""
        return sorted(_faces_of_size(map(face_vertices, self.facets), k, limit))


def face_vertices(face: int) -> list[int]:
    """The vertices of a face, as one-bit masks."""
    return [1 << b for b in range(face.bit_length()) if face >> b & 1]


def _faces_of_size(facets: Iterable[list[int]], k: int, limit: int) -> set[int]:
    """The faces of k vertices of the complex with these facets, each given
    by its vertices; listing stops once more than `limit` are found."""
    faces: set[int] = set()
    for vertices in facets:
        faces.update(islice(map(sum, combinations(vertices, k)), limit + 1))
        if len(faces) > limit:
            break
    return faces


def pair_faces_of_size(delta: list[list[int]], gamma: list[list[int]], k: int,
                       limit: int) -> Optional[set[int]]:
    """The faces of k vertices of delta outside gamma, for the pair with
    these facets, each given by its face_vertices; None once there are more
    than `limit`.  The faces of gamma are listed, then those of delta only
    up to the limit plus that count."""
    below = set().union(*(map(sum, combinations(vertices, k)) for vertices in gamma))
    level = _faces_of_size(delta, k, limit + len(below))
    if len(level) > limit + len(below):
        return None
    return level - below


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

    @property
    def is_empty(self) -> bool:
        return all(self.gamma.has_face(f) for f in self.delta.facets)

    @property
    def dim(self) -> int:
        # Every face outside gamma sits inside a delta-facet outside gamma,
        # so the maximum is attained on facets.
        dims = [f.bit_count() - 1 for f in self.delta.facets if not self.gamma.has_face(f)]
        if not dims:
            raise ValueError("relative complex has no faces")
        return max(dims)


@dataclass(frozen=True)
class FVector:
    """Face counts; entries[i] is the number of faces of dimension i-1."""

    entries: tuple[int, ...]

    def f(self, i: int) -> int:
        return self.entries[i + 1] if -1 <= i < len(self.entries) - 1 else 0


ComplexLike = Union[SimplicialComplex, RelativeComplex]


def complex_of_ideal(ideal: MonomialIdeal) -> SimplicialComplex:
    """The Stanley-Reisner complex {A : x_A not in I} of a non-unit ideal."""
    if ideal.is_unit:
        raise ValueError("the unit ideal corresponds to the void complex")
    table = complement(membership_table(ideal), ideal.n)
    return SimplicialComplex(ideal.n, maximal_masks(table, ideal.n))


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


def face_table(x: ComplexLike) -> np.ndarray:
    """Packed table (see `sqdepth.ideals`) over all 2^n masks: the faces of x.

    Built from the facets alone (downward closures); a relative complex
    keeps the faces of delta that are not faces of gamma.  Masking the table
    with popcount <= d' gives the (d'-1)-skeleton without listing its facets.
    """
    if isinstance(x, RelativeComplex):
        return face_table(x.delta) & ~face_table(x.gamma)
    return downward_closure_table(x.facets, x.n)


def f_vector(x: ComplexLike) -> FVector:
    """Face counts by dimension; relative counts are delta minus gamma."""
    entries = list(degree_counts(face_table(x), x.n))
    while entries and entries[-1] == 0:
        entries.pop()
    return FVector(tuple(entries))


def link_facets(facets: tuple[int, ...], face: int) -> tuple[int, ...]:
    """Facets of the link of `face` in the complex with these facets: the
    facets containing it, with it removed; empty when it is not a face.
    Removing the same bits from each keeps them distinct and canonical."""
    return tuple(f ^ face for f in facets if face & ~f == 0)


def relative_facets_of_pair(pair: IdealPair) -> tuple[int, ...]:
    """Facets of the relative complex of a pair: maximal A with x_A in J \\ I."""
    table = membership_table(pair.upper) & ~membership_table(pair.lower)
    return maximal_masks(table, pair.n)
