"""Simplicial complexes and relative complexes in facet representation.

Faces are bitmasks over the ambient vertex set 1..n.  A complex stores only
its facets (the maximal faces); the void complex, which has no faces at all,
is represented by an empty facet tuple.  The complex whose single face is
the empty set has facet tuple (0,).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Union

import numpy as np

from .ideals import (
    DEFAULT_ENUMERATION_CAP,
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

    def face_masks(self, max_size: Optional[int] = None) -> set[int]:
        """All faces, as the union of the facet power sets; with max_size,
        only the faces of at most max_size vertices."""
        faces: set[int] = set()
        for facet in self.facets:
            if max_size is not None and facet.bit_count() > max_size:
                bits = [1 << b for b in range(facet.bit_length()) if facet >> b & 1]
                for k in range(max_size + 1):
                    faces.update(map(sum, combinations(bits, k)))
                continue
            sub = facet
            while True:
                faces.add(sub)
                if sub == 0:
                    break
                sub = (sub - 1) & facet
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

    def face_masks(self, max_size: Optional[int] = None) -> set[int]:
        return self.delta.face_masks(max_size) - self.gamma.face_masks(max_size)


@dataclass(frozen=True)
class FVector:
    """Face counts; entries[i] is the number of faces of dimension i-1."""

    entries: tuple[int, ...]

    def f(self, i: int) -> int:
        return self.entries[i + 1] if -1 <= i < len(self.entries) - 1 else 0


ComplexLike = Union[SimplicialComplex, RelativeComplex]


def complex_of_ideal(ideal: MonomialIdeal, cap: int = DEFAULT_ENUMERATION_CAP) -> SimplicialComplex:
    """The Stanley-Reisner complex {A : x_A not in I} of a non-unit ideal."""
    if ideal.is_unit:
        raise ValueError("the unit ideal corresponds to the void complex")
    table = complement(membership_table(ideal, cap), ideal.n)
    return SimplicialComplex(ideal.n, maximal_masks(table, ideal.n))


def ideal_of_complex(complex_: SimplicialComplex,
                     cap: int = DEFAULT_ENUMERATION_CAP) -> MonomialIdeal:
    """The Stanley-Reisner ideal, generated by the minimal non-faces."""
    if complex_.is_void:
        raise ValueError("the void complex corresponds to the unit ideal")
    table = complement(downward_closure_table(complex_.facets, complex_.n, cap), complex_.n)
    return MonomialIdeal.from_masks(minimal_masks(table, complex_.n), complex_.n)


def relative_of_pair(pair: IdealPair, cap: int = DEFAULT_ENUMERATION_CAP) -> RelativeComplex:
    """The relative complex (Delta(I), Delta(J)) presenting J/I."""
    delta = complex_of_ideal(pair.lower, cap)
    if pair.upper.is_unit:
        gamma = SimplicialComplex.void(pair.n)
    else:
        gamma = complex_of_ideal(pair.upper, cap)
    return RelativeComplex(delta, gamma)


def pair_of_relative(psi: RelativeComplex, cap: int = DEFAULT_ENUMERATION_CAP) -> IdealPair:
    """The ideal pair (I_delta, I_gamma) whose module is presented by psi."""
    lower = ideal_of_complex(psi.delta, cap)
    if psi.gamma.is_void:
        upper = MonomialIdeal.unit(psi.n)
    else:
        upper = ideal_of_complex(psi.gamma, cap)
    return IdealPair(lower, upper)


def face_table(x: ComplexLike, cap: int = DEFAULT_ENUMERATION_CAP) -> np.ndarray:
    """Packed table (see `sqdepth.ideals`) over all 2^n masks: the faces of x.

    Built from the facets alone (downward closures); a relative complex
    keeps the faces of delta that are not faces of gamma.  Masking the table
    with popcount <= d' gives the (d'-1)-skeleton without listing its facets.
    """
    if isinstance(x, RelativeComplex):
        return face_table(x.delta, cap) & ~face_table(x.gamma, cap)
    return downward_closure_table(x.facets, x.n, cap)


def f_vector(x: ComplexLike, cap: int = DEFAULT_ENUMERATION_CAP) -> FVector:
    """Face counts by dimension; relative counts are delta minus gamma."""
    entries = list(degree_counts(face_table(x, cap), x.n))
    while entries and entries[-1] == 0:
        entries.pop()
    return FVector(tuple(entries))


def link_facets(facets: tuple[int, ...], face: int) -> tuple[int, ...]:
    """Facets of the link of `face` in the complex with these facets: the
    facets containing it, with it removed; empty when it is not a face.
    Removing the same bits from each keeps them distinct and canonical."""
    return tuple(f ^ face for f in facets if face & ~f == 0)


def relative_facets_of_pair(pair: IdealPair,
                            cap: int = DEFAULT_ENUMERATION_CAP) -> tuple[int, ...]:
    """Facets of the relative complex of a pair: maximal A with x_A in J \\ I."""
    table = membership_table(pair.upper, cap) & ~membership_table(pair.lower, cap)
    return maximal_masks(table, pair.n)
