"""Exact reduced simplicial homology, Reisner tests, and depth.

Chain complexes are augmented: the empty face generates the chain group in
dimension -1, so the Betti numbers computed here are reduced.  Over the
rationals ranks come from fraction-free integer elimination; over a prime
field from modular elimination.  Relative pairs use the quotient chain
complex directly: chains are spanned by the faces of delta outside gamma,
and boundary summands landing in gamma are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CapExceededError
from .complexes import (
    RelativeComplex,
    SimplicialComplex,
    link,
    relative_of_pair,
    skeleton,
)
from .ideals import DEFAULT_ENUMERATION_CAP, IdealPair

DEFAULT_PRIME = 32003
DEFAULT_FACE_CAP = 100_000
# rank_mod_p multiplies two residues below p in int64; p < 2^31 keeps every
# product below 2^62.
PRIME_LIMIT = 1 << 31


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
    return True


@dataclass(frozen=True)
class CoefficientField:
    """Homology coefficients: characteristic 0 (rationals) or a prime p."""

    characteristic: int = 0

    def __post_init__(self):
        p = self.characteristic
        if p >= PRIME_LIMIT:
            raise ValueError(f"characteristic {p} is not below 2^31, the limit of exact mod-p ranks")
        if p != 0 and not _is_prime(p):
            raise ValueError(f"{p} is not 0 or a prime")

    def label(self) -> str:
        return "QQ" if self.characteristic == 0 else f"GF({self.characteristic})"


RATIONALS = CoefficientField(0)


@dataclass
class ChainComplexRanks:
    """Face counts, boundary ranks, and (reduced/relative) homology ranks.

    All three dicts are keyed by chain dimension; boundary_ranks[i] is the
    rank of the map from i-chains to (i-1)-chains.
    """

    field: CoefficientField
    face_counts: dict[int, int]
    boundary_ranks: dict[int, int]
    betti: dict[int, int]

    def betti_number(self, i: int) -> int:
        return self.betti.get(i, 0)

    @property
    def is_acyclic(self) -> bool:
        return all(v == 0 for v in self.betti.values())


def rank_fraction_free(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by Bareiss one-step elimination.

    Intermediate entries stay integral (they are minors of the input), so
    the computation is exact and the result is the rank over the rationals.
    """
    mat = [row[:] for row in rows if any(row)]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, len(mat)):
            if mat[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        pivot = mat[rank][col]
        top = mat[rank]
        for i in range(rank + 1, len(mat)):
            row = mat[i]
            factor = row[col]
            for j in range(col + 1, ncols):
                row[j] = (row[j] * pivot - factor * top[j]) // prev
            row[col] = 0
        prev = pivot
        rank += 1
        if rank == len(mat):
            break
    return rank


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p) by vectorized modular elimination."""
    if not rows:
        return 0
    mat = np.array(rows, dtype=np.int64) % p
    nrows, ncols = mat.shape
    rank = 0
    for col in range(ncols):
        nz = np.nonzero(mat[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            mat[[rank, piv]] = mat[[piv, rank]]
        inv = pow(int(mat[rank, col]), p - 2, p)
        mat[rank] = mat[rank] * inv % p
        below = mat[rank + 1:, col]
        if below.size:
            mat[rank + 1:] = (mat[rank + 1:] - np.outer(below, mat[rank])) % p
        rank += 1
        if rank == nrows:
            break
    return rank


def _matrix_rank(rows: list[list[int]], field: CoefficientField) -> int:
    if field.characteristic == 0:
        return rank_fraction_free(rows)
    return rank_mod_p(rows, field.characteristic)


def _faces_by_dim(masks, face_cap: int) -> dict[int, list[int]]:
    by_dim: dict[int, list[int]] = {}
    total = 0
    for m in masks:
        by_dim.setdefault(m.bit_count() - 1, []).append(m)
        total += 1
        if total > face_cap:
            raise CapExceededError(f"face count exceeds the cap {face_cap}")
    for faces in by_dim.values():
        faces.sort()
    return by_dim


def _boundary_matrix(lower: list[int], upper: list[int]) -> list[list[int]]:
    """Signed incidence matrix from upper-dimension faces to lower.

    The sign of dropping vertex v from a face is (-1)^position with vertices
    in ascending order; faces absent from `lower` (relative case) are
    dropped, which realizes the quotient chain complex.
    """
    index = {m: i for i, m in enumerate(lower)}
    rows = [[0] * len(upper) for _ in lower]
    for col, m in enumerate(upper):
        sign = 1
        remaining = m
        while remaining:
            bit = remaining & -remaining
            sub = m ^ bit
            row = index.get(sub)
            if row is not None:
                rows[row][col] = sign
            sign = -sign
            remaining ^= bit
    return rows


def _ranks_from_faces(by_dim: dict[int, list[int]], field: CoefficientField) -> ChainComplexRanks:
    if not by_dim:
        return ChainComplexRanks(field, {}, {}, {})
    dims = sorted(by_dim)
    counts = {i: len(by_dim[i]) for i in dims}
    ranks: dict[int, int] = {}
    for i in dims:
        below = by_dim.get(i - 1, [])
        if not below:
            ranks[i] = 0
            continue
        ranks[i] = _matrix_rank(_boundary_matrix(below, by_dim[i]), field)
    betti = {
        i: counts[i] - ranks.get(i, 0) - ranks.get(i + 1, 0)
        for i in dims
    }
    return ChainComplexRanks(field, counts, ranks, betti)


# Results keyed by a relabeling-invariant form of the face sets; counts,
# ranks and Betti numbers do not depend on vertex names.  Concurrent use is
# safe: entries are only ever inserted, and recomputing one is harmless.
_HOMOLOGY_CACHE: dict[tuple, ChainComplexRanks] = {}


def _canonical_key(facet_groups: tuple[tuple[int, ...], ...], characteristic: int) -> tuple:
    used = 0
    for group in facet_groups:
        for m in group:
            used |= m
    positions = [i for i in range(used.bit_length()) if used >> i & 1]
    remap = {bit: j for j, bit in enumerate(positions)}
    relabeled = tuple(
        tuple(sorted(sum(1 << remap[i] for i in range(m.bit_length()) if m >> i & 1)
                     for m in group))
        for group in facet_groups
    )
    return (characteristic, relabeled)


def clear_homology_cache() -> None:
    _HOMOLOGY_CACHE.clear()


def reduced_homology(complex_: SimplicialComplex, field: CoefficientField = RATIONALS,
                     face_cap: int = DEFAULT_FACE_CAP) -> ChainComplexRanks:
    """Reduced Betti numbers of a nonvoid complex over the chosen field."""
    if complex_.is_void:
        raise ValueError("the void complex has no homology")
    key = _canonical_key((complex_.facets,), field.characteristic)
    cached = _HOMOLOGY_CACHE.get(key)
    if cached is not None:
        return cached
    result = _ranks_from_faces(_faces_by_dim(complex_.face_masks(), face_cap), field)
    _HOMOLOGY_CACHE[key] = result
    return result


def relative_homology(psi: RelativeComplex, field: CoefficientField = RATIONALS,
                      face_cap: int = DEFAULT_FACE_CAP) -> ChainComplexRanks:
    """Homology of the pair: chains on delta-minus-gamma faces, boundaries
    taken modulo gamma.  An empty pair has no chain groups at all."""
    key = _canonical_key((psi.delta.facets, psi.gamma.facets), field.characteristic)
    cached = _HOMOLOGY_CACHE.get(key)
    if cached is not None:
        return cached
    result = _ranks_from_faces(_faces_by_dim(psi.face_masks(), face_cap), field)
    _HOMOLOGY_CACHE[key] = result
    return result


def _is_cone(x: SimplicialComplex) -> bool:
    """A common vertex of all facets makes the complex contractible."""
    if x.is_void:
        return False
    apex = x.facets[0]
    for f in x.facets[1:]:
        apex &= f
        if not apex:
            return False
    return apex != 0


@dataclass(frozen=True)
class CmVerdict:
    """Outcome of a Cohen-Macaulayness test, with a witness on failure.

    For a failing complex, witness_face is the face whose link has nonzero
    homology in dimension witness_dim below the link dimension.
    """

    is_cm: bool
    field: CoefficientField
    witness_face: Optional[int] = None
    witness_dim: Optional[int] = None

    def __bool__(self):
        return self.is_cm


def is_cohen_macaulay(complex_: SimplicialComplex, field: CoefficientField = RATIONALS,
                      face_cap: int = DEFAULT_FACE_CAP) -> CmVerdict:
    """Reisner's criterion: every link has vanishing reduced homology below
    its own dimension."""
    if complex_.is_void:
        raise ValueError("the void complex cannot be tested")
    faces = sorted(complex_.face_masks(), key=lambda m: (m.bit_count(), m))
    if len(faces) > face_cap:
        raise CapExceededError(f"face count exceeds the cap {face_cap}")
    for f in faces:
        lk = link(complex_, f)
        if lk.facets == (0,):
            continue  # the link of a facet is {empty}; nothing below its dimension
        top = lk.dim
        if _is_cone(lk):
            continue
        ranks = reduced_homology(lk, field, face_cap)
        for i in range(-1, top):
            if ranks.betti_number(i) != 0:
                return CmVerdict(False, field, f, i)
    return CmVerdict(True, field)


def is_cm_relative(psi: RelativeComplex, field: CoefficientField = RATIONALS,
                   face_cap: int = DEFAULT_FACE_CAP) -> CmVerdict:
    """Relative Reisner test via link pairs.

    For every face F of delta, the pair (link_delta F, link_gamma F) must
    have vanishing relative homology below the dimension of the link of F
    inside the pair.  The gamma link is void when F lies outside gamma.
    """
    if psi.is_empty:
        raise ValueError("the relative complex has no faces to test")
    faces = sorted(psi.delta.face_masks(), key=lambda m: (m.bit_count(), m))
    if len(faces) > face_cap:
        raise CapExceededError(f"face count exceeds the cap {face_cap}")
    for f in faces:
        lk_delta = link(psi.delta, f)
        if psi.gamma.has_face(f):
            lk_gamma = link(psi.gamma, f)
        else:
            lk_gamma = SimplicialComplex.void(psi.n)
        lk_pair = RelativeComplex(lk_delta, lk_gamma)
        if lk_pair.is_empty:
            continue
        top = lk_pair.dim
        if _is_cone(lk_delta) and (lk_gamma.is_void or _is_cone(lk_gamma)):
            continue  # both chain complexes acyclic, so the pair is too
        ranks = relative_homology(lk_pair, field, face_cap)
        for i in range(-1, top):
            if ranks.betti_number(i) != 0:
                return CmVerdict(False, field, f, i)
    return CmVerdict(True, field)


def depth(pair: IdealPair, field: CoefficientField = RATIONALS,
          cap: int = DEFAULT_ENUMERATION_CAP, face_cap: int = DEFAULT_FACE_CAP) -> int:
    """Depth of J/I as the largest d' whose skeleton pair is Cohen-Macaulay.

    Scans d' downward from the module dimension.  The (d'-1)-skeleton of the
    pair is tested with the absolute criterion when J is the unit ideal and
    with the relative criterion otherwise.
    """
    psi = relative_of_pair(pair, cap)
    top = psi.dim + 1
    for dprime in range(top, -1, -1):
        skel = skeleton(psi, dprime)
        if skel.is_empty:
            return dprime  # zero module, vacuously Cohen-Macaulay
        if skel.gamma.is_void:
            verdict = is_cohen_macaulay(skel.delta, field, face_cap)
        else:
            verdict = is_cm_relative(skel, field, face_cap)
        if verdict.is_cm:
            return dprime
    raise AssertionError("skeleton scan fell through dimension zero")
