"""Exact reduced and relative simplicial homology, and depth by Hochster's formula.

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
    link_facets,
    relative_of_pair,
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
    rank of the map from i-chains to (i-1)-chains.  A result truncated at
    `top` counts faces up to dimension top + 1 only, and holds Betti numbers
    from the bottom dimension up to the first nonzero one or up to top,
    whichever comes first; top is None when every dimension is computed.
    """

    field: CoefficientField
    face_counts: dict[int, int]
    boundary_ranks: dict[int, int]
    betti: dict[int, int]
    top: Optional[int] = None

    def betti_number(self, i: int) -> int:
        return self.betti.get(i, 0)

    def first_nonzero(self) -> Optional[int]:
        """The lowest dimension with a nonzero Betti number, if any."""
        return next((i for i, b in self.betti.items() if b), None)

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


def _ranks_from_faces(by_dim: dict[int, list[int]], field: CoefficientField,
                      top: Optional[int] = None) -> ChainComplexRanks:
    """Betti numbers upward from the bottom dimension; with `top`, stop after
    top or at the first nonzero one.  A boundary rank is computed only when a
    Betti number needs it."""
    counts = {i: len(by_dim[i]) for i in sorted(by_dim)}
    ranks: dict[int, int] = {}

    def rank(i: int) -> int:
        if i not in ranks:
            below, upper = by_dim.get(i - 1), by_dim.get(i)
            ranks[i] = _matrix_rank(_boundary_matrix(below, upper), field) if below and upper else 0
        return ranks[i]

    betti: dict[int, int] = {}
    for i in counts:
        if top is not None and i > top:
            break
        betti[i] = counts[i] - rank(i) - rank(i + 1)
        if top is not None and betti[i]:
            break
    return ChainComplexRanks(field, counts, ranks, betti, top)


# Results keyed by a relabeling-invariant form of the face sets and by the
# truncation level; counts, ranks and Betti numbers do not depend on vertex
# names.  Insertion order is age: once HOMOLOGY_CACHE_LIMIT entries are held,
# each new one evicts the oldest.  Concurrent use is safe: an entry is
# complete when inserted, eviction tolerates a key already gone, and
# recomputing an entry is harmless.
HOMOLOGY_CACHE_LIMIT = 8192
_HOMOLOGY_CACHE: dict[tuple, ChainComplexRanks] = {}


def _canonical_key(facet_groups: tuple[tuple[int, ...], ...], characteristic: int,
                   top: Optional[int]) -> tuple:
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
    return (characteristic, top, relabeled)


def clear_homology_cache() -> None:
    _HOMOLOGY_CACHE.clear()


def reduced_homology(complex_: SimplicialComplex, field: CoefficientField = RATIONALS,
                     face_cap: int = DEFAULT_FACE_CAP) -> ChainComplexRanks:
    """Reduced Betti numbers of a nonvoid complex: the pair with a void gamma."""
    if complex_.is_void:
        raise ValueError("the void complex has no homology")
    return relative_homology(RelativeComplex(complex_, SimplicialComplex.void(complex_.n)),
                             field, face_cap)


def relative_homology(psi: RelativeComplex, field: CoefficientField = RATIONALS,
                      face_cap: int = DEFAULT_FACE_CAP,
                      top: Optional[int] = None) -> ChainComplexRanks:
    """Homology of the pair: chains on delta-minus-gamma faces, boundaries
    taken modulo gamma.  An empty pair has no chain groups at all.

    With `top`, only faces of at most top + 2 vertices are listed and the
    result is truncated there (see ChainComplexRanks): it answers which
    dimension up to top, if any, first carries homology.
    """
    key = _canonical_key((psi.delta.facets, psi.gamma.facets), field.characteristic, top)
    cached = _HOMOLOGY_CACHE.get(key)
    if cached is not None:
        return cached
    faces = psi.face_masks(None if top is None else top + 2)
    result = _ranks_from_faces(_faces_by_dim(faces, face_cap), field, top)
    if len(_HOMOLOGY_CACHE) >= HOMOLOGY_CACHE_LIMIT:
        _HOMOLOGY_CACHE.pop(next(iter(_HOMOLOGY_CACHE), None), None)
    _HOMOLOGY_CACHE[key] = result
    return result


def _is_cone(facets: tuple[int, ...]) -> bool:
    """A common vertex of all facets makes the complex contractible."""
    apex = -1
    for f in facets:
        apex &= f
    return apex > 0


@dataclass(frozen=True)
class CmVerdict:
    """Depth of a module from its relative complex, and the Cohen-Macaulay
    verdict (depth equals dim) with its witness.

    The witness is the face F and homology dimension i of the link pair at F
    that attain depth = |F| + 1 + i; it is None exactly when depth == dim.
    """

    depth: int
    dim: int
    field: CoefficientField
    witness_face: Optional[int] = None
    witness_dim: Optional[int] = None

    @property
    def is_cm(self) -> bool:
        return self.depth == self.dim

    def __bool__(self):
        return self.is_cm


def depth_verdict(psi: RelativeComplex, field: CoefficientField = RATIONALS,
                  face_cap: int = DEFAULT_FACE_CAP) -> CmVerdict:
    """Depth of the module of psi by Hochster's formula in relative form:
    the minimum of |F| + 1 + i over faces F of delta and dimensions i with
    H_i(lk_delta F, lk_gamma F) != 0, or dim = psi.dim + 1 when smaller.

    Faces are visited by size, then mask.  A face can only lower the best
    value b so far through i <= b - |F| - 2, so the pass stops once |F|
    reaches b, and each link pair's homology is truncated at that i.  Link
    pairs that are empty, or whose two links are cones (acyclic), are
    skipped.  The first (F, i) to set the final minimum is the witness.
    """
    best = dim = psi.dim + 1
    faces = sorted(psi.delta.face_masks(dim - 1), key=lambda m: (m.bit_count(), m))
    if len(faces) > face_cap:
        raise CapExceededError(f"face count exceeds the cap {face_cap}")
    witness_face = witness_dim = None
    for f in faces:
        size = f.bit_count()
        if size >= best:
            break
        lk_delta = link_facets(psi.delta.facets, f)
        lk_gamma = link_facets(psi.gamma.facets, f)  # void when f is not in gamma
        if _is_cone(lk_delta) and (not lk_gamma or _is_cone(lk_gamma)):
            continue  # both chain complexes acyclic, so the pair is too
        lk_pair = RelativeComplex(SimplicialComplex(psi.n, lk_delta),
                                  SimplicialComplex(psi.n, lk_gamma))
        if lk_pair.is_empty:
            continue
        i = relative_homology(lk_pair, field, face_cap, top=best - size - 2).first_nonzero()
        if i is not None:
            best = size + 1 + i
            witness_face, witness_dim = f, i
    return CmVerdict(best, dim, field, witness_face, witness_dim)


def is_cohen_macaulay(complex_: SimplicialComplex, field: CoefficientField = RATIONALS,
                      face_cap: int = DEFAULT_FACE_CAP) -> CmVerdict:
    """Cohen-Macaulayness of a nonvoid complex: the pair with a void gamma."""
    if complex_.is_void:
        raise ValueError("the void complex cannot be tested")
    return depth_verdict(RelativeComplex(complex_, SimplicialComplex.void(complex_.n)),
                         field, face_cap)


def is_cm_relative(psi: RelativeComplex, field: CoefficientField = RATIONALS,
                   face_cap: int = DEFAULT_FACE_CAP) -> CmVerdict:
    """Cohen-Macaulayness of a nonempty relative complex."""
    if psi.is_empty:
        raise ValueError("the relative complex has no faces to test")
    return depth_verdict(psi, field, face_cap)


def depth(pair: IdealPair, field: CoefficientField = RATIONALS,
          cap: int = DEFAULT_ENUMERATION_CAP, face_cap: int = DEFAULT_FACE_CAP) -> int:
    """Depth of J/I, from one Hochster pass over its relative complex."""
    return depth_verdict(relative_of_pair(pair, cap), field, face_cap).depth
