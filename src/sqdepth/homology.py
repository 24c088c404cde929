"""Exact reduced and relative simplicial homology, and depth by Hochster's formula.

Chain complexes are augmented: the empty face generates the chain group in
dimension -1, so the Betti numbers computed here are reduced.  Boundary
maps are sparse columns, and one exact column reduction ranks them over the
rationals (integer steps, a Fraction only where a division is not exact) or
over a prime field (residues mod p).  Relative pairs use the quotient chain
complex directly: chains are spanned by the faces of delta outside gamma,
and boundary summands landing in gamma are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import CapExceededError
from .complexes import (
    RelativeComplex,
    SimplicialComplex,
    facet_faces,
    link_facets,
    relative_of_pair,
)
from .ideals import IdealPair

# Most faces one homology call or one depth pass lists; read at call time.
FACE_CAP = 100_000
# Ranks mod p are exact for any prime; the bound keeps _is_prime's trial
# division short (at most about 46341 steps).
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
            raise ValueError(f"characteristic {p} is not below 2^31, the bound on accepted primes")
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


def _faces_by_dim(masks, cap: int) -> dict[int, list[int]]:
    by_dim: dict[int, list[int]] = {}
    total = 0
    for m in masks:
        by_dim.setdefault(m.bit_count() - 1, []).append(m)
        total += 1
        if total > cap:
            raise CapExceededError(f"face count exceeds the cap {cap}")
    for faces in by_dim.values():
        faces.sort()
    return by_dim


def _boundary_columns(lower: list[int], upper: list[int]) -> list[dict[int, int]]:
    """The boundary of each upper face as a sparse column {row: sign}.

    The sign of dropping vertex v from a face is (-1)^position with vertices
    in ascending order; faces absent from `lower` (relative case) are
    dropped, which realizes the quotient chain complex.
    """
    index = {m: i for i, m in enumerate(lower)}
    columns = []
    for m in upper:
        column = {}
        sign = 1
        remaining = m
        while remaining:
            bit = remaining & -remaining
            row = index.get(m ^ bit)
            if row is not None:
                column[row] = sign
            sign = -sign
            remaining ^= bit
        columns.append(column)
    return columns


def _rational_factor(entry, pivot):
    """The multiple of the pivot column that clears `entry` over QQ: an int
    when the division is exact and a Fraction otherwise."""
    quotient, remainder = divmod(entry, pivot)
    return Fraction(entry, pivot) if remainder else quotient


def column_rank(columns: Iterable[dict[int, int]], characteristic: int) -> int:
    """Exact rank of the matrix with the given sparse columns ({row: entry})
    over QQ (characteristic 0) or GF(p).

    Each column is reduced against the kept ones by its highest row until it
    vanishes or its highest row is no kept column's; the kept columns then
    have distinct highest rows, so their number is the rank.  A step clears
    the highest row and touches only lower ones, so every column finishes.
    """
    p = characteristic
    kept: dict[int, tuple[dict, int]] = {}
    for column in columns:
        col = {}
        for row, v in column.items():
            if p:
                v %= p
            if v:
                col[row] = v
        while col:
            low = max(col)
            pivot_entry = kept.get(low)
            if pivot_entry is None:
                # mod p the pivot is stored inverted, so no step inverts it
                kept[low] = (col, pow(col[low], -1, p) if p else col[low])
                break
            pivot_col, pivot = pivot_entry
            entry = col.pop(low)
            factor = entry * pivot % p if p else _rational_factor(entry, pivot)
            for row, v in pivot_col.items():
                if row == low:
                    continue
                x = col.get(row, 0) - factor * v
                if p:
                    x %= p
                if x:
                    col[row] = x
                else:
                    del col[row]
    return len(kept)


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
            ranks[i] = (column_rank(_boundary_columns(below, upper), field.characteristic)
                        if below and upper else 0)
        return ranks[i]

    betti: dict[int, int] = {}
    for i in counts:
        if top is not None and i > top:
            break
        betti[i] = counts[i] - rank(i) - rank(i + 1)
        if top is not None and betti[i]:
            break
    return ChainComplexRanks(field, counts, ranks, betti, top)


def _pair_faces_of_facets(delta: tuple[int, ...], gamma: tuple[int, ...],
                          max_size: Optional[int] = None) -> dict[int, list[int]]:
    """The faces of the pair with these facets by dimension; with max_size,
    only those of at most max_size vertices.  More than FACE_CAP raise."""
    return _faces_by_dim(facet_faces(delta, max_size) - facet_faces(gamma, max_size), FACE_CAP)


def clear_homology_cache() -> None:
    """Does nothing: homology results are recomputed on every call."""


def reduced_homology(complex_: SimplicialComplex,
                     field: CoefficientField = RATIONALS) -> ChainComplexRanks:
    """Reduced Betti numbers of a nonvoid complex: the pair with a void gamma."""
    if complex_.is_void:
        raise ValueError("the void complex has no homology")
    return relative_homology(RelativeComplex(complex_, SimplicialComplex.void(complex_.n)), field)


def relative_homology(psi: RelativeComplex, field: CoefficientField = RATIONALS,
                      top: Optional[int] = None) -> ChainComplexRanks:
    """Homology of the pair: chains on delta-minus-gamma faces, boundaries
    taken modulo gamma.  An empty pair has no chain groups at all.

    With `top`, only faces of at most top + 2 vertices are listed and the
    result is truncated there (see ChainComplexRanks): it answers which
    dimension up to top, if any, first carries homology.
    """
    faces = _pair_faces_of_facets(psi.delta.facets, psi.gamma.facets,
                                  None if top is None else top + 2)
    return _ranks_from_faces(faces, field, top)


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


def _psi_faces(psi: RelativeComplex, max_size: int) -> dict[int, list[int]]:
    """psi's faces of at most max_size vertices by dimension, or {} once
    delta has more than FACE_CAP of them (listing stops there)."""
    delta: list[int] = []
    for k in range(max_size + 1):
        delta += psi.delta.faces_of_size(k, FACE_CAP - len(delta))
        if len(delta) > FACE_CAP:
            return {}
    return _faces_by_dim(set(delta) - psi.gamma.face_masks(max_size), FACE_CAP)


def _read_start(psi_faces: dict[int, list[int]], size: int) -> dict:
    """`read` for faces of `size` vertices: psi itself at size 0, cut to the
    faces of at least `size` vertices, the only ones that can contain them."""
    return {0: (0, {d: faces for d, faces in psi_faces.items() if d >= size - 1})}


def _link_pair_faces(face: int, read: dict) -> dict[int, list[int]]:
    """The link pair at `face` as _faces_by_dim lists it: H \\ face over the
    faces H of psi that contain face, filtered from the pair at face minus
    its lowest vertex.  `read` (see _read_start) maps a size to the last
    face of that size read and its pair; in ascending mask order the faces
    sharing that parent come one after another, so its pair is usually the
    one kept."""
    size = face.bit_count()
    last, faces = read.get(size, (None, None))
    if last == face:
        return faces
    low = face & -face
    faces = {}
    for d, hs in _link_pair_faces(face ^ low, read).items():
        kept = [h ^ low for h in hs if h & low]
        if kept:
            faces[d - 1] = kept
    read[size] = (face, faces)
    return faces


def depth_verdict(psi: RelativeComplex, field: CoefficientField = RATIONALS) -> CmVerdict:
    """Depth of the module of psi by Hochster's formula in relative form:
    the minimum of |F| + 1 + i over faces F of delta and dimensions i with
    H_i(lk_delta F, lk_gamma F) != 0, or dim = psi.dim + 1 when smaller.

    Faces are visited by size, then mask.  A face can only lower the best
    value b so far through i <= b - |F| - 2, so the pass stops once |F|
    reaches b, and each link pair's homology is truncated at that i.  The
    faces of one size are listed only when the pass reaches that size, and
    only listed faces count against FACE_CAP.  When a link pair first needs
    homology, psi's faces of at most b vertices are listed and every link
    pair is read from them; if delta has more than FACE_CAP such faces,
    each pair is listed from its link facets instead, and counts against
    FACE_CAP as one homology call does.  Link pairs that are empty, or whose
    two links are cones (acyclic), are skipped.  The first (F, i) to set the
    final minimum is the witness.
    """
    best = dim = psi.dim + 1
    listed = 0
    psi_faces = None
    witness_face = witness_dim = None
    size = 0
    while size < best:
        level = psi.delta.faces_of_size(size, FACE_CAP - listed)
        listed += len(level)
        if listed > FACE_CAP:
            raise CapExceededError(f"face count exceeds the cap {FACE_CAP}")
        read = None  # link pairs read from psi's faces; see _link_pair_faces
        for f in level:
            lk_delta = link_facets(psi.delta.facets, f)
            lk_gamma = link_facets(psi.gamma.facets, f)  # void when f is not in gamma
            if _is_cone(lk_delta) and (not lk_gamma or _is_cone(lk_gamma)):
                continue  # both chain complexes acyclic, so the pair is too
            if psi_faces is None:
                psi_faces = _psi_faces(psi, best)
            if psi_faces:
                read = read or _read_start(psi_faces, size)
                lk_faces = _link_pair_faces(f, read)
            else:  # psi is too large to list
                lk_faces = _pair_faces_of_facets(lk_delta, lk_gamma, best - size)
            if not lk_faces:
                continue  # the link pair is empty
            i = _ranks_from_faces(lk_faces, field, best - size - 2).first_nonzero()
            if i is not None:
                best = size + 1 + i
                witness_face, witness_dim = f, i
                if size >= best:
                    break
        size += 1
    return CmVerdict(best, dim, field, witness_face, witness_dim)


def is_cohen_macaulay(complex_: SimplicialComplex,
                      field: CoefficientField = RATIONALS) -> CmVerdict:
    """Cohen-Macaulayness of a nonvoid complex: the pair with a void gamma."""
    if complex_.is_void:
        raise ValueError("the void complex cannot be tested")
    return depth_verdict(RelativeComplex(complex_, SimplicialComplex.void(complex_.n)), field)


def is_cm_relative(psi: RelativeComplex, field: CoefficientField = RATIONALS) -> CmVerdict:
    """Cohen-Macaulayness of a nonempty relative complex."""
    if psi.is_empty:
        raise ValueError("the relative complex has no faces to test")
    return depth_verdict(psi, field)


def depth(pair: IdealPair, field: CoefficientField = RATIONALS) -> int:
    """Depth of J/I, from one Hochster pass over its relative complex."""
    return depth_verdict(relative_of_pair(pair), field).depth
