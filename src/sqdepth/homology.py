"""Exact reduced and relative simplicial homology, and depth by Hochster's formula.

Chain complexes are augmented: the empty face generates the chain group in
dimension -1, so the Betti numbers computed here are reduced.  Boundary
maps are sparse columns, and one exact column reduction ranks them over the
rationals (integer steps, a Fraction only where a division is not exact) or
over a prime field (residues mod p).  Relative pairs use the quotient chain
complex directly: chains are spanned by the faces of delta outside gamma,
and boundary summands landing in gamma are dropped.

Boundary maps are ranked bottom up, with row compression (Bauer, Kerber and
Reininghaus, "Clear and Compress", 2014): the i-faces whose columns of
d_i stay nonzero in the reduction (the negative faces) index a column basis
of d_i, so no nonzero cycle of d_i lies on them alone, and dropping their
rows from d_{i+1} keeps its rank.  d_0 has rank 1 when the empty face and a
vertex are both present.  d_1 is a graph incidence matrix, with vertices
outside the pair and dropped rows as one ground node; it is totally
unimodular, so over every field its rank is the number of merges a
union-find makes, and the merging edges are its negative faces.  Higher
maps are reduced from their last column to their first, and stop once
every row is a pivot.

The depth pass tests the links of a whole level of faces for cones with
one numpy computation, and on its last level, where only H_{-1} counts,
reads the answer off the facets of delta and gamma instead of a link pair.
Every pair is listed by one capped lister, `complexes.pair_faces`, and
the pass takes each link pair from one recursion rooted at psi.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .errors import CapExceededError
from .complexes import (
    RelativeComplex,
    SimplicialComplex,
    link_facets,
    pair_faces,
    relative_of_pair,
)
from .ideals import IdealPair

# Most faces one homology call or one depth pass lists; read at call time.
FACE_CAP = 100_000
# Most face-by-facet cells the depth pass's cone test holds at once; a level
# is classified in chunks of at most this many cells.  Read at call time.
LEVEL_CELLS = 1 << 16
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


def _boundary_columns(lower: list[int], upper: list[int]) -> list[dict[int, int]]:
    """The boundary of each upper face as a sparse column {row: sign}.

    The sign of dropping vertex v from a face is (-1)^position with vertices
    in ascending order; faces absent from `lower` (relative case) are
    dropped, which realizes the quotient chain complex.
    """
    return list(_iter_boundary_columns(lower, upper))


def _iter_boundary_columns(lower: list[int], upper: list[int]):
    """_boundary_columns one column at a time, built as they are read."""
    index = {m: i for i, m in enumerate(lower)}
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
        yield column


def _rational_factor(entry, pivot):
    """The multiple of the pivot column that clears `entry` over QQ: an int
    when the division is exact and a Fraction otherwise."""
    quotient, remainder = divmod(entry, pivot)
    return Fraction(entry, pivot) if remainder else quotient


def _independent_columns(columns: Iterable[dict[int, int]], characteristic: int,
                         rows: Optional[int] = None) -> list[int]:
    """The positions of the columns that stay nonzero when each is reduced
    against the kept ones over QQ (characteristic 0) or GF(p): a maximal
    set of linearly independent columns, in order.  With `rows`, the
    number of rows, the scan stops once that many are kept.

    Each column is reduced against the kept ones by its highest row until it
    vanishes or its highest row is no kept column's; the kept columns then
    have distinct highest rows, so they are independent and span the rest.
    A step clears the highest row and touches only lower ones, so every
    column finishes.
    """
    p = characteristic
    kept: dict[int, tuple[dict, int]] = {}
    positions = []
    for position, column in enumerate(columns):
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
                positions.append(position)
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
        if len(positions) == rows:
            break  # every row is a pivot, so the remaining columns depend
    return positions


def column_rank(columns: Iterable[dict[int, int]], characteristic: int) -> int:
    """Exact rank of the matrix with the given sparse columns ({row: entry})
    over QQ (characteristic 0) or GF(p)."""
    return len(_independent_columns(columns, characteristic))


def _merge_edges(vertices: list[int], edges: list[int], dropped) -> list[int]:
    """The edges that join two classes in a union-find over the vertices,
    with every vertex outside `vertices` or in `dropped` one ground node:
    a column basis of d_1 from `edges` to the rows of `vertices` not in
    `dropped`, over every field."""
    parent = {v: v for v in vertices if v not in dropped}
    parent[0] = 0  # the ground node; 0 is no vertex's mask
    merges = []
    for e in edges:
        low = e & -e
        high = e ^ low
        a, b = (low if low in parent else 0), (high if high in parent else 0)
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
            merges.append(e)
    return merges


def _negative_faces(below: list[int], upper: list[int], dropped, characteristic: int) -> list[int]:
    """The faces of `upper` whose boundary columns, over the rows of `below`
    not in `dropped`, form a column basis; their number is the rank."""
    size = upper[0].bit_count()
    if size == 1:
        return upper[:1]  # every vertex maps to the empty face
    if size == 2:
        return _merge_edges(below, upper, dropped)
    rows = [m for m in below if m not in dropped] if dropped else below
    # faces with the highest vertex come last in mask order, and where the
    # pair is a cone from that vertex they alone span the boundaries; read
    # from the end, the columns reach full rank early and the rest are left
    backwards = upper[::-1]
    columns = _iter_boundary_columns(rows, backwards)
    return [backwards[k] for k in _independent_columns(columns, characteristic, len(rows))]


def _ranks_from_faces(by_dim: dict[int, list[int]], field: CoefficientField,
                      top: Optional[int] = None) -> ChainComplexRanks:
    """Betti numbers upward from the bottom dimension; with `top`, stop after
    top or at the first nonzero one.  A boundary rank is computed only when a
    Betti number needs it, and with the negative faces of the map below
    dropped from its rows (see the module docstring)."""
    counts = {i: len(by_dim[i]) for i in sorted(by_dim)}
    ranks: dict[int, int] = {}
    negative: dict[int, set[int]] = {}

    def rank(i: int) -> int:
        # the loop below asks for rank(i - 1) first whenever dimension
        # i - 1 has faces, so its negative faces are known here
        if i not in ranks:
            below, upper = by_dim.get(i - 1), by_dim.get(i)
            faces = (_negative_faces(below, upper, negative.get(i - 1, ()), field.characteristic)
                     if below and upper else ())
            ranks[i], negative[i] = len(faces), set(faces)
        return ranks[i]

    betti: dict[int, int] = {}
    for i in counts:
        if top is not None and i > top:
            break
        betti[i] = counts[i] - rank(i) - rank(i + 1)
        if top is not None and betti[i]:
            break
    return ChainComplexRanks(field, counts, ranks, betti, top)


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
    faces = pair_faces(psi.delta.facets, psi.gamma.facets,
                       psi.n if top is None else top + 2, FACE_CAP)
    if faces is None:
        raise CapExceededError(f"face count exceeds the cap {FACE_CAP}")
    return _ranks_from_faces(faces, field, top)


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


def _link_pair_faces(face: int, read: dict, psi: RelativeComplex,
                     best: int) -> Optional[dict[int, list[int]]]:
    """The link pair at `face` as pair_faces lists it, None over FACE_CAP:
    H \\ face over the faces H of psi that contain face and have at most
    `best` vertices.  It is filtered from the pair at face minus its lowest
    vertex, or listed from the two link facet tuples where that pair is
    None; the empty face's pair, psi, is the root and is always listed.
    `read` maps a size to the last face of that size read and its pair; in
    ascending mask order the faces sharing a parent come one after
    another, so its pair is usually the one kept."""
    size = face.bit_count()
    last, faces = read.get(size, (None, None))
    if last == face:
        return faces
    low = face & -face
    parent = _link_pair_faces(face ^ low, read, psi, best) if face else None
    if parent is None:
        faces = pair_faces(link_facets(psi.delta.facets, face),
                           link_facets(psi.gamma.facets, face), best - size, FACE_CAP)
    else:
        faces = {}
        for d, hs in parent.items():
            kept = [h ^ low for h in hs if h & low]
            if kept:
                faces[d - 1] = kept
    read[size] = (face, faces)
    return faces


def _classify_level(level: list[int], delta: SimplicialComplex,
                    gamma: SimplicialComplex) -> tuple[np.ndarray, np.ndarray]:
    """Two flags for each face F of delta in `level`: whether its link pair
    is acyclic because its delta link is a cone and its gamma link is void
    or a cone, and whether F is a facet of delta outside gamma, the one case
    with H_{-1} of the pair nonzero.

    The link of F is a cone exactly when the AND of the facets containing F
    has a vertex outside F.  The faces-by-facets tables are built in chunks
    of at most LEVEL_CELLS cells.
    """
    dtype = np.uint64 if delta.n <= 64 else object
    everything = ~dtype(0) if dtype is np.uint64 else -1
    faces = np.array(level, dtype=dtype)
    d = np.array(delta.facets, dtype=dtype)
    g = np.array(gamma.facets, dtype=dtype)
    skip = np.empty(len(level), dtype=bool)
    facet_outside_gamma = np.empty(len(level), dtype=bool)
    rows = max(1, LEVEL_CELLS // max(len(d), len(g), 1))
    for start in range(0, len(level), rows):
        chunk = slice(start, start + rows)
        f = faces[chunk, None]
        in_d, in_g = (f & ~d) == 0, (f & ~g) == 0
        apex_d = np.bitwise_and.reduce(np.where(in_d, d, everything), axis=1)
        apex_g = np.bitwise_and.reduce(np.where(in_g, g, everything), axis=1, initial=everything)
        f = f[:, 0]
        gamma_void = ~in_g.any(axis=1)
        skip[chunk] = (apex_d != f) & (gamma_void | (apex_g != f))
        facet_outside_gamma[chunk] = (d == f[:, None]).any(axis=1) & gamma_void
    return skip, facet_outside_gamma


def depth_verdict(psi: RelativeComplex, field: CoefficientField = RATIONALS) -> CmVerdict:
    """Depth of the module of psi by Hochster's formula in relative form:
    the minimum of |F| + 1 + i over faces F of delta and dimensions i with
    H_i(lk_delta F, lk_gamma F) != 0, or dim = psi.dim + 1 when smaller.

    Faces are visited by size, then mask.  A face can only lower the best
    value b so far through i <= b - |F| - 2, so the pass stops once |F|
    reaches b, and each link pair's homology is truncated at that i.  The
    faces of one size are listed only when the pass reaches that size, and
    only listed faces count against FACE_CAP.  One numpy cone test per
    level (_classify_level) skips the faces whose two links are cones, or
    whose delta link is a cone and gamma link void: such a pair is acyclic.
    Where only i = -1 can still lower b (|F| = b - 1), H_{-1} of the pair
    is nonzero exactly when F is a facet of delta outside gamma, which the
    same test reads off, so no pair there is read or ranked.  When any
    other link pair first needs homology, psi's faces of at most b vertices
    are listed once, as the root of _link_pair_faces, which filters each
    pair from its parent's or, where that was over FACE_CAP, lists it from
    its link facets.  A needed pair over FACE_CAP stops the pass, as one
    homology call does.  An empty link pair is skipped.  The first (F, i)
    to set the final minimum is the witness.
    """
    best = dim = psi.dim + 1
    listed = 0
    read: dict = {}  # link pairs by size, psi at size 0; see _link_pair_faces
    witness_face = witness_dim = None
    size = 0
    while size < best:
        level = psi.delta.faces_of_size(size, FACE_CAP - listed)
        listed += len(level)
        if listed > FACE_CAP:
            raise CapExceededError(f"face count exceeds the cap {FACE_CAP}")
        skip, facet_outside_gamma = _classify_level(level, psi.delta, psi.gamma)
        if read:  # keep psi, cut to the faces that can contain this level's
            root = read[0][1]
            read = {0: (0, root and {d: hs for d, hs in root.items() if d >= size - 1})}
        for j in np.flatnonzero(~skip).tolist():
            f = level[j]
            if size == best - 1:  # only H_{-1} can lower best here
                if facet_outside_gamma[j]:
                    best, witness_face, witness_dim = size, f, -1
                    break
                continue
            lk_faces = _link_pair_faces(f, read, psi, best)
            if lk_faces is None:
                raise CapExceededError(f"face count exceeds the cap {FACE_CAP}")
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
