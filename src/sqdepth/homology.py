"""Exact reduced and relative simplicial homology, and depth by Hochster's formula.

Chain complexes are augmented: the empty face generates the chain group in
dimension -1, so the Betti numbers computed here are reduced.  Relative
pairs use the quotient chain complex directly: chains are spanned by the
faces of delta outside gamma, and boundary summands landing in gamma are
dropped.

Every homology here is ranked on the star masks of one index of a pair
(_StarIndex), built one size at a time: per size, the faces in ascending
mask order, one Python-int bitset per vertex, and each face's boundary as
the positions of its facets one size down.  The star of a face F at a
size, the faces there that contain F, is the AND of F's vertex bitsets,
and removing F from them gives the link pair at F; at the empty face it is
the pair itself, which is how relative_homology ranks it.

Boundary maps are ranked bottom up, with row compression (Bauer, Kerber and
Reininghaus, "Clear and Compress", 2014): the i-faces whose columns of
d_i stay nonzero in the reduction (the negative faces) index a column basis
of d_i, so no nonzero cycle of d_i lies on them alone, and dropping their
rows from d_{i+1} keeps its rank.  Each map is reduced from its last column
to its first, each column against the kept ones by its highest row, and
stops once every row is a pivot.  d_0 and d_1 (a graph incidence matrix)
are totally unimodular, so a column basis over GF(2) is one over every
field: they are ranked over GF(2) by XOR elimination of Python ints, and
b_{-1} and b_0 are exact over any field.  Over GF(2) the maps above are
ranked the same way.  From d_2 up, an odd prime p ranks signed columns,
entries (row, +-1), mod p with pivots scaled to 1, and QQ ranks the same
columns with integer steps and a Fraction only where a pivot is not +-1.

The depth pass tests the links of a whole level of faces for cones with
one numpy computation, and on its last level, where only H_{-1} counts,
reads the answer off the facets of delta and gamma instead of a link pair.
Every other link pair is a star of one index of psi.  Over QQ the GF(2)
ranks bound the answer: the boundary maps are integer matrices, whose
rank over F_2 is at most their rank over Q, so each b_i(QQ) <= b_i(GF(2))
(universal coefficients); a zero over GF(2) is final over QQ, and only a
nonzero b_i with i >= 1 is recounted exactly on the same masks.  That
bound fails for an odd prime p, since a torsion summand Z/p of H_{i-1}(Z)
adds to b_i over GF(p) but not over GF(2); so over GF(p) the pair is
ranked mod p directly.  Where psi's index refuses a size, the link pair
gets an index of its own, built from its two link facet tuples, and is
ranked from its empty face the same way.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import CapExceededError
from .complexes import (
    RelativeComplex,
    SimplicialComplex,
    face_vertices,
    link_facets,
    pair_faces_of_size,
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

    With `top`, only faces of at most top + 2 vertices are indexed and the
    result is truncated there (see ChainComplexRanks): it answers which
    dimension up to top, if any, first carries homology.  The pair is
    ranked by the star steps at the empty face of its own index; a
    dimension without faces gets no entry.
    """
    index = _StarIndex(psi.delta.facets, psi.gamma.facets, psi.n)
    last = max((f.bit_count() for f in psi.delta.facets), default=0) - 1 if top is None else top
    stars = [index.star([], k) for k in range(last + 3)]
    if None in stars:
        raise CapExceededError(f"face count exceeds the cap {FACE_CAP}")
    ranks: dict[int, int] = {}
    betti: dict[int, int] = {}
    for i, (faces, low, high) in enumerate(_star_steps(0, index, last, field.characteristic), -1):
        if faces:
            ranks[i], ranks[i + 1] = low, high
            betti[i] = faces - low - high
            if top is not None and betti[i]:
                break
    counts = {k - 1: star.bit_count() for k, star in enumerate(stars) if star}
    return ChainComplexRanks(field, counts, ranks, betti, top)


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


class _Level:
    """A pair's faces of one size in ascending mask order, for each vertex
    the bitset of the positions of the faces containing it, and, once
    needed, each face's boundary as the positions of its facets in the size
    below (facets in gamma dropped): over GF(2) as row positions, and over
    an odd prime or QQ as signed entries (row, +-1), each built only when a
    star at that size is ranked that way."""

    __slots__ = ("faces", "full", "bits", "columns", "signed")

    def __init__(self, faces: list[int], n: int):
        self.faces = faces
        self.full = (1 << len(faces)) - 1
        wide = n > 64
        masks = np.array(faces, dtype=object if wide else np.uint64)
        shifts = np.array(range(n), dtype=object if wide else np.uint64)
        flags = ((masks[None, :] >> shifts[:, None]) & 1).astype(bool)
        packed = np.packbits(flags, axis=1, bitorder="little")
        self.bits = [int.from_bytes(row.tobytes(), "little") for row in packed]
        self.columns: Optional[list[tuple[int, ...]]] = None
        self.signed: Optional[list[tuple[tuple[int, int], ...]]] = None


class _StarIndex:
    """The faces of the pair with facet tuples delta and gamma (gamma's
    faces inside delta's) on n vertices, by size, each size built the
    first time a star there is needed (see _Level).  The star of F at a
    size, the faces there that contain F, is the AND of F's vertex bitsets;
    removing F from them gives the link pair at F.  At most FACE_CAP faces
    are held: a size that would take the index past it is refused, and
    reads None."""

    def __init__(self, delta: tuple[int, ...], gamma: tuple[int, ...], n: int):
        self.delta, self.gamma, self.n = delta, gamma, n
        self.vertices = (list(map(face_vertices, delta)), list(map(face_vertices, gamma)))
        self.levels: dict[int, Optional[_Level]] = {}
        self.held = 0

    def keep(self, low: int, high: int) -> None:
        """Forget the sizes outside low..high, and every refusal."""
        for k, level in list(self.levels.items()):
            if level is None or not low <= k <= high:
                del self.levels[k]
                self.held -= len(level.faces) if level else 0

    def star(self, ids: list[int], k: int) -> Optional[int]:
        """The bitset of the faces of k vertices that contain the face whose
        vertices have these bit indices; None if the size is refused."""
        if k not in self.levels:
            faces = pair_faces_of_size(*self.vertices, k, FACE_CAP - self.held)
            self.levels[k] = None if faces is None else _Level(sorted(faces), self.n)
            self.held += len(faces) if faces else 0
        level = self.levels[k]
        if level is None:
            return None
        star = level.full
        for v in ids:
            star &= level.bits[v]
        return star

    def columns(self, k: int, signed: bool = False) -> list[tuple]:
        """The boundary columns of size k, over GF(2) or, signed, as entries
        (row, (-1)^position of the dropped vertex); size k - 1 must be held."""
        level = self.levels[k]
        columns = level.signed if signed else level.columns
        if columns is None:
            rows = {h: r for r, h in enumerate(self.levels[k - 1].faces)}.get
            columns = []
            for h in level.faces:
                column = []
                sign = 1
                rest = h
                while rest:
                    v = rest & -rest
                    r = rows(h ^ v)
                    if r is not None:
                        column.append((r, sign) if signed else r)
                    sign = -sign
                    rest ^= v
                columns.append(tuple(column))
            if signed:
                level.signed = columns
            else:
                level.columns = columns
        return columns


def _gf2_negatives(columns: list[tuple[int, ...]], star: int, rows: int) -> int:
    """The columns in `star`, restricted to `rows` (both bitsets of
    positions), that stay nonzero when each is reduced over GF(2) against
    the kept ones by its highest row, read from the last: a column basis,
    as a bitset.  The scan stops once every row is a pivot."""
    pivots: dict[int, int] = {}
    negative = 0
    wanted = rows.bit_count()
    while star:
        j = star.bit_length() - 1
        star ^= 1 << j
        col = 0
        for r in columns[j]:
            col |= 1 << r
        col &= rows
        while col:
            low = col.bit_length() - 1
            other = pivots.get(low)
            if other is None:
                pivots[low] = col
                negative |= 1 << j
                break
            col ^= other
        if len(pivots) == wanted:
            break
    return negative


def _signed_negatives(columns: list[tuple[tuple[int, int], ...]], star: int, rows: int,
                      p: int) -> int:
    """_gf2_negatives over GF(p), or over QQ for p = 0, on signed columns:
    each column in `star`, restricted to `rows`, is reduced against the
    kept ones by its highest row, read from the last.  A kept column is
    scaled so that its pivot is 1 (by a Fraction over QQ where the pivot is
    not +-1) and stored without it, so a step is one multiply-subtract."""
    pivots: dict[int, dict] = {}
    negative = 0
    wanted = rows.bit_count()
    # kept[r] == "1" for each row r: indexing a string costs less than
    # shifting a long bitset once per entry
    kept = bin(rows)[:1:-1]
    width = len(kept)
    while star:
        j = star.bit_length() - 1
        star ^= 1 << j
        col = {r: s for r, s in columns[j] if r < width and kept[r] == "1"}
        while col:
            low = max(col)
            other = pivots.get(low)
            factor = col.pop(low)
            if other is None:
                if factor == -1 or factor == p - 1:
                    col = {r: -v for r, v in col.items()}
                elif factor != 1 and p:
                    scale = pow(factor, -1, p)
                    col = {r: v * scale % p for r, v in col.items()}
                elif factor != 1:
                    col = {r: Fraction(v, factor) for r, v in col.items()}
                pivots[low] = col
                negative |= 1 << j
                break
            if p:
                for r, v in other.items():
                    x = (col.get(r, 0) - factor * v) % p
                    if x:
                        col[r] = x
                    else:
                        del col[r]
            else:
                for r, v in other.items():
                    x = col.get(r, 0) - factor * v
                    if x:
                        col[r] = x
                    else:
                        del col[r]
        if len(pivots) == wanted:
            break
    return negative


def _star_steps(face: int, index: _StarIndex, top: int, p: int):
    """For the link pair at `face`, from dimension -1 up to top, the face
    count of each dimension i with the ranks of d_i and d_{i+1} over GF(p),
    or over QQ for p = 0, ranked on its star masks with row compression (see
    the module docstring); None in place of the first step that needs a
    size the index refuses.  Each step ranks d_{i+1} only when it is read."""
    ids = [b for b in range(face.bit_length()) if face >> b & 1]
    k = face.bit_count()
    current, negative = index.star(ids, k), 0
    for i in range(top + 2):
        upper = index.star(ids, k + 1)
        if current is None or upper is None:
            yield None
            return
        rows = current & ~negative  # the rows of d_i
        if not (rows and upper):
            above = 0
        elif p == 2 or i < 2:
            above = _gf2_negatives(index.columns(k + 1), upper, rows)
        else:
            above = _signed_negatives(index.columns(k + 1, signed=True), upper, rows, p)
        yield current.bit_count(), negative.bit_count(), above.bit_count()
        current, negative, k = upper, above, k + 1


def _star_bettis(face: int, index: _StarIndex, top: int, p: int):
    """The Betti numbers of the steps of _star_steps, None in place of its
    None."""
    for step in _star_steps(face, index, top, p):
        yield None if step is None else step[0] - step[1] - step[2]


def _first_homology(face: int, index: _StarIndex, field: CoefficientField,
                    top: int, own: bool = False) -> Optional[int]:
    """The lowest dimension up to top in which the link pair at `face` has
    homology over `field`, or None.  Over a prime field the star-mask Betti
    numbers over that field are the answer.  Over QQ they are ranked over
    GF(2), and a zero one is final (b_i over QQ is at most b_i over GF(2));
    a nonzero one above dimension 0 is recounted exactly on the same masks.
    Where the index refuses a size, the link pair gets an index of its own
    from its link facets (own) and is ranked from its empty face; a size
    that index refuses raises CapExceededError."""
    p = field.characteristic
    for i, b in enumerate(_star_bettis(face, index, top, p or 2), -1):
        if b is None:
            if own:
                raise CapExceededError(f"face count exceeds the cap {FACE_CAP}")
            pair = _StarIndex(link_facets(index.delta, face), link_facets(index.gamma, face),
                              index.n)
            return _first_homology(0, pair, field, top, own=True)
        if b and (p or i < 1 or list(_star_bettis(face, index, i, 0))[-1]):
            return i
    return None


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
    same test reads off, so no pair there is read or ranked.  Every other
    link pair is read from psi's index (_StarIndex), whose sizes are built
    when a star there is first needed and dropped once below the level or
    above b, and its first homology is found by _first_homology.  Where
    the index refuses a size, the pair gets an index of its own from its
    link facets; a needed pair over FACE_CAP stops the pass, as one
    homology call does.
    The first (F, i) to set the final minimum is the witness.
    """
    best = dim = psi.dim + 1
    listed = 0
    index = _StarIndex(psi.delta.facets, psi.gamma.facets, psi.n)
    witness_face = witness_dim = None
    size = 0
    while size < best:
        level = psi.delta.faces_of_size(size, FACE_CAP - listed)
        listed += len(level)
        if listed > FACE_CAP:
            raise CapExceededError(f"face count exceeds the cap {FACE_CAP}")
        skip, facet_outside_gamma = _classify_level(level, psi.delta, psi.gamma)
        index.keep(size, best)
        for j in np.flatnonzero(~skip).tolist():
            f = level[j]
            if size == best - 1:  # only H_{-1} can lower best here
                if facet_outside_gamma[j]:
                    best, witness_face, witness_dim = size, f, -1
                    break
                continue
            i = _first_homology(f, index, field, best - size - 2)
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
