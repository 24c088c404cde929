"""Exact reduced and relative simplicial homology, and depth by Hochster's formula.

Chain complexes are augmented: the empty face generates the chain group in
dimension -1, so the Betti numbers computed here are reduced.  Relative
pairs use the quotient chain complex directly: chains are spanned by the
faces of delta outside gamma, and boundary summands landing in gamma are
dropped.

Every homology here is ranked on the star masks of one index of a pair
(_StarIndex), built one size at a time from delta's faces alone: per size,
those outside gamma in ascending mask order, one Python-int bitset per
vertex, and one boundary table, each face's facets (its vertices dropped in
ascending order) as their positions one size down, so that entry t has sign
(-1)^t.  The star of a face F at a size, the faces there that contain F, is
the AND of F's vertex bitsets, and removing F from them gives the link pair
at F; at the empty face it is the pair itself, which is how
relative_homology ranks it.

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
ranked the same way.  From d_2 up, an odd prime p ranks the same table,
with the sign of each entry read from its position, mod p with pivots
scaled to 1, and QQ ranks it with integer steps and a Fraction only where
a pivot is not +-1.

The depth pass reads its levels from psi's index, whose numpy test of a
level also marks the faces whose links are cones, and on its last level,
where only H_{-1} counts, reads the answer off psi's facets instead of a
link pair.  Every other link pair is a star of that index.  Over QQ the
GF(2) ranks bound the answer: the boundary maps are integer matrices,
whose rank over F_2 is at most their rank over Q, so each b_i(QQ) <=
b_i(GF(2)) (universal coefficients); a zero over GF(2) is final over QQ,
and only a nonzero b_i with i >= 1 is recounted exactly on the same masks.
That bound fails for an odd prime p, since a torsion summand Z/p of
H_{i-1}(Z) adds to b_i over GF(p) but not over GF(2); so over GF(p) the
pair is ranked mod p directly.  An index refuses a size past FACE_CAP by
raising CapExceededError (_StarIndex.level); where psi's index refuses
one that the link pair at a nonempty face needs, that pair gets an index
of its own, built from its two link facet tuples, and is ranked from its
empty face the same way.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Optional

import numpy as np

from .errors import CapExceededError
from .complexes import (
    RelativeComplex,
    SimplicialComplex,
    _faces_of_size,
    face_vertices,
    link_facets,
    relative_of_pair,
)
from .ideals import IdealPair

# Most pair faces an index holds and delta faces a depth pass visits; read at call time.
FACE_CAP = 100_000
# Most face-by-facet cells one level's classification holds at once; a level
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
    """An index's delta faces of one size (`level`, ascending), classified
    once: the pair's faces, those outside gamma, with per vertex the bitset
    of their positions and, once a star there is ranked, their boundary
    table (see _StarIndex.columns); for the depth pass, the delta face
    count and the faces the cone test keeps."""

    __slots__ = ("faces", "full", "bits", "columns", "listed", "visits")

    def __init__(self, level: list[int], index: _StarIndex):
        skip, in_gamma = _classify_level(level, index.delta, index.gamma, index.n)
        self.faces = list(compress(level, (~in_gamma).tolist()))
        self.full = (1 << len(self.faces)) - 1
        wide = index.n > 64
        masks = np.array(self.faces, dtype=object if wide else np.uint64)
        shifts = np.array(range(index.n), dtype=object if wide else np.uint64)
        flags = ((masks[None, :] >> shifts[:, None]) & 1).astype(bool)
        packed = np.packbits(flags, axis=1, bitorder="little")
        self.bits = [int.from_bytes(row.tobytes(), "little") for row in packed]
        self.columns: Optional[list[tuple[int, ...]]] = None
        self.listed = len(level)
        self.visits = list(compress(level, (~skip).tolist()))


class _StarIndex:
    """The faces of the pair with facet tuples delta and gamma (gamma's
    faces inside delta's) on n vertices, by size, each size built from
    delta's facets the first time it is needed (see _Level).  The star of F
    at a size, the faces there that contain F, is the AND of F's vertex
    bitsets; removing F from them gives the link pair at F.  At most
    FACE_CAP faces of the pair are held: a size with more delta faces than
    are left is refused, its listing stopped there, and raises on reading.
    A size refused with L faces left has more than L delta faces, so it
    stays refused, without being listed again, until more than L are left."""

    def __init__(self, delta: tuple[int, ...], gamma: tuple[int, ...], n: int):
        self.delta, self.gamma, self.n = delta, gamma, n
        self.vertices = list(map(face_vertices, delta))
        self.levels: dict[int, _Level] = {}
        self.refused: dict[int, int] = {}  # size -> faces left when it was refused
        self.held = 0

    def keep(self, low: int, high: int) -> None:
        """Forget the sizes outside low..high; refusals are kept."""
        for k in [k for k in self.levels if not low <= k <= high]:
            self.held -= len(self.levels.pop(k).faces)

    def level(self, k: int) -> _Level:
        """The faces of k vertices (see _Level); CapExceededError if refused."""
        if k in self.levels:
            return self.levels[k]
        limit = FACE_CAP - self.held
        if limit > self.refused.get(k, -1):
            faces = _faces_of_size(self.vertices, k, limit)
            if len(faces) <= limit:
                self.levels[k] = level = _Level(sorted(faces), self)
                self.held += len(level.faces)
                return level
            self.refused[k] = limit
        raise CapExceededError(f"face count exceeds the cap {FACE_CAP}")

    def star(self, ids: list[int], k: int) -> int:
        """The bitset of the faces of k vertices that contain the face whose
        vertices have these bit indices (see level for a refused size)."""
        level = self.level(k)
        star = level.full
        for v in ids:
            star &= level.bits[v]
        return star

    def columns(self, k: int) -> list[tuple[int, ...]]:
        """The boundary table of size k: for each face, the positions in
        size k - 1 of its k facets, taken by dropping its vertices in
        ascending order, so entry t has sign (-1)^t.  A facet in gamma gets
        the position len(faces of size k - 1), a row that no star and no
        rows bitset holds.  Size k - 1 must be held."""
        level = self.levels[k]
        if level.columns is None:
            below = self.levels[k - 1].faces
            rows = {h: r for r, h in enumerate(below)}.get
            absent = len(below)
            columns = []
            for h in level.faces:
                column = []
                rest = h
                while rest:
                    v = rest & -rest
                    column.append(rows(h ^ v, absent))
                    rest ^= v
                columns.append(tuple(column))
            level.columns = columns
        return level.columns


def _gf2_negatives(columns: list[tuple[int, ...]], star: int, rows: int) -> int:
    """The columns in `star`, restricted to `rows` (both bitsets of
    positions), that stay nonzero when each is reduced over GF(2) against
    the kept ones by its highest row, read from the last: a column basis,
    as a bitset.  The scan stops once every row is a pivot."""
    pivots: dict[int, int] = {}
    negative = 0
    wanted = rows.bit_count()
    # a row past the last of `rows`, such as a facet in gamma, is never set:
    # shifting to it would only widen the column
    width = rows.bit_length()
    while star:
        j = star.bit_length() - 1
        star ^= 1 << j
        col = 0
        for r in columns[j]:
            if r < width:
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


def _signed_negatives(columns: list[tuple[int, ...]], star: int, rows: int, p: int) -> int:
    """_gf2_negatives over GF(p), or over QQ for p = 0, on the same table,
    entry t of a column with sign (-1)^t: each column in `star`, restricted
    to `rows`, is reduced against the kept ones by its highest row, read
    from the last.  A kept column is scaled so that its pivot is 1 (by a
    Fraction over QQ where the pivot is not +-1) and stored without it, so
    a step is one multiply-subtract."""
    pivots: dict[int, dict] = {}
    negative = 0
    wanted = rows.bit_count()
    # kept[r] == "1" for each row r: indexing a string costs less than
    # shifting a long bitset once per entry
    kept = bin(rows)[:1:-1]
    width = len(kept)
    signs = (1, -1)  # signs[t] == (-1)^t, grown to the longest column read
    while star:
        j = star.bit_length() - 1
        star ^= 1 << j
        column = columns[j]
        if len(column) > len(signs):
            signs = (1, -1) * len(column)
        col = {r: s for r, s in zip(column, signs) if r < width and kept[r] == "1"}
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
    the module docstring).  Each step ranks d_{i+1} only when it is read; a
    step that needs a size the index refuses raises CapExceededError."""
    ids = [b for b in range(face.bit_length()) if face >> b & 1]
    k = face.bit_count()
    current, negative = index.star(ids, k), 0
    for i in range(top + 2):
        upper = index.star(ids, k + 1)
        rows = current & ~negative  # the rows of d_i
        if not (rows and upper):
            above = 0
        elif p == 2 or i < 2:
            above = _gf2_negatives(index.columns(k + 1), upper, rows)
        else:
            above = _signed_negatives(index.columns(k + 1), upper, rows, p)
        yield current.bit_count(), negative.bit_count(), above.bit_count()
        current, negative, k = upper, above, k + 1


def _star_bettis(face: int, index: _StarIndex, top: int, p: int):
    """The Betti numbers of the steps of _star_steps."""
    return (faces - low - high for faces, low, high in _star_steps(face, index, top, p))


def _first_homology(face: int, index: _StarIndex, field: CoefficientField,
                    top: int) -> Optional[int]:
    """The lowest dimension up to top in which the link pair at `face` has
    homology over `field`, or None.  Over a prime field the star-mask Betti
    numbers over that field are the answer.  Over QQ they are ranked over
    GF(2), and a zero one is final (b_i over QQ is at most b_i over GF(2));
    a nonzero one above dimension 0 is recounted exactly on the same masks.
    Where the index refuses a size at a nonempty face, the link pair gets an
    index of its own from its link facets and is ranked from its empty face.
    At the empty face the refusal stands: a depth pass reads that pair,
    psi's own, at size 0, before any other size is built, so a second index
    would refuse the same size."""
    p = field.characteristic
    try:
        for i, b in enumerate(_star_bettis(face, index, top, p or 2), -1):
            if b and (p or i < 1 or list(_star_bettis(face, index, i, 0))[-1]):
                return i
        return None
    except CapExceededError:
        if not face:
            raise
    pair = _StarIndex(link_facets(index.delta, face), link_facets(index.gamma, face), index.n)
    return _first_homology(0, pair, field, top)


def _classify_level(level: list[int], delta: tuple[int, ...], gamma: tuple[int, ...],
                    n: int) -> tuple[np.ndarray, np.ndarray]:
    """Two flags for each face F in `level` of the pair with facet tuples
    delta and gamma on n vertices, F a face of delta: whether its link pair
    is acyclic because its delta link is a cone and its gamma link is void
    or a cone, and whether F lies in gamma.

    The link of F is a cone exactly when the AND of the facets containing F
    has a vertex outside F.  The faces-by-facets tables are built in chunks
    of at most LEVEL_CELLS cells.
    """
    dtype = np.uint64 if n <= 64 else object
    everything = ~dtype(0) if dtype is np.uint64 else -1
    faces = np.array(level, dtype=dtype)
    d = np.array(delta, dtype=dtype)
    g = np.array(gamma, dtype=dtype)
    skip, in_gamma = np.empty((2, len(level)), dtype=bool)
    rows = max(1, LEVEL_CELLS // max(len(d), len(g), 1))
    for start in range(0, len(level), rows):
        chunk = slice(start, start + rows)
        f = faces[chunk, None]
        in_d, in_g = (f & ~d) == 0, (f & ~g) == 0
        apex_d = np.bitwise_and.reduce(np.where(in_d, d, everything), axis=1)
        f = f[:, 0]
        inside = in_gamma[chunk] = in_g.any(axis=1)
        cone = apex_d != f
        both = cone & inside  # only there does the gamma link decide
        apex_g = np.bitwise_and.reduce(np.where(in_g[both], g, everything), axis=1)
        cone[both] = apex_g != f[both]
        skip[chunk] = cone
    return skip, in_gamma


def depth_verdict(psi: RelativeComplex, field: CoefficientField = RATIONALS) -> CmVerdict:
    """Depth of the module of psi by Hochster's formula in relative form:
    the minimum of |F| + 1 + i over faces F of delta and dimensions i with
    H_i(lk_delta F, lk_gamma F) != 0, or dim = psi.dim + 1 when smaller.

    Faces are visited by size, then mask.  A face can only lower the best
    value b so far through i <= b - |F| - 2, so the pass stops once |F|
    reaches b, and each link pair's homology is truncated at that i.  Each
    level is read from psi's index (_StarIndex.level), built when the pass
    or a star first needs it and dropped once below the level or above b;
    its delta faces count against FACE_CAP, and a level the index refuses
    stops the pass.  Its cone test (_classify_level) has skipped the faces
    whose two links are cones, or whose delta link is a cone and gamma link
    void: such a pair is acyclic.  Where only i = -1 can still lower b
    (|F| = b - 1), H_{-1} of the pair is nonzero exactly when F is one of
    psi.facets, so no pair there is read or ranked.  Every other link pair
    is a star of the index, and its first homology is found by
    _first_homology; a size it cannot index stops the pass, as one
    homology call does.
    The first (F, i) to set the final minimum is the witness.
    """
    best = dim = psi.dim + 1
    facets = set(psi.facets)
    listed = 0
    index = _StarIndex(psi.delta.facets, psi.gamma.facets, psi.n)
    witness_face = witness_dim = None
    size = 0
    while size < best:
        index.keep(size, best)
        level = index.level(size)
        if listed + level.listed > FACE_CAP:
            raise CapExceededError(f"face count exceeds the cap {FACE_CAP}")
        listed += level.listed
        for f in level.visits:
            if size == best - 1:  # only H_{-1} can lower best here
                if f in facets:
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
