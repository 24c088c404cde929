"""Exact reduced and relative simplicial homology, and depth by Hochster's formula.

Chain complexes are augmented: the empty face generates the chain group in
dimension -1, so the Betti numbers computed here are reduced.  Relative
pairs use the quotient chain complex directly: chains are spanned by the
faces of delta outside gamma, and boundary summands landing in gamma are
dropped.

Every homology here is ranked on the star masks of one index of a pair
(_StarIndex), built one size at a time: per size, delta's faces outside
gamma in ascending mask order, one Python-int bitset per vertex, and one
boundary table, each face's facets (its vertices dropped in ascending
order, so that facet t has sign (-1)^t) by their positions one size down.
Its size picks where the faces come from, as ideals.SMALL_TABLE picks the
container of a subset table.  On at most SMALL_TABLE vertices the index
holds the pair as two subset tables of one int each, delta's faces and
gamma's (the downward closures of their facets), and a size is one AND of
them with the popcount mask of that size, read off as masks.  On more
vertices it lists a size from delta's facets (complexes._faces_of_size)
and marks gamma's faces in a numpy table of the faces by the facets.
Where a size holds at most SMALL_LEVEL faces, a column is two bitsets of
positions, its rows and its -1 entries, which a kernel ANDs with its rows
as they are; on a larger size, where a bitset would be as wide as the
size, it is the tuple of positions, which a kernel turns into a bitset as
it reads the column (_StarIndex.columns).  The star of a face F at a
size, the faces there that contain F, is the AND of F's vertex bitsets,
and removing F from them gives the link pair at F; at the empty face it is
the pair itself, which is how relative_homology ranks it.

Boundary maps are ranked bottom up in one loop (_star_steps), with row
compression (Bauer, Kerber and Reininghaus, "Clear and Compress", 2014):
the i-faces whose columns of d_i stay nonzero in the reduction (the
negative faces) index a column basis of d_i, so no nonzero cycle of d_i
lies on them alone, and dropping their rows from d_{i+1} keeps its rank.
Each map is reduced from its last column to its first, each column against
the kept ones by its highest row, and stops once every row is a pivot; a
dimension without faces has no step.  Each map's kernel follows from the
field and the dimension alone, and all three read the same table:
- XOR (_gf2_negatives): elimination of Python ints over GF(2), for every
  map over GF(2), and for d_0 and d_1 over every field: these (d_1 a graph
  incidence matrix) are totally unimodular, so a column basis over GF(2)
  is one over every field, and b_{-1} and b_0 are exact over any field.
  Over QQ it ranks d_2 and up as well: the maps are integer matrices,
  whose rank over F_2 is at most their rank over Q, so b_i(QQ) <=
  b_i(GF(2)) on the same rows (universal coefficients), and where that
  leaves b_i = 0 the GF(2) basis of d_{i+1} has the QQ rank and is
  independent over QQ, so it is a QQ basis.  The bound fails over an odd
  prime p, since a torsion summand Z/p of H_{i-1}(Z) adds to b_i over
  GF(p) but not over GF(2).
- unit-signed (_unit_negatives), for d_2 and up over an odd prime, and
  over QQ where b_i(GF(2)) > 0 leaves the bound open: the same elimination
  over the integers, on two bitsets per column (its nonzero entries, and
  those that are -1), each kept column negated to pivot +1.  Every step
  adds +-1 times a kept column, an integer column operation that keeps
  the span over every field; if none makes an entry +-2, the kept
  columns, taken by pivot row, are triangular with +1 on the diagonal,
  independent over every field, and the others reduced to zero over the
  integers (or left once every row is a pivot), so the kept ones are a
  column basis over every field.  Otherwise it gives up.
- signed (_signed_negatives), only where the unit kernel gives up, as on
  torsion: the table mod p with pivots scaled to 1, or over QQ with
  integer steps and a Fraction only where a pivot is not +-1, the sign of
  each entry read from the -1 bitset or its position.

The depth pass first takes the cone vertices, the AND of the facets of
delta and gamma: a face that misses one has an acyclic link pair, so the
pass runs on the link pair at them (see depth_verdict).  It reads its
levels from that pair's index, which, on the sizes the pass can still
visit, leaves out the faces whose link pairs are acyclic as cones: those
whose delta link is a cone and whose gamma link is void or a cone.  The
link of F is a cone when some vertex v outside F lies in every facet
containing F, that is, when F lies below no face G without v whose union
with v is not a face.  On a subset table that is, per vertex, one shift,
two ANDs and one downward closure, and the index ORs them into a cone
table per side, once, and reads a size's visits off the two with one AND
(_cone_table); on more vertices one level test (_classify_level) reads
both flags from the AND of the facets containing each face.  The pass
stops before the level where only H_{-1} could count, since a facet of psi
never sets the minimum there.  Every link pair is a star of that index,
ranked up to its first nonzero Betti number.  An index refuses a size past
FACE_CAP by raising CapExceededError (_StarIndex.level); where the pass's
index refuses one that the link pair at a nonempty face needs, that pair
gets an index of its own, built from its two link facet tuples, and is
ranked from its empty face the same way.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import and_
from typing import Iterator, Optional

import numpy as np

from .errors import CapExceededError
from .complexes import (
    RelativeComplex,
    _faces_of_size,
    link_facets,
    relative_of_pair,
)
from . import ideals
from .ideals import IdealPair, face_vertices

# A boundary table (see _StarIndex.columns): (entries, minus), two lists of
# bitsets, or (positional tuples, None).
Columns = tuple[list, Optional[list[int]]]

# Most pair faces an index holds and delta faces a depth pass visits; read at call time.
FACE_CAP = 100_000
# Most face-by-facet cells one level's classification holds at once; a level
# is classified in chunks of at most this many cells.  Read at call time.
LEVEL_CELLS = 1 << 16
# Boundary tables whose row size holds at most this many faces are bitsets,
# larger ones positional tuples (see _StarIndex.columns).  Read at call time.
SMALL_LEVEL = 4096
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
        if type(p) is not int:
            raise ValueError(f"characteristic {p!r} is not an int")
        if p >= PRIME_LIMIT:
            raise ValueError(f"characteristic {p} is not below 2^31, the bound on accepted primes")
        if p != 0 and not _is_prime(p):
            raise ValueError(f"{p} is not 0 or a prime")

    def label(self) -> str:
        return "QQ" if self.characteristic == 0 else f"GF({self.characteristic})"


RATIONALS = CoefficientField(0)


@dataclass
class ChainComplexRanks:
    """Face counts, boundary ranks, and relative homology ranks of a pair,
    which are the reduced ones of delta where gamma is void.

    All three dicts are keyed by chain dimension; boundary_ranks[i] is the
    rank of the map from i-chains to (i-1)-chains.  A dimension without
    faces has no face count and no Betti number.
    """

    field: CoefficientField
    face_counts: dict[int, int]
    boundary_ranks: dict[int, int]
    betti: dict[int, int]


def clear_homology_cache() -> None:
    """Does nothing: homology results are recomputed on every call."""


def relative_homology(psi: RelativeComplex,
                      field: CoefficientField = RATIONALS) -> ChainComplexRanks:
    """Homology of the pair: chains on delta-minus-gamma faces, boundaries
    taken modulo gamma, so the reduced homology of delta where gamma is
    void; an empty pair has no chain groups.  The pair is ranked in every
    dimension of delta by the star steps at the empty face of its own
    index; a dimension without faces gets no entry.
    """
    index = _StarIndex(psi.delta.facets, psi.gamma.facets, psi.n)
    last = max((f.bit_count() for f in psi.delta.facets), default=0) - 1
    counts: dict[int, int] = {}
    ranks: dict[int, int] = {}
    betti: dict[int, int] = {}
    for i, faces, low, high in _star_steps(0, index, last, field.characteristic):
        counts[i] = faces
        ranks[i], ranks[i + 1] = low, high
        betti[i] = faces - low - high
    return ChainComplexRanks(field, counts, ranks, betti)


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


class _Level:
    """An index's faces of one size: the pair's faces, delta's outside
    gamma, in ascending mask order, with per vertex the bitset of their
    positions and, once a star there is ranked, their boundary table,
    bitsets or positional tuples by the face count one size down (see
    _StarIndex.columns); for the depth pass, the count of delta's faces
    (listed) and, on a size it can visit (`cones`), the list of delta's
    faces whose link pair the cone test does not find acyclic (visits),
    else None.  The index reads them off its subset tables or its listing
    (see _StarIndex)."""

    __slots__ = ("faces", "full", "bits", "columns", "listed", "visits")

    def __init__(self, faces: list[int], bits: list[int], listed: int,
                 visits: Optional[list[int]]):
        self.faces, self.bits, self.listed, self.visits = faces, bits, listed, visits
        self.full = (1 << len(faces)) - 1
        self.columns: Optional[Columns] = None


class _StarIndex:
    """The faces of the pair with facet tuples delta and gamma (gamma's
    faces inside delta's) on n vertices, by size, each size built the first
    time it is needed (see _Level).  The star of F at a size, the faces
    there that contain F, is the AND of F's vertex bitsets; removing F from
    them gives the link pair at F.  At most FACE_CAP faces of the pair are
    held: a size with more delta faces than are left is refused and raises
    on reading.  Cone flags are set only on the sizes a depth pass can
    still visit (see keep).

    On n <= ideals.SMALL_TABLE vertices (read when the index is built) a
    size is read off two subset tables of one int, the faces of delta and
    of gamma, and visits off the cone table of the pair (_cone_table),
    built on the first size that needs it; a refused size is counted, not
    listed.  On more vertices a size is listed from delta's facets and
    classified by _classify_level, for which delta's facets followed by
    gamma's, their complements and the vertex shifts are held as numpy
    arrays; a refused size's listing stops at the faces left, and a size
    refused with L faces left has more than L delta faces, so it stays
    refused, without being listed again, until more than L are left."""

    def __init__(self, delta: tuple[int, ...], gamma: tuple[int, ...], n: int):
        self.delta, self.gamma, self.n = delta, gamma, n
        self.levels: dict[int, _Level] = {}
        self.held = 0
        self.high = 0  # no cone flags until a depth pass calls keep
        self.tables: Optional[tuple[int, int]] = None
        if n <= ideals.SMALL_TABLE:
            self.tables = (ideals.downward_closure_table(delta, n),
                           ideals.downward_closure_table(gamma, n))
            self.degrees = ideals._layout(n, False)[1]
            self.skip: Optional[int] = None  # the cone table, once a size needs it
        else:
            self.vertices = list(map(face_vertices, delta))
            self.dtype = np.uint64 if n <= 64 else object
            self.everything = ~np.uint64(0) if n <= 64 else -1
            self.facet_array = np.array(delta + gamma, dtype=self.dtype)
            self.outside_facets = ~self.facet_array
            self.shifts = np.array(range(n), dtype=self.dtype)
            self.refused: dict[int, int] = {}  # size -> faces left when it was refused

    def keep(self, low: int, high: int) -> None:
        """Forget the sizes outside low..high; refusals are kept.  The depth
        pass calls this with high its best value, which never grows, and
        visits only sizes below high - 1: only those get cone flags."""
        self.high = high
        for k in [k for k in self.levels if not low <= k <= high]:
            self.held -= len(self.levels.pop(k).faces)

    def level(self, k: int) -> _Level:
        """The faces of k vertices (see _Level); CapExceededError if refused."""
        if k in self.levels:
            return self.levels[k]
        build = self._table_level if self.tables is not None else self._listed_level
        level = build(k, FACE_CAP - self.held, k < self.high - 1)
        if level is None:
            raise CapExceededError(f"face count exceeds the cap {FACE_CAP}")
        self.levels[k] = level
        self.held += len(level.faces)
        return level

    def _table_level(self, k: int, limit: int, cones: bool) -> Optional[_Level]:
        """Size k off the subset tables, or None if it has more than
        `limit` delta faces."""
        delta, gamma = self.tables
        faces = delta & self.degrees[k] if k <= self.n else 0
        listed = faces.bit_count()
        if listed > limit:
            return None
        pair = ideals._set_bits(faces & ~gamma)
        bits = [0] * self.n
        for j, f in enumerate(pair):
            position = 1 << j
            while f:
                v = f & -f
                bits[v.bit_length() - 1] |= position
                f ^= v
        visits = None
        if cones:
            if self.skip is None:
                self.skip = _cone_table(delta, self.n) & (_cone_table(gamma, self.n) | ~gamma)
            visits = ideals._set_bits(faces & ~self.skip)
        return _Level(pair, bits, listed, visits)

    def _listed_level(self, k: int, limit: int, cones: bool) -> Optional[_Level]:
        """Size k listed from delta's facets and classified by
        _classify_level, or None if it has more than `limit` delta faces."""
        if limit <= self.refused.get(k, -1):
            return None
        listed = _faces_of_size(self.vertices, k, limit)
        if len(listed) > limit:
            self.refused[k] = limit
            return None
        faces = np.array(sorted(listed), dtype=self.dtype)
        skip, in_gamma = _classify_level(faces, self, cones)
        pair = faces[~in_gamma]
        bits = [0] * self.n
        if len(pair):
            flags = ((pair[None, :] >> self.shifts[:, None]) & 1).astype(bool)
            packed = np.packbits(flags, axis=1, bitorder="little")
            bits = [int.from_bytes(row.tobytes(), "little") for row in packed]
        visits = None if skip is None else faces[~skip].tolist()
        return _Level(pair.tolist(), bits, len(faces), visits)

    def star(self, ids: list[int], k: int) -> int:
        """The bitset of the faces of k vertices that contain the face whose
        vertices have these bit indices (see level for a refused size)."""
        level = self.level(k)
        star = level.full
        for v in ids:
            star &= level.bits[v]
        return star

    def columns(self, k: int) -> Columns:
        """The boundary table of size k, (entries, minus), for each face
        its k facets, taken by dropping its vertices in ascending order, so
        facet t has sign (-1)^t.  Where size k - 1 holds at most SMALL_LEVEL
        faces, entries[j] and minus[j] are bitsets of positions there: the
        rows of face j's facets and those at odd t, the -1 entries, a facet
        in gamma setting no bit.  On a larger size, whose rows would make
        each bitset as wide as the level, entries[j] is the tuple of those
        positions by t, a facet in gamma at len(faces of size k - 1), a row
        that no star and no rows bitset holds, and minus is None.  Size
        k - 1 must be held."""
        level = self.levels[k]
        if level.columns is None:
            below = self.levels[k - 1].faces
            if len(below) <= SMALL_LEVEL:
                bit = {h: 1 << r for r, h in enumerate(below)}.get
                entries, minus = [], []
                for h in level.faces:
                    even = odd = 0
                    rest = h
                    while rest:
                        v = rest & -rest
                        even |= bit(h ^ v, 0)
                        rest ^= v
                        if rest:
                            v = rest & -rest
                            odd |= bit(h ^ v, 0)
                            rest ^= v
                    entries.append(even | odd)
                    minus.append(odd)
                level.columns = entries, minus
            else:
                rows = {h: r for r, h in enumerate(below)}.get
                absent = len(below)
                table = []
                for h in level.faces:
                    column = []
                    rest = h
                    while rest:
                        v = rest & -rest
                        column.append(rows(h ^ v, absent))
                        rest ^= v
                    table.append(tuple(column))
                level.columns = table, None
        return level.columns


def _gf2_negatives(columns: Columns, star: int, rows: int) -> int:
    """The columns in `star`, restricted to `rows` (both bitsets of
    positions), that stay nonzero when each is reduced over GF(2) against
    the kept ones by its highest row, read from the last: a column basis,
    as a bitset.  The scan stops once every row is a pivot.  Columns are a
    boundary table in either container (see _StarIndex.columns)."""
    entries, minus = columns
    pivots: dict[int, int] = {}
    negative = 0
    wanted = rows.bit_count()
    # a row past the last of `rows`, such as a facet in gamma, is never set:
    # shifting to it would only widen the column
    width = rows.bit_length()
    while star:
        j = star.bit_length() - 1
        star ^= 1 << j
        if minus is None:
            col = 0
            for r in entries[j]:
                if r < width:
                    col |= 1 << r
            col &= rows
        else:
            col = entries[j] & rows
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


def _unit_negatives(columns: Columns, star: int, rows: int) -> Optional[int]:
    """_gf2_negatives' elimination over the integers, on the same table and
    in the same order, each column held as the bitset of its nonzero
    entries and the bitset of those that are -1 (entry t has sign (-1)^t),
    read as they are from a bitset table.  A kept column is negated so
    that its pivot is +1, and a step subtracts the kept column times the
    reduced one's entry at its pivot row: an integer column operation with
    a unit pivot.  If a step would make an entry +-2, the result is None;
    otherwise every entry stays in {0, +-1}, and the kept columns, taken by
    pivot row, are triangular with +1 on the diagonal after steps that keep
    their span, so they are a column basis over every field."""
    entries, minus = columns
    pivots: dict[int, tuple[int, int]] = {}
    negative = 0
    wanted = rows.bit_count()
    width = rows.bit_length()
    while star:
        j = star.bit_length() - 1
        star ^= 1 << j
        if minus is None:
            column = entries[j]
            col = neg = 0
            for r in column:
                if r < width:
                    col |= 1 << r
            for r in column[1::2]:
                if r < width:
                    neg |= 1 << r
            col &= rows
        else:
            col = entries[j] & rows
            neg = minus[j]
        neg &= col
        while col:
            low = col.bit_length() - 1
            other = pivots.get(low)
            if other is None:
                if neg >> low & 1:
                    neg ^= col
                pivots[low] = (col, neg)
                negative |= 1 << j
                break
            other_col, other_neg = other
            # the -1 entries of the kept column times -(entry at low)
            added = other_neg if neg >> low & 1 else other_col ^ other_neg
            if col & other_col & ~(neg ^ added):
                return None  # two entries of one sign add up to +-2
            col ^= other_col
            neg = (neg ^ added) & col
        if len(pivots) == wanted:
            return negative
    return negative


def _signed_negatives(columns: Columns, star: int, rows: int, p: int) -> int:
    """_gf2_negatives over GF(p), or over QQ for p = 0, on the same table,
    entry t of a column with sign (-1)^t: each column in `star`, restricted
    to `rows`, is reduced against the kept ones by its highest row, read
    from the last.  A kept column is scaled so that its pivot is 1 (by a
    Fraction over QQ where the pivot is not +-1) and stored without it, so
    a step is one multiply-subtract."""
    entries, minus = columns
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
        if minus is None:
            column = entries[j]
            if len(column) > len(signs):
                signs = (1, -1) * len(column)
            col = {r: s for r, s in zip(column, signs) if r < width and kept[r] == "1"}
        else:
            col, rest, odd = {}, entries[j] & rows, minus[j]
            while rest:
                r = rest.bit_length() - 1
                rest ^= 1 << r
                col[r] = -1 if odd >> r & 1 else 1
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
            for r, v in other.items():
                x = col.get(r, 0) - factor * v
                if p:
                    x %= p
                if x:
                    col[r] = x
                else:
                    del col[r]
        if len(pivots) == wanted:
            break
    return negative


def _star_steps(face: int, index: _StarIndex, top: int,
                p: int) -> Iterator[tuple[int, int, int, int]]:
    """For the link pair at `face`, from dimension -1 up to top, each
    dimension i that has faces, with their count and the ranks of d_i and
    d_{i+1} over GF(p), or over QQ for p = 0, ranked on its star masks with
    row compression (see the module docstring) as the step is read: a
    caller that stops at the first homology (_first_homology) ranks nothing
    above it.  A dimension without faces has no map to rank and is not
    yielded.  A step that needs a size the index refuses raises
    CapExceededError."""
    ids = []
    while face:
        v = face & -face
        ids.append(v.bit_length() - 1)
        face ^= v
    k = len(ids)
    levels = index.levels
    current = above = 0
    for i in range(-2, top + 1):  # i = -2 only reads the star at |F|
        level = levels[k] if k in levels else index.level(k)
        upper, bits = level.full, level.bits
        for v in ids:
            upper &= bits[v]
        negative, above = above, 0
        if current:  # else dimension i has no faces and no map to rank
            faces, low = current.bit_count(), negative.bit_count()
            rows = current & ~negative  # the rows of d_{i+1}
            if rows and upper:
                columns = level.columns or index.columns(k)
                if p > 2 and i > 0:  # d_2 and up over an odd prime
                    above = _unit_negatives(columns, upper, rows)
                else:
                    above = _gf2_negatives(columns, upper, rows)
                    # over QQ, a nonzero b_i over GF(2) is only a bound
                    if p == 0 and i > 0 and above.bit_count() < faces - low:
                        above = _unit_negatives(columns, upper, rows)
                if above is None:  # a step met +-2: a pivot other than +-1 may be needed
                    above = _signed_negatives(columns, upper, rows, p)
            yield i, faces, low, above.bit_count()
        current, k = upper, k + 1


def _first_homology(face: int, index: _StarIndex, field: CoefficientField,
                    top: int) -> Optional[int]:
    """The lowest dimension up to top in which the link pair at `face` has
    homology over `field`, or None, from its star steps.  Where the index
    refuses a size at a nonempty face, the link pair gets an index of its
    own from its link facets and is ranked from its empty face.  At the
    empty face the refusal stands: a depth pass reads that pair, psi's own,
    at size 0, before any other size is built, so a second index would
    refuse the same size."""
    steps = _star_steps(face, index, top, field.characteristic)
    try:
        for i, faces, low, high in steps:
            if faces > low + high:
                return i
    except CapExceededError:
        if not face:
            raise
        pair = _StarIndex(link_facets(index.delta, face), link_facets(index.gamma, face), index.n)
        return _first_homology(0, pair, field, top)
    return None


def _cone_table(table: int, n: int) -> int:
    """The faces of a complex, given as its subset table of one int over
    2^n masks, whose link is a cone.  The link of F is a cone with apex v
    when v is outside F and G | v is a face for every face G containing F:
    when F lies below no face without v whose union with v is not a face.
    Per vertex v of the complex that is one shift, two ANDs and one
    downward closure; a vertex in no face is the apex of no link."""
    steps = ideals._layout(n, False)[0]
    cones = 0
    for shift, low in steps:
        without = table & low  # the faces without v, as the masks with bit v clear
        if without == table:
            continue  # v is in no face
        blocked = without & ~(table >> shift)  # ... whose union with v is not a face
        cones |= without & ~ideals._close(blocked, n, upward=False)
    return cones


def _classify_level(faces: np.ndarray, index: _StarIndex,
                    cones: bool) -> tuple[Optional[np.ndarray], np.ndarray]:
    """For each face in `faces`, faces of delta of one size of a listing
    index's pair (one on more than ideals.SMALL_TABLE vertices), whether
    it lies in gamma, inside one of gamma's facets (in_gamma), and with
    `cones`, whether its link pair is acyclic because its delta link is a
    cone and its gamma link is void or a cone (skip, else None).

    The link of F is a cone exactly when the AND of the facets containing F
    has a vertex outside F; where no facet of gamma contains F, that AND is
    every vertex, so a void gamma link passes too.  Both flags are read
    from one table of the faces by the facets of delta, then gamma (gamma
    alone without `cones`), built in chunks of at most LEVEL_CELLS cells.
    """
    facets, outside, cut = index.facet_array, index.outside_facets, len(index.delta)
    if not cones:
        facets, outside, cut = facets[cut:], outside[cut:], 0
    skip = np.empty(len(faces), dtype=bool) if cones else None
    in_gamma = np.empty(len(faces), dtype=bool)
    rows = max(1, LEVEL_CELLS // max(len(facets), 1))
    for start in range(0, len(faces), rows):
        f = faces[start:start + rows]
        inside = (f[:, None] & outside) == 0
        in_gamma[start:start + rows] = inside[:, cut:].any(axis=1)
        if cones:
            apex = np.where(inside, facets, index.everything)
            skip[start:start + rows] = ((np.bitwise_and.reduce(apex[:, :cut], axis=1) != f)
                                        & (np.bitwise_and.reduce(apex[:, cut:], axis=1) != f))
    return skip, in_gamma


def depth_verdict(psi: RelativeComplex, field: CoefficientField = RATIONALS) -> CmVerdict:
    """Depth of the module of psi by Hochster's formula in relative form:
    the minimum of |F| + 1 + i over faces F of delta and dimensions i with
    H_i(lk_delta F, lk_gamma F) != 0, or dim = psi.dim + 1 when smaller.

    Let Z, the cone vertices, be the AND of the facets of delta and gamma.
    A face that misses a vertex of Z has a cone for its delta link and a
    void or cone gamma link, so an acyclic link pair; every other face is
    F | Z, whose link pair is the link pair of F in psi' = psi's link pair
    at Z.  So the pass runs on psi', which holds only the faces of delta
    that contain Z, and adds |Z| to its depth, its dim and its witness
    face; masks F | Z compare as the F do, so the visiting order is kept.

    Faces of psi' are visited by size, then mask.  A face can only lower
    the best value b so far through i <= b - |F| - 2, and each link pair's
    homology is truncated there; the pass stops once |F| reaches b - 1,
    where only a facet of psi' could (i = -1), and none does (see the lemma
    below).  Levels come from the index of psi' (_StarIndex.level); their
    delta faces count against FACE_CAP, and a refused level stops the pass, as
    does a size that _first_homology cannot index.  The cone test of each
    level (_cone_table, or _classify_level above ideals.SMALL_TABLE
    vertices), run as the index builds it, has left out of its visits the
    faces whose link pair is acyclic.  The first (F, i) to set the final
    minimum is the witness.  A pair without faces is a ValueError.
    """
    if psi.is_empty:
        raise ValueError("the relative complex has no faces to test")
    # Lemma: no visited face is a facet F of psi (of delta, outside gamma),
    # so H_{-1} never sets best.  Let s = |F| < dim.  Take G < F maximal
    # with G in gamma or in a facet of delta other than F (one exists, or psi
    # is the simplex on F with gamma void and s = dim), and T = F - G.  By
    # maximality lk_delta G is the simplex on T plus a part with no vertex
    # in T, and lk_gamma G has no vertex in T.  If G is in gamma, each {t},
    # t in T, is a relative cycle, and every boundary sums to 0 on T; if
    # not, lk_gamma G is void and the other facet adds a vertex outside T,
    # so lk_delta G is disconnected.  So H_0 != 0 at G over every field, the
    # cone test keeps G, and level |G| < s sets best <= s before level s.
    # The same holds for psi', a pair in its own right.
    z = reduce(and_, psi.delta.facets + psi.gamma.facets)
    shift = z.bit_count()
    best = dim = psi.dim + 1 - shift
    listed = 0
    index = _StarIndex(link_facets(psi.delta.facets, z), link_facets(psi.gamma.facets, z), psi.n)
    witness_face = witness_dim = None
    size = 0
    while size < best - 1:
        index.keep(size, best)
        level = index.level(size)
        if listed + level.listed > FACE_CAP:
            raise CapExceededError(f"face count exceeds the cap {FACE_CAP}")
        listed += level.listed
        for f in level.visits:
            i = _first_homology(f, index, field, best - size - 2)
            if i is not None:
                best = size + 1 + i
                witness_face, witness_dim = f | z, i
                if size >= best - 1:
                    break
        size += 1
    return CmVerdict(best + shift, dim + shift, field, witness_face, witness_dim)


def depth(pair: IdealPair, field: CoefficientField = RATIONALS) -> int:
    """Depth of J/I, from one Hochster pass over its relative complex."""
    return depth_verdict(relative_of_pair(pair), field).depth
