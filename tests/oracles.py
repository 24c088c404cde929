"""Brute-force reference implementations used as test oracles.

These work on frozensets of 1-based indices and plain list matrices over
Fractions, deliberately avoiding the bitmask and elimination code they are
used to check.  The bool_* kernels are the one-byte-per-mask subset tables
that the packed tables of `sqdepth.ideals` replaced.  The depth oracles
reuse the package's link facets, but neither its face lister, its depth
pass, its truncation nor its rank kernel: they rank link pairs with
`listed_homology`.  `skeleton_scan_depth` is the skeleton scan with
Reisner tests that the one-pass depth replaced, and `hochster_depth`
evaluates Hochster's formula on every face.  `skeleton`,
`link` and `dim_module_colon` are the facet-listing skeleton, the link as a
complex and the colon path to the dimension, which no report uses;
`pairwise_intersect` is the intersection of two ideals as the
minimalized pairwise unions of their generators, `pairwise_minimalize`
the minimalization that scans every kept generator for each mask, which
the package replaced with submask lookups on large inputs, and
`arithmetic_colon` the colon as an intersection of one-generator colons,
which the package replaced with downward steps on a subset table.
`uncompressed_ranks` ranks a listed pair with every boundary map whole
(`boundary_columns`, ranked by the sparse column reduction `column_rank`),
and `classify_face` is the per-face cone test from the link facets; the
package replaced them with row compression on star masks and one cone test
per level.  `listed_level` is a size of a star index face by face, its
faces listed from the facets and each cone test an AND of the facets
containing the face, which the package reads off subset tables on at most
`ideals.SMALL_TABLE` vertices.
`pair_faces` and `face_masks` list a pair, or a complex, by dimension or
as one set, listing gamma's faces of each size and subtracting them, so
they do not share the package's lister, which lists delta's faces of one
size and never gamma's.
`table_alpha` counts alpha on tables over all 2^n masks, which the
package replaced with tables over the variables the generators use, and
`relative_facets_of_pair` reads the facets of a pair off two such tables,
which the package replaced with `RelativeComplex.facets`.
`entrywise_recurrence_failure` is the transform-recurrence check entry by
entry, its direct side from `brute_transform`, which the package replaced
with one evaluation at T = 2^w per side and level.
`moore_space_mod_3` is a test input: a complex with 3-torsion in H_1,
`full_simplex` the simplex on all n vertices, and `absolute` makes a
complex the pair with a void gamma, on which the package reads its
reduced homology and its Cohen-Macaulayness.

The rest are entry points the program does not call, kept for the tests
that compare the program against them.  `relative_homology` (with
`ChainComplexRanks`) ranks a whole pair on the package's own star steps
and rank kernels, at the empty face of the pair's index, `star` reads a
star off such an index, and `colon` reads the package's subset table of a
colon ideal; all three reach production code that the tests then hold
against the listed and brute-force oracles above.  `ideal_of_complex`, `pair_of_relative` and `alpha_from_beta`
invert the complex of an ideal, the relative complex of a pair and the
transform, `pseudopower` shifts only the lower index of an expansion,
which Macaulay's growth bound does not, and `random_complete_intersection`
and `random_alpha_counts` draw test inputs.
"""

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations, islice
from math import comb

import numpy as np

from sqdepth.complexes import (
    RelativeComplex,
    SimplicialComplex,
    complex_of_ideal,
    link_facets,
    relative_of_pair,
)
from sqdepth.homology import FACE_CAP, RATIONALS, CoefficientField, _StarIndex, _star_steps
from sqdepth.ideals import (
    IdealPair,
    MonomialIdeal,
    _canonical_masks,
    _colon_table,
    _relabeled,
    degree_counts,
    face_vertices,
    maximal_masks,
    membership_table,
    minimalize,
)
from sqdepth.macaulay import expand


def subsets(n):
    """All subsets of {1..n} as frozensets."""
    universe = range(1, n + 1)
    return [frozenset(c) for c in chain.from_iterable(
        combinations(universe, r) for r in range(n + 1))]


def member(gens, s):
    """x_s lies in the ideal generated by the squarefree monomials x_g."""
    return any(g <= s for g in gens)


def mask_to_set(mask):
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def set_to_mask(s):
    return sum(1 << (i - 1) for i in s)


def pair_faces(delta, gamma, max_size, limit):
    """The faces of delta outside gamma, for the pair with these facet
    tuples, of at most max_size vertices: a list per dimension in ascending
    mask order, with no entry for a dimension without faces.  None once
    there are more than `limit`.

    Sizes are listed in turn, each with what is left of the limit: gamma's
    faces of the size are listed whole, then delta's only up to the limit
    plus that count, and gamma's are subtracted, so the listing stops early
    past the limit.
    """
    delta, gamma = list(map(face_vertices, delta)), list(map(face_vertices, gamma))
    by_dim = {}
    # delta has no faces of more vertices than its largest facet
    for k in range(min(max_size, max(map(len, delta), default=-1)) + 1):
        below = set().union(*(map(sum, combinations(vertices, k)) for vertices in gamma))
        level = set()
        for vertices in delta:
            level.update(islice(map(sum, combinations(vertices, k)), limit + len(below) + 1))
            if len(level) > limit + len(below):
                return None
        level -= below
        if level:
            by_dim[k - 1] = sorted(level)
            limit -= len(level)
    return by_dim


def full_simplex(n):
    """The simplex on all n vertices: the complex of the zero ideal."""
    return SimplicialComplex(n, ((1 << n) - 1,))


def absolute(c):
    """The complex c as the pair (c, void): its relative homology is the
    reduced homology of c, and its depth verdict that of c."""
    return RelativeComplex(c, SimplicialComplex.void(c.n))


def face_masks(x, max_size=None):
    """The faces of a complex, or of a pair (delta outside gamma), as a set;
    with max_size, only those of at most max_size vertices.  Uncapped: no
    machine holds sys.maxsize // 2 faces."""
    if isinstance(x, SimplicialComplex):
        x = absolute(x)
    faces = pair_faces(x.delta.facets, x.gamma.facets,
                       x.n if max_size is None else max_size, sys.maxsize // 2)
    return set(chain.from_iterable(faces.values()))


def ideal_gen_sets(ideal):
    return [mask_to_set(g) for g in ideal.generators]


def brute_alpha(lower_gens, upper_gens, n, unit_upper=False):
    counts = [0] * (n + 1)
    for s in subsets(n):
        in_upper = True if unit_upper else member(upper_gens, s)
        if in_upper and not member(lower_gens, s):
            counts[len(s)] += 1
    return tuple(counts)


def brute_colon_member(lower_gens, upper_gens, s, n):
    """x_s in (I : J): for every squarefree x_v in J, x_s * x_v has its
    squarefree image in I."""
    for v in subsets(n):
        if member(upper_gens, v) and not member(lower_gens, s | v):
            return False
    return True


def pairwise_minimalize(masks, n):
    """The generators of the ideal generated by these masks: each distinct
    mask in (degree, value) order is kept unless a kept one divides it,
    scanning every kept mask."""
    masks = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    if any(not 0 <= m < 1 << n for m in masks):
        raise ValueError(f"a mask is out of range for n={n}")
    kept = []
    for m in masks:
        if not any(k & ~m == 0 for k in kept):
            kept.append(m)
    return tuple(kept)


def pairwise_intersect(a, b):
    """The intersection of two ideals as the minimalized set of every
    pairwise union of their generators."""
    return minimalize((ga | gb for ga in a.generators for gb in b.generators), a.n)


def arithmetic_colon(ideal, other):
    """(I : J) as the intersection over the generators x_B of J of (I : x_B),
    which is generated by the masks A \\ B over the generators x_A of I."""
    if other.is_zero:
        raise ValueError("colon by the zero ideal is undefined")
    return reduce(pairwise_intersect, (minimalize((a & ~b for a in ideal.generators), ideal.n)
                                       for b in other.generators))


def colon(ideal, other):
    """(I : J) read off the package's subset table of the colon
    (`ideals._colon_table`, which `complexes.complex_of_colon` reads), its
    minimal masks found by `bool_minimal_masks` and spread back onto the n
    variables."""
    table, s, support = _colon_table(ideal, other)
    minimal = bool_minimal_masks(unpack(table, s), s)
    return MonomialIdeal(ideal.n, _relabeled(minimal, support, spread=True))


def brute_colon_generators(ideal, other):
    """The minimal masks of (I : J) by brute-force membership: the members
    none of whose one-smaller subsets is a member."""
    ig, jg = ideal_gen_sets(ideal), ideal_gen_sets(other)
    members = {s for s in subsets(ideal.n) if brute_colon_member(ig, jg, s, ideal.n)}
    minimal = [s for s in members if not any(s - {i} in members for i in s)]
    return _canonical_masks(set_to_mask(s) for s in minimal)


def brute_facets(faces):
    face_set = set(faces)
    return {s for s in face_set
            if not any(s < t for t in face_set)}


def brute_transform(counts, q):
    return tuple(
        sum((-1) ** (k - j) * comb(q - j, k - j) * (counts[j] if j < len(counts) else 0)
            for j in range(k + 1))
        for k in range(q + 1)
    )


def entrywise_recurrence_failure(alpha_vec, rows, binomial):
    """`invariants.first_recurrence_failure` entry by entry, against the
    Pascal rows `rows` of levels 0..n and the binomial function `binomial`."""
    n = alpha_vec.n
    complement = tuple(comb(n, j) - c for j, c in enumerate(alpha_vec.counts))
    for d in range(1, n + 1):
        at_d, at_d1 = rows[d], brute_transform(alpha_vec.counts, d + 1)
        for k in range(1, d + 1):
            if at_d1[k] != at_d[k] - at_d[k - 1]:
                return ("level-recurrence", k, d)
        if min(complement) < 0:
            raise ValueError("alpha exceeds the binomial bound; not a subset count")
        comp_at_d = brute_transform(complement, d)
        for k in range(d + 1):
            if comp_at_d[k] != binomial(n - d + k - 1, k) - at_d[k]:
                return ("complement-identity", k, d)
    return None


def pascal_binomial(a, b):
    """C(a, b) via the Pascal recurrence, memoized."""
    if b < 0 or b > a:
        return 0
    row = [1]
    for _ in range(a):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[b]


def fraction_rank(rows):
    """Matrix rank by plain Gaussian elimination over Fractions."""
    mat = [[Fraction(x) for x in row] for row in rows if any(row)]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def mod_p_rank(rows, p):
    """Matrix rank over GF(p) by plain dense Gaussian elimination on ints."""
    mat = [[x % p for x in row] for row in rows]
    mat = [row for row in mat if any(row)]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [x * inv % p for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def columns(rows):
    """The sparse columns {row: entry} of a dense matrix given by rows."""
    ncols = len(rows[0]) if rows else 0
    return [{r: row[c] for r, row in enumerate(rows) if row[c]} for c in range(ncols)]


def boundary_columns(lower, upper):
    """The boundary of each upper face as a sparse column {row: sign}.

    The sign of dropping vertex v from a face is (-1)^position with vertices
    in ascending order; faces absent from `lower` (relative case) are
    dropped, which realizes the quotient chain complex.
    """
    index = {m: i for i, m in enumerate(lower)}
    out = []
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
        out.append(column)
    return out


def column_rank(columns, characteristic):
    """Exact rank of the matrix with the given sparse columns ({row: entry})
    over QQ (characteristic 0) or GF(p).

    Each column is reduced against the kept ones by its highest row until it
    vanishes or its highest row is no kept column's; the kept columns then
    have distinct highest rows, so they are independent and span the rest.
    Over QQ a step is integer where the division is exact and a Fraction
    otherwise.
    """
    p = characteristic
    kept = {}
    for column in columns:
        col = {r: v % p if p else v for r, v in column.items()}
        col = {r: v for r, v in col.items() if v}
        while col:
            low = max(col)
            if low not in kept:
                kept[low] = col
                break
            pivot_col = kept[low]
            entry, pivot = col[low], pivot_col[low]
            if p:
                factor = entry * pow(pivot, -1, p) % p
            else:
                quotient, remainder = divmod(entry, pivot)
                factor = Fraction(entry, pivot) if remainder else quotient
            for row, v in pivot_col.items():
                x = col.get(row, 0) - factor * v
                if p:
                    x %= p
                if x:
                    col[row] = x
                else:
                    col.pop(row, None)
    return len(kept)


def compose(columns_lower, column):
    """The sparse column columns_lower * column, zero entries dropped."""
    out = {}
    for m, s in column.items():
        for r, t in columns_lower[m].items():
            out[r] = out.get(r, 0) + s * t
    return {r: v for r, v in out.items() if v}


def unpack(table, n):
    """The bool array over all 2^n masks of a subset table: one int, or
    packed uint64 words, bit m standing for mask m in both."""
    if isinstance(table, int):
        data = np.frombuffer(table.to_bytes((1 << n) // 8 + 1, "little"), dtype=np.uint8)
    else:
        data = table.astype("<u8").view(np.uint8)
    return np.unpackbits(data, bitorder="little")[:1 << n].astype(bool)


def pack(bools):
    """The packed subset table (uint64 words) of a bool array over 2^n masks."""
    data = np.packbits(bools, bitorder="little")
    data = np.concatenate([data, np.zeros(-len(data) % 8, dtype=np.uint8)])
    return data.view("<u8").astype(np.uint64)


def bool_membership_table(ideal):
    """x_A in the ideal, for all 2^n masks A: seeds closed upward bit by bit."""
    table = np.zeros(1 << ideal.n, dtype=bool)
    for g in ideal.generators:
        table[g] = True
    for b in range(ideal.n):
        view = table.reshape(-1, 2, 1 << b)
        view[:, 1, :] |= view[:, 0, :]
    return table


def bool_downward_closure_table(masks, n):
    """A subset of one of the seed masks, for all 2^n masks A."""
    table = np.zeros(1 << n, dtype=bool)
    for m in masks:
        table[m] = True
    for b in range(n):
        view = table.reshape(-1, 2, 1 << b)
        view[:, 0, :] |= view[:, 1, :]
    return table


def bool_maximal_masks(table, n):
    fac = table.copy()
    for b in range(n):
        tv = table.reshape(-1, 2, 1 << b)
        fv = fac.reshape(-1, 2, 1 << b)
        fv[:, 0, :] &= ~tv[:, 1, :]
    return sorted(np.flatnonzero(fac).tolist(), key=lambda m: (m.bit_count(), m))


def bool_minimal_masks(table, n):
    mini = table.copy()
    for b in range(n):
        tv = table.reshape(-1, 2, 1 << b)
        mv = mini.reshape(-1, 2, 1 << b)
        mv[:, 1, :] &= ~tv[:, 0, :]
    return sorted(np.flatnonzero(mini).tolist(), key=lambda m: (m.bit_count(), m))


def bool_degree_counts(table, n):
    sizes = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        sizes = np.concatenate([sizes, sizes + 1])
    return tuple(int(c) for c in np.bincount(sizes[table], minlength=n + 1))


def table_alpha(pair):
    """alpha of J/I from the packed membership tables of both ideals over
    all 2^n masks, the package's alpha before it counted on the variables
    the generators use."""
    table = membership_table(pair.upper) & ~membership_table(pair.lower)
    return degree_counts(table, pair.n)


def bool_alpha(pair):
    """alpha of J/I from the bool membership tables of both ideals."""
    table = bool_membership_table(pair.upper) & ~bool_membership_table(pair.lower)
    return bool_degree_counts(table, pair.n)


def relative_facets_of_pair(pair):
    """Facets of the relative complex of a pair read off the packed tables:
    maximal A with x_A in J \\ I.  The package reads them off the facets
    of Delta(I) and Delta(J) instead (RelativeComplex.facets)."""
    table = membership_table(pair.upper) & ~membership_table(pair.lower)
    return maximal_masks(table, pair.n)


def bool_relative_facets(pair):
    table = bool_membership_table(pair.upper) & ~bool_membership_table(pair.lower)
    return tuple(bool_maximal_masks(table, pair.n))


def skeleton(x, dprime):
    """All faces of dimension at most dprime-1, as a complex of the same kind,
    listed as facets.  For a relative complex both components are truncated;
    a component of dimension below the cut is left unchanged.  Reports mask
    a face table by popcount instead."""
    if isinstance(x, RelativeComplex):
        return RelativeComplex(_skeleton_clamped(x.delta, dprime),
                               _skeleton_clamped(x.gamma, dprime))
    if x.is_void:
        return x
    if not 0 <= dprime <= x.dim + 1:
        raise ValueError(f"skeleton level {dprime} outside 0..{x.dim + 1}")
    if dprime == x.dim + 1:
        return x
    kept = set()
    for facet in x.facets:
        if facet.bit_count() <= dprime:
            kept.add(facet)
        else:
            kept.update(_submasks_of_size(facet, dprime))
    return SimplicialComplex(x.n, _canonical_masks(kept))


def _skeleton_clamped(x, dprime):
    if x.is_void:
        return x
    return skeleton(x, min(dprime, x.dim + 1))


def _submasks_of_size(mask, size):
    bits = [i for i in range(mask.bit_length()) if mask >> i & 1]
    return [sum(1 << b for b in combo) for combo in combinations(bits, size)]


def link(x, face):
    """The link of a face as a complex: {G : G disjoint from F, G union F a
    face}.  The depth pass works on `link_facets` directly."""
    facets = link_facets(x.facets, face)
    if not facets:
        raise ValueError(f"mask {face:#x} is not a face of the complex")
    return SimplicialComplex(x.n, facets)


def dim_module_colon(pair):
    """The dimension of J/I read as dim Delta(I : J) plus one, the path that
    `verify` cross-checks against max{k : alpha_k > 0}."""
    quotient = colon(pair.lower, pair.upper)
    if quotient.is_unit:
        raise ValueError("(I : J) is the unit ideal; the pair is degenerate")
    return complex_of_ideal(quotient).dim + 1


def link_pair(psi, f):
    """(lk_delta F, lk_gamma F), the gamma link void when F is not in gamma."""
    lk_gamma = link(psi.gamma, f) if psi.gamma.has_face(f) else SimplicialComplex.void(psi.n)
    return RelativeComplex(link(psi.delta, f), lk_gamma)


def reisner_witness(psi, field=RATIONALS):
    """The first face F (by size, then mask) whose link pair has homology in
    some dimension i below the pair's own dimension, as (F, i) with the
    lowest such i; None when psi passes Reisner's criterion."""
    for f in sorted(face_masks(psi.delta), key=lambda m: (m.bit_count(), m)):
        lk = link_pair(psi, f)
        if lk.is_empty:
            continue
        ranks = listed_homology(lk, field)
        for i in range(-1, lk.dim):
            if ranks.betti.get(i, 0):
                return f, i
    return None


def skeleton_scan_depth(pair, field=RATIONALS):
    """Depth as the largest d' whose (d'-1)-skeleton pair passes Reisner's
    criterion, scanning d' down from the module dimension."""
    psi = relative_of_pair(pair)
    for dprime in range(psi.dim + 1, -1, -1):
        skel = skeleton(psi, dprime)
        if skel.is_empty or reisner_witness(skel, field) is None:
            return dprime
    raise AssertionError("skeleton scan fell through dimension zero")


def hochster_depth(pair, field=RATIONALS):
    """Depth as min |F| + 1 + i over every face F of delta, i the first
    dimension with nonzero homology of the full link pair at F."""
    psi = relative_of_pair(pair)
    best = None
    for f in sorted(face_masks(psi.delta)):
        lk = link_pair(psi, f)
        if lk.is_empty:
            continue
        i = first_nonzero(listed_homology(lk, field))
        if i is not None:
            candidate = f.bit_count() + 1 + i
            if best is None or candidate < best:
                best = candidate
    return best


def listed_pair_verdict(psi, field=RATIONALS):
    """depth_verdict's answer from listed link pairs, as (depth, dim,
    witness face, witness dim): the faces F of delta by size, then mask,
    while |F| is below the best value b so far, each link pair listed from
    its two link facet tuples and ranked over `field` by uncompressed_ranks,
    truncated at b - |F| - 2.  Unlike the pass, it also visits |F| = b - 1,
    where only H_{-1} counts: it does not assume the lemma in depth_verdict
    that no facet of psi sets the minimum there, so comparing the two tests
    that lemma."""
    best = dim = psi.dim + 1
    witness = (None, None)
    for f in sorted(face_masks(psi.delta), key=lambda m: (m.bit_count(), m)):
        size = f.bit_count()
        if size >= best:
            break
        faces = pair_faces(link_facets(psi.delta.facets, f), link_facets(psi.gamma.facets, f),
                           best - size, FACE_CAP)
        i = first_nonzero(uncompressed_ranks(faces, field, best - size - 2))
        if i is not None:
            best, witness = size + 1 + i, (f, i)
    return (best, dim, *witness)


@dataclass
class ChainComplexRanks:
    """Face counts, boundary ranks, and relative homology ranks of a pair,
    which are the reduced ones of delta where gamma is void.

    All three dicts are keyed by chain dimension; boundary_ranks[i] is the
    rank of the map from i-chains to (i-1)-chains.  A dimension without
    faces has no face count and no Betti number.
    """

    field: CoefficientField
    face_counts: dict
    boundary_ranks: dict
    betti: dict


def relative_homology(psi, field=RATIONALS):
    """Homology of the pair: chains on delta-minus-gamma faces, boundaries
    taken modulo gamma, so the reduced homology of delta where gamma is
    void; an empty pair has no chain groups.  Ranked by the package's star
    steps (`homology._star_steps`, the rank kernels of the depth pass) at
    the empty face of the pair's own index, in every dimension of delta; a
    dimension without faces gets no entry."""
    index = _StarIndex(psi.delta.facets, psi.gamma.facets, psi.n)
    last = max((f.bit_count() for f in psi.delta.facets), default=0) - 1
    counts, ranks, betti = {}, {}, {}
    for i, faces, low, high in _star_steps(0, index, last, field.characteristic):
        counts[i] = faces
        ranks[i], ranks[i + 1] = low, high
        betti[i] = faces - low - high
    return ChainComplexRanks(field, counts, ranks, betti)


def star(index, ids, k):
    """The bitset of the faces of k vertices of a star index that contain
    the face whose vertices have these bit indices, as `_star_steps` ANDs
    it (CapExceededError for a size the index refuses)."""
    level = index.level(k)
    bits = level.full
    for v in ids:
        bits &= level.bits[v]
    return bits


def uncompressed_ranks(by_dim, field, top=None):
    """The homology of a pair listed by dimension (as pair_faces lists it)
    with every boundary map ranked whole: Betti numbers upward from the
    bottom dimension, stopping after top or at the first nonzero one, each
    boundary rank computed when a Betti number needs it.  Without top this
    is the ChainComplexRanks that relative_homology gives for the pair;
    with top, its first nonzero Betti number is what _first_homology finds
    up to top."""
    counts = {i: len(by_dim[i]) for i in sorted(by_dim)}
    ranks = {}

    def rank(i):
        if i not in ranks:
            below, upper = by_dim.get(i - 1), by_dim.get(i)
            ranks[i] = (column_rank(boundary_columns(below, upper), field.characteristic)
                        if below and upper else 0)
        return ranks[i]

    betti = {}
    for i in counts:
        if top is not None and i > top:
            break
        betti[i] = counts[i] - rank(i) - rank(i + 1)
        if top is not None and betti[i]:
            break
    return ChainComplexRanks(field, counts, ranks, betti)


def first_nonzero(ranks):
    """The lowest dimension of a ChainComplexRanks with a nonzero Betti
    number, or None."""
    return next((i for i in sorted(ranks.betti) if ranks.betti[i]), None)


def listed_homology(psi, field=RATIONALS, top=None):
    """The homology of psi, truncated as uncompressed_ranks truncates it,
    from the pair listed by pair_faces (up to top + 2 vertices with top)."""
    faces = pair_faces(psi.delta.facets, psi.gamma.facets, psi.n if top is None else top + 2,
                       FACE_CAP)
    return uncompressed_ranks(faces, field, top)


def is_cone(facets):
    """A common vertex of all facets makes the complex contractible."""
    apex = -1
    for f in facets:
        apex &= f
    return apex > 0


def classify_face(psi, f):
    """For a face F of delta: whether both links are cones, or the delta link
    a cone and the gamma link void, and whether F is a facet of delta
    outside gamma, from the link facets of F."""
    lk_delta = link_facets(psi.delta.facets, f)
    lk_gamma = link_facets(psi.gamma.facets, f)  # void when f is not in gamma
    skip = is_cone(lk_delta) and (not lk_gamma or is_cone(lk_gamma))
    return skip, lk_delta == (0,) and not lk_gamma


def listed_level(delta, gamma, n, k):
    """The size k of the index of the pair with facet tuples delta and
    gamma on n vertices, face by face: delta's faces of k vertices listed
    from its facets, and, in ascending mask order, the pair's faces among
    them (in no facet of gamma) with each vertex's bitset of their
    positions, their count (listed) and the delta faces whose link pair is
    not acyclic as a cone pair (visits): those equal to the AND of the
    delta facets containing them or of the gamma facets containing them,
    where no gamma facet gives every vertex.  Returns (faces, bits, listed,
    visits)."""
    every = (1 << n) - 1
    listed = sorted({sum(1 << b for b in c) for f in delta
                     for c in combinations([b for b in range(n) if f >> b & 1], k)})
    faces, visits = [], []
    for face in listed:
        apex_delta = reduce(lambda a, f: a & f, [f for f in delta if face & ~f == 0], every)
        containing = [f for f in gamma if face & ~f == 0]
        apex_gamma = reduce(lambda a, f: a & f, containing, every)
        if not containing:
            faces.append(face)
        if face in (apex_delta, apex_gamma):
            visits.append(face)
    bits = [sum(1 << j for j, face in enumerate(faces) if face >> v & 1) for v in range(n)]
    return faces, bits, len(listed), visits


def ideal_of_complex(complex_):
    """The Stanley-Reisner ideal of a nonvoid complex, generated by its
    minimal non-faces, from the bool kernels."""
    if complex_.is_void:
        raise ValueError("the void complex corresponds to the unit ideal")
    faces = bool_downward_closure_table(complex_.facets, complex_.n)
    return MonomialIdeal(complex_.n, tuple(bool_minimal_masks(~faces, complex_.n)))


def pair_of_relative(psi):
    """The ideal pair (I_delta, I_gamma) whose module is presented by psi."""
    lower = ideal_of_complex(psi.delta)
    if psi.gamma.is_void:
        return IdealPair(lower, MonomialIdeal.unit(psi.n))
    return IdealPair(lower, ideal_of_complex(psi.gamma))


def alpha_from_beta(values, d):
    """alpha_0..alpha_d from the level-d transform `values` (d + 1
    entries), by alpha_k = sum_j C(d - j, k - j) beta_j^d."""
    return tuple(sum(comb(d - j, k - j) * values[j] for j in range(k + 1))
                 for k in range(d + 1))


def pseudopower(ell, k):
    """The pseudopower ell^(k): the sum of C(n_i, i + 1) over the greedy
    expansion of ell at level k, only the lower index shifted, where
    `macaulay.macaulay_growth_bound` shifts both; 0^(k) = 0."""
    if ell == 0:
        return 0
    return sum(comb(n_i, i + 1) for n_i, i in expand(ell, k).terms)


def random_complete_intersection(rng, n):
    """S/I for generators with pairwise disjoint supports; returns (pair, m)."""
    variables = list(range(n))
    rng.shuffle(variables)
    m = rng.randint(1, max(1, n // 2))
    gens = []
    cursor = 0
    for i in range(m):
        remaining = len(variables) - cursor - (m - i - 1)
        size = rng.randint(1, max(1, min(3, remaining)))
        block = variables[cursor:cursor + size]
        cursor += size
        gens.append(sum(1 << b for b in block))
    return IdealPair.quotient(minimalize(gens, n)), m


def random_alpha_counts(rng, n):
    """Counts bounded by the binomial coefficients, not identically zero."""
    while True:
        counts = tuple(rng.randint(0, comb(n, k)) for k in range(n + 1))
        if any(counts):
            return counts


def moore_space_mod_3():
    """S/I for a 13-vertex pseudo-projective plane with H_1 = Z/3: a 9-gon
    whose boundary wraps three times around the triangle {1,2,3}, an inner
    ring of nine vertices and a centre.  Over GF(3) it has b_1 = b_2 = 1
    and S/I has depth 2 < dim 3; over QQ and every other prime it is
    acyclic (S/I is Cohen-Macaulay over QQ, GF(2) and GF(32003))."""
    facets = set()
    for i in range(9):
        b, b1, u, u1 = i % 3, (i + 1) % 3, 3 + i, 3 + (i + 1) % 9
        for t in ((b, b1, u), (b1, u, u1), (u, u1, 12)):
            facets.add(sum(1 << v for v in t))
    return IdealPair.quotient(ideal_of_complex(SimplicialComplex(13, tuple(sorted(facets)))))
