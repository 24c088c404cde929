"""Hypothesis properties on ideals drawn as lists of generator masks."""

import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sqdepth import homology
from sqdepth.complexes import (
    RelativeComplex,
    SimplicialComplex,
    _faces_of_size,
    face_table,
    face_vertices,
    link_facets,
    relative_of_pair,
)
from sqdepth.errors import CapExceededError
from sqdepth.homology import (
    FACE_CAP,
    RATIONALS,
    CoefficientField,
    _StarIndex,
    _classify_level,
    _signed_negatives,
    _star_bettis,
    depth,
    depth_verdict,
    relative_homology,
)
from sqdepth.ideals import (
    IdealPair,
    MonomialIdeal,
    _canonical_masks,
    colon,
    intersect,
    minimalize,
    parse_ideal,
)
from sqdepth.invariants import alpha, hdepth, hdepth_of_alpha
from sqdepth.randgen import random_module_pair, random_pair, random_quotient_pair

import oracles

FIELDS = (RATIONALS, CoefficientField(2))
THREE_FIELDS = (RATIONALS, CoefficientField(2), CoefficientField(3))
PRIME_FIELDS = (CoefficientField(2), CoefficientField(3), CoefficientField(32003))


@st.composite
def ideals(draw, max_n, proper=False):
    """minimalize of up to six masks over 1..max_n variables; with proper,
    at least one mask and never the empty one, so neither zero nor unit."""
    n = draw(st.integers(1, max_n))
    masks = st.integers(1 if proper else 0, (1 << n) - 1)
    return minimalize(draw(st.lists(masks, min_size=int(proper), max_size=6)), n)


@st.composite
def pairs(draw, max_n):
    """A quotient S/I, a module I or a general J/I with J proper or unit."""
    ideal = draw(ideals(max_n, proper=True))
    kind = draw(st.sampled_from(("quotient", "module", "general")))
    if kind == "quotient":
        return IdealPair.quotient(ideal)
    if kind == "module":
        return IdealPair.module(ideal)
    n = ideal.n
    upper = draw(st.sampled_from((ideal, MonomialIdeal.unit(n))))
    multiples = st.tuples(st.sampled_from(upper.generators), st.integers(0, (1 << n) - 1))
    lower = minimalize((g | m for g, m in draw(st.lists(multiples, max_size=4))), n)
    assume(lower != upper)
    return IdealPair(lower, upper)


@st.composite
def ideals_in_one_ring(draw, max_n):
    """Two ideals over the same n, each minimalize of up to six masks."""
    n = draw(st.integers(1, max_n))
    masks = st.lists(st.integers(0, (1 << n) - 1), max_size=6)
    return minimalize(draw(masks), n), minimalize(draw(masks), n)


@settings(derandomize=True, deadline=None)
@given(ideals_in_one_ring(8))
def test_intersect_matches_all_pairwise_unions(ideals_ab):
    a, b = ideals_ab
    assert intersect(a, b) == oracles.pairwise_intersect(a, b)


@settings(derandomize=True, deadline=None)
@given(ideals_in_one_ring(8))
def test_colon_generators_are_minimal_brute_force_members(ideals_ij):
    i, j = ideals_ij
    assume(not j.is_zero)
    assert colon(i, j).generators == oracles.brute_colon_generators(i, j)


@settings(derandomize=True, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=10))))
def test_minimalize_output_passes_full_validation(n_masks):
    n, masks = n_masks
    m = minimalize(masks, n)
    assert MonomialIdeal(n, m.generators) == m


@st.composite
def randgen_pairs(draw, max_n):
    """A pair from one of the three randgen kinds over 1..max_n variables:
    random generators of any degree, so some variables often go unused."""
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from((random_pair, random_quotient_pair, random_module_pair)))
    return kind(draw(st.randoms(use_true_random=False)), n)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(randgen_pairs(20))
@example(IdealPair(MonomialIdeal.zero(5), MonomialIdeal.unit(5)))  # S itself: no support
@example(IdealPair.quotient(parse_ideal("x2*x4", 6)))  # J unit
@example(IdealPair.module(parse_ideal("x1*x3, x5", 7)))  # I zero
@example(IdealPair(parse_ideal("x1*x2*x3, x3*x4", 4), parse_ideal("x1, x3", 4)))  # all used
@example(IdealPair.quotient(parse_ideal("x1*x2, x2*x3, x7*x8, x8*x9", 12)))  # two clusters
def test_alpha_on_the_support_matches_the_tables_over_all_masks(pair):
    counts = alpha(pair).counts
    assert counts == oracles.table_alpha(pair)
    if pair.n <= 8:
        assert counts == oracles.brute_alpha(
            oracles.ideal_gen_sets(pair.lower), oracles.ideal_gen_sets(pair.upper),
            pair.n, unit_upper=pair.upper.is_unit)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(pairs(8), st.sampled_from(FIELDS))
def test_depth_at_most_hdepth_at_most_dim(pair, field):
    a = alpha(pair)
    assert depth(pair, field) <= hdepth_of_alpha(a) <= a.max_degree


@settings(derandomize=True, deadline=None, max_examples=150)
@given(ideals(8, proper=True))
def test_hdepth_gap_on_cohen_macaulay_quotients(ideal):
    quotient = IdealPair.quotient(ideal)
    a = alpha(quotient)
    assume(depth(quotient) == a.max_degree)  # the gap is proved for S/I Cohen-Macaulay
    assert hdepth(IdealPair.module(ideal)) >= hdepth_of_alpha(a) + 1


@settings(derandomize=True, deadline=None)
@given(ideals(12))
def test_text_and_masks_round_trip(ideal):
    assert parse_ideal(str(ideal), ideal.n) == ideal
    assert minimalize(ideal.generators, ideal.n) == ideal


def _relabeled(psi, n, vertex):
    """psi on n variables with vertex i renamed vertex[i]."""
    def complex_(c):
        return SimplicialComplex(n, _canonical_masks(
            sum(1 << vertex[i] for i in range(c.n) if f >> i & 1) for f in c.facets))
    return RelativeComplex(complex_(psi.delta), complex_(psi.gamma))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(pairs(7), st.sampled_from(FIELDS), st.data())
def test_relative_homology_ignores_vertex_names(pair, field, data):
    psi = relative_of_pair(pair)
    assume(not psi.is_empty)
    n = psi.n
    permuted = _relabeled(psi, n, data.draw(st.permutations(range(n))))
    embedded = _relabeled(psi, n + 2, range(1, n + 1))  # vertices 0 and n + 1 unused
    for top in (None, *range(-1, psi.dim + 1)):
        expected = relative_homology(psi, field, top)
        assert relative_homology(permuted, field, top) == expected
        assert relative_homology(embedded, field, top) == expected


def _table_pair_faces(x, max_size):
    """The faces of x of at most max_size vertices by dimension, each list
    ascending, read off its face table."""
    by_dim = {}
    for m in np.flatnonzero(oracles.unpack(face_table(x), x.n)).tolist():
        if m.bit_count() <= max_size:
            by_dim.setdefault(m.bit_count() - 1, []).append(m)
    return by_dim


@settings(derandomize=True, deadline=None)
@given(pairs(8), st.booleans())
def test_pair_faces_match_the_face_table_and_stop_past_the_limit(pair, void_gamma):
    # every max_size, against the face-set difference of the face table;
    # with a small limit the lister gives None exactly when the pair has
    # more faces than the limit
    psi = relative_of_pair(pair)
    if void_gamma:
        psi = RelativeComplex(psi.delta, SimplicialComplex.void(psi.n))
    for max_size in range(psi.n + 2):
        expected = _table_pair_faces(psi, max_size)
        count = sum(map(len, expected.values()))
        assert oracles.pair_faces(psi.delta.facets, psi.gamma.facets, max_size, FACE_CAP) == expected
        for limit in {*range(6), *range(max(count - 1, 0), count + 2)}:
            faces = oracles.pair_faces(psi.delta.facets, psi.gamma.facets, max_size, limit)
            assert faces == (None if count > limit else expected)


@settings(derandomize=True, deadline=None)
@given(pairs(8), st.booleans())
@example(IdealPair(parse_ideal("x1*x2", 2), parse_ideal("x1", 2)), False)  # facet {2} in gamma
def test_relative_facets_are_the_maximal_faces_outside_gamma(pair, void_gamma):
    # psi's facets, read off the facets of delta and gamma, are the maximal
    # faces of the listed pair in canonical order, and for the pair's own
    # gamma the facets read off the membership tables of I and J; dim and
    # is_empty read them as the listed pair says
    psi = relative_of_pair(pair)
    if void_gamma:
        psi = RelativeComplex(psi.delta, SimplicialComplex.void(psi.n))
    else:
        assert psi.facets == oracles.relative_facets_of_pair(pair)
    faces = oracles.face_masks(psi)
    maximal = [f for f in faces if not any(f != g and f & ~g == 0 for g in faces)]
    assert psi.facets == _canonical_masks(maximal)
    assert psi.is_empty == (not faces)
    if faces:
        assert psi.dim == max(f.bit_count() for f in faces) - 1
    else:
        with pytest.raises(ValueError, match="relative complex has no faces"):
            psi.dim


def _index(psi):
    """The star index of psi, as a depth pass builds it."""
    return _StarIndex(psi.delta.facets, psi.gamma.facets, psi.n)


def _star_faces(index, face, size):
    """The faces of the link pair at `face` read off its star at `size`."""
    star = index.star([b for b in range(face.bit_length()) if face >> b & 1], size)
    faces = index.levels[size].faces
    return [faces[j] ^ face for j in range(star.bit_length()) if star >> j & 1]


@settings(derandomize=True, deadline=None)
@given(pairs(8), st.sampled_from(FIELDS))
def test_link_pairs_read_from_psi_faces_match_the_oracle_links(pair, field):
    # depth_verdict reads the link pair at each F from the star masks of
    # psi's index, or, where that index refuses a size, from the empty
    # face of an index of its own built from the link facets of F; either
    # way, up to |F| + top + 2 vertices the pair must be the one built from
    # the two link complexes, with the same homology
    psi = relative_of_pair(pair)
    assume(not psi.is_empty)
    dim = psi.dim + 1
    index = _index(psi)
    for size in range(dim):
        for f in sorted(_faces_of_size(map(face_vertices, psi.delta.facets), size, FACE_CAP)):
            lk = oracles.link_pair(psi, f)
            own = _StarIndex(link_facets(psi.delta.facets, f), link_facets(psi.gamma.facets, f),
                             psi.n)
            expected = _table_pair_faces(lk, dim - size)
            for k in range(dim - size + 1):
                assert _star_faces(index, f, size + k) == expected.get(k - 1, [])
                assert _star_faces(own, 0, k) == expected.get(k - 1, [])
            for top in range(-1, dim - size - 1):
                ranks = oracles.listed_homology(lk, field, top)
                betti = [ranks.betti_number(i) for i in range(-1, top + 1)]
                betti = betti[:next((j + 1 for j, b in enumerate(betti) if b), len(betti))]
                for bettis in (_star_bettis(f, index, top, field.characteristic),
                               _star_bettis(0, own, top, field.characteristic)):
                    assert list(bettis)[:len(betti)] == betti


def _refusing_psi_sizes_above(top):
    """_StarIndex for one depth pass: its first index, psi's own, refuses
    every size above top for the stars of nonempty faces, the one place
    where its refusal differs from an index of the link pair's own; the
    link pairs' own indexes after it do not refuse."""
    made = []

    class Refusing(_StarIndex):
        def star(self, ids, k):
            if ids and k > top:
                raise CapExceededError(f"face count exceeds the cap {FACE_CAP}")
            return super().star(ids, k)

    def index(*args):
        made.append(Refusing(*args) if not made else _StarIndex(*args))
        return made[-1]
    return index


@settings(derandomize=True, deadline=None, max_examples=150)
@given(pairs(8), st.sampled_from(THREE_FIELDS))
@example(IdealPair.quotient(parse_ideal("x1*x2*x3", 3)), RATIONALS)
def test_depth_pass_lists_link_pairs_from_facets_when_psi_is_too_large(pair, field):
    # when psi's index refuses every size above some k at nonempty faces,
    # a link pair that needs one gets an index of its own from its link
    # facets and is ranked from its empty face, after whatever the star
    # masks of the smaller sizes gave: the verdict must not depend on the
    # path
    psi = relative_of_pair(pair)
    assume(not psi.is_empty)
    expected = depth_verdict(psi, field)
    for top in range(-1, psi.dim + 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(homology, "_StarIndex", _refusing_psi_sizes_above(top))
            assert depth_verdict(psi, field) == expected


RP2 = IdealPair.quotient(parse_ideal("x1*x2*x4, x2*x3*x4, x1*x2*x5, x1*x3*x5, x3*x4*x5, "
                                     "x1*x3*x6, x2*x3*x6, x1*x4*x6, x2*x5*x6, x4*x5*x6", 6))
MOORE3 = oracles.moore_space_mod_3()


@settings(derandomize=True, deadline=None)
@given(pairs(8), st.sampled_from(PRIME_FIELDS))
@example(RP2, CoefficientField(2))  # H_1 = Z/2: b_1 over GF(2) only
@example(RP2, CoefficientField(3))
@example(MOORE3, CoefficientField(3))  # H_1 = Z/3: b_1 over GF(3), on signed columns
@example(MOORE3, CoefficientField(32003))
def test_star_mask_betti_numbers_match_the_listed_pair(pair, field):
    # for every face of delta and every truncation, the Betti numbers over
    # GF(p) ranked on star masks (over GF(2) up to d_1, then on signed
    # columns mod p) are those of uncompressed_ranks over GF(p) on the link
    # pair listed from its link facets
    psi = relative_of_pair(pair)
    assume(not psi.is_empty)
    index = _index(psi)
    for f in sorted(oracles.face_masks(psi.delta)):
        lk_delta = link_facets(psi.delta.facets, f)
        lk_gamma = link_facets(psi.gamma.facets, f)
        for top in range(-1, psi.dim - f.bit_count() + 1):
            faces = oracles.pair_faces(lk_delta, lk_gamma, top + 2, FACE_CAP)
            ranks = oracles.uncompressed_ranks(faces, field)
            expected = [ranks.betti_number(i) for i in range(-1, top + 1)]
            assert list(_star_bettis(f, index, top, field.characteristic)) == expected


@settings(derandomize=True, deadline=None, max_examples=150)
@given(pairs(8), st.sampled_from(THREE_FIELDS))
@example(RP2, RATIONALS)  # H_1 over GF(2) only: the recount decides
@example(RP2, CoefficientField(3))
@example(RP2, CoefficientField(32003))
@example(MOORE3, CoefficientField(3))  # H_1 over GF(3) only
@example(MOORE3, RATIONALS)
def test_depth_pass_matches_the_listed_pair_oracle(pair, field):
    # ranks on star masks, over GF(2) with exact recounts over QQ and on
    # signed columns over an odd prime, give the depth, dim and witness of
    # the pass that lists and ranks every link pair over the field itself
    psi = relative_of_pair(pair)
    assume(not psi.is_empty)
    verdict = depth_verdict(psi, field)
    assert (verdict.depth, verdict.dim, verdict.witness_face, verdict.witness_dim) == (
        oracles.listed_pair_verdict(psi, field))


matrices = st.integers(1, 8).flatmap(
    lambda cols: st.lists(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
                          min_size=1, max_size=8))


@settings(derandomize=True, deadline=None)
@given(matrices)
def test_column_rank_matches_dense_elimination(mat):
    over_q = oracles.column_rank(oracles.columns(mat), 0)
    assert over_q == oracles.fraction_rank(mat)
    for p in (2, 3, (1 << 31) - 1):
        mod_p = oracles.column_rank(oracles.columns(mat), p)
        assert mod_p == oracles.mod_p_rank(mat, p)
        assert mod_p <= over_q


def _positional(entries, absent):
    """The column with these (row, sign) entries as _StarIndex.columns holds
    it, entry t with sign (-1)^t: the row `absent`, which no rows bitset
    holds, goes in front of each entry whose sign must flip."""
    column = []
    for r, s in entries:
        if s != (-1) ** len(column):
            column.append(absent)
        column.append(r)
    return tuple(column)


def _signed_rank_cases(seed, count):
    """Random sparse columns of +-1 entries over up to 10 rows, in
    positional form, with a random star of columns and a random bitset of
    kept rows; each case is (columns, star, rows, dense matrix of the
    star's columns on the rows)."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        height, width = rng.randint(1, 10), rng.randint(1, 10)
        entries = [[(r, rng.choice((-1, 1))) for r in range(height) if rng.random() < 0.4]
                   for _ in range(width)]
        star, rows = rng.getrandbits(width), rng.getrandbits(height)
        kept = [r for r in range(height) if rows >> r & 1]
        chosen = [dict(entries[j]) for j in range(width) if star >> j & 1]
        cases.append(([_positional(e, height) for e in entries], star, rows,
                      [[c.get(r, 0) for c in chosen] for r in kept]))
    return cases


@pytest.mark.parametrize("seed", range(4))
def test_signed_negatives_rank_matches_dense_elimination(seed):
    # the kept columns of the one exact kernel are a column basis of the
    # star's columns on the kept rows, over QQ (p = 0) and mod p
    cases = _signed_rank_cases(seed, 150)
    # d_2 of RP^2 and of the mod-3 Moore space on all their edges, each
    # column twice: over QQ the eliminations meet pivots that are not +-1
    # (their ranks over QQ and mod 2 or 3 differ), and every second copy
    # must reduce to zero through them
    for pair, ranks in ((RP2, (10, 9, 10)), (MOORE3, (27, 27, 26))):
        triangles = relative_of_pair(pair).delta.facets
        edges = sorted({t ^ (1 << b) for t in triangles for b in range(pair.n) if t >> b & 1})
        d2 = oracles.boundary_columns(edges, triangles)
        dense = [[c.get(r, 0) for c in d2 + d2] for r in range(len(edges))]
        assert (oracles.fraction_rank(dense), oracles.mod_p_rank(dense, 2),
                oracles.mod_p_rank(dense, 3)) == ranks
        cases.append(([_positional(c.items(), len(edges)) for c in d2 + d2],
                      (1 << 2 * len(d2)) - 1, (1 << len(edges)) - 1, dense))
    for columns, star, rows, dense in cases:
        assert _signed_negatives(columns, star, rows, 0).bit_count() == oracles.fraction_rank(dense)
        for p in (3, (1 << 31) - 1):
            assert _signed_negatives(columns, star, rows, p).bit_count() == (
                oracles.mod_p_rank(dense, p))


@settings(derandomize=True, deadline=None)
@given(pairs(8), st.sampled_from(THREE_FIELDS))
def test_compressed_ranks_match_the_uncompressed_oracle(pair, field):
    # relative_homology ranks the pair on the star masks of its own index,
    # with the negative rows of each map dropped from the next: face
    # counts, boundary ranks and Betti numbers are those of the listed
    # pair with every map ranked whole
    psi = relative_of_pair(pair)
    assume(not psi.is_empty)
    for top in (None, *range(-1, psi.dim + 1)):
        assert relative_homology(psi, field, top) == oracles.listed_homology(psi, field, top)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(pairs(8), st.booleans(), st.sampled_from((1, 2, 3, 5, 7, 1 << 16)))
@example(IdealPair(parse_ideal("x1*x2", 2), parse_ideal("x1", 2)), False, 1)  # facet {2} in gamma
def test_level_classification_matches_the_per_face_oracle(pair, void_gamma, cells):
    # the cone test of one level in chunks of `cells` cells, small ones
    # putting chunk edges inside every level, against the per-face test
    # from the link facets, and the gamma flag against membership in gamma;
    # psi's facets, which the depth pass reads on its last level, are the
    # faces with H_{-1} of the link pair nonzero
    psi = relative_of_pair(pair)
    if void_gamma:
        psi = RelativeComplex(psi.delta, SimplicialComplex.void(psi.n))
    assume(not psi.is_empty)
    facets = set(psi.facets)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "LEVEL_CELLS", cells)
        for size in range(psi.dim + 2):
            level = sorted(_faces_of_size(map(face_vertices, psi.delta.facets), size, FACE_CAP))
            skip, in_gamma = _classify_level(level, psi.delta.facets, psi.gamma.facets, psi.n)
            facet_flags = [f in facets for f in level]
            expected = [oracles.classify_face(psi, f) for f in level]
            assert list(zip(skip.tolist(), facet_flags)) == expected
            assert in_gamma.tolist() == [psi.gamma.has_face(f) for f in level]
            for f, flag in zip(level, facet_flags):
                lk = oracles.link_pair(psi, f)
                h = 0 if lk.is_empty else relative_homology(lk, RATIONALS, -1).betti_number(-1)
                assert flag == (h != 0)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(pairs(6), st.sampled_from(FIELDS))
def test_depth_pass_on_vertices_past_64_bits(pair, field):
    # the level cone test holds masks of more than 64 bits as Python ints
    psi = relative_of_pair(pair)
    assume(not psi.is_empty)
    shift = 65
    wide = _relabeled(psi, psi.n + shift, range(shift, psi.n + shift))
    expected = depth_verdict(psi, field)
    verdict = depth_verdict(wide, field)
    assert (verdict.depth, verdict.dim, verdict.witness_dim) == (
        expected.depth, expected.dim, expected.witness_dim)
    assert verdict.witness_face == (None if expected.witness_face is None
                                    else expected.witness_face << shift)
