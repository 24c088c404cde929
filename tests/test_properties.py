"""Hypothesis properties on ideals drawn as lists of generator masks."""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sqdepth import homology
from sqdepth.complexes import (
    RelativeComplex,
    SimplicialComplex,
    _faces_of_size,
    complex_of_colon,
    complex_of_ideal,
    f_vector,
    face_table,
    ideal_of_complex,
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
    _first_homology,
    _gf2_negatives,
    _signed_negatives,
    _star_steps,
    _unit_negatives,
    depth,
    depth_verdict,
    relative_homology,
)
from sqdepth.ideals import (
    IdealPair,
    MonomialIdeal,
    _canonical_masks,
    colon,
    face_vertices,
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
RANDGEN_KINDS = (random_quotient_pair, random_module_pair, random_pair)


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
def randgen_pairs(draw, max_n, min_n=1):
    """A pair from one of the three randgen kinds over min_n..max_n variables:
    random generators of any degree, so some variables often go unused."""
    n = draw(st.integers(min_n, max_n))
    kind = draw(st.sampled_from((random_pair, random_quotient_pair, random_module_pair)))
    return kind(draw(st.randoms(use_true_random=False)), n)


# the paths of three vertices over those of two, on 16 variables
PATH_16 = IdealPair(
    parse_ideal(", ".join(f"x{v}*x{v + 1}*x{v + 2}" for v in range(1, 15)), 16),
    parse_ideal(", ".join(f"x{v}*x{v + 1}" for v in range(1, 16)), 16))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(randgen_pairs(16))
@example(IdealPair.module(parse_ideal("x1*x3, x5", 7)))  # I zero
@example(IdealPair.quotient(parse_ideal("x2*x4", 6)))  # J unit
@example(IdealPair(parse_ideal("x1*x2*x5", 6), parse_ideal("x1*x2, x6", 6)))  # x6 outside supp(I)
@example(PATH_16)  # I uses 16 variables: packed words at either switch
def test_colon_on_tables_matches_the_arithmetic_colon(pair):
    # up to 16 variables, so both the int and the packed table run; with
    # the switch at -1 every table is packed
    i, j = pair.lower, pair.upper
    expected = oracles.arithmetic_colon(i, j)
    assert colon(i, j) == expected
    with mock.patch("sqdepth.ideals.SMALL_TABLE", -1):
        assert colon(i, j) == expected


@settings(derandomize=True, deadline=None, max_examples=150)
@given(randgen_pairs(16))
@example(IdealPair.module(parse_ideal("x1*x3, x5", 7)))  # I zero: the simplex
@example(IdealPair.quotient(parse_ideal("x2*x4", 6)))  # J unit: Delta(I)
@example(IdealPair(parse_ideal("x1*x2*x5", 6), parse_ideal("x1*x2, x6", 6)))  # x6 outside supp(I)
@example(IdealPair(parse_ideal("x2*x3*x4", 5), parse_ideal("x2*x3, x4*x5", 5)))  # x1 free
@example(PATH_16)
def test_complex_of_colon_matches_the_complex_of_the_arithmetic_colon(pair):
    expected = complex_of_ideal(oracles.arithmetic_colon(pair.lower, pair.upper))
    assert complex_of_colon(pair.lower, pair.upper) == expected
    with mock.patch("sqdepth.ideals.SMALL_TABLE", -1):
        assert complex_of_colon(pair.lower, pair.upper) == expected


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


@settings(derandomize=True, deadline=None)
@given(randgen_pairs(16, min_n=2))
def test_int_and_packed_table_kernels_agree_on_reports(pair):
    # tables over at most 2^14 masks are worked on as one int by default;
    # with the switch at -1 every table goes through the packed kernels
    def tables_read():
        psi = relative_of_pair(pair)
        non_unit = [i for i in (pair.lower, pair.upper) if not i.is_unit]
        return (alpha(pair).counts, psi.facets, f_vector(psi),
                [ideal_of_complex(complex_of_ideal(i)) for i in non_unit])

    with mock.patch("sqdepth.ideals.SMALL_TABLE", -1):
        packed = tables_read()
    assert tables_read() == packed


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
    expected = relative_homology(psi, field)
    assert relative_homology(permuted, field) == expected
    assert relative_homology(embedded, field) == expected
    for top in range(-1, psi.dim + 1):
        first = _first_homology(0, _index(psi), field, top)
        assert _first_homology(0, _index(permuted), field, top) == first
        assert _first_homology(0, _index(embedded), field, top) == first


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


def _star_bettis(face, index, top, p):
    """The Betti numbers of the star steps at `face` from dimension -1 up to
    top, on the index's boundary tables (bitsets on the small sizes of
    these tests), which must be those of a fresh index of the pair built
    with SMALL_LEVEL = 0 (positional tables)."""
    bettis = _step_bettis(face, index, top, p)
    with mock.patch("sqdepth.homology.SMALL_LEVEL", 0):
        assert _step_bettis(face, _StarIndex(index.delta, index.gamma, index.n), top, p) == bettis
    return bettis


def _step_bettis(face, index, top, p):
    """The Betti numbers of the star steps at `face` from dimension -1 up to
    top, 0 in a dimension without faces; the steps must come in order, one
    for each dimension whose star is nonempty, each with faces."""
    bettis, dims = [0] * (top + 2), []
    for i, faces, low, high in _star_steps(face, index, top, p):
        assert faces > 0
        bettis[i + 1] = faces - low - high
        dims.append(i)
    ids = [b for b in range(face.bit_length()) if face >> b & 1]
    assert dims == [i for i in range(-1, top + 1) if index.star(ids, len(ids) + i + 1)]
    return bettis


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
                betti = [ranks.betti.get(i, 0) for i in range(-1, top + 1)]
                betti = betti[:next((j + 1 for j, b in enumerate(betti) if b), len(betti))]
                for bettis in (_star_bettis(f, index, top, field.characteristic),
                               _star_bettis(0, own, top, field.characteristic)):
                    assert list(bettis)[:len(betti)] == betti


def _refusing_psi_sizes_above(top, mp):
    """Patches _StarIndex and _star_steps for one depth pass: its first
    index, psi's own, refuses every size above top for the star steps of
    nonempty faces, the one place where its refusal differs from an index
    of the link pair's own; the link pairs' own indexes after it do not
    refuse."""
    made = []
    star_index, star_steps = homology._StarIndex, homology._star_steps

    def index(*args):
        made.append(star_index(*args))
        return made[-1]

    def steps(face, index, last, p):
        for step in star_steps(face, index, last, p):
            # step i reads the stars of F up to |F| + i + 2 vertices
            if face and index is made[0] and face.bit_count() + step[0] + 2 > top:
                raise CapExceededError(f"face count exceeds the cap {FACE_CAP}")
            yield step

    mp.setattr(homology, "_StarIndex", index)
    mp.setattr(homology, "_star_steps", steps)


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
            _refusing_psi_sizes_above(top, mp)
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
            expected = [ranks.betti.get(i, 0) for i in range(-1, top + 1)]
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


@settings(derandomize=True, deadline=None, max_examples=150)
@given(pairs(6), st.integers(1, 3), st.sampled_from(THREE_FIELDS), st.data())
def test_free_variables_match_the_listed_pair_oracle(pair, extra, field, data):
    # generators that miss some variables leave them in every facet of
    # delta and gamma: the pass runs on the link pair at those cone
    # vertices and must give the depth, dim and witness of the oracle on
    # the whole pair, each free variable adding one to depth and dim
    n = pair.n + extra
    vertex = data.draw(st.permutations(range(n)))

    def spread(ideal):
        return minimalize((sum(1 << vertex[i] for i in range(pair.n) if g >> i & 1)
                           for g in ideal.generators), n)

    psi = relative_of_pair(IdealPair(spread(pair.lower), spread(pair.upper)))
    assume(not psi.is_empty)
    verdict = depth_verdict(psi, field)
    assert (verdict.depth, verdict.dim, verdict.witness_face, verdict.witness_dim) == (
        oracles.listed_pair_verdict(psi, field))
    narrow = depth_verdict(relative_of_pair(pair), field)
    assert (verdict.depth, verdict.dim) == (narrow.depth + extra, narrow.dim + extra)


# the two cases of the lemma in depth_verdict, each with G the empty face:
# G in gamma (J = (x2, x3)), and G outside a void gamma (the quotient)
LEMMA_G_IN_GAMMA = IdealPair(parse_ideal("x1*x3, x2*x3", 3), parse_ideal("x2, x3", 3))
LEMMA_G_OUTSIDE_GAMMA = IdealPair.quotient(parse_ideal("x1*x3, x2*x3", 3))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(pairs(7))
@example(LEMMA_G_IN_GAMMA)
@example(LEMMA_G_OUTSIDE_GAMMA)
def test_a_facet_of_psi_below_dim_never_sets_the_depth(pair):
    # every facet F of psi with |F| < dim has a proper face G whose listed
    # link pair has homology in some dimension i with |G| + 1 + i <= |F|,
    # so H_{-1} at F never lowers the minimum, and the pass, which stops
    # before the level where only H_{-1} counts, never reports i = -1
    psi = relative_of_pair(pair)
    assume(not psi.is_empty)
    dim = psi.dim + 1
    for field in FIELDS:
        for f in psi.facets:
            size = f.bit_count()
            if size >= dim:
                continue
            bounds = []
            g = f
            while g:
                g = (g - 1) & f
                i = oracles.first_nonzero(oracles.listed_homology(oracles.link_pair(psi, g), field))
                if i is not None:
                    bounds.append(g.bit_count() + 1 + i)
            assert min(bounds, default=size + 1) <= size
        assert depth_verdict(psi, field).witness_dim != -1


@pytest.mark.parametrize("pair", [LEMMA_G_IN_GAMMA, LEMMA_G_OUTSIDE_GAMMA])
@pytest.mark.parametrize("field", FIELDS)
def test_the_lemma_cases_have_their_witness_at_the_empty_face(pair, field):
    # facet {x3} of psi has |F| = 1 < dim 2; H_0 at the empty face sets
    # depth 1 first, and the listed oracle, which also visits size 1, agrees
    psi = relative_of_pair(pair)
    verdict = depth_verdict(psi, field)
    assert (verdict.depth, verdict.dim, verdict.witness_face, verdict.witness_dim) == (1, 2, 0, 0)
    assert oracles.listed_pair_verdict(psi, field) == (1, 2, 0, 0)


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
    """The column with these (row, sign) entries as a positional boundary
    table holds it (see _StarIndex.columns), entry t with sign (-1)^t: the
    row `absent`, which no rows bitset holds, goes in front of each entry
    whose sign must flip."""
    column = []
    for r, s in entries:
        if s != (-1) ** len(column):
            column.append(absent)
        column.append(r)
    return tuple(column)


def _tables(table, absent):
    """A positional boundary table, whose row `absent` no rows bitset holds,
    in both containers of _StarIndex.columns: as it is, and as the bitsets
    of each column's rows and of those at odd t, the -1 entries."""
    entries = [sum(1 << r for r in set(column) - {absent}) for column in table]
    minus = [sum(1 << r for r in set(column[1::2]) - {absent}) for column in table]
    return [(table, None), (entries, minus)]


def _both_tables(index, k):
    """The boundary table of size k of the index's pair in both containers:
    the index's own, bitsets on the small sizes of these tests, and that of
    a fresh index of the pair built with SMALL_LEVEL = 0, positional where
    size k - 1 has faces."""
    fresh = _StarIndex(index.delta, index.gamma, index.n)
    fresh.star([], k - 1)
    fresh.star([], k)
    with mock.patch("sqdepth.homology.SMALL_LEVEL", 0):
        flat = fresh.columns(k)
    own = index.columns(k)
    assert own[1] is not None and (flat[1] is None or not fresh.levels[k - 1].faces)
    return [own, flat]


def _signed_rank_cases(seed, count):
    """Random sparse columns of +-1 entries over up to 10 rows, in both
    containers, with a random star of columns and a random bitset of kept
    rows; each case is (tables, star, rows, dense matrix of the star's
    columns on the rows)."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        height, width = rng.randint(1, 10), rng.randint(1, 10)
        entries = [[(r, rng.choice((-1, 1))) for r in range(height) if rng.random() < 0.4]
                   for _ in range(width)]
        star, rows = rng.getrandbits(width), rng.getrandbits(height)
        kept = [r for r in range(height) if rows >> r & 1]
        chosen = [dict(entries[j]) for j in range(width) if star >> j & 1]
        cases.append((_tables([_positional(e, height) for e in entries], height), star, rows,
                      [[c.get(r, 0) for c in chosen] for r in kept]))
    return cases


def _torsion_tables(pair):
    """d_1 and d_2 of RP^2 or the mod-3 Moore space on all their vertices,
    edges and triangles, as oracle columns and in both containers, with
    the vertex and edge counts."""
    triangles = relative_of_pair(pair).delta.facets
    edges = sorted({t ^ (1 << b) for t in triangles for b in range(pair.n) if t >> b & 1})
    vertices = [1 << b for b in range(pair.n)]
    d1 = oracles.boundary_columns(vertices, edges)
    d2 = oracles.boundary_columns(edges, triangles)
    tables = zip(_tables([_positional(c.items(), len(vertices)) for c in d1], len(vertices)),
                 _tables([_positional(c.items(), len(edges)) for c in d2], len(edges)))
    return d2, list(tables), len(vertices), len(edges)


@pytest.mark.parametrize("seed", range(4))
def test_signed_negatives_rank_matches_dense_elimination(seed):
    # the kept columns of the one exact kernel are a column basis of the
    # star's columns on the kept rows, over QQ (p = 0) and mod p, on both
    # table containers
    cases = _signed_rank_cases(seed, 150)
    # d_2 of RP^2 and of the mod-3 Moore space on all their edges, each
    # column twice: over QQ the eliminations meet pivots that are not +-1
    # (their ranks over QQ and mod 2 or 3 differ), and every second copy
    # must reduce to zero through them
    for pair, ranks in ((RP2, (10, 9, 10)), (MOORE3, (27, 27, 26))):
        d2, tables, _, edges = _torsion_tables(pair)
        dense = [[c.get(r, 0) for c in d2 + d2] for r in range(edges)]
        assert (oracles.fraction_rank(dense), oracles.mod_p_rank(dense, 2),
                oracles.mod_p_rank(dense, 3)) == ranks
        twice = [(entries + entries, None if minus is None else minus + minus)
                 for _, (entries, minus) in tables]
        cases.append((twice, (1 << 2 * len(d2)) - 1, (1 << edges) - 1, dense))
    for tables, star, rows, dense in cases:
        assert [t[1] is None for t in tables] == [True, False]
        for columns in tables:
            assert (_signed_negatives(columns, star, rows, 0).bit_count()
                    == oracles.fraction_rank(dense))
            for p in (3, (1 << 31) - 1):
                assert _signed_negatives(columns, star, rows, p).bit_count() == (
                    oracles.mod_p_rank(dense, p))


def test_certificate_declines_where_gf2_and_gf3_ranks_differ():
    # d_2 of the mod-3 Moore space on the edges outside a GF(2) column
    # basis of d_1: full row rank over GF(2) (b_1 = 0 there), one less over
    # GF(3) (b_1 = 1), so no GF(2) column basis of d_2 can stand for one
    # over an odd prime; in both table containers
    _, tables, vertices, edges = _torsion_tables(MOORE3)
    for d1, d2 in tables:
        rows = ((1 << edges) - 1) & ~_gf2_negatives(d1, (1 << edges) - 1, (1 << vertices) - 1)
        star = (1 << len(d2[0])) - 1
        assert _gf2_negatives(d2, star, rows).bit_count() == rows.bit_count()
        assert _signed_negatives(d2, star, rows, 3).bit_count() == rows.bit_count() - 1


def _dense(columns, chosen, rows):
    """The columns in `chosen` restricted to `rows` (both bitsets of
    positions) of a boundary table in either container as a dense matrix,
    row by row, entry t of a positional column with sign (-1)^t."""
    entries, minus = columns
    kept = [r for r in range(rows.bit_length()) if rows >> r & 1]
    picked = []
    for j in range(chosen.bit_length()):
        if chosen >> j & 1:
            column = {}
            if minus is None:
                for t, r in enumerate(entries[j]):
                    column[r] = column.get(r, 0) + (-1) ** t
            else:
                assert minus[j] & ~entries[j] == 0
                for r in range(entries[j].bit_length()):
                    if entries[j] >> r & 1:
                        column[r] = -1 if minus[j] >> r & 1 else 1
            picked.append(column)
    return [[c.get(r, 0) for c in picked] for r in kept]


def _assert_unit_basis(columns, star, rows):
    """A unit-signed result is None, or a bitset of columns in `star` whose
    count is the rank of the star's columns on the rows over QQ, GF(2),
    GF(3) and GF(2^31 - 1), and which alone have that rank over each."""
    unit = _unit_negatives(columns, star, rows)
    if unit is None:
        return False
    assert unit & ~star == 0
    whole, chosen = _dense(columns, star, rows), _dense(columns, unit, rows)
    wanted = unit.bit_count()
    assert oracles.fraction_rank(whole) == oracles.fraction_rank(chosen) == wanted
    for p in (2, 3, (1 << 31) - 1):
        assert oracles.mod_p_rank(whole, p) == oracles.mod_p_rank(chosen, p) == wanted
    return True


@settings(derandomize=True, deadline=None)
@given(pairs(8), st.randoms(use_true_random=False))
@example(RP2, random.Random(0))
@example(MOORE3, random.Random(0))
def test_unit_signed_ranks_are_bases_over_every_field(pair, rng):
    # on the stars of psi's index, in both table containers, with rows that
    # are all faces one size down or a random part of them, and all faces
    # of the size or a random part of them: whenever every step of the unit
    # kernel keeps its entries in {0, +-1}, its kept columns are a column
    # basis over every field
    psi = relative_of_pair(pair)
    assume(not psi.is_empty)
    index = _index(psi)
    for k in range(1, psi.dim + 2):
        star, below = index.star([], k), index.star([], k - 1)
        tables = _both_tables(index, k)
        for rows in (below, below & rng.getrandbits(max(below.bit_length(), 1))):
            for chosen in (star, star & rng.getrandbits(max(star.bit_length(), 1))):
                assert _dense(tables[0], chosen, rows) == _dense(tables[1], chosen, rows)
                held = [_assert_unit_basis(columns, chosen, rows) for columns in tables]
                assert held[0] == held[1]


@pytest.mark.parametrize("seed", range(4))
def test_unit_signed_ranks_on_random_columns(seed):
    # the same on random sparse +-1 columns, where it must settle some
    # stars, the same ones in both containers
    settled = 0
    for tables, star, rows, dense in _signed_rank_cases(seed, 300):
        held = []
        for columns in tables:
            assert _dense(columns, star, rows) == dense
            held.append(_assert_unit_basis(columns, star, rows))
        assert held[0] == held[1]
        settled += held[0]
    assert settled


@pytest.mark.parametrize("pair", [RP2, MOORE3])
def test_unit_kernel_overflows_on_torsion(pair):
    # d_2 of RP^2 (H_1 = Z/2) and of the mod-3 Moore space (H_1 = Z/3), on
    # all edges and on the edges outside a GF(2) column basis of d_1, in
    # both table containers: its rank over QQ differs from its rank over
    # GF(2) or GF(3) on both, and a unit-signed result has one rank over
    # every field, so it must be None
    _, tables, vertices, edges = _torsion_tables(pair)
    every = (1 << edges) - 1
    for d1, d2 in tables:
        star = (1 << len(d2[0])) - 1
        for rows in (every, every & ~_gf2_negatives(d1, every, (1 << vertices) - 1)):
            dense = _dense(d2, star, rows)
            assert oracles.fraction_rank(dense) != min(oracles.mod_p_rank(dense, p) for p in (2, 3))
            assert _unit_negatives(d2, star, rows) is None


@settings(derandomize=True, deadline=None)
@given(pairs(8), st.sampled_from(THREE_FIELDS))
def test_compressed_ranks_match_the_uncompressed_oracle(pair, field):
    # relative_homology ranks the pair on the star masks of its own index,
    # with the negative rows of each map dropped from the next: face
    # counts, boundary ranks and Betti numbers are those of the listed
    # pair with every map ranked whole; truncated at top, the search from
    # its empty face finds the oracle's first homology up to top
    psi = relative_of_pair(pair)
    assume(not psi.is_empty)
    assert relative_homology(psi, field) == oracles.listed_homology(psi, field)
    for top in range(-1, psi.dim + 1):
        expected = oracles.first_nonzero(oracles.listed_homology(psi, field, top))
        assert _first_homology(0, _index(psi), field, top) == expected


@settings(derandomize=True, deadline=None, max_examples=150)
@given(pairs(8), st.booleans(), st.sampled_from((1, 2, 3, 5, 7, 1 << 16)))
@example(IdealPair(parse_ideal("x1*x2", 2), parse_ideal("x1", 2)), False, 1)  # facet {2} in gamma
def test_level_classification_matches_the_per_face_oracle(pair, void_gamma, cells):
    # the level test in chunks of `cells` cells, small ones putting chunk
    # edges inside every level: its cone flags against the per-face test
    # from the link facets, and its gamma flags against membership in gamma;
    # psi's facets, which the depth pass reads on its last level, are the
    # faces with H_{-1} of the link pair nonzero
    psi = relative_of_pair(pair)
    if void_gamma:
        psi = RelativeComplex(psi.delta, SimplicialComplex.void(psi.n))
    assume(not psi.is_empty)
    facets = set(psi.facets)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "LEVEL_CELLS", cells)
        mp.setattr("sqdepth.ideals.SMALL_TABLE", -1)  # an index that lists and classifies its sizes
        for size in range(psi.dim + 2):
            level = sorted(_faces_of_size(map(face_vertices, psi.delta.facets), size, FACE_CAP))
            index = _index(psi)
            faces = np.array(level, dtype=index.dtype)
            skip, in_gamma = _classify_level(faces, index, True)
            facet_flags = [f in facets for f in level]
            expected = [oracles.classify_face(psi, f) for f in level]
            assert list(zip(skip.tolist(), facet_flags)) == expected
            assert in_gamma.tolist() == [psi.gamma.has_face(f) for f in level]
            for f, flag in zip(level, facet_flags):
                lk = oracles.link_pair(psi, f)
                h = 0 if lk.is_empty else relative_homology(lk).betti.get(-1, 0)
                assert flag == (h != 0)


@pytest.mark.parametrize("small_table", (True, False), ids=("tables", "listing"))
@pytest.mark.parametrize("cap", (100_000, 60, 25))
@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.sampled_from(range(2, 15)), st.sampled_from(RANDGEN_KINDS))
@example(0, 14, random_quotient_pair)
@example(0, 14, random_module_pair)
@example(0, 14, random_pair)
def test_index_levels_match_the_listed_oracle(small_table, cap, seed, n, kind):
    # on at most ideals.SMALL_TABLE vertices an index reads each size off
    # its subset tables: faces, vertex bitsets, delta face count and cone
    # visits are the face-by-face oracle's, with cone flags on every size,
    # and it refuses exactly the sizes with more delta faces than the cap
    # leaves after the pair faces it holds; so does an index that lists
    # and classifies its sizes, as it does on more vertices
    psi = relative_of_pair(kind(random.Random(seed), n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "FACE_CAP", cap)
        if not small_table:
            mp.setattr("sqdepth.ideals.SMALL_TABLE", -1)
        index = _index(psi)
        assert (index.tables is not None) == small_table
        index.keep(0, n + 3)  # cone flags on every size
        held = 0
        for k in range(n + 2):
            faces, bits, listed, visits = oracles.listed_level(
                psi.delta.facets, psi.gamma.facets, n, k)
            if listed > cap - held:
                with pytest.raises(CapExceededError, match=f"^face count exceeds the cap {cap}$"):
                    index.level(k)
                continue
            level = index.level(k)
            assert (level.faces, level.bits, level.listed, level.visits) == (
                faces, bits, listed, visits)
            held += len(faces)


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
