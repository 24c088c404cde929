"""Hypothesis properties on ideals drawn as lists of generator masks."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sqdepth import homology
from sqdepth.complexes import (
    RelativeComplex,
    SimplicialComplex,
    face_table,
    pair_faces,
    relative_of_pair,
)
from sqdepth.homology import (
    FACE_CAP,
    RATIONALS,
    CoefficientField,
    _boundary_columns,
    _classify_level,
    _link_pair_faces,
    _merge_edges,
    _ranks_from_faces,
    column_rank,
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

import oracles

FIELDS = (RATIONALS, CoefficientField(2))
THREE_FIELDS = (RATIONALS, CoefficientField(2), CoefficientField(3))


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


def _coned(psi):
    """The cone over psi from a new vertex n + 1, on delta and gamma alike
    (a void gamma stays void); its pair at the empty face is acyclic."""
    apex = 1 << psi.n
    def complex_(c):
        return SimplicialComplex(psi.n + 1, tuple(f | apex for f in c.facets))
    return RelativeComplex(complex_(psi.delta), complex_(psi.gamma))


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
        assert pair_faces(psi.delta.facets, psi.gamma.facets, max_size, FACE_CAP) == expected
        for limit in {*range(6), *range(max(count - 1, 0), count + 2)}:
            faces = pair_faces(psi.delta.facets, psi.gamma.facets, max_size, limit)
            assert faces == (None if count > limit else expected)


@settings(derandomize=True, deadline=None)
@given(pairs(8), st.sampled_from(FIELDS))
def test_link_pairs_read_from_psi_faces_match_the_oracle_links(pair, field):
    # depth_verdict lists psi's faces once, as the root, then reads the
    # link pair at each F, visited by size then mask, from the pair at F
    # minus its lowest vertex, or lists it from the link facets of F where
    # that pair is over the cap; with the root listed or not, up to
    # |F| + top + 2 vertices the pair must be the one built from the two
    # link complexes, with the same homology
    psi = relative_of_pair(pair)
    assume(not psi.is_empty)
    dim = psi.dim + 1
    root = pair_faces(psi.delta.facets, psi.gamma.facets, dim, FACE_CAP)
    for size in range(dim):
        read, unlisted = {0: (0, root)}, {0: (0, None)}
        for f in psi.delta.faces_of_size(size, FACE_CAP):
            lk = oracles.link_pair(psi, f)
            faces = _link_pair_faces(f, read, psi, dim)
            assert (not faces) == lk.is_empty
            assert _link_pair_faces(f, unlisted, psi, dim) == (None if f == 0 else faces)
            for top in range(-1, dim - size - 1):
                truncated = {d: hs for d, hs in faces.items() if d <= top + 1}
                assert truncated == _table_pair_faces(lk, top + 2)
                assert truncated == pair_faces(lk.delta.facets, lk.gamma.facets, top + 2, FACE_CAP)
                expected = relative_homology(lk, field, top)
                assert _ranks_from_faces(faces, field, top).betti == expected.betti


@settings(derandomize=True, deadline=None, max_examples=150)
@given(pairs(8), st.sampled_from(FIELDS))
@example(IdealPair.quotient(parse_ideal("x1*x2*x3", 3)), RATIONALS)  # root over the limit
def test_depth_pass_lists_link_pairs_from_facets_when_psi_is_too_large(pair, field):
    # on a cone over psi, whose empty face the pass skips, every listing of
    # a pair is capped at the largest link pair the pass can need; the root
    # and the pairs of skipped faces may then be over that limit, and their
    # children are listed from their own link facets: the verdict must not
    # depend on the path
    cone = _coned(relative_of_pair(pair))
    dim = cone.dim + 1
    limit = max((sum(map(len, _table_pair_faces(oracles.link_pair(cone, f), dim - size).values()))
                 for size in range(1, dim - 1)
                 for f in cone.delta.faces_of_size(size, FACE_CAP)
                 if not oracles.classify_face(cone, f)[0]), default=0)
    expected = depth_verdict(cone, field)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "pair_faces",
                   lambda delta, gamma, max_size, _: pair_faces(delta, gamma, max_size, limit))
        assert depth_verdict(cone, field) == expected


matrices = st.integers(1, 8).flatmap(
    lambda cols: st.lists(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
                          min_size=1, max_size=8))


@settings(derandomize=True, deadline=None)
@given(matrices)
def test_column_rank_matches_dense_elimination(mat):
    over_q = column_rank(oracles.columns(mat), 0)
    assert over_q == oracles.fraction_rank(mat)
    for p in (2, 3, (1 << 31) - 1):
        mod_p = column_rank(oracles.columns(mat), p)
        assert mod_p == oracles.mod_p_rank(mat, p)
        assert mod_p <= over_q


@settings(derandomize=True, deadline=None)
@given(pairs(8), st.sampled_from(THREE_FIELDS))
def test_compressed_ranks_match_the_uncompressed_oracle(pair, field):
    # dropping the negative rows of each map from the next keeps every
    # boundary rank, and the same ranks are computed as without it
    psi = relative_of_pair(pair)
    assume(not psi.is_empty)
    for top in (None, *range(-1, psi.dim + 1)):
        faces = pair_faces(psi.delta.facets, psi.gamma.facets,
                           psi.n if top is None else top + 2, FACE_CAP)
        assert _ranks_from_faces(faces, field, top) == oracles.uncompressed_ranks(faces, field, top)


@st.composite
def grounded_graphs(draw):
    """Edges on vertices 0..7 as two-bit masks, the vertices present as rows
    (the rest are ground), and the present vertices whose rows are dropped."""
    vertices = [1 << v for v in range(8)]
    present = sorted(draw(st.sets(st.sampled_from(vertices))))
    dropped = draw(st.sets(st.sampled_from(present))) if present else set()
    pairs_ = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
    edges = sorted({a | b for a, b in draw(st.lists(pairs_, max_size=16)) if a != b})
    return present, edges, dropped


@settings(derandomize=True, deadline=None)
@given(grounded_graphs())
def test_union_find_rank_matches_column_rank(graph):
    # d_1 with absent and dropped vertices as one ground node has the rank
    # of its matrix over every field, and the merging edges are independent
    present, edges, dropped = graph
    rows = [v for v in present if v not in dropped]
    merges = _merge_edges(present, edges, dropped)
    for p in (0, 2, 3):
        assert len(merges) == column_rank(_boundary_columns(rows, edges), p)
        assert len(merges) == column_rank(_boundary_columns(rows, merges), p)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(pairs(8), st.booleans(), st.sampled_from((1, 2, 3, 5, 7, 1 << 16)))
@example(IdealPair(parse_ideal("x1*x2", 2), parse_ideal("x1", 2)), False, 1)  # facet {2} in gamma
def test_level_classification_matches_the_per_face_oracle(pair, void_gamma, cells):
    # the cone test of one level in chunks of `cells` cells, small ones
    # putting chunk edges inside every level, against the per-face test
    # from the link facets; the facet flag is H_{-1} of the link pair
    psi = relative_of_pair(pair)
    if void_gamma:
        psi = RelativeComplex(psi.delta, SimplicialComplex.void(psi.n))
    assume(not psi.is_empty)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "LEVEL_CELLS", cells)
        for size in range(psi.dim + 2):
            level = psi.delta.faces_of_size(size, FACE_CAP)
            skip, facet_outside_gamma = _classify_level(level, psi.delta, psi.gamma)
            expected = [oracles.classify_face(psi, f) for f in level]
            assert list(zip(skip.tolist(), facet_outside_gamma.tolist())) == expected
            for f, flag in zip(level, facet_outside_gamma.tolist()):
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
