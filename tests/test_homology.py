import random
import tracemalloc
from itertools import combinations
from pathlib import Path
from unittest import mock

import pytest

from sqdepth import homology
from sqdepth.complexes import (
    RelativeComplex,
    SimplicialComplex,
    complex_of_ideal,
    f_vector,
    relative_of_pair,
)
from sqdepth.errors import CapExceededError
from sqdepth.homology import (
    RATIONALS,
    CoefficientField,
    _StarIndex,
    _first_homology,
    depth,
    depth_verdict,
    relative_homology,
)
from sqdepth.ideals import IdealPair, MonomialIdeal, _canonical_masks, minimalize, parse_ideal
from sqdepth.invariants import dim_module
from sqdepth.problems import parse_problem_file, parse_problem_text
from sqdepth.randgen import (
    random_module_pair,
    random_pair,
    random_proper_ideal,
    random_quotient_pair,
)
from sqdepth.reports import build_depth_document

import oracles
from oracles import skeleton

HOLLOW = SimplicialComplex(3, (0b011, 0b101, 0b110))
GF5 = CoefficientField(5)
FIELDS = (RATIONALS, CoefficientField(2), CoefficientField(3))


def _on(n, psi):
    """psi with the same facets on n vertices."""
    return RelativeComplex(SimplicialComplex(n, psi.delta.facets),
                           SimplicialComplex(n, psi.gamma.facets))


class TestRanks:
    def test_fraction_free_matches_fractions(self):
        rng = random.Random(7)
        for _ in range(120):
            rows = rng.randint(1, 8)
            cols = rng.randint(1, 8)
            mat = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
            assert oracles.column_rank(oracles.columns(mat), 0) == oracles.fraction_rank(mat)

    def test_mod_p_on_unimodular_examples(self):
        rng = random.Random(9)
        for _ in range(60):
            rows = rng.randint(1, 7)
            cols = rng.randint(1, 7)
            mat = [[rng.choice((-1, 0, 1)) for _ in range(cols)] for _ in range(rows)]
            over_q = oracles.fraction_rank(mat)
            assert oracles.column_rank(oracles.columns(mat), 32003) == over_q

    def test_mod_p_drop(self):
        assert oracles.column_rank(oracles.columns([[5]]), 5) == 0
        assert oracles.column_rank(oracles.columns([[5]]), 0) == 1

    @pytest.mark.parametrize("p", (2, 3, 32003, 2147483647))
    def test_matches_dense_oracles_over_qq_and_gf_p(self, p):
        # random, sparse and low-rank integer matrices with entries up to
        # p - 1 in absolute value, and ones with rows that agree mod p only
        rng = random.Random(p)

        def entry():
            return rng.randint(-(p - 1), p - 1) if rng.random() < 0.6 else 0

        for _ in range(150):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            kind = rng.randrange(3)
            if kind == 0:
                mat = [[entry() for _ in range(cols)] for _ in range(rows)]
            elif kind == 1:  # a product through k < min(rows, cols) dimensions
                k = rng.randint(1, max(1, min(rows, cols) - 1))
                a = [[entry() for _ in range(k)] for _ in range(rows)]
                b = [[entry() for _ in range(cols)] for _ in range(k)]
                mat = [[sum(x * y for x, y in zip(r, c)) for c in zip(*b)] for r in a]
            else:  # rows that agree mod p but not over QQ
                base = [[entry() for _ in range(cols)] for _ in range(rows)]
                mat = base + [[x + p * rng.randint(-2, 2) for x in rng.choice(base)]
                              for _ in range(rng.randint(1, 3))]
            assert oracles.column_rank(oracles.columns(mat), 0) == oracles.fraction_rank(mat)
            assert oracles.column_rank(oracles.columns(mat), p) == oracles.mod_p_rank(mat, p)


class TestReducedHomology:
    def test_hollow_triangle_is_circle(self):
        ranks = relative_homology(oracles.absolute(HOLLOW))
        assert ranks.betti == {-1: 0, 0: 0, 1: 1}

    def test_full_simplex_acyclic(self):
        ranks = relative_homology(oracles.absolute(SimplicialComplex.full_simplex(4)))
        assert not any(ranks.betti.values())

    def test_two_points(self):
        ranks = relative_homology(oracles.absolute(SimplicialComplex(2, (0b01, 0b10))))
        assert ranks.betti == {-1: 0, 0: 1}

    def test_empty_face_complex(self):
        ranks = relative_homology(oracles.absolute(SimplicialComplex(2, (0,))))
        assert ranks.betti == {-1: 1}

    def test_boundary_composition_vanishes(self):
        # on the listed oracle's columns, and on the boundary table of the
        # star index, which every rank reads
        rng = random.Random(13)
        for _ in range(40):
            c = complex_of_ideal(random_proper_ideal(rng, rng.randint(1, 6)))
            by_dim = oracles.pair_faces(c.facets, (), c.n, 100_000)
            dims = sorted(by_dim)
            for i in dims:
                if i - 1 not in by_dim or i + 1 not in by_dim:
                    continue
                d_i = oracles.boundary_columns(by_dim[i - 1], by_dim[i])
                d_next = oracles.boundary_columns(by_dim[i], by_dim[i + 1])
                assert all(not oracles.compose(d_i, col) for col in d_next)
            assert_star_columns_compose_to_zero(c, by_dim)

    def test_reduced_euler_poincare(self):
        rng = random.Random(17)
        for _ in range(60):
            c = complex_of_ideal(random_proper_ideal(rng, rng.randint(1, 7)))
            ranks = relative_homology(oracles.absolute(c))
            fv = f_vector(c)
            lhs = sum((-1) ** i * fv[i + 1] for i in range(-1, c.dim + 1))
            rhs = sum((-1) ** i * b for i, b in ranks.betti.items())
            assert lhs == rhs

    def test_field_can_matter_only_through_ranks(self):
        # over GF(5) and QQ the circle looks the same
        hollow = oracles.absolute(HOLLOW)
        assert relative_homology(hollow, GF5).betti == relative_homology(hollow).betti


def assert_star_columns_compose_to_zero(x, by_dim):
    """The star index of x, a complex or a pair, holds its faces as listed
    in by_dim; its boundary table, in either container (bitsets at
    homology.SMALL_LEVEL, positional tuples at SMALL_LEVEL = 0, both
    checked), read with signs and the facets in gamma dropped, is the
    oracle's boundary columns of the quotient complex, and each map
    composes to zero with the one below.  Returns the number of facets in
    gamma met in one container."""
    if isinstance(x, SimplicialComplex):
        x = oracles.absolute(x)
    counts = []
    for small in (homology.SMALL_LEVEL, 0):
        with mock.patch("sqdepth.homology.SMALL_LEVEL", small):
            counts.append(_assert_star_columns_compose_to_zero(x, by_dim, small))
    assert counts[0] == counts[1]
    return counts[0]


def _assert_star_columns_compose_to_zero(x, by_dim, small):
    index = _StarIndex(x.delta.facets, x.gamma.facets, x.n)
    sizes = range(x.delta.dim + 3)
    assert [index.star([], k).bit_count() for k in sizes] == [
        len(by_dim.get(k - 1, ())) for k in sizes]
    signed, absent = {}, 0
    for k in sizes[1:]:
        below, upper = index.levels[k - 1].faces, index.levels[k].faces
        position = {g: r for r, g in enumerate(below)}
        entries, minus = index.columns(k)
        assert (minus is None) == (len(below) > small)
        signed[k] = []
        for j, h in enumerate(upper):
            vertices = [v for v in range(x.n) if h >> v & 1]
            rows = []  # facet t's row, None for a facet in gamma
            for v in vertices:
                if h ^ 1 << v in position:
                    rows.append(position[h ^ 1 << v])
                else:
                    assert x.gamma.has_face(h ^ 1 << v)
                    rows.append(None)
                    absent += 1
            if minus is None:
                column = entries[j]
                assert column == tuple(len(below) if r is None else r for r in rows)
                signed[k].append({r: (-1) ** t for t, r in enumerate(column) if r < len(below)})
            else:
                assert entries[j] == sum(1 << r for r in rows if r is not None)
                assert minus[j] == sum(1 << r for r in rows[1::2] if r is not None)
                signed[k].append({r: -1 if minus[j] >> r & 1 else 1
                                  for r in range(len(below)) if entries[j] >> r & 1})
        assert signed[k] == oracles.boundary_columns(by_dim.get(k - 2, []), by_dim.get(k - 1, []))
        if k - 1 in signed:
            assert all(not oracles.compose(signed[k - 1], col) for col in signed[k])
    return absent


class TestRelativeHomology:
    def test_star_columns_with_facets_in_gamma_match_the_oracle(self):
        # a facet in gamma sits at the absent row of the boundary table,
        # which no star holds: read by position, the table must still be
        # the boundary of the quotient complex
        rng = random.Random(29)
        absent = 0
        for kind in (random_module_pair, random_pair):
            for _ in range(150):
                psi = relative_of_pair(kind(rng, rng.randint(2, 8)))
                by_dim = oracles.pair_faces(psi.delta.facets, psi.gamma.facets, psi.n, 100_000)
                absent += assert_star_columns_compose_to_zero(psi, by_dim)
        assert absent > 1000

    def test_identical_pair_has_no_chains(self):
        ranks = relative_homology(RelativeComplex(HOLLOW, HOLLOW))
        assert ranks.betti == {} and ranks.face_counts == {}

    def test_simplex_mod_boundary(self):
        for d in (2, 3, 4):
            delta = SimplicialComplex.full_simplex(d)
            psi = RelativeComplex(delta, skeleton(delta, d - 1))
            ranks = relative_homology(psi)
            assert ranks.betti == {d - 1: 1}

    def test_mod_empty_face_complex(self):
        # relative to {empty}: degree >= 1 agrees with reduced homology,
        # degree 0 picks up one extra rank (the missing augmentation)
        rng = random.Random(19)
        for _ in range(40):
            c = complex_of_ideal(random_proper_ideal(rng, rng.randint(1, 6)))
            if c.dim < 0:
                continue  # c is {empty}; the pair has no faces at all
            psi = RelativeComplex(c, SimplicialComplex(c.n, (0,)))
            rel = relative_homology(psi)
            red = relative_homology(oracles.absolute(c))
            for i in range(1, c.dim + 1):
                assert rel.betti.get(i, 0) == red.betti.get(i, 0)
            assert rel.betti.get(0, 0) == red.betti.get(0, 0) + 1

    def test_truncated_at_a_top_dimension(self):
        # the 3-sphere (boundary of the 4-simplex) modulo void: the search
        # truncated at top=1 builds only the sizes of at most three vertices
        # and finds no homology up to dimension 1; truncated at top=3 it
        # finds H_3, the one class of the untruncated homology
        psi = oracles.absolute(skeleton(SimplicialComplex.full_simplex(5), 4))
        index = _StarIndex(psi.delta.facets, psi.gamma.facets, psi.n)
        assert _first_homology(0, index, RATIONALS, 1) is None
        assert sorted(index.levels) == [0, 1, 2, 3]
        assert [len(index.levels[k].faces) for k in range(4)] == [1, 5, 10, 10]
        index = _StarIndex(psi.delta.facets, psi.gamma.facets, psi.n)
        assert _first_homology(0, index, RATIONALS, 3) == 3
        assert relative_homology(psi).betti == {-1: 0, 0: 0, 1: 0, 2: 0, 3: 1}

    def test_truncation_stops_at_the_first_homology(self):
        # a point beside a filled triangle: H_0 is found first, so the
        # triangle's size is never built and its boundary map never ranked
        psi = oracles.absolute(SimplicialComplex(4, (0b0001, 0b1110)))
        index = _StarIndex(psi.delta.facets, psi.gamma.facets, psi.n)
        assert _first_homology(0, index, RATIONALS, 2) == 0
        assert 3 not in index.levels
        assert 2 in relative_homology(psi).boundary_ranks


class TestReisner:
    def test_hollow_triangle_is_cm(self):
        assert depth_verdict(oracles.absolute(HOLLOW)).is_cm

    def test_disconnected_witness(self):
        verdict = depth_verdict(oracles.absolute(SimplicialComplex(3, (0b001, 0b110))))
        assert not verdict.is_cm
        assert verdict.witness_face == 0 and verdict.witness_dim == 0

    def test_duval_complex_is_cm(self):
        from test_invariants import duval_ideal
        assert depth_verdict(oracles.absolute(complex_of_ideal(duval_ideal()))).is_cm

    def test_relative_section3(self):
        from test_invariants import section3_pair
        psi = relative_of_pair(section3_pair())
        assert depth_verdict(psi).is_cm
        assert psi.dim + 1 == 4

    def test_relative_single_face_module(self):
        delta = SimplicialComplex.full_simplex(3)
        psi = RelativeComplex(delta, skeleton(delta, 2))
        assert depth_verdict(psi).is_cm

    def test_relative_two_vertices(self):
        ctx = 2
        pair = IdealPair(parse_ideal("x1*x2", ctx), parse_ideal("x1, x2", ctx))
        assert depth_verdict(relative_of_pair(pair)).is_cm

    @pytest.mark.parametrize("delta", [SimplicialComplex.void(3), HOLLOW])
    def test_pair_without_faces_is_refused(self, delta):
        # psi = (delta, delta) has no faces: no cone vertices to AND, no dim
        psi = RelativeComplex(delta, delta)
        with pytest.raises(ValueError, match="^the relative complex has no faces to test$"):
            depth_verdict(psi)


def _spread(c, bits):
    """c on 70 vertices, vertex i moved to bit bits[i]."""
    return SimplicialComplex(70, _canonical_masks(
        sum(1 << bits[i] for i in range(c.n) if f >> i & 1) for f in c.facets))


class TestPastSixtyFourVertices:
    """Complexes on 70 vertices, whose star index holds vertex bitsets as
    Python ints, against their versions on five and six vertices."""

    BOWTIE = SimplicialComplex(5, (0b00111, 0b11100))  # {1,2,3} and {3,4,5}

    @pytest.mark.parametrize("field", (RATIONALS, CoefficientField(2)), ids=CoefficientField.label)
    def test_bowtie_depth_and_witness(self, field):
        wide = _spread(self.BOWTIE, (0, 13, 27, 41, 69))
        assert _StarIndex(wide.facets, (), wide.n).dtype is object
        small = depth_verdict(oracles.absolute(self.BOWTIE), field)
        verdict = depth_verdict(oracles.absolute(wide), field)
        # the link of the shared vertex 3 is two disjoint edges: H_0 != 0
        assert (small.depth, small.dim, small.witness_face, small.witness_dim) == (2, 3, 0b100, 0)
        assert (verdict.depth, verdict.dim, verdict.witness_face, verdict.witness_dim) == (
            2, 3, 1 << 27, 0)

    @pytest.mark.parametrize("field", (RATIONALS, CoefficientField(2)), ids=CoefficientField.label)
    def test_rp2_homology(self, field):
        rp2 = complex_of_ideal(parse_problem_file(TestTorsion.RP2).pair().lower)
        wide = _spread(rp2, (0, 13, 27, 41, 55, 69))
        assert _StarIndex(wide.facets, (), wide.n).dtype is object
        ranks = relative_homology(oracles.absolute(wide), field)
        assert ranks == relative_homology(oracles.absolute(rp2), field)
        # H_1 = H_2 = Z/2 over the integers: seen over GF(2) only
        expected = 1 if field.characteristic == 2 else 0
        assert ranks.betti == {-1: 0, 0: 0, 1: expected, 2: expected}


class TestDepth:
    def test_duval_quotient(self):
        from test_invariants import duval_ideal
        assert depth(IdealPair.quotient(duval_ideal())) == 4

    def test_disconnected_quotient(self):
        i = minimalize([0b011, 0b101], 3)
        assert depth(IdealPair.quotient(i)) == 1

    def test_section3(self):
        from test_invariants import section3_pair
        assert depth(section3_pair()) == 4

    def test_maximal_ideal_quotient(self):
        # S/(x1,..,xn) is a field: depth 0
        i = minimalize([0b01, 0b10], 2)
        assert depth(IdealPair.quotient(i)) == 0

    def test_matches_hochster_formula(self):
        rng = random.Random(29)
        kinds = (random_quotient_pair, random_module_pair, random_pair)
        for i in range(150):
            n = rng.randint(2, 6)
            pair = kinds[i % 3](rng, n)
            assert depth(pair) == oracles.hochster_depth(pair)

    def test_depth_at_most_dim_and_cm_equivalence(self):
        rng = random.Random(31)
        for _ in range(60):
            i = random_proper_ideal(rng, rng.randint(1, 6))
            pair = IdealPair.quotient(i)
            d = depth(pair)
            dim = dim_module(pair)
            assert d <= dim
            assert (d == dim) == depth_verdict(oracles.absolute(complex_of_ideal(i))).is_cm

    def test_skeleton_monotonicity(self):
        # once a skeleton is Cohen-Macaulay, every lower one is too, so the
        # per-level verdicts read True..True False..False
        rng = random.Random(37)
        for _ in range(50):
            c = complex_of_ideal(random_proper_ideal(rng, rng.randint(1, 6)))
            statuses = [
                depth_verdict(oracles.absolute(skeleton(c, dp))).is_cm for dp in range(c.dim + 2)
            ]
            assert statuses == sorted(statuses, reverse=True)

    def test_peeling_off_top_face(self):
        # deleting a top face F of the pair leaves an exact sequence whose
        # sub is a full-dimension summand: below the Cohen-Macaulay case the
        # depth is unchanged, and in it the rest can drop by at most one
        rng = random.Random(41)
        checked = 0
        while checked < 40:
            n = rng.randint(2, 6)
            pair = random_pair(rng, n)
            psi = relative_of_pair(pair)
            top_faces = [f for f in psi.delta.facets
                         if not psi.gamma.has_face(f)
                         and f.bit_count() - 1 == psi.dim]
            if not top_faces or len(oracles.face_masks(psi)) < 2:
                continue
            lower1 = minimalize(list(pair.lower.generators) + [top_faces[0]], n)
            if lower1 == pair.upper:
                continue
            checked += 1
            pair1 = IdealPair(lower1, pair.upper)
            full_dim = psi.dim + 1
            d = depth(pair)
            d1 = depth(pair1)
            if d < full_dim:
                assert d1 == d
            else:
                assert d1 >= full_dim - 1


class TestOnePassDepth:
    def test_matches_both_oracles_and_witnesses_hold(self):
        # the truncated one-pass depth against the skeleton scan it replaced
        # and against Hochster's formula on full link homology, and every
        # witness against the untruncated homology of its link pair
        rng = random.Random(43)
        kinds = (random_quotient_pair, random_module_pair, random_pair)
        for k in range(150):
            n = rng.randint(2, 7)
            pair = kinds[k % 3](rng, n)
            field = FIELDS[k // 3 % 3]
            psi = relative_of_pair(pair)
            verdict = depth_verdict(psi, field)
            assert verdict.depth == depth(pair, field)
            assert verdict.depth == oracles.skeleton_scan_depth(pair, field)
            assert verdict.depth == oracles.hochster_depth(pair, field)
            assert verdict.dim == dim_module(pair)
            if verdict.is_cm:
                assert (verdict.witness_face, verdict.witness_dim) == (None, None)
                continue
            f, i = verdict.witness_face, verdict.witness_dim
            assert f.bit_count() + 1 + i == verdict.depth
            ranks = relative_homology(oracles.link_pair(psi, f), field)
            assert ranks.betti.get(i, 0) != 0

    def test_witness_attains_the_minimum_not_the_first_reisner_failure(self):
        # found by seeded search: Reisner's first failing face is {} with
        # homology in dimension 5 (0 + 1 + 5 = 6), but the face {6,7} has
        # homology in dimension 2 and attains depth = 2 + 1 + 2 = 5
        ctx = 7
        pair = IdealPair.module(parse_ideal("x1*x5, x3*x5, x2*x4*x5, x1*x2*x3*x4*x6*x7", ctx))
        psi = relative_of_pair(pair)
        assert oracles.reisner_witness(psi) == (0, 5)
        verdict = depth_verdict(psi)
        assert (verdict.depth, verdict.dim) == (5, 7)
        assert (verdict.witness_face, verdict.witness_dim) == (0b1100000, 2)
        assert not verdict.is_cm
        doc = build_depth_document(pair, RATIONALS, {})
        assert doc["cm_witness"] == {"face": "{6,7}", "dimension": 2}


    def test_only_visited_delta_faces_are_listed(self):
        # delta is a 16-simplex plus an isolated vertex: H_0 of the pair at
        # the empty face gives depth 1 at once, so no other face of delta
        # (2^17 of them up to dim - 1 vertices) is listed or counted
        text = "n: 18\nJ: x1, x18\nI: " + ", ".join(f"x18*x{v}" for v in range(1, 18))
        pair = parse_problem_text(text).pair()
        verdict = depth_verdict(relative_of_pair(pair))
        assert (verdict.depth, verdict.dim) == (1, 17)
        assert (verdict.witness_face, verdict.witness_dim) == (0, 0)
        doc = build_depth_document(pair, RATIONALS, {})
        assert doc["depth"] == 1 and doc["cm_witness"] == {"face": "{}", "dimension": 0}

    def test_pair_of_the_empty_face_past_the_cap_answers_from_its_low_sizes(self):
        # delta is a 16-simplex plus an isolated vertex and gamma is void:
        # psi, the empty face's pair, has 2^17 + 1 faces, but H_0 needs only
        # its faces of at most two vertices, and gives depth 1 there
        text = "n: 18\nJ: unit\nI: " + ", ".join(f"x18*x{v}" for v in range(1, 18))
        pair = parse_problem_text(text).pair()
        for field in (RATIONALS, CoefficientField(2)):
            verdict = depth_verdict(relative_of_pair(pair), field)
            assert (verdict.depth, verdict.dim) == (1, 17)
            assert (verdict.witness_face, verdict.witness_dim) == (0, 0)
        doc = build_depth_document(pair, RATIONALS, {})
        assert doc["depth"] == 1 and doc["cm_witness"] == {"face": "{}", "dimension": 0}

    def test_pair_of_the_empty_face_past_the_cap_answers_over_odd_primes(self):
        # the same quotient over GF(p): b_0 of the empty face's pair is
        # ranked on star masks of sizes 0..2, so the pair, over the cap
        # whole, is never listed
        text = "n: 18\nJ: unit\nI: " + ", ".join(f"x18*x{v}" for v in range(1, 18))
        pair = parse_problem_text(text).pair()
        for p in (3, 32003):
            verdict = depth_verdict(relative_of_pair(pair), CoefficientField(p))
            assert (verdict.depth, verdict.dim) == (1, 17)
            assert (verdict.witness_face, verdict.witness_dim) == (0, 0)
            doc = build_depth_document(pair, CoefficientField(p), {})
            assert doc["depth"] == 1 and doc["cm_witness"] == {"face": "{}", "dimension": 0}


class TestTorsion:
    # RP^2 has H_1 = Z/2: GF(2) sees homology that QQ does not
    RP2 = Path(__file__).resolve().parent.parent / "corpus" / "rp2-qq.ideal"

    def _counted_verdict(self, monkeypatch, field, pair=None):
        # the verdict and the exact recounts over QQ (the signed kernel at
        # p = 0), each as the face, index and top of the star steps it
        # ranks in; the pass must build no index beside psi's own, that is,
        # no link pair's
        from sqdepth import homology

        calls, indexes, passes = [], [], []
        steps, negatives = homology._star_steps, homology._signed_negatives
        star_index = homology._StarIndex

        def counted_steps(face, index, top, p):
            passes.append((face, index, top))
            return steps(face, index, top, p)

        def counted_negatives(columns, star, rows, p):
            if p == 0:
                calls.append(passes[-1])
            return negatives(columns, star, rows, p)

        def counted_index(*args):
            indexes.append(star_index(*args))
            return indexes[-1]

        monkeypatch.setattr(homology, "_star_steps", counted_steps)
        monkeypatch.setattr(homology, "_signed_negatives", counted_negatives)
        monkeypatch.setattr(homology, "_StarIndex", counted_index)
        psi = relative_of_pair(pair or parse_problem_file(self.RP2).pair())
        verdict = depth_verdict(psi, field)
        assert len(indexes) == 1
        return verdict, calls

    def test_exact_recount_clears_gf2_homology_over_qq(self, monkeypatch):
        # at the empty face GF(2) finds H_1, so the pair is recounted over
        # QQ on the same star masks up to dimension 1, which reads the
        # triangles, and there H_1 vanishes: the golden depth 3
        # (Cohen-Macaulay) stands
        verdict, calls = self._counted_verdict(monkeypatch, RATIONALS)
        assert (verdict.depth, verdict.dim, verdict.is_cm) == (3, 3, True)
        assert len(calls) == 1
        face, index, top = calls[0]
        assert (face, top) == (0, 1)
        assert index.star([], 3).bit_count() == 10  # the ten triangles of RP^2

    def test_gf2_answer_needs_no_recount(self, monkeypatch):
        verdict, calls = self._counted_verdict(monkeypatch, CoefficientField(2))
        assert (verdict.depth, verdict.dim) == (2, 3)
        assert (verdict.witness_face, verdict.witness_dim) == (0, 1)
        assert calls == []

    def test_odd_prime_ranks_on_signed_star_columns(self, monkeypatch):
        # over GF(3) the 2-torsion of RP^2 is invisible: the signed star
        # kernel ranks every pair mod 3, none over QQ, and depth 3 = dim
        # stands
        verdict, calls = self._counted_verdict(monkeypatch, CoefficientField(3))
        assert (verdict.depth, verdict.dim, verdict.is_cm) == (3, 3, True)
        assert calls == []

    def test_odd_prime_torsion_found_on_signed_star_columns(self, monkeypatch):
        # a pseudo-projective plane with H_1 = Z/3: GF(2) sees nothing, but
        # over GF(3) the signed star kernel finds H_1 at the empty face
        # with no pass over QQ, so depth 2 < dim 3; over QQ GF(2) sees no
        # homology, so nothing is recounted
        pair = oracles.moore_space_mod_3()
        verdict, calls = self._counted_verdict(monkeypatch, CoefficientField(3), pair)
        assert (verdict.depth, verdict.dim) == (2, 3)
        assert (verdict.witness_face, verdict.witness_dim) == (0, 1)
        assert calls == []
        verdict, calls = self._counted_verdict(monkeypatch, RATIONALS, pair)
        assert (verdict.depth, verdict.dim, verdict.is_cm) == (3, 3, True)
        assert calls == []

    def test_signed_kernel_runs_only_where_unit_steps_overflow(self, monkeypatch):
        # over an odd prime every map from d_2 up goes to the unit kernel,
        # and to the signed one only when that returns None: on
        # seeded pairs, where unit steps settle every map, the signed kernel
        # never runs; on RP^2 and the mod-3 Moore space, whose torsion no
        # unit steps can rank, it runs right after each overflow
        from sqdepth import homology

        calls = []
        unit, negatives = homology._unit_negatives, homology._signed_negatives

        def counted_unit(columns, star, rows):
            result = unit(columns, star, rows)
            calls.append(("unit", star, rows, result is None))
            return result

        def counted_negatives(columns, star, rows, p):
            calls.append(("signed", star, rows, p))
            return negatives(columns, star, rows, p)

        monkeypatch.setattr(homology, "_unit_negatives", counted_unit)
        monkeypatch.setattr(homology, "_signed_negatives", counted_negatives)
        field = CoefficientField(32003)
        kinds = (random_quotient_pair, random_module_pair, random_pair)
        for small in (homology.SMALL_LEVEL, 0):  # bitset and positional tables
            monkeypatch.setattr(homology, "SMALL_LEVEL", small)
            calls.clear()
            rng = random.Random(27)
            for i in range(45):
                depth_verdict(relative_of_pair(kinds[i % 3](rng, rng.randint(4, 10))), field)
            assert calls and all(kind == "unit" and not overflow for kind, *_, overflow in calls)
            calls.clear()
            for pair in (parse_problem_file(self.RP2).pair(), oracles.moore_space_mod_3()):
                depth_verdict(relative_of_pair(pair), field)
            signed = [j for j, call in enumerate(calls) if call[0] == "signed"]
            assert signed
            for j in signed:
                assert calls[j - 1][:3] == ("unit", *calls[j][1:3]) and calls[j - 1][3]
                assert calls[j][3] == 32003

    def test_odd_primes_rank_only_d0_and_d1_by_xor(self, monkeypatch):
        # over an odd prime the XOR kernel, exact there only on the totally
        # unimodular d_0 and d_1, ranks those maps alone, and the unit
        # kernel every map from d_2 up.  A map is told by the boundary table
        # it is handed: the table of size k, read at a face F, is
        # d_{k - |F| - 1} of the link pair at F
        faces, tables, maps = [], [], {"xor": set(), "unit": set()}
        steps, columns = homology._star_steps, homology._StarIndex.columns

        def counted_steps(face, index, top, p):
            faces.append(face)
            return steps(face, index, top, p)

        def counted_columns(index, k):
            tables.append((columns(index, k), k))
            return tables[-1][0]

        def counted(kernel, name):
            def run(table, *args, **kwargs):
                k = next(k for t, k in tables if t is table)
                maps[name].add(k - faces[-1].bit_count() - 1)
                return kernel(table, *args, **kwargs)
            return run

        monkeypatch.setattr(homology, "_star_steps", counted_steps)
        monkeypatch.setattr(homology._StarIndex, "columns", counted_columns)
        monkeypatch.setattr(homology, "_gf2_negatives", counted(homology._gf2_negatives, "xor"))
        monkeypatch.setattr(homology, "_unit_negatives", counted(homology._unit_negatives, "unit"))
        rng = random.Random(35)
        kinds = (random_quotient_pair, random_module_pair, random_pair)
        pairs = [kinds[i % 3](rng, rng.randint(4, 10)) for i in range(30)]
        pairs += [parse_problem_file(self.RP2).pair(), oracles.moore_space_mod_3()]
        for p in (3, 32003):
            for pair in pairs:
                depth_verdict(relative_of_pair(pair), CoefficientField(p))
        assert maps["xor"] == {0, 1}
        assert maps["unit"] and min(maps["unit"]) == 2

    @pytest.mark.parametrize("pair, depths", [
        ("rp2", (3, 2, 3, 3)),  # H_1 = Z/2: GF(2) only
        ("moore3", (3, 3, 2, 3)),  # H_1 = Z/3: GF(3) only
    ])
    def test_depth_over_four_fields(self, pair, depths):
        # the unit and signed kernels must find the torsion that only GF(3)
        # sees, and the QQ recount must clear GF(2)'s
        pair = (parse_problem_file(self.RP2).pair() if pair == "rp2"
                else oracles.moore_space_mod_3())
        psi = relative_of_pair(pair)
        for p, expected in zip((0, 2, 3, 32003), depths):
            verdict = depth_verdict(psi, CoefficientField(p))
            assert (verdict.depth, verdict.dim) == (expected, 3)


class TestFaceCap:
    def test_listed_delta_faces_count(self, monkeypatch):
        # J/I = (0, x1*...*x6): delta is the 5-simplex and gamma its
        # boundary, so no vertex is in every facet; the pass stops below
        # size dim - 1 = 5, so it lists the 57 delta faces of 0..4 vertices,
        # whose link pairs have homology only in the dimension that gives 6
        from sqdepth import homology

        psi = relative_of_pair(IdealPair.module(parse_ideal("x1*x2*x3*x4*x5*x6", 6)))
        monkeypatch.setattr(homology, "FACE_CAP", 57)
        assert depth_verdict(psi).depth == 6
        monkeypatch.setattr(homology, "FACE_CAP", 56)
        with pytest.raises(CapExceededError, match="face count exceeds the cap 56"):
            depth_verdict(psi)

    def test_cone_vertices_list_no_faces(self, monkeypatch):
        # S over six variables: delta is the 5-simplex and gamma is void,
        # so all six vertices are cone vertices and the pass runs on the
        # link pair at the whole simplex, which has no face to visit: it
        # answers under any cap, with nothing listed
        from sqdepth import homology

        psi = relative_of_pair(IdealPair(MonomialIdeal.zero(6), MonomialIdeal.unit(6)))
        monkeypatch.setattr(homology, "FACE_CAP", 0)
        verdict = depth_verdict(psi)
        assert (verdict.depth, verdict.dim, verdict.witness_face) == (6, 6, None)

    def test_link_pair_faces_count(self, monkeypatch):
        # delta is a 4-simplex plus a point and gamma a 3-simplex: the pass
        # reads one link pair, at the empty face, which is psi itself (33 -
        # 16 = 17 faces); H_0 needs only psi's faces of at most two vertices,
        # none, {1} and {6}, and the four edges {1, v}.  Sizes 0 and 1 hold
        # 2 of them, and the 10 edges of delta are listed against what that
        # leaves, so 12 lets the size be indexed; under that psi's index
        # refuses the size at the empty face, which stops the pass
        from sqdepth import homology

        text = "n: 6\nJ: x1, x6\nI: " + ", ".join(f"x6*x{v}" for v in range(1, 6))
        psi = relative_of_pair(parse_problem_text(text).pair())
        monkeypatch.setattr(homology, "FACE_CAP", 12)
        assert depth_verdict(psi).depth == 1
        monkeypatch.setattr(homology, "FACE_CAP", 11)
        with pytest.raises(CapExceededError, match="face count exceeds the cap 11"):
            depth_verdict(psi)

    def test_only_link_pairs_count_when_psi_is_over_the_cap(self):
        # delta is a cone from vertex 1 over a 15-simplex plus the point 18,
        # 2^17 + 2 faces, more than the cap; vertex 1 is in every facet, so
        # the pass strips it and runs on the link pair at it, a 15-simplex
        # plus a point, and finds H_0 at that pair's empty face from its
        # faces of at most two vertices: depth 1 + 1, witnessed at {1}
        text = "n: 18\nJ: unit\nI: " + ", ".join(f"x{v}*x18" for v in range(2, 18))
        verdict = depth_verdict(relative_of_pair(parse_problem_text(text).pair()))
        assert (verdict.depth, verdict.dim) == (2, 17)
        assert (verdict.witness_face, verdict.witness_dim) == (0b1, 0)

    @staticmethod
    def _counted_indexes(monkeypatch) -> list:
        from sqdepth import homology

        built = []
        star_index = homology._StarIndex

        def index(*args):
            built.append(args)
            return star_index(*args)

        monkeypatch.setattr(homology, "_StarIndex", index)
        return built

    def test_a_refusal_at_a_nonempty_face_ranks_its_pair_on_an_index_of_its_own(self, monkeypatch):
        # delta is a cone from vertex 1 over the edges {2, 3} and {4, 5},
        # and gamma the edge {2, 3}: no vertex is in every facet, and both
        # links at the empty face are cones, so it is skipped.  Under a cap
        # of 9 psi's index holds the 8 pair faces of sizes 0..2 and refuses
        # size 3 (2 faces, 1 left), which H_0 of the link pair at {1}, two
        # disjoint edges, needs to rank d_1; that pair gets an index of its
        # own and gives depth 1 + 1 + 0.  Under the default cap one index
        # holds it all
        from sqdepth import homology

        built = self._counted_indexes(monkeypatch)
        text = "n: 5\nJ: x1, x4, x5\nI: x2*x4, x2*x5, x3*x4, x3*x5"
        psi = relative_of_pair(parse_problem_text(text).pair())
        for cap, indexes in ((9, 2), (100_000, 1)):
            monkeypatch.setattr(homology, "FACE_CAP", cap)
            for field in FIELDS:
                built.clear()
                verdict = depth_verdict(psi, field)
                assert (verdict.depth, verdict.dim) == (2, 3)
                assert (verdict.witness_face, verdict.witness_dim) == (0b1, 0)
                assert len(built) == indexes

    def test_a_refusal_at_a_nonempty_face_of_a_cm_module(self, monkeypatch):
        # J/I = (x1, x2)/(x2*x3*x4): delta has the facets {1,2,3}, {1,2,4}
        # and {1,3,4}, and gamma is the edge {3, 4}.  The empty face and
        # the vertices 2, 3 and 4 have cone links; under a cap of 8 psi's
        # index holds the 7 pair faces of sizes 0..2 and refuses size 3 (3
        # faces, 1 left), which the link pair at {1}, a hollow triangle,
        # needs to rank d_1.  That pair, acyclic up to H_0, gets an index of
        # its own, and the pass finds depth 3 = dim
        from sqdepth import homology

        built = self._counted_indexes(monkeypatch)
        psi = relative_of_pair(parse_problem_text("n: 4\nJ: x1, x2\nI: x2*x3*x4").pair())
        monkeypatch.setattr(homology, "FACE_CAP", 8)
        for field in FIELDS:
            built.clear()
            verdict = depth_verdict(psi, field)
            assert (verdict.depth, verdict.dim, verdict.witness_face) == (3, 3, None)
            assert len(built) == 2


class TestBoundedListing:
    def test_cycle_module_stops_at_the_cap_without_listing_delta(self):
        # J/I = (0, J) with J the edge ideal of the 24-cycle: delta is the
        # 23-simplex (2^24 faces), and the empty face's pair, psi itself,
        # has more than FACE_CAP faces; listing stops there, so the pass
        # holds a few cap-sized levels, not every face of delta
        gens = ", ".join(f"x{i}*x{i % 24 + 1}" for i in range(1, 25))
        psi = relative_of_pair(parse_problem_text(f"n: 24\nJ: {gens}\nI: zero").pair())
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match="^face count exceeds the cap 100000$"):
                depth_verdict(psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20

    def test_top_face_module_lists_no_gamma_faces(self, monkeypatch):
        # J/I = (0, x1*...*x16): delta is the 15-simplex and gamma its
        # boundary, so the pair is the one top face while gamma has 2^16 - 1
        # faces; every list stops past what is left of the cap, so the pass
        # reaches the cap error having built a few cap-sized lists, none of
        # them of gamma
        from sqdepth import complexes, homology

        built = 0

        def counted(vertices, k):
            nonlocal built
            for combo in combinations(vertices, k):
                built += 1
                yield combo

        monkeypatch.setattr(complexes, "combinations", counted)
        monkeypatch.setattr(homology, "FACE_CAP", 1000)
        text = "n: 16\nJ: " + "*".join(f"x{v}" for v in range(1, 17)) + "\nI: zero"
        with pytest.raises(CapExceededError, match="^face count exceeds the cap 1000$"):
            depth_verdict(relative_of_pair(parse_problem_text(text).pair()))
        assert built < 4 * 1000

    def test_a_refused_size_is_not_listed_again(self, monkeypatch):
        # J/I = (0, x1*...*x6) with its facets on 15 variables, past
        # ideals.SMALL_TABLE, where the index lists its sizes: delta is the
        # 5-simplex, with 20 faces of 3 vertices, and gamma its boundary, so
        # psi's index holds no face below size 6 and, under a cap of 19, 19
        # faces are left for size 3.  The size is refused when the star at
        # the empty face first reads it; read again, at a vertex or as a
        # level, it is refused without being listed, until more than 19
        # faces are left.  The depth pass reads it at the empty face, where
        # the refusal ends the pass
        from sqdepth import homology

        listed = []
        faces_of_size = homology._faces_of_size

        def counted(vertices, k, limit):
            listed.append(k)
            return faces_of_size(vertices, k, limit)

        monkeypatch.setattr(homology, "_faces_of_size", counted)
        monkeypatch.setattr(homology, "FACE_CAP", 19)
        psi = _on(15, relative_of_pair(IdealPair.module(parse_ideal("x1*x2*x3*x4*x5*x6", 6))))
        index = _StarIndex(psi.delta.facets, psi.gamma.facets, psi.n)
        for read in (lambda: index.star([], 3), lambda: index.star([0], 3),
                     lambda: index.level(3)):
            with pytest.raises(CapExceededError, match="^face count exceeds the cap 19$"):
                read()
        assert listed == [3]
        monkeypatch.setattr(homology, "FACE_CAP", 20)
        assert index.star([], 3) == 0  # every face of 3 vertices is in gamma
        assert listed == [3, 3]
        listed.clear()
        monkeypatch.setattr(homology, "FACE_CAP", 19)
        with pytest.raises(CapExceededError, match="^face count exceeds the cap 19$"):
            depth_verdict(psi)
        assert listed == [0, 1, 2, 3]

    def test_a_cone_vertex_answers_below_the_old_refusal(self, monkeypatch):
        # J/I = (0, x1*...*x6) on 7 variables: x7 is in every facet of
        # delta (the 6-simplex) and of gamma, so the pass runs on the link
        # pair at x7, the module above on six variables, and lists its 57
        # faces of 0..4 vertices, not the 120 faces of 0..5 vertices of the
        # 6-simplex; its depth and dim gain one for x7
        from sqdepth import homology

        text = "n: 7\nJ: " + "*".join(f"x{v}" for v in range(1, 7)) + "\nI: zero"
        psi = relative_of_pair(parse_problem_text(text).pair())
        monkeypatch.setattr(homology, "FACE_CAP", 57)
        verdict = depth_verdict(psi)
        assert (verdict.depth, verdict.dim, verdict.witness_face) == (7, 7, None)
        monkeypatch.setattr(homology, "FACE_CAP", 56)
        with pytest.raises(CapExceededError, match="^face count exceeds the cap 56$"):
            depth_verdict(psi)

    def test_a_refusal_at_the_empty_face_builds_no_second_index(self, monkeypatch):
        # J/I = (0, J) with J the edge ideal of the 8-cycle, its facets on 16
        # variables, where the index lists its sizes: delta is the
        # 7-simplex, and the pass reads the pair at the empty face, psi
        # itself, first.  Under a cap of 60, psi's index holds the 8 pair
        # faces of sizes 0..2 and refuses size 3 (56 delta faces, 52 left);
        # an index of psi's own pair would hold the same and refuse the
        # same size, so the pass stops with one index and one gamma
        # classification per held size
        from sqdepth import homology

        built, classified = [], []
        star_index, classify_level = homology._StarIndex, homology._classify_level

        def index(*args):
            built.append(args)
            return star_index(*args)

        def classify(level, *args):
            classified.append(len(level))
            return classify_level(level, *args)

        monkeypatch.setattr(homology, "_StarIndex", index)
        monkeypatch.setattr(homology, "_classify_level", classify)
        monkeypatch.setattr(homology, "FACE_CAP", 60)
        gens = ", ".join(f"x{i}*x{i % 8 + 1}" for i in range(1, 9))
        psi = _on(16, relative_of_pair(parse_problem_text(f"n: 8\nJ: {gens}\nI: zero").pair()))
        with pytest.raises(CapExceededError, match="^face count exceeds the cap 60$"):
            depth_verdict(psi)
        assert len(built) == 1
        assert classified == [1, 8, 28]

    def test_each_built_size_is_classified_once(self, monkeypatch):
        # RP^2 over QQ, its facets on 15 variables, where the index lists
        # its sizes: the pass visits sizes 0 and 1 (dim 3) and reads the
        # stars of sizes 0..3; each size the index builds gets its gamma
        # flags and its cone flags from one level test, once
        from sqdepth import homology

        classified = []
        classify_level = homology._classify_level

        def classify(faces, *args):
            classified.append(len(faces))
            return classify_level(faces, *args)

        monkeypatch.setattr(homology, "_classify_level", classify)
        psi = _on(15, relative_of_pair(parse_problem_file(TestTorsion.RP2).pair()))
        assert depth_verdict(psi).depth == 3
        assert classified == [1, 6, 15, 10]

    def test_an_index_on_few_vertices_reads_its_sizes_off_subset_tables(self, monkeypatch):
        # on at most ideals.SMALL_TABLE vertices the index neither lists nor
        # classifies a size, nor calls numpy, and it builds and refuses the
        # sizes that the listing index of the same facets on 15 variables
        # does, with the same message: the 5-simplex's boundary pair under
        # a cap of 19 refuses size 3, the 8-cycle module under a cap of 60
        # sizes 3 to 5, and RP^2 uncapped none, and each depth pass ends
        # the same way
        from sqdepth import homology

        gens = ", ".join(f"x{i}*x{i % 8 + 1}" for i in range(1, 9))
        cases = [
            (19, relative_of_pair(IdealPair.module(parse_ideal("x1*x2*x3*x4*x5*x6", 6))), [3]),
            (60, relative_of_pair(parse_problem_text(f"n: 8\nJ: {gens}\nI: zero").pair()),
             [3, 4, 5]),
            (homology.FACE_CAP, relative_of_pair(parse_problem_file(TestTorsion.RP2).pair()), []),
        ]

        def outcomes(psi, sizes):
            # each size as a level's contents or a refusal, then the pass
            found = []
            index = _StarIndex(psi.delta.facets, psi.gamma.facets, psi.n)
            index.keep(0, sizes + 1)  # cone flags on every size
            for k in range(sizes):
                try:
                    level = index.level(k)
                    bits = {v: b for v, b in enumerate(level.bits) if b}
                    found.append((level.faces, bits, level.listed, level.visits))
                except CapExceededError as e:
                    found.append(str(e))
            try:
                verdict = depth_verdict(psi)
                found.append((verdict.depth, verdict.witness_face, verdict.witness_dim))
            except CapExceededError as e:
                found.append(str(e))
            return found

        for cap, psi, refused in cases:
            monkeypatch.setattr(homology, "FACE_CAP", cap)
            listing = outcomes(_on(15, psi), psi.n + 2)
            message = f"face count exceeds the cap {cap}"
            assert [k for k, o in enumerate(listing[:-1]) if o == message] == refused
            with monkeypatch.context() as spied:
                for name in ("_faces_of_size", "_classify_level", "np"):
                    spied.setattr(homology, name, None)  # a call or a lookup fails
                assert outcomes(psi, psi.n + 2) == listing


class TestCoefficientField:
    def test_prime_validation(self):
        with pytest.raises(ValueError):
            CoefficientField(6)
        CoefficientField(32003)

    def test_rejects_primes_beyond_int64_safe_range(self):
        # the bound keeps trial division short; p >= 2^31 is rejected first
        with pytest.raises(ValueError, match="2\\^31"):
            CoefficientField(4294967311)
        with pytest.raises(ValueError, match="2\\^31"):
            CoefficientField(2**61 - 1)  # prime; rejected before trial division
        CoefficientField(2147483647)  # 2^31 - 1, the largest accepted prime

    @pytest.mark.parametrize("characteristic", [32003.0, 3.0, False, True, "3", None])
    def test_rejects_a_characteristic_that_is_not_an_int(self, characteristic):
        # a float prime would pass the trial division and fail later inside
        # a kernel's modular inverse; a bool is refused, though it is an int
        with pytest.raises(ValueError, match="is not an int"):
            CoefficientField(characteristic)

    def test_labels(self):
        assert RATIONALS.label() == "QQ"
        assert CoefficientField(7).label() == "GF(7)"


class TestHomologySweep:
    def test_answers_over_a_sweep_of_complexes(self):
        # simplices are acyclic, boundaries of simplices are spheres, and k
        # points have k - 1 reduced classes in dimension 0; an answer does
        # not depend on what was computed before it
        sweep = [(SimplicialComplex.full_simplex(k), {}) for k in range(1, 9)]
        sweep += [(skeleton(SimplicialComplex.full_simplex(k), k - 1), {k - 2: 1})
                  for k in range(2, 10)]
        sweep += [(SimplicialComplex(k, tuple(1 << v for v in range(k))), {0: k - 1})
                  for k in range(2, 10)]
        for c, nonzero in sweep:
            betti = relative_homology(oracles.absolute(c)).betti
            assert {i: b for i, b in betti.items() if b} == nonzero
        last = relative_homology(oracles.absolute(sweep[-1][0]))
        assert last == relative_homology(oracles.absolute(sweep[-1][0]))
        assert not any(relative_homology(oracles.absolute(sweep[0][0])).betti.values())
        assert relative_homology(oracles.absolute(HOLLOW)).betti == {-1: 0, 0: 0, 1: 1}
