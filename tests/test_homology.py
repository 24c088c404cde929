import random

import pytest

from sqdepth.complexes import (
    RelativeComplex,
    SimplicialComplex,
    complex_of_ideal,
    f_vector,
    link,
    relative_of_pair,
    skeleton,
)
from sqdepth.homology import (
    RATIONALS,
    CoefficientField,
    _boundary_matrix,
    _faces_by_dim,
    depth,
    is_cm_relative,
    is_cohen_macaulay,
    rank_fraction_free,
    rank_mod_p,
    reduced_homology,
    relative_homology,
)
from sqdepth.ideals import IdealPair, MonomialIdeal, RingContext, parse_ideal
from sqdepth.invariants import dim_module
from sqdepth.randgen import (
    random_module_pair,
    random_pair,
    random_proper_ideal,
    random_quotient_pair,
)

import oracles

HOLLOW = SimplicialComplex(3, (0b011, 0b101, 0b110))
GF5 = CoefficientField(5)


def hochster_depth(pair):
    """Independent depth: min over faces F of |F| + 1 + (first nonvanishing
    homology dimension of the link pair at F).  No skeletons involved."""
    psi = relative_of_pair(pair)
    best = None
    for f in sorted(psi.delta.face_masks()):
        lk_delta = link(psi.delta, f)
        if psi.gamma.has_face(f):
            lk_gamma = link(psi.gamma, f)
        else:
            lk_gamma = SimplicialComplex.void(psi.n)
        lk = RelativeComplex(lk_delta, lk_gamma)
        if lk.is_empty:
            continue
        ranks = relative_homology(lk)
        for i in sorted(ranks.betti):
            if ranks.betti[i]:
                candidate = f.bit_count() + 1 + i
                if best is None or candidate < best:
                    best = candidate
                break
    return best


class TestRanks:
    def test_fraction_free_matches_fractions(self):
        rng = random.Random(7)
        for _ in range(120):
            rows = rng.randint(1, 8)
            cols = rng.randint(1, 8)
            mat = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
            assert rank_fraction_free(mat) == oracles.fraction_rank(mat)

    def test_mod_p_on_unimodular_examples(self):
        rng = random.Random(9)
        for _ in range(60):
            rows = rng.randint(1, 7)
            cols = rng.randint(1, 7)
            mat = [[rng.choice((-1, 0, 1)) for _ in range(cols)] for _ in range(rows)]
            over_q = oracles.fraction_rank(mat)
            assert rank_mod_p(mat, 32003) == over_q

    def test_mod_p_drop(self):
        assert rank_mod_p([[5]], 5) == 0
        assert rank_fraction_free([[5]]) == 1


class TestReducedHomology:
    def test_hollow_triangle_is_circle(self):
        ranks = reduced_homology(HOLLOW)
        assert ranks.betti == {-1: 0, 0: 0, 1: 1}

    def test_full_simplex_acyclic(self):
        ranks = reduced_homology(SimplicialComplex.full_simplex(4))
        assert ranks.is_acyclic

    def test_two_points(self):
        ranks = reduced_homology(SimplicialComplex(2, (0b01, 0b10)))
        assert ranks.betti == {-1: 0, 0: 1}

    def test_empty_face_complex(self):
        ranks = reduced_homology(SimplicialComplex(2, (0,)))
        assert ranks.betti == {-1: 1}

    def test_void_rejected(self):
        with pytest.raises(ValueError):
            reduced_homology(SimplicialComplex.void(2))

    def test_boundary_composition_vanishes(self):
        rng = random.Random(13)
        for _ in range(40):
            c = complex_of_ideal(random_proper_ideal(rng, rng.randint(1, 6)))
            by_dim = _faces_by_dim(c.face_masks(), 100_000)
            dims = sorted(by_dim)
            for i in dims:
                if i - 1 not in by_dim or i + 1 not in by_dim:
                    continue
                d_i = _boundary_matrix(by_dim[i - 1], by_dim[i])
                d_next = _boundary_matrix(by_dim[i], by_dim[i + 1])
                product = [
                    [sum(d_i[r][m] * d_next[m][c2] for m in range(len(d_next)))
                     for c2 in range(len(d_next[0]))]
                    for r in range(len(d_i))
                ]
                assert all(all(x == 0 for x in row) for row in product)

    def test_reduced_euler_poincare(self):
        rng = random.Random(17)
        for _ in range(60):
            c = complex_of_ideal(random_proper_ideal(rng, rng.randint(1, 7)))
            ranks = reduced_homology(c)
            fv = f_vector(c)
            lhs = sum((-1) ** i * fv.f(i) for i in range(-1, c.dim + 1))
            rhs = sum((-1) ** i * b for i, b in ranks.betti.items())
            assert lhs == rhs

    def test_field_can_matter_only_through_ranks(self):
        # over GF(5) and QQ the circle looks the same
        assert reduced_homology(HOLLOW, GF5).betti == reduced_homology(HOLLOW).betti


class TestRelativeHomology:
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
            red = reduced_homology(c)
            for i in range(1, c.dim + 1):
                assert rel.betti_number(i) == red.betti_number(i)
            assert rel.betti_number(0) == red.betti_number(0) + 1

    def test_mod_void_is_reduced(self):
        rng = random.Random(23)
        for _ in range(40):
            c = complex_of_ideal(random_proper_ideal(rng, rng.randint(1, 6)))
            psi = RelativeComplex(c, SimplicialComplex.void(c.n))
            assert relative_homology(psi).betti == reduced_homology(c).betti


class TestReisner:
    def test_hollow_triangle_is_cm(self):
        assert is_cohen_macaulay(HOLLOW).is_cm

    def test_disconnected_witness(self):
        verdict = is_cohen_macaulay(SimplicialComplex(3, (0b001, 0b110)))
        assert not verdict.is_cm
        assert verdict.witness_face == 0 and verdict.witness_dim == 0

    def test_duval_complex_is_cm(self):
        from test_invariants import duval_ideal
        assert is_cohen_macaulay(complex_of_ideal(duval_ideal())).is_cm

    def test_relative_section3(self):
        from test_invariants import section3_pair
        psi = relative_of_pair(section3_pair())
        assert is_cm_relative(psi).is_cm
        assert psi.dim + 1 == 4

    def test_relative_single_face_module(self):
        delta = SimplicialComplex.full_simplex(3)
        psi = RelativeComplex(delta, skeleton(delta, 2))
        assert is_cm_relative(psi).is_cm

    def test_relative_two_vertices(self):
        ctx = RingContext(2)
        pair = IdealPair(parse_ideal("x1*x2", ctx), parse_ideal("x1, x2", ctx))
        assert is_cm_relative(relative_of_pair(pair)).is_cm


class TestDepth:
    def test_duval_quotient(self):
        from test_invariants import duval_ideal
        assert depth(IdealPair.quotient(duval_ideal())) == 4

    def test_disconnected_quotient(self):
        i = MonomialIdeal.from_masks([0b011, 0b101], 3)
        assert depth(IdealPair.quotient(i)) == 1

    def test_section3(self):
        from test_invariants import section3_pair
        assert depth(section3_pair()) == 4

    def test_maximal_ideal_quotient(self):
        # S/(x1,..,xn) is a field: depth 0
        i = MonomialIdeal.from_masks([0b01, 0b10], 2)
        assert depth(IdealPair.quotient(i)) == 0

    def test_matches_hochster_formula(self):
        rng = random.Random(29)
        kinds = (random_quotient_pair, random_module_pair, random_pair)
        for i in range(150):
            n = rng.randint(2, 6)
            pair = kinds[i % 3](rng, n)
            assert depth(pair) == hochster_depth(pair)

    def test_depth_at_most_dim_and_cm_equivalence(self):
        rng = random.Random(31)
        for _ in range(60):
            i = random_proper_ideal(rng, rng.randint(1, 6))
            pair = IdealPair.quotient(i)
            d = depth(pair)
            dim = dim_module(pair)
            assert d <= dim
            assert (d == dim) == is_cohen_macaulay(complex_of_ideal(i)).is_cm

    def test_skeleton_monotonicity(self):
        # once a skeleton is Cohen-Macaulay, every lower one is too, so the
        # per-level verdicts read True..True False..False
        rng = random.Random(37)
        for _ in range(50):
            c = complex_of_ideal(random_proper_ideal(rng, rng.randint(1, 6)))
            statuses = [
                is_cohen_macaulay(skeleton(c, dp)).is_cm for dp in range(c.dim + 2)
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
            if not top_faces or len(psi.face_masks()) < 2:
                continue
            lower1 = MonomialIdeal.from_masks(
                [g.mask for g in pair.lower.generators] + [top_faces[0]], n)
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


class TestCoefficientField:
    def test_prime_validation(self):
        with pytest.raises(ValueError):
            CoefficientField(6)
        CoefficientField(32003)

    def test_rejects_primes_beyond_int64_safe_range(self):
        # rank_mod_p multiplies residues in int64; p >= 2^31 would overflow
        with pytest.raises(ValueError, match="2\\^31"):
            CoefficientField(4294967311)
        with pytest.raises(ValueError, match="2\\^31"):
            CoefficientField(2**61 - 1)  # prime; rejected before trial division
        CoefficientField(2147483647)  # 2^31 - 1, the largest accepted prime

    def test_labels(self):
        assert RATIONALS.label() == "QQ"
        assert CoefficientField(7).label() == "GF(7)"
