import random
from math import comb

import numpy as np
import pytest

from sqdepth.complexes import SimplicialComplex, f_vector, relative_of_pair
from sqdepth.errors import CapExceededError
from sqdepth.ideals import IdealPair, MonomialIdeal, parse_ideal
from sqdepth.homology import depth_verdict
from sqdepth.invariants import (
    AlphaVector,
    _first_negative,
    _transform_rows,
    alpha,
    first_recurrence_failure,
    hdepth_of_alpha,
)
from sqdepth.randgen import random_pair

import oracles
from oracles import (
    alpha_from_beta,
    dim_module_colon,
    random_alpha_counts,
    random_complete_intersection,
    skeleton,
)

# ---------------------------------------------------------------------------
# The 64 minimal generators of the 16-variable ideal of Duval, Goeckner,
# Klivans and Martin, shared across the invariants and acceptance tests.
# ---------------------------------------------------------------------------

DUVAL_TEXT = (
    "x13*x16, x12*x16, x11*x16, x10*x16, x9*x16, x8*x16, x6*x16, x3*x16, x1*x16, "
    "x13*x15, x12*x15, x11*x15, x10*x15, x9*x15, x8*x15, x3*x15, "
    "x13*x14, x12*x14, x11*x14, x10*x14, x9*x14, x8*x14, "
    "x10*x13, x9*x13, x8*x13, x6*x13, x3*x13, x1*x13, "
    "x10*x12, x9*x12, x8*x12, x3*x12, "
    "x10*x11, x9*x11, x8*x11, "
    "x6*x10, x3*x10, x1*x10, "
    "x3*x9, "
    "x5*x7, x3*x7, x2*x7, x1*x7, "
    "x5*x6, x2*x6, x1*x6, "
    "x4*x5, x3*x5, "
    "x1*x4, "
    "x4*x15*x16, x2*x15*x16, x2*x4*x15, "
    "x6*x7*x14, x1*x5*x14, "
    "x4*x12*x13, x2*x12*x13, x2*x4*x12, "
    "x6*x7*x11, x1*x5*x11, "
    "x4*x9*x10, x2*x9*x10, x2*x4*x9, "
    "x6*x7*x8, x1*x5*x8"
)


def duval_ideal():
    return parse_ideal(DUVAL_TEXT, 16)


SECTION3_LOWER = "x1*x4*x5, x4*x6, x2*x3*x6"
SECTION3_UPPER = "x1*x2, x1*x5, x1*x6, x2*x3, x2*x4, x4*x6"


def section3_pair():
    ctx = 6
    return IdealPair(parse_ideal(SECTION3_LOWER, ctx), parse_ideal(SECTION3_UPPER, ctx))


class TestAlpha:
    def test_duval_quotient(self):
        a = alpha(IdealPair.quotient(duval_ideal()))
        assert a.counts == (1, 16, 71, 98, 42) + (0,) * 12

    def test_duval_module(self):
        a = alpha(IdealPair.module(duval_ideal()))
        assert a.counts[:5] == (0, 0, 49, 462, 1778)
        from math import comb
        assert a.counts[5:] == tuple(comb(16, k) for k in range(5, 17))

    def test_two_vertex_pair(self):
        ctx = 2
        pair = IdealPair(parse_ideal("x1*x2", ctx), parse_ideal("x1, x2", ctx))
        assert alpha(pair).counts == (0, 2, 0)

    def test_matches_brute_force(self):
        rng = random.Random(71)
        for _ in range(60):
            n = rng.randint(2, 8)
            pair = random_pair(rng, n)
            expected = oracles.brute_alpha(
                oracles.ideal_gen_sets(pair.lower),
                oracles.ideal_gen_sets(pair.upper),
                n,
                unit_upper=pair.upper.is_unit,
            )
            assert alpha(pair).counts == expected

    def test_bounded_by_the_table_budget_alone(self):
        # n = 25 is beyond the enumeration cap of reports and the CLI
        a = alpha(IdealPair.quotient(MonomialIdeal(25, (1,))))
        assert a.counts == tuple(comb(24, k) for k in range(26))

    def test_free_variables_multiply_by_binomials(self):
        # x1*x2 uses 2 of 63 variables: the monomials outside (x1*x2) are
        # those of degree k minus the multiples of x1*x2
        a = alpha(IdealPair.quotient(parse_ideal("x1*x2", 63)))
        assert a.counts == tuple(comb(63, k) - comb(61, k - 2) if k >= 2 else comb(63, k)
                                 for k in range(64))

    def test_budget_bounds_the_variables_the_generators_use(self, monkeypatch):
        # the path x1*x2, ..., x31*x32 uses 32 of the 63 variables, so its
        # tables would span 2^32 masks, 4 of 2^26 words: refused before
        # numpy allocates them, with both variable counts named
        def no_allocation(*args, **kwargs):
            raise AssertionError("a table was allocated")

        path = ", ".join(f"x{v}*x{v + 1}" for v in range(1, 32))
        monkeypatch.setattr(np, "zeros", no_allocation)
        monkeypatch.setattr(np, "full", no_allocation)
        with pytest.raises(CapExceededError,
                           match="32 of the n=63 variables need about 2147483648 bytes"):
            alpha(IdealPair.quotient(parse_ideal(path, 63)))


class TestBeta:
    def test_duval_quotient_level_4(self):
        a = alpha(IdealPair.quotient(duval_ideal()))
        assert _transform_rows(a.counts, 4)[4] == (1, 12, 29, 0, 0)

    def test_duval_module_levels(self):
        a = alpha(IdealPair.module(duval_ideal()))
        rows = _transform_rows(a.counts, 10)
        assert rows[10][4] == -84
        assert rows[9] == (0, 0, 49, 119, 35, 693, 791, 1745, 3003, 5005)

    def test_matches_brute_transform(self):
        rng = random.Random(73)
        for _ in range(100):
            n = rng.randint(1, 10)
            counts = random_alpha_counts(rng, n)
            a = AlphaVector(n, counts)
            q = rng.randint(0, n)
            assert _transform_rows(a.counts, q)[q] == oracles.brute_transform(counts, q)


class TestInversion:
    def test_duval_pairing(self):
        assert alpha_from_beta((1, 12, 29, 0, 0), 4) == (1, 16, 71, 98, 42)

    def test_full_simplex(self):
        d = 5
        assert alpha_from_beta((1,) + (0,) * d, d) == tuple(comb(d, k) for k in range(d + 1))

    def test_round_trip_random(self):
        rng = random.Random(79)
        for _ in range(300):
            n = rng.randint(1, 12)
            counts = random_alpha_counts(rng, n)
            d = max(k for k, c in enumerate(counts) if c)
            recovered = alpha_from_beta(_transform_rows(counts, d)[d], d)
            assert recovered == counts[:d + 1]
            assert all(c == 0 for c in counts[d + 1:])


class TestHdepth:
    def test_duval_quotient(self):
        assert hdepth_of_alpha(alpha(IdealPair.quotient(duval_ideal()))) == 4

    def test_duval_module(self):
        assert hdepth_of_alpha(alpha(IdealPair.module(duval_ideal()))) == 9

    def test_section3(self):
        assert hdepth_of_alpha(alpha(section3_pair())) == 4

    def test_hdepth_degree_bounds(self):
        rng = random.Random(83)
        for _ in range(120):
            n = rng.randint(2, 8)
            pair = random_pair(rng, n)
            a = alpha(pair)
            assert a.min_degree <= hdepth_of_alpha(a) <= a.max_degree


class TestHVector:
    """The h-vector of a complex at level d is row d of the transform of
    its face counts, at d = dim + 1 by default."""

    def test_hollow_triangle(self):
        faces = f_vector(SimplicialComplex(3, (0b011, 0b101, 0b110)))
        assert _transform_rows(faces, len(faces) - 1)[-1] == (1, 1, 1)

    def test_full_simplex(self):
        faces = f_vector(SimplicialComplex.full_simplex(4))
        assert _transform_rows(faces, len(faces) - 1)[-1] == (1, 0, 0, 0, 0)

    def test_point_and_edge(self):
        faces = f_vector(SimplicialComplex(3, (0b001, 0b110)))
        assert _transform_rows(faces, len(faces) - 1)[-1] == (1, 1, -1)

    def test_two_paths_agree(self):
        # face-count path versus the alpha path through the ideal pair
        rng = random.Random(89)
        for _ in range(80):
            n = rng.randint(2, 7)
            pair = random_pair(rng, n)
            psi = relative_of_pair(pair)
            a = alpha(pair)
            d = a.max_degree
            assert _transform_rows(f_vector(psi), d)[d] == _transform_rows(a.counts, d)[d]

    def test_skeleton_identity(self):
        # beta at level dprime equals the h-vector of the skeleton
        rng = random.Random(97)
        for _ in range(60):
            n = rng.randint(2, 7)
            pair = random_pair(rng, n)
            psi = relative_of_pair(pair)
            a = alpha(pair)
            for dprime in range(a.max_degree + 1):
                got = _transform_rows(f_vector(skeleton(psi, dprime)), dprime)[dprime]
                assert _transform_rows(a.counts, dprime)[dprime] == got


class TestDim:
    def test_duval(self):
        assert alpha(IdealPair.quotient(duval_ideal())).max_degree == 4

    def test_two_vertex_pair(self):
        ctx = 2
        pair = IdealPair(parse_ideal("x1*x2", ctx), parse_ideal("x1, x2", ctx))
        assert alpha(pair).max_degree == 1
        assert dim_module_colon(pair) == 1

    def test_full_module(self):
        pair = IdealPair.quotient(MonomialIdeal.zero(4))
        assert alpha(pair).max_degree == 4

    def test_paths_agree(self):
        rng = random.Random(101)
        for _ in range(120):
            n = rng.randint(2, 8)
            pair = random_pair(rng, n)
            assert alpha(pair).max_degree == dim_module_colon(pair)


class TestRecurrences:
    def test_duval_levels(self):
        a = alpha(IdealPair.quotient(duval_ideal()))
        assert first_recurrence_failure(a) is None

    def test_full_simplex_alpha(self):
        from math import comb
        n = 6
        a = AlphaVector(n, tuple(comb(n, k) for k in range(n + 1)))
        assert first_recurrence_failure(a) is None

    def test_random_ideals(self):
        rng = random.Random(103)
        for _ in range(80):
            n = rng.randint(2, 8)
            pair = random_pair(rng, n)
            a = alpha(pair)
            assert first_recurrence_failure(a) is None


class TestCmTheorems:
    def test_cm_forces_equalities_and_module_gap(self):
        # on Cohen-Macaulay quotients: hdepth = dim = depth, and the ideal
        # viewed as a module gains at least one level of Hilbert depth
        rng = random.Random(107)
        for _ in range(40):
            n = rng.randint(2, 8)
            pair, m = random_complete_intersection(rng, n)
            a = alpha(pair)
            hd = hdepth_of_alpha(a)
            assert hd == a.max_degree == n - m
            if n <= 6:
                assert depth_verdict(relative_of_pair(pair)).depth == hd
            if pair.lower.is_proper:
                module_hd = hdepth_of_alpha(alpha(IdealPair.module(pair.lower)))
                assert module_hd >= hd + 1


class TestBetaTable:
    def test_rows_and_first_negative(self):
        # a report's beta table is the Pascal rows of levels min..max degree
        a = alpha(IdealPair.module(duval_ideal()))
        rows = _transform_rows(a.counts, a.max_degree)
        assert (a.min_degree, a.max_degree) == (2, 16)
        assert [len(row) for row in rows] == list(range(1, 18))
        assert _first_negative(rows[9]) is None
        assert _first_negative(rows[10]) == 4
