import random
from math import comb

import numpy as np
import pytest

from sqdepth.complexes import SimplicialComplex, relative_of_pair
from sqdepth.errors import CapExceededError
from sqdepth.ideals import IdealPair, MonomialIdeal, parse_ideal
from sqdepth.invariants import (
    AlphaVector,
    alpha,
    alpha_from_beta,
    beta,
    beta_table,
    dim_module,
    first_recurrence_failure,
    h_vector,
    hdepth,
    hdepth_of_alpha,
)
from sqdepth.randgen import random_alpha_counts, random_pair

import oracles
from oracles import dim_module_colon, skeleton

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
        assert beta(a, 4).values == (1, 12, 29, 0, 0)

    def test_duval_module_levels(self):
        a = alpha(IdealPair.module(duval_ideal()))
        assert beta(a, 10).values[4] == -84
        assert beta(a, 9).values == (0, 0, 49, 119, 35, 693, 791, 1745, 3003, 5005)

    def test_matches_brute_transform(self):
        rng = random.Random(73)
        for _ in range(100):
            n = rng.randint(1, 10)
            counts = random_alpha_counts(rng, n)
            a = AlphaVector(n, counts)
            q = rng.randint(0, n)
            assert beta(a, q).values == oracles.brute_transform(counts, q)

    def test_level_bounds(self):
        a = AlphaVector(2, (1, 2, 1))
        with pytest.raises(ValueError):
            beta(a, 3)


class TestInversion:
    def test_duval_pairing(self):
        from sqdepth.invariants import BetaVector
        b = BetaVector(4, (1, 12, 29, 0, 0))
        assert alpha_from_beta(b, 4).counts == (1, 16, 71, 98, 42)

    def test_full_simplex(self):
        from math import comb
        from sqdepth.invariants import BetaVector
        d = 5
        b = BetaVector(d, (1,) + (0,) * d)
        assert alpha_from_beta(b, d).counts == tuple(comb(d, k) for k in range(d + 1))

    def test_round_trip_random(self):
        rng = random.Random(79)
        for _ in range(300):
            n = rng.randint(1, 12)
            counts = random_alpha_counts(rng, n)
            a = AlphaVector(n, counts)
            d = max(k for k, c in enumerate(counts) if c)
            recovered = alpha_from_beta(beta(a, d), d)
            assert recovered.counts == counts[:d + 1]
            assert all(c == 0 for c in counts[d + 1:])


class TestHdepth:
    def test_duval_quotient(self):
        assert hdepth(IdealPair.quotient(duval_ideal())) == 4

    def test_duval_module(self):
        assert hdepth(IdealPair.module(duval_ideal())) == 9

    def test_section3(self):
        assert hdepth(section3_pair()) == 4

    def test_hdepth_degree_bounds(self):
        rng = random.Random(83)
        for _ in range(120):
            n = rng.randint(2, 8)
            pair = random_pair(rng, n)
            a = alpha(pair)
            assert a.min_degree <= hdepth_of_alpha(a) <= a.max_degree


class TestHVector:
    def test_hollow_triangle(self):
        c = SimplicialComplex(3, (0b011, 0b101, 0b110))
        assert h_vector(c).values == (1, 1, 1)

    def test_full_simplex(self):
        c = SimplicialComplex.full_simplex(4)
        assert h_vector(c).values == (1, 0, 0, 0, 0)

    def test_point_and_edge(self):
        c = SimplicialComplex(3, (0b001, 0b110))
        assert h_vector(c).values == (1, 1, -1)

    def test_two_paths_agree(self):
        # face-count path versus the alpha path through the ideal pair
        rng = random.Random(89)
        for _ in range(80):
            n = rng.randint(2, 7)
            pair = random_pair(rng, n)
            psi = relative_of_pair(pair)
            a = alpha(pair)
            d = a.max_degree
            assert h_vector(psi, level=d).values == beta(a, d).values

    def test_skeleton_identity(self):
        # beta at level dprime equals the h-vector of the skeleton
        rng = random.Random(97)
        for _ in range(60):
            n = rng.randint(2, 7)
            pair = random_pair(rng, n)
            psi = relative_of_pair(pair)
            a = alpha(pair)
            for dprime in range(a.max_degree + 1):
                got = h_vector(skeleton(psi, dprime), level=dprime)
                assert beta(a, dprime).values == got.values


class TestDim:
    def test_duval(self):
        assert dim_module(IdealPair.quotient(duval_ideal())) == 4

    def test_two_vertex_pair(self):
        ctx = 2
        pair = IdealPair(parse_ideal("x1*x2", ctx), parse_ideal("x1, x2", ctx))
        assert dim_module(pair) == 1
        assert dim_module_colon(pair) == 1

    def test_full_module(self):
        pair = IdealPair.quotient(MonomialIdeal.zero(4))
        assert dim_module(pair) == 4

    def test_paths_agree(self):
        rng = random.Random(101)
        for _ in range(120):
            n = rng.randint(2, 8)
            pair = random_pair(rng, n)
            assert dim_module(pair) == dim_module_colon(pair)


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
        from sqdepth.homology import depth as homology_depth
        from sqdepth.randgen import random_complete_intersection

        rng = random.Random(107)
        for _ in range(40):
            n = rng.randint(2, 8)
            pair, m = random_complete_intersection(rng, n)
            hd = hdepth(pair)
            assert hd == dim_module(pair) == n - m
            if n <= 6:
                assert homology_depth(pair) == hd
            if pair.lower.is_proper:
                module_hd = hdepth(IdealPair.module(pair.lower))
                assert module_hd >= hd + 1


class TestBetaTable:
    def test_rows_and_first_negative(self):
        a = alpha(IdealPair.module(duval_ideal()))
        rows = beta_table(a, a.min_degree, a.max_degree)
        assert [r.level for r in rows] == list(range(2, 17))
        by_level = {r.level: r for r in rows}
        assert by_level[9].first_negative() is None
        assert by_level[10].first_negative() == 4

    def test_levels_out_of_order_are_refused(self):
        # each bound lies in 0..n, but an empty range of levels is no table
        a = alpha(IdealPair.module(duval_ideal()))
        with pytest.raises(ValueError, match="out of order"):
            beta_table(a, 3, 1)
        assert [r.level for r in beta_table(a, 3, 3)] == [3]
