import random

import pytest

from sqdepth.macaulay import (
    binomial,
    binomial_ext,
    chu_vandermonde_check,
    cm_admissible,
    expand,
    macaulay_growth_bound,
)

import oracles
from oracles import pseudopower


class TestBinomial:
    def test_pascal_oracle(self):
        for a in range(0, 25):
            for b in range(-2, a + 3):
                assert binomial(a, b) == oracles.pascal_binomial(a, b)

    def test_spot_values(self):
        assert binomial(16, 4) == 1820
        assert binomial(10, 3) == 120

    def test_boundary_conventions(self):
        assert binomial(5, 0) == 1
        assert binomial(3, 5) == 0
        assert binomial(4, -1) == 0

    def test_negative_upper_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 1)

    def test_extended_negative_upper(self):
        # C(-8, 5) = -C(12, 5); C(a, 0) = 1 for every a
        assert binomial_ext(-8, 5) == -792
        assert binomial_ext(-1, 0) == 1
        assert binomial_ext(-3, 2) == 6


class TestExpand:
    def test_single_term(self):
        assert expand(10, 2).terms == ((5, 2),)

    def test_two_terms(self):
        assert expand(5, 2).terms == ((3, 2), (2, 1))

    def test_smallest(self):
        assert expand(1, 3).terms == ((3, 3),)

    def test_resummation_exhaustive(self):
        for k in range(1, 9):
            for ell in range(1, 20_001):
                assert expand(ell, k).value() == ell

    def test_resummation_large_random(self):
        rng = random.Random(5)
        for _ in range(10_000):
            ell = rng.randint(1, 1_000_000)
            k = rng.randint(1, 8)
            assert expand(ell, k).value() == ell

    def test_strict_descent(self):
        rng = random.Random(7)
        for _ in range(2000):
            e = expand(rng.randint(1, 100_000), rng.randint(1, 8))
            tops = [n_i for n_i, _ in e.terms]
            lows = [i for _, i in e.terms]
            assert tops == sorted(tops, reverse=True) and len(set(tops)) == len(tops)
            assert all(n_i >= i >= 1 for n_i, i in e.terms)
            assert lows == list(range(e.k, e.k - len(lows), -1))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            expand(0, 2)
        with pytest.raises(ValueError):
            expand(3, 0)


class TestPseudopower:
    """The lower-index shift that Macaulay's growth bound is held against."""

    def test_spot_values(self):
        assert pseudopower(10, 2) == 10   # C(5,3)
        assert pseudopower(5, 2) == 2     # C(3,3) + C(2,2)
        assert pseudopower(0, 3) == 0

    def test_monotone_in_ell(self):
        for k in range(1, 6):
            previous = 0
            for ell in range(1, 10_001):
                value = pseudopower(ell, k)
                assert value >= previous
                previous = value


class TestGrowthBound:
    def test_differs_from_pseudopower(self):
        # the both-index shift admits the constant O-sequence 1,1,1,...
        assert macaulay_growth_bound(1, 1) == 1
        assert pseudopower(1, 1) == 0

    def test_spot_values(self):
        assert macaulay_growth_bound(12, 1) == 78   # C(13,2)
        assert macaulay_growth_bound(5, 2) == 7     # C(4,3) + C(3,2)

    def test_values_by_expansion(self):
        rng = random.Random(11)
        from math import comb
        for _ in range(500):
            ell = rng.randint(1, 50_000)
            k = rng.randint(1, 8)
            e = expand(ell, k)
            assert macaulay_growth_bound(ell, k) == sum(
                comb(n_i + 1, i + 1) for n_i, i in e.terms
            )


class TestCmAdmissible:
    def test_duval_h_vector(self):
        ok, violation = cm_admissible((1, 12, 29, 0, 0), 16, 4)
        assert ok and violation is None

    def test_negative_entry(self):
        ok, violation = cm_admissible((1, 1, -1), 3, 2)
        assert not ok and violation == (1, 2)

    def test_simplex(self):
        ok, _ = cm_admissible((1, 0, 0, 0), 5, 3)
        assert ok

    def test_hypersurface_o_sequence(self):
        # quartic hypersurface in five variables: h = (1,1,1,1,0)
        ok, violation = cm_admissible((1, 1, 1, 1, 0), 5, 4)
        assert ok, violation

    def test_growth_violation(self):
        # h_1 = 1 cannot be followed by h_2 = 2
        ok, violation = cm_admissible((1, 1, 2), 10, 2)
        assert not ok and violation == (2, 1)

    def test_binomial_bound(self):
        # C(n-d+k-1, k) with n=16, d=4, k=2 is 78; 79 must fail
        ok, violation = cm_admissible((1, 12, 79, 0, 0), 16, 4)
        assert not ok and violation == (1, 2)


class TestCmComplexes:
    def test_certified_cm_h_vectors_are_admissible(self):
        # contrapositive of the h-vector bound theorem: whatever the
        # homology module certifies as Cohen-Macaulay must pass both checks
        import random

        from sqdepth.complexes import complex_of_ideal
        from sqdepth.homology import depth_verdict
        from sqdepth.complexes import f_vector
        from sqdepth.invariants import _transform_rows
        from sqdepth.randgen import random_proper_ideal

        rng = random.Random(53)
        certified = 0
        for _ in range(300):
            n = rng.randint(1, 6)
            c = complex_of_ideal(random_proper_ideal(rng, n))
            if c.dim < 0 or not depth_verdict(oracles.absolute(c)).is_cm:
                continue
            certified += 1
            faces = f_vector(c)
            h = _transform_rows(faces, len(faces) - 1)[-1]
            ok, violation = cm_admissible(h, n, c.dim + 1)
            assert ok, (n, c.facets, h, violation)
        assert certified > 50


class TestChuVandermonde:
    def test_spot_value(self):
        assert chu_vandermonde_check(16, 4, 2)
        from sqdepth.macaulay import binomial as b
        assert b(16 - 4 + 2 - 1, 2) == 78

    def test_k_zero(self):
        assert chu_vandermonde_check(9, 3, 0)

    def test_exhaustive_sweep(self):
        assert all(
            chu_vandermonde_check(n, d, k)
            for n in range(0, 31)
            for d in range(0, 13)
            for k in range(0, d + 1)
        )
