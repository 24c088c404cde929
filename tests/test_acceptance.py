"""Acceptance suite: one test per criterion, each printing a verdict line.

All comparisons are exact integer equality; the only tolerances are the
stated wall-clock limits.  Run with `pytest -s tests/test_acceptance.py` to
see the per-criterion lines.
"""

import random
import time
from contextlib import contextmanager
from math import comb

from sqdepth.complexes import (
    RelativeComplex,
    SimplicialComplex,
    complex_of_ideal,
    f_vector,
    relative_of_pair,
)
from sqdepth.homology import depth_verdict
from sqdepth.ideals import IdealPair
from sqdepth.invariants import (
    _transform_rows,
    alpha,
    first_recurrence_failure,
    hdepth_of_alpha,
)
from sqdepth.macaulay import chu_vandermonde_check
from sqdepth.randgen import random_pair, random_quotient_pair

import oracles
from oracles import (
    alpha_from_beta,
    colon,
    dim_module_colon,
    random_alpha_counts,
    random_complete_intersection,
    relative_homology,
    skeleton,
)
from test_homology import assert_star_columns_compose_to_zero
from test_invariants import duval_ideal, section3_pair


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] {name}: FAIL")
        raise
    print(f"[criterion {number:2d}] {name}: PASS")


def test_criterion_1_duval_quotient():
    with criterion(1, "Duval quotient: alpha, beta^4, hdepth, dim, depth"):
        pair = IdealPair.quotient(duval_ideal())

        start = time.perf_counter()
        a = alpha(pair)
        b4 = _transform_rows(a.counts, 4)[4]
        hd = hdepth_of_alpha(a)
        fast_elapsed = time.perf_counter() - start

        assert a.counts == (1, 16, 71, 98, 42) + (0,) * 12
        assert b4 == (1, 12, 29, 0, 0)
        assert hd == 4
        assert a.max_degree == 4
        assert fast_elapsed < 5.0

        start = time.perf_counter()
        d = depth_verdict(relative_of_pair(pair)).depth
        depth_elapsed = time.perf_counter() - start
        assert d == 4
        assert depth_elapsed < 600.0


def test_criterion_2_duval_ideal():
    with criterion(2, "Duval ideal: alpha tail, beta levels, hdepth 9"):
        start = time.perf_counter()
        pair = IdealPair.module(duval_ideal())
        a = alpha(pair)
        assert a.counts[2] == 49
        assert a.counts[3] == 462
        assert a.counts[4] == 1778
        assert a.counts[5:] == tuple(comb(16, k) for k in range(5, 17))
        rows = _transform_rows(a.counts, 10)
        assert rows[10][4] == -84
        assert rows[9] == (0, 0, 49, 119, 35, 693, 791, 1745, 3003, 5005)
        assert hdepth_of_alpha(a) == 9
        assert time.perf_counter() - start < 5.0


def test_criterion_3_section3_example():
    with criterion(3, "six-variable relative example: hdepth, CM, dim, depth"):
        start = time.perf_counter()
        pair = section3_pair()
        assert hdepth_of_alpha(alpha(pair)) == 4
        psi = relative_of_pair(pair)
        assert depth_verdict(psi).is_cm
        assert psi.dim + 1 == 4
        assert depth_verdict(psi).depth == 4
        assert time.perf_counter() - start < 30.0


def test_criterion_4_hdepth_gap_on_duval():
    with criterion(4, "hdepth(I) >= hdepth(S/I) + 1 realized as 9 >= 5"):
        i = duval_ideal()
        quotient_hd = hdepth_of_alpha(alpha(IdealPair.quotient(i)))
        module_hd = hdepth_of_alpha(alpha(IdealPair.module(i)))
        assert quotient_hd == 4
        assert module_hd == 9
        assert module_hd >= quotient_hd + 1


def test_criterion_5_complete_intersections():
    with criterion(5, "50 disjoint-support ideals: hdepth = dim = depth = n - m"):
        rng = random.Random(2024)
        for _ in range(50):
            n = rng.randint(2, 10)
            pair, m = random_complete_intersection(rng, n)
            a = alpha(pair)
            assert hdepth_of_alpha(a) == n - m
            assert a.max_degree == n - m
            assert depth_verdict(relative_of_pair(pair)).depth == n - m


def test_criterion_6_transform_round_trip():
    with criterion(6, "1000 random alpha vectors: inversion is exact"):
        rng = random.Random(4096)
        for _ in range(1000):
            n = rng.randint(1, 12)
            counts = random_alpha_counts(rng, n)
            d = max(k for k, c in enumerate(counts) if c)
            recovered = alpha_from_beta(_transform_rows(counts, d)[d], d)
            assert recovered == counts[:d + 1]
            assert all(c == 0 for c in counts[d + 1:])


def test_criterion_7_chu_vandermonde_exhaustive():
    with criterion(7, "alternating-sum identity, exhaustive n <= 30, d <= 12"):
        for n in range(0, 31):
            for d in range(0, 13):
                for k in range(0, d + 1):
                    assert chu_vandermonde_check(n, d, k)


def test_criterion_8_identities_on_random_pairs():
    with criterion(8, "recurrences, bounds, skeleta, colon paths on 200 pairs n <= 8"):
        rng = random.Random(808)
        for index in range(200):
            n = rng.randint(2, 8)
            pair = (random_quotient_pair if index % 2 else random_pair)(rng, n)
            a = alpha(pair)

            assert first_recurrence_failure(a) is None

            hd = hdepth_of_alpha(a)
            assert a.min_degree <= hd <= a.max_degree

            psi = relative_of_pair(pair)
            for dprime in range(a.max_degree + 1):
                skel_h = _transform_rows(f_vector(skeleton(psi, dprime)), dprime)[dprime]
                assert _transform_rows(a.counts, dprime)[dprime] == skel_h

            assert dim_module_colon(pair) == a.max_degree
            colon_facets = complex_of_ideal(colon(pair.lower, pair.upper)).facets
            assert psi.facets == colon_facets


def test_criterion_9_depth_hdepth_dim_chain():
    with criterion(9, "depth <= hdepth <= dim <= n-1 on 100 instances n <= 6"):
        rng = random.Random(909)
        for _ in range(100):
            n = rng.randint(2, 6)
            pair = random_quotient_pair(rng, n)
            a = alpha(pair)
            depth = depth_verdict(relative_of_pair(pair)).depth
            assert depth <= hdepth_of_alpha(a) <= a.max_degree <= n - 1
        # the same chain without the n-1 bound for general modules J/I
        for _ in range(100):
            n = rng.randint(2, 6)
            pair = random_pair(rng, n)
            a = alpha(pair)
            depth = depth_verdict(relative_of_pair(pair)).depth
            assert depth <= hdepth_of_alpha(a) <= a.max_degree <= n


def test_criterion_10_homology_sanity():
    with criterion(10, "Betti ranks, boundary composition, Euler-Poincare"):
        hollow = SimplicialComplex(3, (0b011, 0b101, 0b110))
        assert relative_homology(oracles.absolute(hollow)).betti == {-1: 0, 0: 0, 1: 1}

        full = oracles.full_simplex(4)
        assert not any(relative_homology(oracles.absolute(full)).betti.values())

        two_points = SimplicialComplex(2, (0b01, 0b10))
        assert relative_homology(oracles.absolute(two_points)).betti == {-1: 0, 0: 1}

        for d in (2, 3, 4):
            simplex = oracles.full_simplex(d)
            pair = RelativeComplex(simplex, skeleton(simplex, d - 1))
            assert relative_homology(pair).betti == {d - 1: 1}

        test_complexes = [
            hollow, full, two_points,
            SimplicialComplex(3, (0b001, 0b110)),
            complex_of_ideal(duval_ideal()),
        ]
        for c in test_complexes:
            _assert_boundaries_compose_to_zero(c)
            ranks = relative_homology(oracles.absolute(c))
            fv = f_vector(c)
            euler_faces = sum((-1) ** i * fv[i + 1] for i in range(-1, c.dim + 1))
            euler_betti = sum((-1) ** i * b for i, b in ranks.betti.items())
            assert euler_faces == euler_betti
            # the same identity rearranged, valid once a vertex exists
            assert sum((-1) ** i * fv[i + 1] for i in range(0, c.dim + 1)) == \
                sum((-1) ** i * ranks.betti.get(i, 0) for i in range(0, c.dim + 1)) + 1


def _assert_boundaries_compose_to_zero(c):
    by_dim = oracles.pair_faces(c.facets, (), c.n, 100_000)
    dims = sorted(by_dim)
    for i in dims:
        if i - 1 not in by_dim or i + 1 not in by_dim:
            continue
        lower = oracles.boundary_columns(by_dim[i - 1], by_dim[i])
        upper = oracles.boundary_columns(by_dim[i], by_dim[i + 1])
        for column in upper:
            assert not oracles.compose(lower, column)
    assert_star_columns_compose_to_zero(c, by_dim)
