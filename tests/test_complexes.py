import random

import numpy as np
import pytest

from sqdepth.complexes import (
    RelativeComplex,
    SimplicialComplex,
    _faces_of_size,
    complex_of_colon,
    complex_of_ideal,
    f_vector,
    face_table,
    ideal_of_complex,
    pair_of_relative,
    relative_of_pair,
)
from sqdepth.homology import FACE_CAP
from sqdepth.ideals import IdealPair, MonomialIdeal, face_vertices, minimalize
from sqdepth.randgen import (
    random_module_pair,
    random_pair,
    random_proper_ideal,
    random_quotient_pair,
)

import oracles
from oracles import link, skeleton


def ideal(masks, n):
    return minimalize(masks, n)


class TestComplexOfIdeal:
    def test_hollow_triangle(self):
        c = complex_of_ideal(ideal([0b111], 3))
        assert c.facets == (0b011, 0b101, 0b110)

    def test_point_and_edge(self):
        # brute-forced over the 8 subsets: facets {1} and {2,3}
        c = complex_of_ideal(ideal([0b011, 0b101], 3))
        assert c.facets == (0b001, 0b110)

    def test_zero_ideal_full_simplex(self):
        assert complex_of_ideal(MonomialIdeal.zero(2)).facets == (0b11,)

    def test_unit_ideal_rejected(self):
        with pytest.raises(ValueError):
            complex_of_ideal(MonomialIdeal.unit(2))


class TestComplexOfColon:
    def test_hand_example(self):
        # (x1*x2*x3) : (x1) = (x2*x3) on 4 variables: the cone over the
        # two vertices 2 and 3 with the free vertices 1 and 4
        c = complex_of_colon(ideal([0b0111], 4), ideal([0b0001], 4))
        assert c.facets == (0b1011, 0b1101)

    def test_zero_ideal_full_simplex(self):
        assert complex_of_colon(MonomialIdeal.zero(3), ideal([0b001], 3)).facets == (0b111,)

    def test_unit_colon_is_void(self):
        # J inside I: the colon is the unit ideal
        assert complex_of_colon(ideal([0b01], 2), ideal([0b11], 2)).is_void
        assert complex_of_colon(MonomialIdeal.unit(2), ideal([0b10], 2)).is_void

    def test_ring_mismatch_and_zero_colon_rejected(self):
        with pytest.raises(ValueError, match="different rings"):
            complex_of_colon(ideal([0b1], 1), ideal([0b1], 2))
        with pytest.raises(ValueError, match="zero ideal"):
            complex_of_colon(ideal([0b1], 1), MonomialIdeal.zero(1))


class TestIdealOfComplex:
    def test_hollow_triangle_inverse(self):
        c = SimplicialComplex(3, (0b011, 0b101, 0b110))
        assert ideal_of_complex(c).generators == (0b111,)

    def test_minimal_non_faces(self):
        c = SimplicialComplex(3, (0b001, 0b110))
        assert ideal_of_complex(c).generators == (0b011, 0b101)

    def test_full_simplex_gives_zero(self):
        assert ideal_of_complex(SimplicialComplex.full_simplex(3)).is_zero

    def test_void_rejected(self):
        with pytest.raises(ValueError):
            ideal_of_complex(SimplicialComplex.void(2))

    def test_round_trip_exhaustive_small_n(self):
        # every proper squarefree ideal is an antichain of nonempty masks
        for n in (1, 2, 3):
            for masks in _antichains(n):
                i = ideal(masks, n)
                assert ideal_of_complex(complex_of_ideal(i)) == i

    def test_round_trip_exhaustive_n5(self):
        count = 0
        for masks in _antichains(5):
            i = ideal(masks, 5)
            assert ideal_of_complex(complex_of_ideal(i)) == i
            count += 1
        assert count == 7580  # Dedekind number 7581 minus the unit antichain

    def test_round_trip_random_n10(self):
        rng = random.Random(31)
        for _ in range(150):
            i = random_proper_ideal(rng, rng.randint(1, 10))
            assert ideal_of_complex(complex_of_ideal(i)) == i


def _antichains(n):
    """All antichains of nonempty subsets of [n]; these are exactly the
    proper (non-unit) squarefree ideals, with [] the zero ideal."""
    masks = list(range(1, 1 << n))
    out = [()]

    def compatible(m, chosen):
        return all(c & ~m != 0 and m & ~c != 0 for c in chosen)

    def rec(start, chosen):
        for i in range(start, len(masks)):
            m = masks[i]
            if compatible(m, chosen):
                chosen.append(m)
                out.append(tuple(chosen))
                rec(i + 1, chosen)
                chosen.pop()

    rec(0, [])
    return out


class TestFVector:
    def test_hollow_triangle(self):
        c = SimplicialComplex(3, (0b011, 0b101, 0b110))
        assert f_vector(c) == (1, 3, 3)

    def test_point_and_edge(self):
        c = SimplicialComplex(3, (0b001, 0b110))
        assert f_vector(c) == (1, 3, 1)

    def test_relative_two_vertices(self):
        pair = IdealPair(ideal([0b11], 2), ideal([0b01, 0b10], 2))
        psi = relative_of_pair(pair)
        assert f_vector(psi) == (0, 2)

    def test_empty_relative(self):
        c = SimplicialComplex(3, (0b011, 0b101, 0b110))
        assert f_vector(RelativeComplex(c, c)) == ()

    def test_void(self):
        assert f_vector(SimplicialComplex.void(3)) == ()

    def test_relative_matches_enumeration(self):
        rng = random.Random(41)
        for _ in range(80):
            n = rng.randint(2, 7)
            pair = random_pair(rng, n)
            psi = relative_of_pair(pair)
            lower = oracles.ideal_gen_sets(pair.lower)
            upper = oracles.ideal_gen_sets(pair.upper)
            counts = [0] * (n + 1)
            for s in oracles.subsets(n):
                in_upper = pair.upper.is_unit or oracles.member(upper, s)
                if in_upper and not oracles.member(lower, s):
                    counts[len(s)] += 1
            while counts and counts[-1] == 0:
                counts.pop()
            assert f_vector(psi) == tuple(counts)


class TestSkeleton:
    def test_tetrahedron_edges(self):
        c = SimplicialComplex.full_simplex(4)
        edges = skeleton(c, 2)
        assert len(edges.facets) == 6
        assert all(m.bit_count() == 2 for m in edges.facets)

    def test_identity_level(self):
        c = SimplicialComplex(3, (0b001, 0b110))
        assert skeleton(c, c.dim + 1) is c

    def test_truncated_mixed_facets(self):
        c = SimplicialComplex(3, (0b001, 0b110))
        assert skeleton(c, 1).facets == (0b001, 0b010, 0b100)

    def test_zero_level_is_empty_face_complex(self):
        c = SimplicialComplex(3, (0b011, 0b101, 0b110))
        assert skeleton(c, 0).facets == (0,)

    def test_composition(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(1, 7)
            c = complex_of_ideal(random_proper_ideal(rng, n))
            a = rng.randint(0, c.dim + 1)
            b = rng.randint(0, a)
            assert skeleton(skeleton(c, a), b) == skeleton(c, min(a, b))

    def test_out_of_range_rejected(self):
        c = SimplicialComplex(3, (0b001,))
        with pytest.raises(ValueError):
            skeleton(c, 5)


class TestFacesOfSize:
    def test_levels_match_enumeration(self):
        rng = random.Random(53)
        for _ in range(40):
            c = complex_of_ideal(random_proper_ideal(rng, rng.randint(1, 7)))
            faces = oracles.face_masks(c)
            for k in range(c.n + 1):
                expected = sorted(f for f in faces if f.bit_count() == k)
                listed = _faces_of_size(map(face_vertices, c.facets), k, len(faces))
                assert sorted(listed) == expected

    def test_listing_stops_past_the_limit(self):
        # the 10-vertex faces of a 20-simplex number C(20, 10) = 184756
        level = _faces_of_size([face_vertices((1 << 20) - 1)], 10, 100)
        assert len(level) == 101
        # facet by facet, at most limit + 1 from each, stopping once past it
        facets = [face_vertices(((1 << 8) - 1) << s) for s in range(13)]
        assert 100 < len(_faces_of_size(facets, 5, 100)) <= 201


class TestPairFaces:
    def test_full_40_simplex_is_over_the_cap(self):
        # 1 + 40 + 780 + 9880 + 91390 faces of at most 4 vertices pass the
        # cap, so listing stops at size 4, not after 2^40 subsets
        simplex = ((1 << 40) - 1,)
        assert oracles.pair_faces(simplex, (), 40, FACE_CAP) is None


class TestFaceTable:
    def test_popcount_masks_are_skeleta(self):
        # skeleton() lists facets; the masked face table must hold its faces
        rng = random.Random(73)
        for kind in (random_quotient_pair, random_module_pair, random_pair):
            for _ in range(25):
                n = rng.randint(2, 8)
                psi = relative_of_pair(kind(rng, n))
                table = oracles.unpack(face_table(psi), n)
                sizes = np.bitwise_count(np.arange(1 << n))
                counts = f_vector(psi)
                for dprime in range(psi.dim + 2):
                    skel = skeleton(psi, dprime)
                    masked = table & (sizes <= dprime)
                    assert set(np.flatnonzero(masked).tolist()) == oracles.face_masks(skel)
                    # so are the faces listed up to dprime vertices
                    assert oracles.face_masks(psi, dprime) == oracles.face_masks(skel)
                    # the skeleton's face counts are a prefix of those of psi
                    prefix = list(counts[:dprime + 1])
                    while prefix and prefix[-1] == 0:
                        prefix.pop()
                    assert f_vector(skel) == tuple(prefix)


class TestLink:
    def test_hollow_triangle_vertex(self):
        c = SimplicialComplex(3, (0b011, 0b101, 0b110))
        assert link(c, 0b001).facets == (0b010, 0b100)

    def test_empty_face_is_identity(self):
        c = SimplicialComplex(3, (0b001, 0b110))
        assert link(c, 0) == c

    def test_facet_link_is_empty_complex(self):
        c = SimplicialComplex.full_simplex(3)
        assert link(c, 0b011).facets == (0b100,)
        assert link(c, 0b111).facets == (0,)

    def test_non_face_rejected(self):
        c = SimplicialComplex(3, (0b011,))
        with pytest.raises(ValueError):
            link(c, 0b100)

    def test_face_count_matches_enumeration(self):
        # |faces of link(F)| equals |{G in Delta : F subset of G}|
        rng = random.Random(59)
        for _ in range(60):
            n = rng.randint(1, 7)
            c = complex_of_ideal(random_proper_ideal(rng, n))
            faces = sorted(oracles.face_masks(c))
            f = rng.choice(faces)
            lk = link(c, f)
            containing = sum(1 for g in faces if f & ~g == 0)
            assert len(oracles.face_masks(lk)) == containing


class TestSimplicialComplex:
    def test_negative_n_is_rejected(self):
        for facets in ((), (0,)):
            with pytest.raises(ValueError, match="^n=-1 is negative$"):
                SimplicialComplex(-1, facets)
        assert SimplicialComplex(0, ()).is_void
        assert SimplicialComplex(0, (0,)).dim == -1


class TestRelative:
    def test_nesting_enforced(self):
        delta = SimplicialComplex(3, (0b011,))
        gamma = SimplicialComplex(3, (0b100,))
        with pytest.raises(ValueError):
            RelativeComplex(delta, gamma)

    def test_pair_round_trip(self):
        rng = random.Random(61)
        for _ in range(60):
            n = rng.randint(2, 7)
            pair = random_pair(rng, n)
            assert pair_of_relative(relative_of_pair(pair)) == pair

    def test_relative_facets_are_maximal_members(self):
        rng = random.Random(67)
        for _ in range(60):
            n = rng.randint(2, 7)
            pair = random_pair(rng, n)
            lower = oracles.ideal_gen_sets(pair.lower)
            upper = oracles.ideal_gen_sets(pair.upper)
            members = {
                s for s in oracles.subsets(n)
                if (pair.upper.is_unit or oracles.member(upper, s))
                and not oracles.member(lower, s)
            }
            expected = oracles.brute_facets(members)
            got = {oracles.mask_to_set(m) for m in relative_of_pair(pair).facets}
            assert got == expected

    def test_dim_of_relative(self):
        pair = IdealPair(ideal([0b11], 2), ideal([0b01, 0b10], 2))
        assert relative_of_pair(pair).dim == 0
