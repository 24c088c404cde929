import random
from functools import reduce
from operator import or_

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqdepth import ideals
from sqdepth.complexes import complex_of_colon, face_table, relative_of_pair
from sqdepth.errors import CapExceededError, InvalidPairError, ParseError
from sqdepth.homology import RATIONALS
from sqdepth.ideals import (
    IdealPair,
    MonomialIdeal,
    complement,
    degree_counts,
    downward_closure_table,
    maximal_masks,
    membership_table,
    minimalize,
    parse_ideal,
    _monomial_text,
    _parse_product,
    _spread,
    relabel_onto,
    word_count,
)
from sqdepth.invariants import alpha
from sqdepth.randgen import (
    random_module_pair,
    random_pair,
    random_proper_ideal,
    random_quotient_pair,
)
from sqdepth.reports import build_invariants_document

import oracles
from oracles import colon


def ideal(masks, n):
    return minimalize(masks, n)


class TestContains:
    def test_generator_divides(self):
        i = ideal([0b011], 3)
        assert i.contains(0b111)

    def test_no_generator_divides(self):
        i = ideal([0b011], 3)
        assert not i.contains(0b101)

    def test_degenerate_ideals(self):
        one = 0
        assert not MonomialIdeal.zero(2).contains(one)
        assert MonomialIdeal.unit(2).contains(one)

    def test_ring_mismatch_rejected(self):
        i = ideal([0b1], 2)
        for mask in (0b100, -1):
            with pytest.raises(ValueError, match="out of range for n=2"):
                i.contains(mask)
        with pytest.raises(ValueError, match="out of range for n=2"):
            minimalize([0b1, 0b101], 2)  # rejected even though x1 absorbs it


class TestMinimalize:
    def test_absorbs_multiples(self):
        i = minimalize([0b001, 0b011], 2)
        assert i.generators == (0b001,)

    def test_antichain_untouched(self):
        i = minimalize([0b011, 0b101], 3)
        assert i.generators == (0b011, 0b101)

    def test_empty_is_zero(self):
        assert minimalize([], 4).is_zero

    def test_idempotent_and_order_independent(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 8)
            masks = [rng.randrange(1 << n) for _ in range(rng.randint(0, 6))]
            a = minimalize(masks, n)
            rng.shuffle(masks)
            b = minimalize(masks, n)
            assert a == b
            assert minimalize(a.generators, n) == a

    def test_membership_matches_raw_generators(self):
        # contains(minimalize(G), m) iff some g in G divides m, all masks.
        rng = random.Random(17)
        for _ in range(50):
            n = rng.randint(1, 10)
            masks = [rng.randrange(1 << n) for _ in range(rng.randint(0, 5))]
            i = minimalize(masks, n)
            gen_sets = [oracles.mask_to_set(m) for m in masks]
            for s in oracles.subsets(n):
                expected = oracles.member(gen_sets, s)
                assert i.contains(oracles.set_to_mask(s)) == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_pairwise_oracle(self, seed, monkeypatch):
        # Masks of degree d go to the submask lookups while 2^d + 16 is
        # below the kept count, and to the scan above it; both serve each
        # set here, which also holds duplicates and, now and then, the
        # empty mask (the unit ideal).
        lookups = []
        face_vertices = ideals.face_vertices
        monkeypatch.setattr(ideals, "face_vertices",
                            lambda m: lookups.append(m) or face_vertices(m))
        rng = random.Random(seed)
        tested = 0
        for _ in range(25):
            n = rng.randint(8, 63)
            masks = [_random_mask(rng, n, rng.randint(1, 3)) for _ in range(rng.randint(40, 300))]
            masks += [_random_mask(rng, n, rng.randint(1, min(n, 12))) for _ in range(60)]
            masks += rng.sample(masks, 30)
            if rng.random() < 0.1:
                masks.append(0)
            rng.shuffle(masks)
            assert minimalize(masks, n).generators == oracles.pairwise_minimalize(masks, n)
            tested += len(set(masks))
        assert 0 < len(lookups) < tested

    def test_small_sets_match_the_pairwise_oracle(self):
        rng = random.Random(31)
        for _ in range(300):
            n = rng.randint(1, 63)
            masks = [rng.randrange(1 << n) for _ in range(rng.randint(0, 12))]
            masks += masks[:rng.randint(0, 3)]
            assert minimalize(masks, n).generators == oracles.pairwise_minimalize(masks, n)

    def test_numpy_ints_are_ordered_as_ints(self):
        # canonical order sorts by value, then by degree with int.bit_count,
        # which numpy ints do not take; they keep their order all the same
        masks = np.array([0b110, 0b1, 0b1000, 0b11, 0b1000], dtype=np.int64)
        assert minimalize(masks, 4).generators == (0b1, 0b1000, 0b110)
        assert minimalize(list(masks), 4) == minimalize(masks.tolist(), 4)


def _random_mask(rng, n, degree):
    return sum(1 << v for v in rng.sample(range(n), degree))


class TestColon:
    def test_hand_example(self):
        # (x1x2) : (x1, x2) = (x1x2) over two variables
        i = ideal([0b11], 2)
        j = ideal([0b01, 0b10], 2)
        assert colon(i, j).generators == (0b11,)

    def test_colon_by_unit(self):
        i = ideal([0b11], 2)
        assert colon(i, MonomialIdeal.unit(2)) == i

    def test_containing_ideal_gives_unit(self):
        i = ideal([0b01], 2)
        j = ideal([0b11], 2)
        assert colon(i, j).is_unit

    def test_colon_by_zero_rejected(self):
        with pytest.raises(ValueError):
            colon(ideal([0b1], 1), MonomialIdeal.zero(1))

    def test_brute_force_oracle(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(1, 8)
            li = [rng.randrange(1 << n) for _ in range(rng.randint(0, 4))]
            lj = [rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 4))]
            i = minimalize(li, n)
            j = minimalize(lj, n)
            q = colon(i, j)
            ig = [oracles.mask_to_set(m) for m in li]
            jg = [oracles.mask_to_set(m) for m in lj]
            for s in oracles.subsets(n):
                expected = oracles.brute_colon_member(ig, jg, s, n)
                assert q.contains(oracles.set_to_mask(s)) == expected


    def test_spread_inverts_relabel_onto(self):
        rng = random.Random(29)
        for _ in range(100):
            n = rng.randint(1, 20)
            i = random_proper_ideal(rng, n)
            support = reduce(or_, i.generators) | rng.randrange(1 << n)
            assert _spread(relabel_onto(i, support).generators, support) == i.generators

    def test_variables_outside_the_support_of_i_cost_nothing(self):
        # (x1*x2, x62*x63) : (x1*x40) on 63 variables, on tables over 4;
        # x40 is outside the support of I, so it drops out
        i = parse_ideal("x1*x2, x62*x63", 63)
        j = parse_ideal("x1*x40", 63)
        assert colon(i, j) == parse_ideal("x2, x62*x63", 63)

    def test_bounded_by_the_table_budget_on_the_support(self, monkeypatch):
        # the path x1*x2, ..., x31*x32 uses 32 of the 40 variables, so the
        # colon's tables would span 2^32 masks, 4 of 2^26 words: refused
        # before numpy allocates them, with both variable counts named
        def no_allocation(*args, **kwargs):
            raise AssertionError("a table was allocated")

        i = parse_ideal(", ".join(f"x{v}*x{v + 1}" for v in range(1, 32)), 40)
        j = parse_ideal("x1, x40", 40)
        monkeypatch.setattr(np, "zeros", no_allocation)
        monkeypatch.setattr(np, "full", no_allocation)
        for colon_of in (colon, complex_of_colon):
            with pytest.raises(CapExceededError,
                               match="32 of the n=40 variables need about 2147483648 bytes"):
                colon_of(i, j)


class TestIntersect:
    """The intersection oracle that oracles.arithmetic_colon builds on."""

    def test_pairwise_unions(self):
        a = ideal([0b001], 3)
        b = ideal([0b010, 0b100], 3)
        assert oracles.pairwise_intersect(a, b).generators == (0b011, 0b101)

    def test_with_degenerates(self):
        a = ideal([0b01], 2)
        assert oracles.pairwise_intersect(a, MonomialIdeal.unit(2)) == a
        assert oracles.pairwise_intersect(a, MonomialIdeal.zero(2)).is_zero


class TestParse:
    def test_products(self):
        i = parse_ideal("x1*x2, x1*x3", 3)
        assert i.generators == (0b011, 0b101)

    def test_keywords(self):
        assert parse_ideal("unit", 2).is_unit
        assert parse_ideal("zero", 2).is_zero

    def test_comments_and_whitespace(self):
        text = "# leading comment\n x1*x2   x3 # trailing\n"
        i = parse_ideal(text, 3)
        assert i.generators == (0b100, 0b011)

    def test_non_squarefree_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_ideal("x1*x1", 2)
        assert "non-squarefree" in str(exc.value)
        assert exc.value.line == 1
        assert exc.value.column == 4

    def test_index_out_of_range(self):
        with pytest.raises(ParseError) as exc:
            parse_ideal("x1, x9", 3)
        assert "out of range" in str(exc.value)
        assert exc.value.column == 5

    def test_malformed_token(self):
        with pytest.raises(ParseError) as exc:
            parse_ideal("x1*y2", 3)
        assert "malformed" in str(exc.value)

    def test_keyword_mixed_with_generators(self):
        with pytest.raises(ParseError):
            parse_ideal("unit, x1", 2)

    @pytest.mark.parametrize("text, line, column", [
        ("x1 # zero\n\n  x2,zero", 3, 6),
        ("x1, x2\r  unit x1 zero", 2, 3),
        ("x1*x2 x3\n#x4\n x2,,x1*x9 x4", 3, 9),
        ("x1\tx2*x1*x2", 1, 10),
    ])
    def test_errors_are_located_on_their_line(self, text, line, column):
        # tokens are read without positions; an error locates its token
        # after the comments are cut, lines counted as str.splitlines does
        with pytest.raises(ParseError) as exc:
            parse_ideal(text, 3)
        assert (exc.value.line, exc.value.column) == (line, column)

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_ideal("  # nothing here\n", 2)

    @pytest.mark.parametrize("token", [
        "x0", "x01", "x1*x1", "x4", "x1**x2", "*x1", "x1*", "X1", "y1", "x\uff11",
        "x1*x2*x3", "x3*x1", "x2*x3*x2", "x1*x4*x9",
    ])
    def test_named_tokens_agree_with_the_located_parser(self, token):
        # n = 3, so x4 is x_{n+1}; x\uff11 is x followed by a fullwidth 1
        _assert_agrees_with_located_parser(token, 3)

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(st.data())
    def test_tokens_agree_with_the_located_parser(self, data):
        n = data.draw(st.integers(1, ideals.MAX_VARIABLES))
        factors = data.draw(st.lists(st.sampled_from(_FACTORS + (f"x{n}", f"x{n + 1}")),
                                     min_size=1, max_size=5))
        token = "*".join(factors)
        if token:
            _assert_agrees_with_located_parser(token, n)

    def test_huge_index_is_out_of_range_before_any_shift(self):
        # a shift by the index would fail with a MemoryError, not a ParseError
        for text in ("x99999999999999", "x1*x99999999999999"):
            with pytest.raises(ParseError) as exc:
                parse_ideal(text, 3)
            assert str(exc.value).endswith("variable index 99999999999999 out of range 1..3")

    def test_round_trip_through_str(self):
        rng = random.Random(3)
        ctx = 6
        for _ in range(50):
            masks = [rng.randrange(1, 64) for _ in range(rng.randint(1, 5))]
            i = minimalize(masks, 6)
            assert parse_ideal(str(i), ctx) == i


_FACTORS = ("x0", "x01", "x1", "x2", "x3", "x9", "x10", "x63", "x64", "x", "", "X1",
            "y1", "x\uff11", "x1x2", "xx1", "x99999999999999")


def _outcome(parse):
    try:
        return parse()
    except ParseError as exc:
        return str(exc), exc.line, exc.column


def _assert_agrees_with_located_parser(token, n):
    """parse_ideal accepts the token, alone or as the second of two, with
    the mask that _parse_product reads at its position, or raises the same
    located error."""
    got = _outcome(lambda: parse_ideal(token, n).generators)
    assert got == _outcome(lambda: (_parse_product(token, 1, 1, n),))
    got = _outcome(lambda: parse_ideal(f"x1,\n  {token}", n).generators)
    assert got == _outcome(lambda: minimalize([1, _parse_product(token, 2, 3, n)], n).generators)


class TestIdealPair:
    def test_quotient_and_module_forms(self):
        i = ideal([0b011], 2)
        assert IdealPair.quotient(i).upper.is_unit
        assert IdealPair.module(i).lower.is_zero

    def test_containment_enforced(self):
        with pytest.raises(InvalidPairError):
            IdealPair(ideal([0b01], 2), ideal([0b11], 2))

    def test_equality_rejected(self):
        i = ideal([0b01], 2)
        with pytest.raises(InvalidPairError):
            IdealPair(i, ideal([0b01], 2))

    def test_containment_matches_contains(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(1, 6)
            li = [rng.randrange(1 << n) for _ in range(rng.randint(0, 3))]
            lj = [rng.randrange(1 << n) for _ in range(rng.randint(0, 3))]
            i = minimalize(li, n)
            j = minimalize(lj, n)
            contained = all(j.contains(g) for g in i.generators)
            try:
                IdealPair(i, j)
                assert contained and i != j
            except InvalidPairError:
                assert not contained or i == j

    def test_invalid_pair_names_the_first_generator_outside_j(self):
        # J has up to 60 quadrics and cubics, so generators of I of degree
        # up to 5 are tested by submask lookups, the rest by the scan
        rng = random.Random(43)
        for _ in range(80):
            n = rng.randint(6, 24)
            j = minimalize([_random_mask(rng, n, rng.randint(2, 3))
                            for _ in range(rng.randint(1, 60))], n)
            i = minimalize([_random_mask(rng, n, rng.randint(3, n))
                            for _ in range(rng.randint(1, 20))], n)
            outside = [g for g in i.generators if not j.contains(g)]
            if not outside:
                assert i == j or IdealPair(i, j).lower == i
                continue
            with pytest.raises(InvalidPairError) as exc:
                IdealPair(i, j)
            assert str(exc.value) == f"generator {_monomial_text(outside[0])} of I does not lie in J"


class TestTables:
    def test_membership_table_matches_contains(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(1, 8)
            masks = [rng.randrange(1 << n) for _ in range(rng.randint(0, 4))]
            i = minimalize(masks, n)
            table = oracles.unpack(membership_table(i), n)
            for a in range(1 << n):
                assert table[a] == i.contains(a)

    @pytest.mark.parametrize("n", (1, 14, 15))
    def test_table_size_picks_the_container(self, n):
        # one int over at most 2^14 masks, packed uint64 words over more;
        # len() of a closed or complemented table is its packed word count
        ideal = minimalize([1 << (n - 1)], n)
        closed = [membership_table(ideal), membership_table(MonomialIdeal.unit(n)),
                  membership_table(MonomialIdeal.zero(n)), downward_closure_table([1], n),
                  complement(membership_table(ideal), n)]
        psi = relative_of_pair(IdealPair.module(ideal))
        for table in closed + [face_table(psi.delta), face_table(psi)]:
            if n <= 14:
                assert isinstance(table, int)
            else:
                assert isinstance(table, np.ndarray) and table.dtype == np.uint64
            assert _tail_clear(table, n)
        assert [len(table) for table in closed] == [word_count(n)] * len(closed)

    def test_cap_enforced(self):
        with pytest.raises(CapExceededError):
            build_invariants_document(IdealPair.module(MonomialIdeal.unit(12)),
                                      RATIONALS, {}, cap=10)

    def test_memory_budget_enforced_before_allocation(self):
        # 2^40 masks are 128 GiB packed; numpy used to fail allocating them
        with pytest.raises(CapExceededError, match=r"n=40 needs about \d+ bytes"):
            membership_table(MonomialIdeal.zero(40))
        with pytest.raises(CapExceededError, match="bytes"):
            downward_closure_table([1], 40)
        assert membership_table(MonomialIdeal.zero(24)).size == word_count(24)

    def test_budget_is_the_only_bound_on_tables(self, monkeypatch):
        # n = 32 needs 4 tables of 512 MiB; the refusal comes before numpy
        def no_allocation(*args, **kwargs):
            raise AssertionError("a table was allocated")

        monkeypatch.setattr(np, "zeros", no_allocation)
        with pytest.raises(CapExceededError, match=r"n=32 needs about \d+ bytes"):
            membership_table(MonomialIdeal.zero(32))

    def test_n_bounds(self):
        for n in (0, 64):
            with pytest.raises(ValueError, match="variable count"):
                MonomialIdeal.zero(n)
            with pytest.raises(ValueError, match="variable count"):
                parse_ideal("zero", n)
        with pytest.raises(ValueError, match="variable count"):
            parse_ideal("x1*x64", 64)
        assert MonomialIdeal.zero(63).is_zero
        assert parse_ideal("x1*x63", 63).generators == (1 | 1 << 62,)


def _tables(n, rng):
    """Bool tables over 2^n masks: all of them for n <= 3, else a seeded sample."""
    if n <= 3:
        for bits in range(1 << (1 << n)):
            yield np.array([bits >> m & 1 for m in range(1 << n)], dtype=bool)
        return
    for _ in range(40):
        yield np.array([rng.random() < rng.choice((0.05, 0.5, 0.95))
                        for _ in range(1 << n)], dtype=bool)


def _tail_clear(table, n):
    """No bit at or above 2^n is set: in the int, or in the packed words."""
    if isinstance(table, int):
        return table >> (1 << n) == 0
    return table.size == word_count(n) and (n >= 6 or int(table[0]) >> (1 << n) == 0)


def _built(bools, n):
    """The table of a bool array over 2^n masks in the container the kernels
    build at n: one int up to ideals.SMALL_TABLE variables, else packed words."""
    packed = oracles.pack(bools)
    if n > ideals.SMALL_TABLE:
        return packed
    return int.from_bytes(packed.astype("<u8").tobytes(), "little")


class TestPackedTables:
    """The packed kernels against the bool kernels they replaced, every mask
    of every table for n = 1..7, including the one-word tables of n < 6."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_table_operations_match_bool_kernels(self, n):
        rng = random.Random(100 + n)
        for bools in _tables(n, rng):
            table = _built(bools, n)
            assert np.array_equal(oracles.unpack(table, n), bools)
            comp = complement(table, n)
            assert _tail_clear(comp, n)
            assert np.array_equal(oracles.unpack(comp, n), ~bools)
            assert list(maximal_masks(table, n)) == oracles.bool_maximal_masks(bools, n)
            assert degree_counts(table, n) == oracles.bool_degree_counts(bools, n)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_closures_match_bool_kernels(self, n):
        rng = random.Random(200 + n)
        seed_sets = [[m for m in range(1 << n) if bools[m]] for bools in _tables(n, rng)]
        for seeds in seed_sets:
            down = downward_closure_table(seeds, n)
            assert _tail_clear(down, n)
            assert np.array_equal(oracles.unpack(down, n),
                                  oracles.bool_downward_closure_table(seeds, n))
            for i in (minimalize(seeds, n), MonomialIdeal.unit(n)):
                table = membership_table(i)
                assert _tail_clear(table, n)
                assert np.array_equal(oracles.unpack(table, n),
                                      oracles.bool_membership_table(i))
                gens = oracles.ideal_gen_sets(i)
                assert [oracles.member(gens, oracles.mask_to_set(a))
                        for a in range(1 << n)] == oracles.unpack(table, n).tolist()

    @pytest.mark.parametrize("n", range(1, 8))
    def test_packed_path_table_operations_match_bool_kernels(self, n, monkeypatch):
        # the tests above build and read tables this small as one int; these
        # rerun them with every table in packed uint64 words
        monkeypatch.setattr(ideals, "SMALL_TABLE", -1)
        self.test_table_operations_match_bool_kernels(n)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_packed_path_closures_match_bool_kernels(self, n, monkeypatch):
        monkeypatch.setattr(ideals, "SMALL_TABLE", -1)
        self.test_closures_match_bool_kernels(n)

    @pytest.mark.parametrize("n", (14, 15))
    def test_int_and_packed_paths_agree_at_the_switch(self, n, monkeypatch):
        # n = 14 is the largest table held as one int, n = 15 the smallest
        # packed one at the default switch
        rng = random.Random(400 + n)
        bool_tables = [np.random.default_rng(400 + n).random(1 << n) < p
                       for p in (0.01, 0.5, 0.99)]
        seed_sets = [rng.sample(range(1 << n), k) for k in (1, 8, 40)]

        def run():
            tables = [_built(bools, n) for bools in bool_tables]
            for seeds in seed_sets:
                tables += [downward_closure_table(seeds, n),
                           membership_table(minimalize(seeds, n))]
            tables += [complement(t, n) for t in tables]
            return tables, [(maximal_masks(t, n), degree_counts(t, n))
                            for t in tables]

        monkeypatch.setattr(ideals, "SMALL_TABLE", -1)
        packed, packed_results = run()
        monkeypatch.undo()
        default, default_results = run()
        for a, b in zip(packed, default):
            assert a.dtype == np.uint64
            assert isinstance(b, int) if n == 14 else b.dtype == np.uint64
            assert _tail_clear(a, n) and _tail_clear(b, n)
            assert np.array_equal(oracles.unpack(a, n), oracles.unpack(b, n))
        assert packed_results == default_results

    @pytest.mark.parametrize("n", range(1, 8))
    def test_alpha_matches_brute_force(self, n):
        rng = random.Random(300 + n)
        kinds = [random_quotient_pair, random_module_pair]
        if n >= 2:
            kinds.append(random_pair)
        for kind in kinds:
            for _ in range(10):
                pair = kind(rng, n)
                expected = oracles.brute_alpha(
                    oracles.ideal_gen_sets(pair.lower), oracles.ideal_gen_sets(pair.upper),
                    n, unit_upper=pair.upper.is_unit)
                assert alpha(pair).counts == expected == oracles.bool_alpha(pair)

    @pytest.mark.parametrize("kind", (random_quotient_pair, random_module_pair, random_pair),
                             ids=lambda k: k.__name__)
    def test_n20_pairs_match_bool_kernels(self, kind):
        rng = random.Random(2020)
        for _ in range(2):
            pair = kind(rng, 20)
            assert alpha(pair).counts == oracles.bool_alpha(pair)
            facets = oracles.bool_relative_facets(pair)
            assert oracles.relative_facets_of_pair(pair) == facets == relative_of_pair(pair).facets
