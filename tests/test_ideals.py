import random

import numpy as np
import pytest

from sqdepth import ideals
from sqdepth.complexes import face_table, relative_of_pair
from sqdepth.errors import CapExceededError, InvalidPairError, ParseError
from sqdepth.homology import RATIONALS
from sqdepth.ideals import (
    IdealPair,
    MonomialIdeal,
    colon,
    complement,
    degree_counts,
    downward_closure_table,
    intersect,
    maximal_masks,
    membership_table,
    minimal_masks,
    minimalize,
    parse_ideal,
    word_count,
)
from sqdepth.invariants import alpha
from sqdepth.randgen import random_module_pair, random_pair, random_quotient_pair
from sqdepth.reports import build_invariants_document

import oracles


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


class TestIntersect:
    def test_pairwise_unions(self):
        a = ideal([0b001], 3)
        b = ideal([0b010, 0b100], 3)
        assert intersect(a, b).generators == (0b011, 0b101)

    def test_with_degenerates(self):
        a = ideal([0b01], 2)
        assert intersect(a, MonomialIdeal.unit(2)) == a
        assert intersect(a, MonomialIdeal.zero(2)).is_zero


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

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_ideal("  # nothing here\n", 2)

    def test_round_trip_through_str(self):
        rng = random.Random(3)
        ctx = 6
        for _ in range(50):
            masks = [rng.randrange(1, 64) for _ in range(rng.randint(1, 5))]
            i = minimalize(masks, 6)
            assert parse_ideal(str(i), ctx) == i


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
            assert list(minimal_masks(table, n)) == oracles.bool_minimal_masks(bools, n)
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
            return tables, [(maximal_masks(t, n), minimal_masks(t, n), degree_counts(t, n))
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
