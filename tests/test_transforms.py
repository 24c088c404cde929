"""The Pascal rows behind every beta level, and the check that guards them."""

from math import comb
from operator import mul
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqdepth import invariants
from sqdepth.homology import CoefficientField
from sqdepth.invariants import AlphaVector, alpha, first_recurrence_failure
from sqdepth.macaulay import binomial_ext
from sqdepth.reports import build_verify_document

import oracles
from test_invariants import section3_pair


@st.composite
def alpha_vectors(draw, max_n=31):
    n = draw(st.integers(1, max_n))
    counts = tuple(draw(st.integers(0, comb(n, k))) for k in range(n + 1))
    return AlphaVector(n, counts)


@settings(derandomize=True, deadline=None)
@given(alpha_vectors())
def test_pascal_rows_match_direct_formula_and_invert(a):
    rows = invariants._transform_rows(a.counts, a.n)
    assert len(rows) == a.n + 1
    for q, row in enumerate(rows):
        assert row == oracles.brute_transform(a.counts, q)
        assert oracles.alpha_from_beta(row, q) == a.counts[:q + 1]


@settings(derandomize=True, deadline=None)
@given(alpha_vectors())
def test_direct_formula_matches_brute_force_at_every_level(a):
    # levels 0..n+1: the check reads the direct side one level above n.  The
    # counts are below 2^n, so every entry is below 2^n C(q+1, k) <= 2^(2n+2),
    # and at w = 2n + 3 each balanced digit of an evaluation is one entry
    w = 2 * a.n + 3
    points = invariants._points(a.n, w)
    for q in range(a.n + 2):
        row = oracles.brute_transform(a.counts, q)
        value = sum(map(mul, a.counts, points[q]))
        assert value == sum(b << k * w for k, b in enumerate(row))
        assert invariants._balanced_digits(value, w, q + 1) == list(row)


def _with_shifted_entry(rows, d, k, shift):
    row = list(rows[d])
    row[k] += shift
    return [*rows[:d], tuple(row), *rows[d + 1:]]


def _checked(a, rows, binomial):
    """first_recurrence_failure on production rows `rows` and the binomial
    function `binomial`, and the entrywise oracle on the same two."""
    with patch.object(invariants, "_transform_rows", lambda counts, top: rows), \
            patch.object(invariants, "binomial_ext", binomial):
        got = first_recurrence_failure(a)
    return got, oracles.entrywise_recurrence_failure(a, rows, binomial)


# n up to 63, so rows and counts pass 2^63
@settings(derandomize=True, deadline=None)
@given(alpha_vectors(63))
def test_recurrence_check_matches_the_entrywise_oracle(a):
    got, want = _checked(a, invariants._transform_rows(a.counts, a.n), binomial_ext)
    assert got == want is None


@settings(derandomize=True, deadline=None)
@given(alpha_vectors(63), st.data())
def test_recurrence_check_finds_a_shifted_production_entry_as_the_oracle_does(a, data):
    d = data.draw(st.integers(0, a.n))
    k = data.draw(st.integers(0, d))
    size = data.draw(st.sampled_from([1, 2, 2 ** (2 * a.n + 3), 10 ** 40]))
    shift = data.draw(st.sampled_from([size, -size]))
    rows = _with_shifted_entry(invariants._transform_rows(a.counts, a.n), d, k, shift)
    got, want = _checked(a, rows, binomial_ext)
    assert got == want
    # the check never reads row 0, and reads every entry of the others
    assert (got is None) == (d == 0)


@settings(derandomize=True, deadline=None)
@given(alpha_vectors(63), st.data())
def test_recurrence_check_skips_the_evaluated_digits_outside_the_identity(a, data):
    # row d shifted as a whole keeps every difference beta_k^d - beta_{k-1}^d,
    # so the level recurrence differs only at its digits k = 0 and k = d + 1,
    # which it does not check, and the complement identity fails at k = 0
    d = data.draw(st.integers(1, a.n))
    shift = data.draw(st.sampled_from([1, -2, 10 ** 40]))
    rows = list(invariants._transform_rows(a.counts, a.n))
    rows[d] = tuple(v + shift for v in rows[d])
    got, want = _checked(a, rows, binomial_ext)
    assert got == want == ("complement-identity", 0, d)


@settings(derandomize=True, deadline=None)
@given(alpha_vectors(63), st.data())
def test_recurrence_check_finds_a_wrong_binomial_as_the_oracle_does(a, data):
    b = data.draw(st.integers(0, a.n))
    off = data.draw(st.sampled_from([1, -1, 2 ** 100]))

    def wrong_at_b(x, y):
        return binomial_ext(x, y) + off * (y == b)

    got, want = _checked(a, invariants._transform_rows(a.counts, a.n), wrong_at_b)
    assert got == want == ("complement-identity", b, max(b, 1))


def test_alpha_over_the_binomial_bound_raises_after_the_first_level_recurrence():
    a = AlphaVector(3, (1, 4, 0, 0))  # alpha_1 = 4 > C(3, 1)
    rows = invariants._transform_rows(a.counts, a.n)
    for check in (first_recurrence_failure, lambda a: _checked(a, rows, binomial_ext)[1]):
        with pytest.raises(ValueError, match="exceeds the binomial bound"):
            check(a)
    # a level-recurrence failure at d = 1 is still returned before the raise
    got, want = _checked(a, _with_shifted_entry(rows, 1, 1, 1), binomial_ext)
    assert got == want == ("level-recurrence", 1, 1)


def _recurrence_check(pair):
    doc = build_verify_document(pair, CoefficientField(0), {}, skip_depth=True)
    return next(c for c in doc["checks"] if c["name"] == "transform-recurrences")


def test_corrupt_pascal_row_fails_transform_recurrences(monkeypatch):
    # beta^2 is the production row at d = 2; beta^3 there comes from the
    # direct formula, so an entry off by one breaks the level recurrence
    real = invariants._transform_rows

    def corrupt_row_two(counts, top):
        rows = real(counts, top)
        if top >= 2:
            row = list(rows[2])
            row[1] += 1
            rows[2] = tuple(row)
        return rows

    def recurrence_check(pair):
        doc = build_verify_document(pair, CoefficientField(0), {}, skip_depth=True)
        return next(c for c in doc["checks"] if c["name"] == "transform-recurrences")

    pair = section3_pair()
    a = alpha(pair)
    assert first_recurrence_failure(a) is None
    assert recurrence_check(pair)["status"] == "pass"
    monkeypatch.setattr(invariants, "_transform_rows", corrupt_row_two)
    assert first_recurrence_failure(a) == ("level-recurrence", 1, 2)
    assert recurrence_check(pair) == {
        "name": "transform-recurrences",
        "status": "fail",
        "details": "identity level-recurrence fails at k=1 (d=2)",
    }


def test_wrong_complement_binomial_fails_transform_recurrences(monkeypatch):
    # C(n-d+k-1, k) off by one at k = 2 leaves level 1 intact and breaks the
    # complement identity at its first level with a k = 2 entry, d = 2
    real = invariants.binomial_ext

    def off_at_k_two(a, b):
        return real(a, b) + (b == 2)

    pair = section3_pair()
    a = alpha(pair)
    monkeypatch.setattr(invariants, "binomial_ext", off_at_k_two)
    assert first_recurrence_failure(a) == ("complement-identity", 2, 2)  # level 1 holds
    assert _recurrence_check(pair) == {
        "name": "transform-recurrences",
        "status": "fail",
        "details": "identity complement-identity fails at k=2 (d=2)",
    }
