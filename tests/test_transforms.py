"""The Pascal rows behind every beta level, and the check that guards them."""

from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from sqdepth import invariants
from sqdepth.homology import CoefficientField
from sqdepth.invariants import AlphaVector, alpha, alpha_from_beta, beta, first_recurrence_failure
from sqdepth.reports import build_verify_document

import oracles
from test_invariants import section3_pair


@st.composite
def alpha_vectors(draw):
    n = draw(st.integers(1, 31))
    counts = tuple(draw(st.integers(0, comb(n, k))) for k in range(n + 1))
    return AlphaVector(n, counts)


@settings(derandomize=True, deadline=None)
@given(alpha_vectors())
def test_pascal_rows_match_direct_formula_and_invert(a):
    rows = invariants._transform_rows(a.counts, a.n)
    assert len(rows) == a.n + 1
    for q, row in enumerate(rows):
        assert row == oracles.brute_transform(a.counts, q)
        assert alpha_from_beta(beta(a, q), q).counts == a.counts[:q + 1]


@settings(derandomize=True, deadline=None)
@given(alpha_vectors())
def test_direct_formula_matches_brute_force_at_every_level(a):
    # levels 0..n+1: the check reads the direct side one level above n
    for q in range(a.n + 2):
        assert invariants._direct_transform(a.counts, q) == oracles.brute_transform(a.counts, q)


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
