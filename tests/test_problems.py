import pytest

from sqdepth.errors import InvalidPairError, ParseError
from sqdepth.problems import ProblemFile, parse_problem_text


GOOD = """# a comment
n: 3
label: tiny example
J: unit
I: x1*x2, x1*x3
"""


class TestParseProblem:
    def test_basic(self):
        pf = parse_problem_text(GOOD)
        assert pf.n == 3
        assert pf.label == "tiny example"
        pair = pf.pair()
        assert pair.upper.is_unit
        assert pair.lower.generators == (0b011, 0b101)

    def test_keys_any_order_label_optional(self):
        pf = parse_problem_text("I: zero\nJ: x1\nn: 2\n")
        assert pf.label is None
        assert pf.pair().lower.is_zero

    def test_missing_key(self):
        with pytest.raises(ParseError) as exc:
            parse_problem_text("n: 2\nJ: unit\n")
        assert "missing required key 'I'" in str(exc.value)

    def test_unknown_key(self):
        with pytest.raises(ParseError) as exc:
            parse_problem_text("n: 2\nK: x1\nJ: unit\nI: zero\n")
        assert exc.value.line == 2

    def test_duplicate_key(self):
        with pytest.raises(ParseError):
            parse_problem_text("n: 2\nn: 3\nJ: unit\nI: zero\n")

    def test_bad_n(self):
        with pytest.raises(ParseError):
            parse_problem_text("n: two\nJ: unit\nI: zero\n")

    def test_n_out_of_range_names_its_line(self):
        for bad in ("70", "0", "64", "000"):
            with pytest.raises(ParseError) as exc:
                parse_problem_text(f"# header\nJ: unit\nn: {bad}\nI: zero\n")
            assert exc.value.line == 3
            assert "1..63" in str(exc.value)

    def test_n_is_ascii_decimal_digits_only(self):
        # int() reads all but the last as numbers: signs, underscores, and
        # Arabic-Indic and fullwidth digits
        for bad in ("1_6", "+3", "-3", "\u0663", "\uff11\uff16", "-0", " 1 6"):
            with pytest.raises(ParseError) as exc:
                parse_problem_text(f"# header\nJ: unit\nn: {bad}\nI: zero\n")
            assert exc.value.line == 3
            assert str(exc.value) == f"line 3: n must be an integer, got {bad.strip()!r}"

    def test_leading_zeros_are_digits(self):
        assert parse_problem_text("n: 007\nJ: unit\nI: x7\n").n == 7

    def test_too_many_digits_is_a_parse_error(self):
        # past the limit on int() of a digit string, where the interpreter
        # has one, or else out of range: a ParseError on the n line either way
        with pytest.raises(ParseError) as exc:
            parse_problem_text("J: unit\nn: " + "1" * 5000 + "\nI: zero\n")
        assert exc.value.line == 2

    def test_comments_stripped_everywhere(self):
        pf = parse_problem_text("n: 2  # two vars\nJ: unit\nI: x1 # gen\n")
        assert pf.pair().lower.generators == (0b01,)

    def test_invalid_pair_surfaces(self):
        pf = parse_problem_text("n: 2\nJ: x1*x2\nI: x1\n")
        with pytest.raises(InvalidPairError):
            pf.pair()

    def test_ideal_error_positions_propagate(self):
        pf = parse_problem_text("n: 2\nJ: unit\nI: x1*x5\n")
        with pytest.raises(ParseError) as exc:
            pf.pair()
        assert "out of range" in str(exc.value)

    def test_ideal_errors_are_placed_in_the_file(self):
        # an error inside a J: or I: value names its line and column in the
        # file, not in the value
        cases = [
            ("n: 4\n\n# a comment\nJ: unit\nI: x1*x5\n",
             "line 5, col 7: variable index 5 out of range 1..4"),
            ("n: 4\nJ:   x1, x2*x2  # squared\nI: zero\n",
             "line 2, col 13: repeated variable x2 in product (non-squarefree)"),
            ("I: zero\n  J :\tx1*y2\nn: 3\n",
             "line 2, col 10: malformed variable token 'y2' (expected x<i>)"),
            ("n: 2\nJ: unit\nI: x1, zero\n",
             "line 3, col 8: keyword 'zero' cannot be combined with generators"),
            ("n: 2\nJ: unit\nI:  # nothing\n", "line 3: empty ideal specification"),
        ]
        for text, message in cases:
            with pytest.raises(ParseError) as exc:
                parse_problem_text(text).pair()
            assert str(exc.value) == message

    def test_hand_built_problem_keeps_value_positions(self):
        # without positions, a value is read as starting at line 1, col 1
        with pytest.raises(ParseError) as exc:
            ProblemFile(n=2, upper_text="unit", lower_text="x1\nx2*x3").pair()
        assert (exc.value.line, exc.value.column) == (2, 4)
