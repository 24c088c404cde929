import pytest

from sqdepth.errors import InvalidPairError, ParseError
from sqdepth.problems import parse_problem_text


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
        for bad in ("70", "0", "-3"):
            with pytest.raises(ParseError) as exc:
                parse_problem_text(f"# header\nJ: unit\nn: {bad}\nI: zero\n")
            assert exc.value.line == 3
            assert "1..63" in str(exc.value)

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
