import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llrlab.csvio import csv_text
from llrlab.errors import ContractError

HEADER = ("a", "b", "k")


@st.composite
def float_int_columns(draw):
    """Two float columns (inf, nan, -0.0 and subnormals included) and an int column."""
    n = draw(st.integers(0, 25))
    floats = st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                      min_size=n, max_size=n)
    ints = st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n)
    return draw(floats), draw(floats), draw(ints)


def per_value_oracle(header, rows):
    """Each value formatted by its own call, lines joined one by one."""
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


class TestCsvText:
    @settings(max_examples=300, deadline=None)
    @given(float_int_columns())
    def test_matches_per_value_formatting_and_round_trips(self, columns):
        a, b, k = columns
        text = csv_text(HEADER, (np.array(a, dtype=float), np.array(b, dtype=float),
                                  np.array(k, dtype=np.int64)))
        rows = [(format(x, ".17g"), format(y, ".17g"), str(i)) for x, y, i in zip(a, b, k)]
        assert text == per_value_oracle(HEADER, rows)
        lines = text.split("\n")
        assert lines[0] == ",".join(HEADER) and lines[-1] == ""
        for line, x, y, i in zip(lines[1:-1], a, b, k):
            fx, fy, fk = line.split(",")
            for field, value in ((fx, x), (fy, y)):
                # NaN sign and payload are not written, as before.
                if math.isnan(value):
                    assert math.isnan(float(field))
                else:
                    assert bits(float(field)) == bits(value)
            assert int(fk) == i

    def test_empty_rows_give_header_line(self):
        assert csv_text(HEADER, (np.array([]), np.array([]), np.array([], dtype=int))) == "a,b,k\n"
        assert csv_text(("x",), ([],)) == "x\n"

    def test_special_values(self):
        text = csv_text(("v", "c"), (np.array([np.inf, -np.inf, -0.0, 5e-324]), np.full(4, 2)))
        assert text == "v,c\ninf,2\n-inf,2\n-0,2\n4.9406564584124654e-324,2\n"

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ContractError):
            csv_text(("a", "b"), (np.zeros(3), np.zeros(2)))
        with pytest.raises(ContractError):
            csv_text(("a", "b"), (np.zeros(3),))
        with pytest.raises(ContractError):
            csv_text(("a",), (np.zeros((2, 2)),))

    def test_no_columns_rejected(self):
        with pytest.raises(ContractError):
            csv_text((), ())
