import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llrlab import csvio
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


def fields(column):
    """Each value of a column formatted on its own, as csv_text must write it."""
    column = np.asarray(column)
    fmt = "%d" if column.dtype.kind in "iu" else "%.17g"
    return [fmt % v for v in column.tolist()]


def assert_each_value_formatted_alone(*columns):
    header = tuple(f"c{j}" for j in range(len(columns)))
    got = csv_text(header, columns).split("\n")
    want = per_value_oracle(header, zip(*(fields(c) for c in columns))).split("\n")
    # Line by line, so a failure names the first wrong lines instead of diffing megabytes.
    assert [(g, w) for g, w in zip(got, want) if g != w][:5] == [] and len(got) == len(want)


def around(x, ulps=2):
    """x and its neighbours up to `ulps` representable steps away, both signs."""
    near = [x]
    for direction in (np.inf, -np.inf):
        v = x
        for _ in range(ulps):
            v = np.nextafter(v, direction)
            near.append(v)
    return np.array(near + [-v for v in near])


class TestByteIdentityCorpus:
    """csv_text against a per-value %.17g / %d on the inputs where a fast
    formatter would go wrong."""

    @pytest.mark.parametrize("n", [7, 10000, 10001])
    def test_every_roc_fraction(self, n):
        k = np.arange(n + 1)
        assert_each_value_formatted_alone(k / n, (n - k) / n)

    def test_runs_of_repeated_values(self):
        # Equal values are formatted once per run: runs must be keyed on bits,
        # span row blocks and columns, and leave the out-of-window values whole.
        rng = np.random.default_rng(23)
        values = np.array([0.5, 1e-5, 1e300, np.nan, -np.nan, 123.456, -0.0, 0.0, np.inf])
        long_runs = np.repeat(values[rng.integers(0, values.size, 400)], rng.integers(1, 60, 400))
        assert_each_value_formatted_alone(long_runs)
        assert_each_value_formatted_alone(np.tile([-0.0, 0.0], 500), np.tile([0.0, -0.0], 500))
        assert csv_text(("z",), (np.array([-0.0, 0.0, -0.0]),)) == "z\n-0\n0\n-0\n"
        assert_each_value_formatted_alone(np.full(300, np.nan), np.full(300, 1e-5), np.full(300, 1e300))
        across_blocks = rng.random(csvio._BLOCK + 500)
        across_blocks[csvio._BLOCK - 200:csvio._BLOCK + 200] = 0.25
        assert_each_value_formatted_alone(across_blocks)
        tail, head = rng.random(1000), rng.random(1000)
        tail[-100:] = head[:100] = 1e-5
        assert_each_value_formatted_alone(tail, head)
        tail[-100:] = head[:100] = 7.5
        assert_each_value_formatted_alone(tail, head)

    def test_runs_that_cross_from_a_float_column_into_an_int_column(self):
        # Integers are formatted through their float copies, so a run of equal
        # bits can span a float and an int column; each field out of the
        # window must still take its own column's format, from its own value.
        assert csv_text(("f", "i"), ([1e17], [10**17])) == "f,i\n1e+17,100000000000000000\n"
        assert csv_text(("f", "i"), ([0.5, 1e17], [10**17, 3])) == "f,i\n0.5,100000000000000000\n1e+17,3\n"
        assert csv_text(("f", "i"), ([-2.0**63], np.array([-(2**63)]))) == (
            "f,i\n-9.2233720368547758e+18,-9223372036854775808\n")
        assert csv_text(("i", "f"), (np.array([10**17]), [1e17])) == "i,f\n100000000000000000,1e+17\n"
        # A label run longer than a row block, its first rows equal to the
        # score column's last values.
        n = csvio._BLOCK
        scores = np.random.default_rng(24).standard_normal(2 * n)
        scores[-300:] = 1.0
        labels = np.repeat([1, 2], n)
        assert_each_value_formatted_alone(scores, labels)
        assert_each_value_formatted_alone(labels, scores, np.full(2 * n, 2))
        big = np.repeat([10**17, -(2**63), 2**63 - 1], n)
        assert_each_value_formatted_alone(np.array(big, dtype=float), big, np.full(3 * n, 1e17), big[::-1])

    def test_an_all_integer_table(self):
        info = np.iinfo(np.int64)
        edges = np.array([info.min, info.min + 1, info.max, 10**15 - 1, 10**15, -(10**15), 2**53 + 1, 0, 1, -1])
        p = np.repeat([3, 7, 11], 5)
        assert_each_value_formatted_alone(p, np.tile([20, 50, 100, 500, 2000], 3), np.full(15, 20))
        assert_each_value_formatted_alone(edges, edges[::-1], edges.astype(np.uint64), np.sort(edges))
        assert csv_text(("p", "n"), (np.array([3, 3]), np.array([0, 20]))) == "p,n\n3,0\n3,20\n"

    def test_neighbours_of_powers_of_ten_and_window_edges(self):
        values = np.concatenate([around(float(f"1e{k}")) for k in range(-6, 18)])
        assert_each_value_formatted_alone(values)
        assert_each_value_formatted_alone(np.concatenate([around(1e-4, 40), around(1e15, 40)]))

    def test_exact_ties_at_the_seventeenth_digit_round_half_even(self):
        assert csv_text(("t",), ([12345678901234.5625, -12345678901234.5625],)) == (
            "t\n12345678901234.562\n-12345678901234.562\n")
        rng = np.random.default_rng(20)
        ties = []
        # A d-digit integer plus odd/2^(18-d) has 18 significant digits, the last a 5.
        for digits in range(10, 15):
            base = rng.integers(10 ** (digits - 1), 10**digits, 40)
            odd = np.arange(1, 2 ** (19 - digits), 2)[: base.size]
            ties.append(base[: odd.size] + odd / 2.0 ** (18 - digits))
        ties = np.concatenate(ties)
        assert_each_value_formatted_alone(np.concatenate([ties, -ties, ties / 1e3, ties / 1e9]))

    def test_random_mantissas_at_every_binary_exponent(self):
        rng = np.random.default_rng(21)
        biased = np.repeat(np.arange(2047, dtype=np.uint64), 6)  # 0 is the subnormals
        mantissa = rng.integers(0, 2**52, biased.size, dtype=np.uint64)
        sign = rng.integers(0, 2, biased.size, dtype=np.uint64)
        values = ((sign << np.uint64(63)) | (biased << np.uint64(52)) | mantissa).view(np.float64)
        assert_each_value_formatted_alone(values, values[::-1])

    def test_signed_zeros_infinities_and_nan(self):
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0])
        assert_each_value_formatted_alone(specials)
        assert csv_text(("v",), (specials,)) == "v\n0\n-0\ninf\n-inf\nnan\n1\n-1\n"

    def test_integer_extremes_bool_and_object_columns(self):
        info = np.iinfo(np.int64)
        powers = 10 ** np.arange(19, dtype=np.int64)
        extremes = [info.min, info.min + 1, info.max, 0, 1, -1]
        assert_each_value_formatted_alone(np.concatenate([extremes, powers, powers - 1, -powers, 1 - powers]))
        # Integers either side of 10^4, alone and mixed in one block.
        for short in ([0], [0, 9, -9, 9999, -9999], [10000], [-10000], [9999, 10000, -9999, -10000]):
            assert_each_value_formatted_alone(np.array(short))
        assert_each_value_formatted_alone(np.array([-128, 127, 0, -1], dtype=np.int8),
                                          np.array([0, 7, 9999, 255], dtype=np.uint16))
        unsigned = np.array([2**63, 2**63 + 1, 10**19, 2**64 - 1, 0, 9], dtype=np.uint64)
        assert_each_value_formatted_alone(unsigned)
        assert csv_text(("b", "u"), (np.array([True, False]), np.array([2**64 - 1, 7], dtype=np.uint64))) == (
            "b,u\n1,18446744073709551615\n0,7\n")
        objects = np.array([1.5, 3, 10**20, -0.0, 2.5e-7, float("nan")], dtype=object)
        assert_each_value_formatted_alone(objects, np.arange(6), objects[::-1])

    def test_narrow_float_columns_are_written_as_their_doubles(self):
        for dtype in (np.float16, np.float32):
            column = np.array([0.1, -2.5, 1e-5, 3e4, 0.0], dtype=dtype)
            assert csv_text(("v",), (column,)) == "v\n" + "".join("%.17g\n" % float(v) for v in column)

    def test_zero_rows_and_a_table_of_several_row_blocks(self):
        assert csv_text(("a", "b"), (np.array([], dtype=np.int64), np.array([]))) == "a,b\n"
        rng = np.random.default_rng(22)
        n = 3 * csvio._BLOCK + 17
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 18, n)
        x[rng.integers(0, n, 50)] = np.nan
        y = rng.random(n)
        y[::1000] = 0.0
        labels = rng.integers(-5, 5, n)
        assert_each_value_formatted_alone(x, labels, y, np.array(y, dtype=object))

    def test_powers_of_ten_table_is_exact(self):
        # Each entry must be the smallest double >= its power of ten.
        for k, value in zip(range(-5, 17), csvio._POW10):
            assert Fraction(float(value)) >= Fraction(10) ** k > Fraction(float(np.nextafter(value, 0)))
