"""Edge cases of the one CSV writer behind every output file."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from graspsynth._csv import write_csv

NUMBER_FORMAT = "{:.9g}"


def test_no_rows_gives_the_header_and_a_line_feed(tmp_path):
    dest = tmp_path / "empty.csv"
    write_csv(dest, "a,b", [])
    assert dest.read_bytes() == b"a,b\n"


def test_strings_verbatim_and_numbers_to_nine_digits(tmp_path):
    dest = tmp_path / "rows.csv"
    write_csv(dest, "comparison,value,count", [
        ("tebc_single_vs_fe", 0.1 + 0.2, 3),
        ("x", 2.0 / 3.0, 1234567)])
    assert dest.read_bytes() == (b"comparison,value,count\n"
                                 b"tebc_single_vs_fe,0.3,3\n"
                                 b"x,0.666666667,1234567\n")


def test_rows_may_be_an_iterator(tmp_path):
    dest = tmp_path / "gen.csv"
    write_csv(dest, "k,sq", ((k, k * k / 10) for k in range(3)))
    assert dest.read_text() == "k,sq\n0,0\n1,0.1\n2,0.4\n"


NUMBERS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e-300,
           1e300, 5e-324, 2.0 / 3.0, 1_234_567_891, 2 ** 53, 2 ** 53 + 1,
           -(2 ** 63), True, False, np.float64(0.1), np.float64(-1e-7),
           np.float32(0.1), np.int64(2 ** 53 + 1), np.int64(-7), np.True_]
LABELS = ["100%", "%s", "%(x)s", "{}", "{0:.3g}", "{{}}", "a,b", ""]


def test_bytes_match_str_format_on_edge_values(tmp_path):
    # the writer formats with %-templates; the contract is "{:.9g}"
    dest = tmp_path / "edges.csv"
    rows = [(label, value) for label in LABELS for value in NUMBERS]
    write_csv(dest, "label,value", rows)
    expected = "".join(f"{label},{NUMBER_FORMAT.format(value)}\n"
                       for label, value in rows)
    assert dest.read_text() == "label,value\n" + expected


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(st.floats() | st.integers(-(2 ** 80), 2 ** 80),
                min_size=1, max_size=8),
       st.text(st.characters(min_codepoint=32, max_codepoint=126),
               max_size=6).filter(lambda t: "," not in t))
def test_bytes_match_str_format_on_any_number(tmp_path_factory, values,
                                              label):
    dest = tmp_path_factory.mktemp("csv") / "any.csv"
    write_csv(dest, "h", [(label, *values)])
    line = ",".join([label] + [NUMBER_FORMAT.format(v) for v in values])
    assert dest.read_bytes() == f"h\n{line}\n".encode()
