"""Edge cases of the one CSV writer behind every output file."""

from graspsynth._csv import write_csv


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
