"""Batch file parsing tests, all against temporary files."""

import numpy as np
import pytest

from streamarima.ingest import FORMATS, load_batch_dir, parse_batch_file


def write(path, text):
    path.write_text(text, encoding="ascii")
    return path


def test_bearing_channel_selection(tmp_path):
    f = write(tmp_path / "b.txt", "0.1 1.0 -3\n0.2 2.0 -4\n0.3 3.0 -5\n")
    batch = parse_batch_file(f, "bearing", channel=1, batch_index=4)
    np.testing.assert_array_equal(batch.samples.values, [1.0, 2.0, 3.0])
    assert batch.batch_index == 4


def test_bearing_tab_separated_and_blank_lines(tmp_path):
    f = write(tmp_path / "b.txt", "1\t-2\n\n3\t-4\n")
    batch = parse_batch_file(f, "bearing", channel=1)
    np.testing.assert_array_equal(batch.samples.values, [-2.0, -4.0])


def test_bearing_channel_out_of_range_names_row(tmp_path):
    f = write(tmp_path / "b.txt", "0.1 0.2\n0.3\n")
    with pytest.raises(ValueError, match=r"row 2 has 1 columns, channel 1"):
        parse_batch_file(f, "bearing", channel=1)


def test_bearing_malformed_value_names_row(tmp_path):
    f = write(tmp_path / "b.txt", "0.1\nabc\n0.3\n")
    with pytest.raises(ValueError, match=r"malformed value 'abc' in row 2"):
        parse_batch_file(f, "bearing")


@pytest.mark.parametrize(
    "fmt, text, row",
    [("bearing", "0.1\nnan\n0.3\n", 2), ("csv", "value\n0.5\n0.25\n-inf\n", 4)],
)
def test_non_finite_value_names_file_and_row(tmp_path, fmt, text, row):
    f = write(tmp_path / "b.txt", text)
    with pytest.raises(ValueError, match=rf"b\.txt: non-finite value '.*' in row {row}$"):
        parse_batch_file(f, fmt)


def test_bearing_empty_file(tmp_path):
    f = write(tmp_path / "b.txt", "\n\n")
    with pytest.raises(ValueError, match="no samples"):
        parse_batch_file(f, "bearing")


def test_csv_requires_value_header(tmp_path):
    f = write(tmp_path / "s.csv", "value\n0.5\n-0.25\n")
    batch = parse_batch_file(f, "csv")
    np.testing.assert_array_equal(batch.samples.values, [0.5, -0.25])

    bad = write(tmp_path / "bad.csv", "val\n0.5\n")
    with pytest.raises(ValueError, match="expected header 'value'"):
        parse_batch_file(bad, "csv")


def test_csv_malformed_value_names_row(tmp_path):
    f = write(tmp_path / "s.csv", "value\n0.5\nx\n")
    with pytest.raises(ValueError, match=r"malformed value 'x' in row 3"):
        parse_batch_file(f, "csv")


def test_csv_header_only_is_empty(tmp_path):
    f = write(tmp_path / "s.csv", "value\n")
    with pytest.raises(ValueError, match="no samples"):
        parse_batch_file(f, "csv")


def test_unknown_format(tmp_path):
    f = write(tmp_path / "s.csv", "value\n0.5\n")
    with pytest.raises(ValueError, match="unknown format"):
        parse_batch_file(f, "parquet")
    assert FORMATS == ("bearing", "csv")


def test_load_batch_dir_sorts_lexicographically(tmp_path):
    # plain string order: b1 < b10 < b2
    for name, v in (("b2.txt", 2.0), ("b10.txt", 10.0), ("b1.txt", 1.0)):
        write(tmp_path / name, f"{v} 0\n{v} 0\n")
    batches = load_batch_dir(tmp_path, "bearing")
    assert [b.samples.values[0] for b in batches] == [1.0, 10.0, 2.0]
    assert [b.batch_index for b in batches] == [0, 1, 2]


def test_load_batch_dir_limit(tmp_path):
    for k in range(5):
        write(tmp_path / f"f{k}.txt", "1.0\n2.0\n")
    assert len(load_batch_dir(tmp_path, "bearing", limit=3)) == 3
    with pytest.raises(ValueError, match="empty set of batches"):
        load_batch_dir(tmp_path, "bearing", limit=0)


def test_load_batch_dir_errors(tmp_path):
    with pytest.raises(ValueError, match="not a directory"):
        load_batch_dir(tmp_path / "missing", "bearing")
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ValueError, match="no batch files"):
        load_batch_dir(empty, "bearing")
