"""Batch file parsing tests, all against temporary files."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("limit", True, "limit must be an int, got True"),
        ("limit", 2.5, "limit must be an int, got 2.5"),
        ("channel", True, "channel must be an int, got True"),
        ("channel", 1.0, "channel must be an int, got 1.0"),
    ],
)
def test_load_batch_dir_rejects_a_count_that_is_not_an_int(tmp_path, field, value, message):
    # a bool would read 1 file or column 1, and a float would fail in slicing
    write(tmp_path / "f0.txt", "1.0 2.0\n3.0 4.0\n")
    write(tmp_path / "f1.txt", "1.0 2.0\n3.0 4.0\n")
    with pytest.raises(ValueError) as info:
        load_batch_dir(tmp_path, "bearing", **{field: value})
    assert str(info.value) == message


def test_load_batch_dir_errors(tmp_path):
    with pytest.raises(ValueError, match="not a directory"):
        load_batch_dir(tmp_path / "missing", "bearing")
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ValueError, match="no batch files"):
        load_batch_dir(empty, "bearing")


@pytest.mark.parametrize(
    "fmt, channel, message",
    [
        ("csv", -1, "channel -1: csv batch files have one column"),
        ("csv", 1, "channel 1: csv batch files have one column"),
        ("bearing", -1, "channel must be >= 0, got -1"),
    ],
)
def test_channel_errors_name_the_layout(tmp_path, fmt, channel, message):
    # the format decides which channel check runs, so csv's message holds for -1 too
    f = write(tmp_path / "b.txt", "value\n0.5\n")
    with pytest.raises(ValueError) as info:
        parse_batch_file(f, fmt, channel=channel)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "fmt, data, byte",
    [
        ("csv", b"\xef\xbb\xbfvalue\n0.5\n", "0xef"),  # a byte-order mark
        ("bearing", b"0.1 0.2\n0.3 \xc3\xa9\n", "0xc3"),
        ("csv", b"value\n" + b"0.5\n" * 5000 + b"\xff\n", "0xff"),  # past the first chunk
    ],
    ids=["csv-bom", "bearing", "csv-late-byte"],
)
def test_a_file_that_is_not_ascii_names_itself(tmp_path, fmt, data, byte):
    f = tmp_path / "b.txt"
    f.write_bytes(data)
    with pytest.raises(ValueError) as info:
        parse_batch_file(f, fmt)
    assert type(info.value) is ValueError
    assert str(info.value) == f"{f}: not ASCII text (byte {byte})"


BAD_CELLS = {"x": "malformed", "1..2": "malformed", "0x1": "malformed", "1,5": "malformed",
             "nan": "non-finite", "-inf": "non-finite", "Infinity": "non-finite"}
# a csv row is one field however it is spaced, so a row of two numbers is malformed there
BAD_ROWS = {"0.5 0.25": "malformed", "1\t2": "malformed"}


@st.composite
def layouts(draw):
    """A batch file's text in either format, its channel, and its bad cell's (token, row)."""
    fmt = draw(st.sampled_from(FORMATS))
    columns = 1 if fmt == "csv" else draw(st.integers(1, 4))
    channel = draw(st.integers(0, columns - 1))
    blank = st.sampled_from(["", " ", "\t", " \t "])
    sep = st.sampled_from([" ", "\t", "  ", " \t"])
    cell = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    rows = ["value" + draw(blank)] if fmt == "csv" else []
    data_rows = []
    for _ in range(draw(st.integers(1, 12))):
        rows += [draw(blank) for _ in range(draw(st.integers(0, 2)))]
        data_rows.append(len(rows))
        cells = [draw(cell) for _ in range(columns)]
        rows.append(draw(blank) + draw(sep).join(cells) + draw(blank))
    bad = None
    if draw(st.booleans()):
        k = draw(st.sampled_from(data_rows))
        if fmt == "csv":
            token = draw(st.sampled_from(sorted(BAD_CELLS) + sorted(BAD_ROWS)))
            rows[k] = draw(blank) + token + draw(blank)
        else:
            token = draw(st.sampled_from(sorted(BAD_CELLS)))
            cells = rows[k].split()
            cells[channel] = token
            rows[k] = draw(sep).join(cells)
        bad = (token, k + 1)
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in rows]
    text = "".join(row + end for row, end in zip(rows, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return fmt, channel, text, bad


@pytest.fixture(scope="module")
def layout_path(tmp_path_factory):
    return tmp_path_factory.mktemp("layouts") / "batch.txt"


@given(layout=layouts())
@settings(max_examples=150, deadline=None)
def test_random_layouts_match_a_one_line_parse(layout_path, layout):
    fmt, channel, text, bad = layout
    layout_path.write_bytes(text.encode("ascii"))
    if bad is not None:
        token, row = bad
        kind = {**BAD_CELLS, **BAD_ROWS}[token]
        message = f"{layout_path}: {kind} value {token!r} in row {row}"
        with pytest.raises(ValueError) as info:
            parse_batch_file(layout_path, fmt, channel=channel)
        assert str(info.value) == message
        return
    lines = text.splitlines()
    if fmt == "bearing":
        expected = [float(r.split()[channel]) for r in lines if r.strip()]
    else:
        expected = [float(r) for r in lines[1:] if r.strip()]
    batch = parse_batch_file(layout_path, fmt, channel=channel)
    np.testing.assert_array_equal(batch.samples.values, expected)
