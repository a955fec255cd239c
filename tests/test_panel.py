import csv
import io
import os
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import read_panel_csv_loop, write_panel_csv_loop

from groupsfa.cli import main
from groupsfa.errors import InputError
from groupsfa.panel import PanelData, read_panel_csv, write_panel_csv


def _write(tmp_path, text, name="p.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_read_basic(tmp_path):
    path = _write(tmp_path, "firm_id,t,y,x1\na,1,1.0,0.5\na,2,2.0,0.25\n"
                            "b,1,3.0,0.125\nb,2,4.0,0.0625\n")
    p = read_panel_csv(path)
    assert p.N == 2 and p.T == 2 and p.p == 1
    np.testing.assert_allclose(p.y, [[1, 2], [3, 4]])
    assert p.firm_ids == ["a", "b"]


def test_read_missing_cell(tmp_path):
    path = _write(tmp_path, "firm_id,t,y,x1\na,1,1.0,0.5\na,2,2.0,0.25\n"
                            "b,1,3.0,0.125\n")
    with pytest.raises(InputError, match="unbalanced"):
        read_panel_csv(path)


def test_read_duplicate_cell(tmp_path):
    path = _write(tmp_path, "firm_id,t,y,x1\na,1,1.0,0.5\na,1,2.0,0.25\n")
    with pytest.raises(InputError, match="duplicate"):
        read_panel_csv(path)


def test_read_non_numeric(tmp_path):
    path = _write(tmp_path, "firm_id,t,y,x1\na,1,oops,0.5\n")
    with pytest.raises(InputError, match="non-numeric"):
        read_panel_csv(path)


def test_read_missing_column(tmp_path):
    path = _write(tmp_path, "firm,t,y,x1\na,1,1.0,0.5\n")
    with pytest.raises(InputError, match="firm_id"):
        read_panel_csv(path)


def test_read_no_regressors(tmp_path):
    path = _write(tmp_path, "firm_id,t,y\na,1,1.0\n")
    with pytest.raises(InputError, match="regressor"):
        read_panel_csv(path)


def test_read_explicit_x_columns(tmp_path):
    path = _write(tmp_path, "firm_id,t,y,price,qty\na,1,1.0,2.0,3.0\n"
                            "a,2,1.5,2.5,3.5\n")
    p = read_panel_csv(path, x_cols=["price", "qty"])
    assert p.p == 2
    np.testing.assert_allclose(p.x[0, 0], [2.0, 3.0])


def _two_period_csv(tmp_path, header):
    fill = ",".join(["1.5"] * (header.count(",") - 1))
    return _write(tmp_path, f"{header}\na,1,{fill}\na,2,{fill}\n"
                            f"b,1,{fill}\nb,2,{fill}\n")


@pytest.mark.parametrize("header,x_cols,col", [
    ("firm_id,t,y,x1,x1", None, "x1"),
    ("firm_id,t,y,x1,x1", ["x1"], "x1"),
    ("firm_id,t,y,y,x1", None, "y"),
    ("firm_id,firm_id,t,y,x1", None, "firm_id"),
    ("firm_id,t,y,x1,x2", ["x1", "x1"], "x1"),
    ("firm_id,t,y,x1,x2", ["y"], "y"),
    ("firm_id,t,y,x1,x2", ["x1", "t"], "t"),
])
def test_column_roles_are_checked(tmp_path, header, x_cols, col):
    path = _two_period_csv(tmp_path, header)
    with pytest.raises(InputError, match=f"column '{col}'"):
        read_panel_csv(path, x_cols=x_cols)


def test_repeated_unused_columns_are_allowed(tmp_path):
    path = _two_period_csv(tmp_path, "firm_id,t,y,x1,note,note")
    p = read_panel_csv(path)
    assert (p.N, p.T, p.p) == (2, 2, 1)


def test_round_trip_full_precision(tmp_path):
    rng = np.random.default_rng(0)
    panel = PanelData(y=rng.normal(size=(3, 4)) * 1e-7,
                      x=rng.normal(size=(3, 4, 2)) * 1e9)
    path = tmp_path / "rt.csv"
    write_panel_csv(panel, path)
    back = read_panel_csv(str(path))
    np.testing.assert_array_equal(back.y, panel.y)
    np.testing.assert_array_equal(back.x, panel.x)


def test_panel_validation():
    with pytest.raises(InputError):
        PanelData(y=np.ones((2, 3)), x=np.ones((2, 4, 1)))
    with pytest.raises(InputError):
        PanelData(y=np.array([[1.0, np.nan]]), x=np.ones((1, 2, 1)))
    with pytest.raises(InputError):
        PanelData(y=np.ones((2, 3)), x=np.ones((2, 3, 1)), firm_ids=["a"])


def test_firm_ids_are_str_and_survive_the_round_trip(tmp_path):
    panel = PanelData(y=np.ones((3, 2)), x=np.ones((3, 2, 1)),
                      firm_ids=[7, np.int64(8), "x"])
    assert panel.firm_ids == ["7", "8", "x"]
    assert all(type(fid) is str for fid in panel.firm_ids)
    write_panel_csv(panel, tmp_path / "ids.csv")
    assert read_panel_csv(str(tmp_path / "ids.csv")).firm_ids == panel.firm_ids
    assert PanelData(y=np.ones((2, 1)), x=np.ones((2, 1, 1))).firm_ids == ["1", "2"]


def test_repeated_firm_ids_rejected(tmp_path, monkeypatch, capsys):
    y, x = np.ones((4, 3)), np.ones((4, 3, 1))
    with pytest.raises(InputError, match="repeated firm id 'b'"):
        PanelData(y=y, x=x, firm_ids=["a", "b", "b", "a"])
    with pytest.raises(InputError, match="repeated firm id '7'"):
        PanelData(y=y, x=x, firm_ids=[7, "8", "7", 9])
    # 30 firms under 15 distinct ids never reach the estimator
    rng = np.random.default_rng(0)
    ids = [f"f{i % 15}" for i in range(30)]
    monkeypatch.setattr(
        "groupsfa.cli.read_panel_csv",
        lambda *a, **k: PanelData(y=rng.normal(size=(30, 20)),
                                  x=rng.normal(size=(30, 20, 1)), firm_ids=ids),
    )
    out = tmp_path / "r"
    assert main(["estimate", "--input", "unused.csv", "--out-dir", str(out)]) == 2
    assert "repeated firm id 'f0'" in capsys.readouterr().err
    assert not out.exists()


def _same_panel(a, b):
    return (a.y.tobytes() == b.y.tobytes() and a.x.tobytes() == b.x.tobytes()
            and a.firm_ids == b.firm_ids)


def test_writer_matches_row_loop_byte_for_byte(tmp_path):
    rng = np.random.default_rng(4)
    panel = PanelData(y=rng.normal(size=(4, 3)) * 1e-5,
                      x=rng.normal(size=(4, 3, 2)) * 1e7,
                      firm_ids=["plain", "a,b", 'say "hi"', " padded "])
    write_panel_csv(panel, tmp_path / "new.csv")
    write_panel_csv_loop(panel, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert _same_panel(read_panel_csv(str(tmp_path / "new.csv")), panel)


@st.composite
def _panel_files(draw):
    """CSV text of a random small panel and the x_cols to read it with."""
    N, T, p = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    ids = draw(st.lists(st.text(alphabet='ab ,"\n', max_size=4),
                        min_size=N, max_size=N, unique=True))
    times = draw(st.lists(st.integers(0, 99), min_size=T, max_size=T, unique=True))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = draw(arrays(np.float64, (N, T, 1 + p), elements=finite))
    if draw(st.booleans()):
        x_names = [f"x{l + 1}" for l in range(p)]
        x_cols = None
    else:
        x_names = [f"price{l}" for l in range(p)]
        x_cols = draw(st.permutations(x_names))
    columns = draw(st.permutations(["firm_id", "t", "y", *x_names, "note"]))
    pad_t, pad_values = draw(st.booleans()), draw(st.booleans())

    def field(name, i, j):
        if name == "firm_id":
            return ids[i]
        if name == "t":
            return f"{times[j]:02d}" if pad_t else str(times[j])
        if name == "note":
            return "unused"
        k = 0 if name == "y" else 1 + x_names.index(name)
        text = repr(float(values[i, j, k]))
        return f" {text} " if pad_values else text

    rows = [[field(c, i, j) for c in columns] for i in range(N) for j in range(T)]
    rows = draw(st.permutations(rows))
    blank_after = draw(st.sets(st.integers(0, len(rows) - 1), max_size=2))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator=newline)
    w.writerow(columns)
    for r, row in enumerate(rows):
        w.writerow(row)
        if r in blank_after:
            buf.write(newline)
    return buf.getvalue(), x_cols


@settings(max_examples=150, deadline=None)
@given(_panel_files())
def test_reader_equals_row_loop_oracle(case):
    text, x_cols = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            new = read_panel_csv(path, x_cols=x_cols)
        assert _same_panel(new, read_panel_csv_loop(path, x_cols=x_cols))


_HEADER = "firm_id,t,y,x1\n"
_GOOD = "a,1,1.0,0.5\na,2,2.0,0.25\nb,1,3.0,0.125\nb,2,4.0,0.0625\n"
_MALFORMED = {
    "empty cell": ("a,1,1.0,0.5\na,2,,0.25\n", "p.csv:3: non-numeric cell ''"),
    "short row": ("a,1,1.0,0.5\n\na,2,2.0\n", "p.csv:4: short row"),
    "non-integer time": ("a,1,1.0,0.5\na,1.0,2.0,0.25\n",
                         "p.csv:3: non-numeric cell '1.0' in column 't'"),
    "underscore": (_GOOD + "c,1,1_0,0.5\n", "p.csv:6: non-numeric cell '1_0'"),
    "non-finite": ("a,1,1.0,nan\n", "p.csv:2: non-finite cell in column 'x1'"),
    "duplicate cell": (_GOOD.replace("b,2", "a,2"),
                       "p.csv:5: duplicate cell (a, 2)"),
    "missing cell": ("a,1,1,1\n" + "".join(f"b,{t},1,1\n" for t in range(1, 14)),
                     "p.csv: unbalanced panel, missing cells (a, 2), (a, 3), "
                     "(a, 4), (a, 5), (a, 6), (a, 7), (a, 8), (a, 9), (a, 10), "
                     "(a, 11) and 2 more"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_input_names_its_line(tmp_path, capsys, case):
    body, message = _MALFORMED[case]
    path = _write(tmp_path, _HEADER + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError) as err:
            read_panel_csv(path)
    assert str(tmp_path / message) in str(err.value)
    assert main(["estimate", "--input", path, "--out-dir", str(tmp_path / "r")]) == 2
    assert message in capsys.readouterr().err


def test_blank_lines_parse_without_warnings(tmp_path):
    path = _write(tmp_path, "\n" + _HEADER + "a,1,1.0,0.5\n\n\nb,1,3.0,0.125\n\n")
    with pytest.raises(InputError, match="missing column"):
        read_panel_csv(path)  # a blank first line is an empty header
    path = _write(tmp_path, _HEADER + "a,1,1.0,0.5\n\n\nb,1,3.0,0.125\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        panel = read_panel_csv(path)
    assert panel.firm_ids == ["a", "b"]
    np.testing.assert_array_equal(panel.y, [[1.0], [3.0]])


def test_header_only_and_empty_files(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="no data rows"):
            read_panel_csv(_write(tmp_path, _HEADER + "\n\n"))
        with pytest.raises(InputError, match="empty file"):
            read_panel_csv(_write(tmp_path, "", name="e.csv"))


def _peak_bytes(reader, path):
    tracemalloc.start()
    try:
        reader(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Peak traced bytes per data row allowed while reading (p = 1, ids of 5
# characters). The reader peaks at about 136, while np.unique codes the id
# column and a str object and the parsed record per row are alive; the
# dict-per-cell oracle peaks at about 256.
BYTES_PER_ROW = 150


def test_reader_memory_is_bounded_per_row(tmp_path):
    N, T = 4000, 50
    rng = np.random.default_rng(0)
    panel = PanelData(y=rng.normal(size=(N, T)), x=rng.normal(size=(N, T, 1)),
                      firm_ids=[f"f{i:04d}" for i in range(N)])
    path = str(tmp_path / "big.csv")
    write_panel_csv(panel, path)
    bound = BYTES_PER_ROW * N * T
    new = _peak_bytes(read_panel_csv, path)
    old = _peak_bytes(read_panel_csv_loop, path)
    assert new <= bound < old, (new / (N * T), old / (N * T))
