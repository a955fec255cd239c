"""Balanced panel container and its CSV round trip.

The on-disk format is long CSV with a header row: firm_id, t, y, x1..xp.
Values are written with shortest round-trip precision so simulate/ingest
is bit exact for finite doubles.
"""

import csv
import itertools
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError


@dataclass
class PanelData:
    """Balanced panel: y is (N, T), x is (N, T, p), one label per firm.

    Labels are stored as ``str``, as the CSV round trip returns them, and
    must be distinct.
    """

    y: np.ndarray
    x: np.ndarray
    firm_ids: list = field(default=None)

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.x = np.asarray(self.x, dtype=float)
        if self.y.ndim != 2:
            raise InputError(f"y must be (N, T), got shape {self.y.shape}")
        if self.x.ndim != 3:
            raise InputError(f"x must be (N, T, p), got shape {self.x.shape}")
        if self.x.shape[:2] != self.y.shape:
            raise InputError(
                f"x shape {self.x.shape} inconsistent with y shape {self.y.shape}"
            )
        if not np.all(np.isfinite(self.y)) or not np.all(np.isfinite(self.x)):
            raise InputError("panel contains non-finite cells")
        if self.firm_ids is None:
            self.firm_ids = range(1, self.y.shape[0] + 1)
        self.firm_ids = [str(fid) for fid in self.firm_ids]
        if len(self.firm_ids) != self.y.shape[0]:
            raise InputError("firm_ids length does not match N")
        seen = set()
        for fid in self.firm_ids:
            if fid in seen:
                raise InputError(f"repeated firm id {fid!r}")
            seen.add(fid)

    @property
    def N(self):
        return self.y.shape[0]

    @property
    def T(self):
        return self.y.shape[1]

    @property
    def p(self):
        return self.x.shape[2]


def write_panel_csv(panel, path):
    """Write a panel as long CSV with header firm_id,t,y,x1..xp."""
    N, T = panel.N, panel.T
    header = ["firm_id", "t", "y"] + [f"x{l + 1}" for l in range(panel.p)]
    ids = [fid for fid in panel.firm_ids for _ in range(T)]
    times = list(range(1, T + 1)) * N
    columns = [panel.y.ravel()] + [panel.x[:, :, l].ravel() for l in range(panel.p)]
    y, *x = (map(repr, col.tolist()) for col in columns)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(zip(ids, times, y, *x))


# One CSV dialect for every column read: the csv module's default quoting
# ("" escapes a quote inside a quoted field), no comment character.
_LOADTXT = dict(delimiter=",", quotechar='"', comments=None, skiprows=1)
_INT = re.compile(r"\s*[+-]?[0-9]+\s*")


def _data_rows(path):
    """Yield (line number, fields) for each non-blank row after the header."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for fields in reader:
            if fields:
                yield reader.line_num, fields


def _column(fh, usecols, dtype):
    """One column (1-D) or several (2-D) of the data rows, parsed in C."""
    fh.seek(0)
    ndmin = 2 if isinstance(usecols, list) else 1
    return np.loadtxt(fh, dtype=dtype, usecols=usecols, ndmin=ndmin, **_LOADTXT)


def _line(path, row):
    """Line number of data row ``row`` (from 0, blank lines not counted)."""
    line, _ = next(itertools.islice(_data_rows(path), row, None))
    return line


def _is_int(text):
    # numpy's integer field: optional sign and ASCII digits, within int64
    return bool(_INT.fullmatch(text)) and -(2**63) <= int(text) < 2**63


def _is_float(text):
    # numpy passes the stripped ASCII field to the parser behind float(),
    # but without float()'s digit-group underscores
    try:
        float(text)
    except ValueError:
        return False
    return text.strip().isascii() and "_" not in text


def _row_error(path, need, checks, exc):
    """InputError naming the first data row that numpy could not parse.

    ``need`` is the field count a row must reach; ``checks`` holds
    (column name, field index, predicate, what it expects) for each
    numeric column.
    """
    for line, fields in _data_rows(path):
        if len(fields) < need:
            return InputError(
                f"{path}:{line}: short row ({len(fields)} fields, {need} needed)"
            )
        for name, j, accepts, expected in checks:
            if not accepts(fields[j]):
                return InputError(
                    f"{path}:{line}: non-numeric cell {fields[j]!r} in column "
                    f"{name!r}, expected {expected}"
                )
    return InputError(f"{path}: {exc}")


def read_panel_csv(path, firm_col="firm_id", time_col="t", y_col="y", x_cols=None):
    """Read a long CSV into a PanelData, validating balance.

    When ``x_cols`` is None, columns named x1, x2, ... are used in index
    order. The firm, time, y and regressor columns must be distinct, and
    the header must name each of them once. Rows may come in any order and
    blank lines are skipped; firms keep the order of their first row and
    times are sorted. The time column holds integers. Short rows,
    non-numeric or non-finite values, and duplicate or missing (firm,
    time) cells are input errors.

    Each column is parsed whole by numpy's C reader, and cells are placed
    by array index.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise InputError(f"{path}: empty file")
        cols = {name: j for j, name in enumerate(header)}
        for col in (firm_col, time_col, y_col):
            if col not in cols:
                raise InputError(f"{path}: missing column {col!r}")
        if x_cols is None:
            x_cols = sorted(
                (c for c in cols if c.startswith("x") and c[1:].isdigit()),
                key=lambda c: int(c[1:]),
            )
        if not x_cols:
            raise InputError(f"{path}: no regressor columns found")
        for col in x_cols:
            if col not in cols:
                raise InputError(f"{path}: missing regressor column {col!r}")
        used = [firm_col, time_col, y_col, *x_cols]
        for col in used:
            if used.count(col) > 1:
                raise InputError(
                    f"{path}: column {col!r} is given more than one role; the "
                    "firm, time, y and regressor columns must be distinct"
                )
            if header.count(col) > 1:
                raise InputError(
                    f"{path}: column {col!r} appears more than once in the header"
                )
        if not any(reader):
            raise InputError(f"{path}: no data rows")
        value_cols = [cols[c] for c in (y_col, *x_cols)]
        try:
            # numpy releases that still parse "1.0" as an integer do so
            # with a DeprecationWarning; as an error it is a ValueError
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                # ids and times become codes before the next column is
                # read: a str object per row lives for one column only
                firms, first, firm_of_row = np.unique(
                    _column(fh, cols[firm_col], object),
                    return_index=True, return_inverse=True,
                )
                times, time_of_row = np.unique(
                    _column(fh, cols[time_col], np.int64), return_inverse=True
                )
                values = _column(fh, value_cols, np.float64)
        except ValueError as exc:
            need = max(cols[firm_col], cols[time_col], *value_cols) + 1
            checks = [(time_col, cols[time_col], _is_int, "an integer")]
            checks += [(c, cols[c], _is_float, "a number") for c in (y_col, *x_cols)]
            raise _row_error(path, need, checks, exc) from exc
    if not np.isfinite(values).all():
        row, j = np.argwhere(~np.isfinite(values))[0]
        raise InputError(
            f"{path}:{_line(path, row)}: non-finite cell in column "
            f"{(y_col, *x_cols)[j]!r}"
        )

    N, T, p = len(firms), len(times), len(x_cols)
    order = np.argsort(first)
    rank = np.empty(N, dtype=np.intp)
    rank[order] = np.arange(N)
    cell = rank[firm_of_row] * T + time_of_row
    counts = np.bincount(cell, minlength=N * T)
    if counts.max() > 1:
        by_cell = np.argsort(cell, kind="stable")
        row = by_cell[1:][cell[by_cell[1:]] == cell[by_cell[:-1]]].min()
        raise InputError(
            f"{path}:{_line(path, row)}: duplicate cell "
            f"({firms[firm_of_row[row]]}, {times[time_of_row[row]]})"
        )
    firm_ids = firms[order].tolist()
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        shown = ", ".join(
            f"({firm_ids[c // T]}, {times[c % T]})" for c in missing[:10].tolist()
        )
        more = "" if missing.size <= 10 else f" and {missing.size - 10} more"
        raise InputError(f"{path}: unbalanced panel, missing cells {shown}{more}")

    y = np.empty(N * T)
    x = np.empty((N * T, p))
    y[cell] = values[:, 0]
    x[cell] = values[:, 1:]
    return PanelData(y=y.reshape(N, T), x=x.reshape(N, T, p), firm_ids=firm_ids)
