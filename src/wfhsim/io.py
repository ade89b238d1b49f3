"""CSV/JSON/binary serialization with bit-exact round trips.

All floats are printed with 17 significant digits so re-parsing reproduces
the exact double; CSV files use LF endings, a mandatory header row, and
optional ``# key=value`` metadata comment lines.

Trace CSVs, the largest outputs, go through a numpy formatter that writes
the bytes of ``%.17g`` in bounded blocks; any row it cannot place exactly
(zero, non-finite, extreme or near-tie cells) is rendered by ``%`` itself.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np

from .phase_metrology import PhaseTrace


def format_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def render_table(header, rows, meta: dict | None = None) -> str:
    lines = []
    if meta:
        for k, v in meta.items():
            lines.append(f"# {k}={format_value(v)}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    return "\n".join(lines) + "\n"


def render_table_json(header, rows, meta: dict | None = None) -> str:
    payload = {
        "meta": {k: v for k, v in (meta or {}).items()},
        "columns": list(header),
        # floats serialized as 17-digit strings to keep byte-exact round trips
        "rows": [[format_value(v) for v in row] for row in rows],
    }
    return json.dumps(payload, indent=1) + "\n"


# output.format -> table renderer; the one list of table formats
RENDERERS = {"csv": render_table, "json": render_table_json}


def _read_meta_line(line: str, meta: dict) -> None:
    """Record a stripped ``# key=value`` line in ``meta``; other comments add nothing."""
    body = line[1:].strip()
    if "=" in body:
        k, v = body.split("=", 1)
        meta[k.strip()] = v.strip()


def parse_table(text: str) -> tuple[dict, list[str], list[list[str]]]:
    meta: dict = {}
    header: list[str] | None = None
    rows: list[list[str]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            _read_meta_line(line, meta)
            continue
        cells = line.split(",")
        if header is None:
            header = cells
        else:
            rows.append(cells)
    if header is None:
        raise ValueError("no header row found")
    return meta, header, rows


# ---------------------------------------------------------------- traces

TRACE_MAGIC = b"WFTRACE1"

# Rows per vectorized block: a fixed bound on the transient arrays, small
# enough that they stay in a core's L2 cache.
_BLOCK_ROWS = 8192
_ROW = "%.17g,%.17g\n"
# The fast path takes 1e-250 <= |x| <= 1e250, where no step of the Dekker
# product overflows or leaves the normal range.  Its tables cover decimal
# exponents one wider, since floor(log10) may be off by one.
_FAST_MIN, _FAST_MAX = 1e-250, 1e250
_E_MIN, _E_MAX = -251, 251
# The scaled product is good to ~1e-14 at the 1e17 scale; a fraction this
# close to one half is left to the exact formatter.
_TIE_MARGIN = 1e-9
_LO17, _HI17 = 10**16, 10**17
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's split of a 53-bit significand
# A cell is 32 bytes, read as four little-endian words: the sign at byte 0,
# the fixed-notation head ("0." and zeros) at 1..5, 18 body bytes at 6..23
# (17 digits with a point after the first ``point``), the "e+XX" tail at
# 24..28 and the separator at 29.  Unused bytes are NUL and get deleted.
_CELL = 32
_BODY = 6


def _split(x):
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


def _divmod(n, k: int):
    """``divmod`` by a constant; numpy's own is several times slower."""
    q = n // k
    return q, n - q * k


@functools.cache
def _g17_tables() -> dict:
    """Read-only tables of the vectorized ``%.17g`` path, built once from exact integers.

    Row ``e - _E_MIN`` describes decimal exponent ``e``: ``10**(16 - e)`` as
    ``hi + lo`` (``hi`` also split for Dekker's product); ``tail_scale``, the
    power of ten that splits off the digits after the decimal point;
    ``min_keep``, the digits that print even when zero; and ``frame``, the
    cell's fixed bytes: head, tail, and the point stored XOR '0' over the '0'
    that the body holds there.  ``keep[k]`` masks a cell down to its first
    ``k`` body bytes.  ``digits2`` and ``digits4`` hold ASCII digit groups
    (``digits2`` already shifted to the body), and ``sig2``/``sig4`` the body
    length up to the last nonzero digit of a group at its place in the body.
    """
    exps = range(_E_MIN, _E_MAX + 1)
    hi, lo, point, min_keep = [], [], [], []
    frame = np.zeros((len(exps), _CELL), np.uint8)
    for row, e in enumerate(exps):
        # 10**(16 - e) = top / bottom; int / int rounds correctly
        top, bottom = 10 ** max(16 - e, 0), 10 ** max(e - 16, 0)
        hi.append(top / bottom)
        num, den = hi[-1].as_integer_ratio()
        lo.append((top * den - num * bottom) / (bottom * den))
        fixed = -4 <= e < 17
        head = "0." + "0" * (-e - 1) if fixed and e < 0 else ""
        tail = "" if fixed else f"e{e:+03d}"
        point.append(e + 1 if fixed and e >= 0 else 17 if fixed else 1)
        min_keep.append(e + 1 if fixed and e >= 0 else 1)
        frame[row, 1 : 1 + len(head)] = list(head.encode())
        frame[row, _BODY + point[-1]] = ord(".") ^ ord("0")
        frame[row, 24 : 24 + len(tail)] = list(tail.encode())
    keep = np.full((19, _CELL), 0xFF, np.uint8)
    for k in range(19):
        keep[k, _BODY + k : _BODY + 18] = 0
    hi = np.array(hi)
    point = np.array(point)
    group = [f"{g:04d}" for g in range(10_000)]
    tables = {
        "hi": hi,
        "lo": np.array(lo),
        "min_keep": np.array(min_keep),
        # the digits after the point, as the power of ten that splits them off
        "tail_scale": 10 ** (17 - point),
        "frame": frame.view("<u8"),
        "keep": keep.view("<u8"),
        "digits2": np.frombuffer("".join(s[2:] for s in group[:100]).encode(), "<u2")
        .astype("<u8") << 8 * _BODY,
        "digits4": np.frombuffer("".join(group).encode(), "<u4"),
        "sig2": np.array([len(s[2:].rstrip("0")) for s in group[:100]]),
        "sig4": np.array(
            [[first + len(s.rstrip("0")) if s != "0000" else 0 for s in group]
             for first in (2, 6, 10, 14)]
        ),
    }
    tables["hi_h"], tables["hi_l"] = _split(hi)
    for table in tables.values():
        table.flags.writeable = False
    return tables


def _scaled(a, e, tables):
    """``a * 10**(16 - e)`` as an int64 floor and a fraction in [0, 1), to ~1e-14.

    Dekker's TwoProduct of ``a`` and ``hi`` is exact; ``a * lo`` adds the rest
    of the power of ten.
    """
    i = e - _E_MIN
    hi = tables["hi"].take(i)
    p = a * hi
    a_h, a_l = _split(a)
    h_h, h_l = tables["hi_h"].take(i), tables["hi_l"].take(i)
    err = ((a_h * h_h - p) + a_h * h_l + a_l * h_h) + a_l * h_l
    c = err + a * tables["lo"].take(i)
    whole = np.floor(c)
    return p.astype(np.int64) + whole.astype(np.int64), c - whole


def _g17_cells(x):
    """``%.17g`` of each cell as (len(x), 4) little-endian words of NUL-padded
    text, and ``exact``, the cells the fast path leaves to ``%``: zero,
    non-finite, outside [1e-250, 1e250], with a product within
    ``_TIE_MARGIN`` of a rounding tie, or not 17 digits at the decade that
    ``log10`` gives.
    """
    tables = _g17_tables()
    a = np.abs(x)
    exact = ~((a >= _FAST_MIN) & (a <= _FAST_MAX))
    a[exact] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    whole, frac = _scaled(a, e, tables)
    n = whole + (frac > 0.5)
    # n has 17 digits unless log10 was off by one (a few ulps from a power of
    # ten) or the rounding carries into the next decade; both are left to ``%``
    exact |= (whole < _LO17) | (n >= _HI17) | (np.abs(frac - 0.5) < _TIE_MARGIN)
    n[exact] = _LO17
    i = e - _E_MIN

    # the body: n's 17 digits with a 0 after the first ``point``, which the
    # frame turns into the point
    scale = tables["tail_scale"].take(i)
    lead, rest = _divmod(n + 9 * (n // scale) * scale, 10**16)
    high, low = _divmod(rest, 10**8)
    groups = (*_divmod(high, 10**4), *_divmod(low, 10**4))
    keep = np.maximum(tables["min_keep"].take(i), tables["sig2"].take(lead))
    words = np.empty((len(n), _CELL // 8), "<u8")
    quads = words.view("<u4")
    for k, g in enumerate(groups):
        np.maximum(keep, tables["sig4"][k].take(g), out=keep)
        quads[:, 2 + k] = tables["digits4"].take(g)
    words[:, 0] = tables["digits2"].take(lead) | np.signbit(x) * np.uint64(ord("-"))
    words[:, 3] = 0
    words ^= tables["frame"].take(i, axis=0)
    words &= tables["keep"].take(keep, axis=0)
    return words, exact


def _percent_rows(cells) -> bytes:
    """The exact formatter: ``(k, 2)`` cells as ``k`` rows of ``%``."""
    return ((_ROW * len(cells)) % tuple(cells.ravel().tolist())).encode()


def _g17_rows(t, v) -> bytes:
    """The bytes of ``_ROW * len(t) % cells`` for one block of rows."""
    cells = np.column_stack((t, v))
    words, exact = _g17_cells(cells.ravel())
    words[0::2, 3] |= np.uint64(ord(",") << 40)
    words[1::2, 3] |= np.uint64(ord("\n") << 40)
    rows = words.view(np.uint8).reshape(len(t), 2 * _CELL)
    # rows with an exact cell are rendered by ``%`` and spliced in, each
    # padded with NUL to the row width
    fallback = np.flatnonzero(exact.reshape(-1, 2).any(axis=1))
    if len(fallback) == len(t):  # nothing to splice into, as in an all-zero trace
        return _percent_rows(cells)
    if fallback.size:
        text = np.frombuffer(_percent_rows(cells[fallback]), np.uint8)
        ends = np.flatnonzero(text == ord("\n")) + 1
        starts = np.concatenate(([0], ends[:-1]))
        line = np.repeat(np.arange(len(ends)), ends - starts)
        padded = np.zeros((len(ends), 2 * _CELL), np.uint8)
        padded[line, np.arange(len(text)) - starts[line]] = text
        rows[fallback] = padded
    return rows.tobytes().translate(None, b"\0")


def write_trace_csv(path: Path | str, trace: PhaseTrace) -> None:
    r"""Write ``t_s,value`` rows, ``t_s = i * dt``, after a ``# dt=`` line.

    The body is exactly the bytes of ``("%.17g,%.17g\n" * n) % cells``, the
    same as :func:`render_table` rows (17 significant digits).  It is built
    in fixed blocks of ``_BLOCK_ROWS`` rows by a numpy formatter: each cell's
    17 digits come from rounding a double-double product with a power of
    ten, and the ``%g`` layout (fixed for exponents -4..16, else ``e+XX``,
    trailing zeros stripped) from lookup tables.  A row with a cell that is
    zero, non-finite, outside [1e-250, 1e250], within 1e-9 of a rounding tie
    or a few ulps from a power of ten is rendered by ``%`` itself, so every
    tie is CPython's to break.
    ``float(i) * dt`` equals ``i * dt`` for every ``i < 2**53``.
    """
    samples = np.asarray(trace.samples, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(render_table(["t_s", "value"], [], meta={"dt": trace.dt}).encode())
        for start in range(0, len(samples), _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, len(samples))
            fh.write(_g17_rows(np.arange(start, stop) * trace.dt, samples[start:stop]))


def read_trace_csv(path: Path | str) -> PhaseTrace:
    """Read a trace written by :func:`write_trace_csv`.

    The lines up to the first data row (``# key=value`` metadata, blank
    lines, the header) are read with the grammar of :func:`parse_table`; the
    rows go to one ``np.loadtxt`` call, which rounds every cell to the same
    double as ``float``.  Later ``#`` lines are plain comments.  ``dt`` comes
    from the ``# dt=`` line, or else from the first two ``t_s`` cells.  A
    malformed row (fewer than two cells, a non-numeric cell, a line of only
    spaces) raises ``ValueError``.
    """
    meta: dict = {}
    header: list[str] | None = None
    with open(path) as fh:
        for first_row, line in enumerate(fh):
            line = line.strip()
            if line.startswith("#"):
                _read_meta_line(line, meta)
            elif line and header is None:
                header = line.split(",")
            elif line:
                break
        else:
            first_row = None  # no data row
    if header is None:
        raise ValueError("no header row found")
    if header[:2] != ["t_s", "value"]:
        raise ValueError(f"unexpected trace header {header}")
    if first_row is None:
        cells = np.empty((0, 2))
    else:
        cells = np.loadtxt(
            path, delimiter=",", comments="#", skiprows=first_row,
            usecols=(0, 1), ndmin=2,
        )
    if "dt" in meta:
        dt = float(meta["dt"])
    else:
        if len(cells) < 2:
            raise ValueError("cannot infer dt from fewer than 2 samples")
        dt = float(cells[1, 0] - cells[0, 0])
    return PhaseTrace(samples=np.ascontiguousarray(cells[:, 1]), dt=dt)


def write_trace_bin(path: Path | str, trace: PhaseTrace) -> None:
    """Binary trace: magic, header line with dt and count, little-endian f64."""
    with open(path, "wb") as fh:
        fh.write(TRACE_MAGIC)
        fh.write(f" dt={trace.dt:.17g} n={len(trace)}\n".encode("ascii"))
        fh.write(trace.samples.astype("<f8").tobytes())


def read_trace_bin(path: Path | str) -> PhaseTrace:
    """Read a trace written by :func:`write_trace_bin`.

    A header line without a newline, ``dt=`` or ``n=``, or a payload that is
    not exactly ``8 * n`` bytes (so also a negative ``n``), raises
    ``ValueError``.
    """
    data = Path(path).read_bytes()
    if not data.startswith(TRACE_MAGIC):
        raise ValueError("not a trace file (bad magic)")
    nl = data.find(b"\n")
    if nl < 0:
        raise ValueError("trace header line has no terminating newline")
    fields = dict(
        kv.split(b"=", 1) for kv in data[len(TRACE_MAGIC) : nl].split() if b"=" in kv
    )
    if b"dt" not in fields or b"n" not in fields:
        raise ValueError("trace header needs dt= and n=")
    dt = float(fields[b"dt"])
    n = int(fields[b"n"])
    payload = len(data) - (nl + 1)
    if payload != 8 * n:
        raise ValueError(f"trace payload holds {payload} bytes, header says {8 * n}")
    samples = np.frombuffer(data, dtype="<f8", offset=nl + 1, count=n)
    return PhaseTrace(samples=samples.copy(), dt=dt)
