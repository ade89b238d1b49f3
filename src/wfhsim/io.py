"""CSV/JSON/binary serialization with bit-exact round trips.

All floats are printed with 17 significant digits so re-parsing reproduces
the exact double; CSV files use LF endings, a mandatory header row, and
optional ``# key=value`` metadata comment lines.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .phase_metrology import PhaseTrace


def format_value(v) -> str:
    if isinstance(v, bool):
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


def write_trace_csv(path: Path | str, trace: PhaseTrace) -> None:
    """Write ``t_s,value`` rows, ``t_s = i * dt``, after a ``# dt=`` line.

    The body is one ``%`` format over the interleaved cells: the same bytes
    as :func:`render_table` rows (17 significant digits), without per-cell
    Python.  ``float(i) * dt`` equals ``i * dt`` for every ``i < 2**53``.
    """
    n = len(trace.samples)
    cells = np.empty((n, 2))
    cells[:, 0] = np.arange(n) * trace.dt
    cells[:, 1] = trace.samples
    with open(path, "w", newline="\n") as fh:
        fh.write(render_table(["t_s", "value"], [], meta={"dt": trace.dt}))
        fh.write(("%.17g,%.17g\n" * n) % tuple(cells.ravel().tolist()))


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

    A header without ``dt=`` or ``n=``, or a payload that is not exactly
    ``8 * n`` bytes (so also a negative ``n``), raises ``ValueError``.
    """
    data = Path(path).read_bytes()
    if not data.startswith(TRACE_MAGIC):
        raise ValueError("not a trace file (bad magic)")
    nl = data.index(b"\n")
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
