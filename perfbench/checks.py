"""Output checks for the benchmark workloads, and the mc-replay input trace.

Each check takes one invocation's output directory and returns a list of
problems; an empty list means the outputs are correct.  Deterministic
workloads compare against reference tables captured from the seed commit;
seeded workloads use checks that hold for any seed.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# A refactor must reproduce previous outputs to 1e-12 (ROADMAP, aim 3).
REFERENCE_ABS_TOL = 1e-12
REFERENCE_REL_TOL = 1e-12
# Columns compared as exact strings: the loss grid, orders, labels, flags.
EXACT_COLUMNS = frozenset({"loss_db", "m", "receiver", "visibility", "sigma_phi", "insecure"})

# Lock study at the shipped defaults: 60 s at 0.1 ms, Allan m = 64..65536
# in octaves, 0.5 s Welch segments.
LOCK_SAMPLES = 600_000
LOCK_ALLAN_ROWS = 11
LOCK_ASD_ROWS = 2501
LOCK_CONDITIONS = (
    "lock_off_box_open",
    "lock_off_box_closed",
    "fast_lock_box_open",
    "fast_lock_box_closed",
)

# mc-replay input: a 600k-sample phase trace, like one lock trace.
TRACE_SAMPLES = 600_000
TRACE_DT = 1e-4
MC_MIN_FIDELITY = 0.999
# allan/asd against the recomputation here: same formula, other summation
# order and FFT, so agreement to rounding rather than bit for bit.
METROLOGY_REL_TOL = 1e-9


def read_table(path: Path) -> tuple[dict[str, str], list[str], list[list[str]]]:
    meta: dict[str, str] = {}
    header: list[str] | None = None
    rows: list[list[str]] = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    if header is None:
        raise ValueError(f"{path.name}: no header row")
    return meta, header, rows


def _column(header: list[str], rows: list[list[str]], name: str) -> list[str]:
    i = header.index(name)
    return [r[i] for r in rows]


def _close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(a - b) <= abs_ + rel * abs(b)


def compare_reference(table: Path, reference: Path) -> list[str]:
    """Headers, metadata, row count and exact columns equal; numbers within tolerance."""
    if not table.exists():
        return [f"{table.name} missing"]
    meta, header, rows = read_table(table)
    ref_meta, ref_header, ref_rows = read_table(reference)
    if header != ref_header:
        return [f"{table.name}: header {header} != {ref_header}"]
    if meta != ref_meta:
        return [f"{table.name}: metadata {meta} != {ref_meta}"]
    if len(rows) != len(ref_rows):
        return [f"{table.name}: {len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for name, cell, ref_cell in zip(header, row, ref):
            if name in EXACT_COLUMNS:
                ok = cell == ref_cell
            else:
                ok = _close(float(cell), float(ref_cell), REFERENCE_REL_TOL, REFERENCE_ABS_TOL)
            if not ok:
                problems.append(f"{table.name} row {i} {name}: {cell} != {ref_cell}")
    return problems[:10]


def check_sweep_kgr(outdir: Path) -> list[str]:
    table = outdir / "sweep_kgr.csv"
    problems = compare_reference(table, REFERENCE_DIR / "kgr-sweep" / "sweep_kgr.csv")
    if problems:
        return problems
    _, header, rows = read_table(table)
    for row in rows:
        r = dict(zip(header, row))
        loss, m = float(r["loss_db"]), int(r["m"])
        kgr, mi, chi = float(r["kgr_bits"]), float(r["mi_bits"]), float(r["holevo_bits"])
        if abs(kgr - (mi - chi)) > 1e-12:
            problems.append(f"KGR != MI - chi at {loss} dB, M={m}")
        if mi > math.log2(m) + 1e-12:
            problems.append(f"MI {mi} > log2 M at {loss} dB, M={m}")
        if (r["insecure"] == "true") != (kgr < 0.0):
            problems.append(f"insecure flag disagrees with KGR sign at {loss} dB, M={m}")
        if loss == 0.0 and abs(kgr - mi) >= 1e-9:
            problems.append(f"|KGR - MI| = {abs(kgr - mi):.3e} at 0 dB, M={m}")
    return problems


def check_sweep_mi(outdir: Path) -> list[str]:
    table = outdir / "sweep_mi.csv"
    problems = compare_reference(table, REFERENCE_DIR / "jitter-mi" / "sweep_mi.csv")
    if problems:
        return problems
    _, header, rows = read_table(table)
    for m, mi in zip(_column(header, rows, "m"), _column(header, rows, "mi_bits")):
        if not 0.0 <= float(mi) <= math.log2(int(m)) + 1e-12:
            problems.append(f"MI {mi} outside [0, log2 {m}]")
    return problems


def check_lock(outdir: Path) -> list[str]:
    problems = []
    asd_mean = {}
    freqs = None
    for label in LOCK_CONDITIONS:
        _, header, rows = read_table(outdir / f"allan_{label}.csv")
        if header != ["tau_s", "adev_mean", "adev_std"] or len(rows) != LOCK_ALLAN_ROWS:
            problems.append(f"allan_{label}: {header}, {len(rows)} rows")
        _, header, rows = read_table(outdir / f"asd_{label}.csv")
        if header != ["freq_hz", "asd_mean", "asd_std"] or len(rows) != LOCK_ASD_ROWS:
            problems.append(f"asd_{label}: {header}, {len(rows)} rows")
            continue
        freqs = np.array(_column(header, rows, "freq_hz"), dtype=float)
        asd_mean[label] = np.array(_column(header, rows, "asd_mean"), dtype=float)
        lines = (outdir / f"trace_{label}.csv").read_bytes().count(b"\n")
        if lines != LOCK_SAMPLES + 2:  # dt metadata and header lines
            problems.append(f"trace_{label}: {lines} lines")
    _, header, rows = read_table(outdir / "lock_summary.csv")
    if header != ["condition", "rms_mean", "rms_std"] or len(rows) != 4:
        return problems + [f"lock_summary: {header}, {len(rows)} rows"]
    if problems:
        return problems
    rms = {r[0]: float(r[1]) for r in rows}
    if not rms["lock_off_box_open"] > rms["fast_lock_box_closed"]:
        problems.append(f"RMS lock off/box open not above fast lock/box closed: {rms}")
    in_band = (freqs > 0.0) & (freqs < 10.0)
    for box in ("box_open", "box_closed"):
        on, off = asd_mean[f"fast_lock_{box}"], asd_mean[f"lock_off_{box}"]
        if not np.all(on[in_band] < off[in_band]):
            problems.append(f"in-band ASD not lower with the lock on ({box})")
    return problems


def check_montecarlo(outdir: Path) -> list[str]:
    _, header, rows = read_table(outdir / "mc_summary.csv")
    problems = [
        f"Bhattacharyya fidelity {f} <= {MC_MIN_FIDELITY}"
        for f in _column(header, rows, "fidelity_bhattacharyya")
        if not float(f) > MC_MIN_FIDELITY
    ]
    if not rows:
        problems.append("mc_summary is empty")
    _, _, mi_rows = read_table(outdir / "mc_mi.csv")
    if len(mi_rows) != 16:  # 2 orders x 2 signal means x 4 repetitions
        problems.append(f"mc_mi has {len(mi_rows)} rows")
    return problems


# ------------------------------------------------------------ mc-replay input


def make_trace(seed: int) -> np.ndarray:
    """Phase trace from the seed: drift random walk, 20 Hz tone, white floor."""
    rng = np.random.default_rng([seed, 600_000])
    n, dt = TRACE_SAMPLES, TRACE_DT
    walk = np.cumsum(rng.normal(0.0, 0.03 * math.sqrt(dt), n))
    t = np.arange(n) * dt
    tone = 0.09 * np.sin(2.0 * math.pi * 20.0 * t + rng.uniform(0.0, 2.0 * math.pi))
    return walk + tone + rng.normal(0.0, 0.016, n)


def write_trace(path: Path, samples: np.ndarray) -> None:
    """The documented trace CSV: ``# dt=`` metadata, ``t_s,value`` header, one row a sample.

    ``repr`` round-trips every double, so the CLI parses exactly ``samples``.
    """
    dt = TRACE_DT
    lines = [f"# dt={dt!r}", "t_s,value"]
    lines += [f"{i * dt!r},{v!r}" for i, v in enumerate(samples.tolist())]
    path.write_text("\n".join(lines) + "\n")


def check_allan(outdir: Path, samples: np.ndarray) -> list[str]:
    _, header, rows = read_table(outdir / "allan.csv")
    if header != ["tau_s", "adev", "n_terms"]:
        return [f"allan header {header}"]
    n = samples.size
    expected = []
    m = 1
    while m <= n // 8:
        d2 = samples[2 * m :] - 2.0 * samples[m : n - m] + samples[: n - 2 * m]
        tau = m * TRACE_DT
        expected.append((tau, math.sqrt(np.mean(d2 * d2) / (2.0 * tau * tau)), d2.size))
        m *= 2
    if len(rows) != len(expected):
        return [f"allan has {len(rows)} rows, expected {len(expected)}"]
    problems = []
    for row, (tau, adev, terms) in zip(rows, expected):
        if not (
            _close(float(row[0]), tau, 1e-12)
            and _close(float(row[1]), adev, METROLOGY_REL_TOL)
            and int(row[2]) == terms
        ):
            problems.append(f"allan row {row} != ({tau}, {adev}, {terms})")
    return problems[:10]


def check_asd(outdir: Path, samples: np.ndarray, segment_s: float = 0.5) -> list[str]:
    _, header, rows = read_table(outdir / "asd.csv")
    if header != ["freq_hz", "asd"]:
        return [f"asd header {header}"]
    from scipy.signal import welch

    seg = int(round(segment_s / TRACE_DT))
    freqs, psd = welch(
        samples, fs=1.0 / TRACE_DT, window="hann", nperseg=seg, noverlap=seg // 2,
        detrend="constant", scaling="density",
    )
    if len(rows) != freqs.size:
        return [f"asd has {len(rows)} rows, expected {freqs.size}"]
    got = np.array(rows, dtype=float)
    problems = []
    if not np.allclose(got[:, 0], freqs, rtol=1e-12, atol=0.0):
        problems.append("asd frequency grid differs")
    worst = float(np.max(np.abs(got[:, 1] - np.sqrt(psd)) / np.sqrt(psd)))
    if worst > METROLOGY_REL_TOL:
        problems.append(f"asd differs from Welch recomputation by {worst:.3e} relative")
    return problems
