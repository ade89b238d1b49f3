"""Batch command-line front end: parameter sweeps, lock studies, Monte Carlo.

Every run resolves its configuration (shipped defaults, optional config file,
CLI overrides), computes all requested tables in memory, and only then writes
the output directory together with a ``manifest.json`` recording the resolved
configuration, the seed, the package version, the wall time of each stage
(``timings_s``: compute, write) and the runtime it ran on (``runtime``:
python, numpy, blas).  A failed run writes nothing and removes the output
directory again if it created it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__, io
from .config import ConfigError, RunConfig, load_config
from .constellation import build_psk, loss_db_to_transmissivity
from .detector_sim import (
    difference_hist_from_counts,
    fidelity,
    run_experiment,
)
from .homodyne import HomodyneParams, hd_mutual_information
from .info_metrics import plugin_mi_estimate, wf_mutual_information
from .io import RENDERERS, read_trace_bin, read_trace_csv, write_trace_csv
from .lock_sim import FOUR_CONDITIONS, four_conditions
from .phase_metrology import _sample_count, asd, octave_taus, overlapping_allan, rms_phase
from .security import kgr
from .wf_receiver import branch_means, default_d_max, difference_dist

WORKER_ENV = "WFHSIM_WORKERS"


@dataclass
class Table:
    name: str
    header: list[str]
    rows: list[tuple]
    meta: dict


def _workers() -> int:
    raw = os.environ.get(WORKER_ENV, "")
    if raw.strip():
        n = int(raw)
        if n < 1:
            raise ValueError(f"{WORKER_ENV} must be >= 1")
        return n
    return os.cpu_count() or 1


def _runtime() -> dict:
    """Python and numpy versions and the BLAS library numpy was built with."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # older numpy has no mode=
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas}


def _map_grid(fn, items):
    n = _workers()
    if n == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))


# ------------------------------------------------------------------ commands


def _loss_sweep(config: RunConfig, name: str, header: list[str], point_rows, meta: dict):
    """One table of the rows ``point_rows(constellations, loss_db, t)`` gives at each loss."""
    alpha = float(config["constellation.alpha"])
    cs = config.sweep_psk(alpha)
    grid = config.loss_grid()
    points = _map_grid(lambda db: point_rows(cs, db, loss_db_to_transmissivity(db)), grid)
    meta = {"alpha": alpha, "lo_amplitude": config["receiver.lo_amplitude"], **meta}
    return [Table(name, header, [r for point in points for r in point], meta)]


def cmd_sweep_mi(config: RunConfig) -> list[Table]:
    """MI vs loss for both receivers, both orders, and the visibility band."""
    sigma_phi = float(config["receiver.phase_jitter_rms"])
    quad_nodes = int(config["receiver.jitter_quad_nodes"])

    def one_point(cs, loss_db: float, t: float) -> list[tuple]:
        rows = []
        for c, xi in product(cs, config["sweep.visibilities"]):
            wf = wf_mutual_information(c, config.receiver_params(t, visibility=xi))
            rows.append((loss_db, c.order_m, "wf", xi, sigma_phi, wf.mi_bits))
            hd = hd_mutual_information(
                c,
                HomodyneParams(transmissivity=t, visibility=xi),
                phase_jitter_rms=sigma_phi,
                jitter_quad_nodes=quad_nodes,
            )
            rows.append((loss_db, c.order_m, "hd", xi, sigma_phi, hd))
        return sorted(rows, key=lambda r: (r[1], r[2], -r[3]))  # hd before wf, xi falling

    header = ["loss_db", "m", "receiver", "visibility", "sigma_phi", "mi_bits"]
    return _loss_sweep(config, "sweep_mi", header, one_point, {})


def cmd_sweep_kgr(config: RunConfig) -> list[Table]:
    """Key generation rate vs loss for both orders at the configured visibility."""
    def one_point(cs, loss_db: float, t: float) -> list[tuple]:
        rows = []
        for c in cs:
            r = kgr(c, config.receiver_params(t))
            rows.append(
                (loss_db, c.order_m, r.kgr_bits, r.mi_bits, r.holevo_bits, r.insecure)
            )
        return rows

    header = ["loss_db", "m", "kgr_bits", "mi_bits", "holevo_bits", "insecure"]
    meta = {
        "visibility": config["receiver.visibility"],
        "sigma_phi": config["receiver.phase_jitter_rms"],
    }
    return _loss_sweep(config, "sweep_kgr", header, one_point, meta)


def cmd_lock(config: RunConfig) -> tuple[list[Table], dict]:
    """Four-condition lock study: traces, Allan bands, spectral bands."""
    duration = float(config["lock.duration_s"])
    dt = float(config["lock.dt_s"])
    n_seeds = int(config["lock.n_seeds"])
    base_seed = int(config["lock.seed"])
    taus = config.lock_taus()
    seg = _sample_count(float(config["lock.asd_segment_s"]), dt)
    overlap = float(config["lock.asd_overlap"])

    allan_curves = {c: [] for c in FOUR_CONDITIONS}
    spectra = {c: [] for c in FOUR_CONDITIONS}
    rms = {c: [] for c in FOUR_CONDITIONS}
    freqs = None
    for s in range(n_seeds):
        traces = four_conditions(
            config.noise_model(seed=base_seed + s),
            config.pi_fast(),
            duration,
            dt,
            actuator=config.actuator(),
        )
        if s == 0:
            first_traces = traces
        for label, tr in traces.items():
            allan_curves[label].append(overlapping_allan(tr, taus).adev)
            spectrum = asd(tr, seg, overlap)
            spectra[label].append(spectrum.asd)
            freqs = spectrum.freqs
            rms[label].append(rms_phase(tr))

    tables = []
    meta_common = {
        "duration_s": duration,
        "dt_s": dt,
        "n_seeds": n_seeds,
        "seed": base_seed,
    }
    asd_meta = {
        **meta_common,
        "window": "hann",
        "overlap": overlap,
        "segment_s": config["lock.asd_segment_s"],
    }
    for label in FOUR_CONDITIONS:
        tables += [
            _band_table(f"allan_{label}", "tau_s", "adev", taus, allan_curves[label], meta_common),
            _band_table(f"asd_{label}", "freq_hz", "asd", freqs, spectra[label], asd_meta),
        ]
    tables.append(
        Table(
            name="lock_summary",
            header=["condition", "rms_mean", "rms_std"],
            rows=[
                (label, float(np.mean(rms[label])), float(np.std(rms[label])))
                for label in FOUR_CONDITIONS
            ],
            meta=dict(meta_common),
        )
    )
    return tables, first_traces


def _band_table(name: str, x_name: str, y_name: str, x, curves: list, meta: dict) -> Table:
    """Columns x, mean and std over seeds of the stacked per-seed curves."""
    a = np.asarray(curves)
    rows = list(zip(map(float, x), a.mean(axis=0).tolist(), a.std(axis=0).tolist()))
    return Table(name, [x_name, f"{y_name}_mean", f"{y_name}_std"], rows, dict(meta))


def cmd_allan(config: RunConfig, input_path: str) -> list[Table]:
    trace = _read_trace(input_path)
    curve = overlapping_allan(trace, octave_taus(trace))
    rows = [
        (float(t), float(a), int(c))
        for t, a, c in zip(curve.taus, curve.adev, curve.counts)
        if c > 0
    ]
    return [
        Table(
            name="allan",
            header=["tau_s", "adev", "n_terms"],
            rows=rows,
            meta={"input": Path(input_path).name, "dt_s": trace.dt},
        )
    ]


def cmd_asd(config: RunConfig, input_path: str, segment_s: float, overlap: float) -> list[Table]:
    trace = _read_trace(input_path)
    spectrum = asd(trace, _sample_count(segment_s, trace.dt), overlap)
    return [
        Table(
            name="asd",
            header=["freq_hz", "asd"],
            rows=list(zip(spectrum.freqs, spectrum.asd)),
            meta={
                "input": Path(input_path).name,
                "window": spectrum.window,
                "overlap": spectrum.overlap,
                "resolution_bw_hz": spectrum.resolution_bw,
            },
        )
    ]


def _read_trace(path: str):
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"trace file {path} not found")
    with open(p, "rb") as fh:
        head = fh.read(8)
    if head.startswith(b"WFTRACE"):
        return read_trace_bin(p)
    return read_trace_csv(p)


def _skellam_theory(c, params) -> tuple[int, list]:
    """Per-symbol Skellam laws of the count difference on one shared window."""
    mus = [branch_means(s, params) for s in c.symbols]
    d_max = max(default_d_max(*mu) for mu in mus)
    return d_max, [difference_dist(mu_t, mu_r, d_max) for mu_t, mu_r in mus]


def cmd_montecarlo(config: RunConfig) -> list[Table]:
    """Per-symbol difference histograms with theory overlays, plus plug-in MI."""
    reps = int(config["montecarlo.repetitions"])
    shots_per_rep = int(config["montecarlo.shots"]) // reps  # config load keeps reps <= shots
    shots = shots_per_rep * reps
    seed = int(config["montecarlo.seed"])
    imperfections = config.imperfections()
    params = config.montecarlo_receiver()
    cases = [
        (c, mean_sig)
        for mean_sig in config["montecarlo.signal_means"]
        for c in config.sweep_psk(math.sqrt(float(mean_sig)))
    ]
    tables = []
    summary_rows = []
    mi_rows = []
    for c, mean_sig in sorted(cases, key=lambda case: case[0].order_m):  # orders outermost
        m = c.order_m
        d_max, theory = _skellam_theory(c, params)
        ss = np.random.SeedSequence([seed, m, int(round(mean_sig * 1000))])
        mi_analytic = wf_mutual_information(c, params).mi_bits
        pooled = Counter()
        for r, rep_seed in enumerate(ss.spawn(reps)):
            rng = np.random.default_rng(rep_seed)
            counts = run_experiment(c, params, imperfections, shots_per_rep, rng)
            pooled.update(counts)
            mi_rows.append((m, mean_sig, r, plugin_mi_estimate(counts), mi_analytic))
        empirical = np.zeros((m, 2 * d_max + 1))  # a symbol that drew no shot keeps zeros
        for k in sorted({k for k, _, _ in pooled}):  # an out-of-window difference raises
            empirical[k] = difference_hist_from_counts(pooled, k, d_max).probs
        for k, emp in enumerate(empirical):
            fidelities = (0.0, 0.0)
            if emp.any():  # fidelity needs a normalized row
                fidelities = (fidelity(theory[k], emp), fidelity(theory[k], emp, method="product"))
            overlap = float(np.minimum(emp, empirical[(k + 1) % m]).sum())
            summary_rows.append((m, mean_sig, k, *fidelities, overlap))
        header = ["d", *(f"p_{kind}_{k}" for kind in ("empirical", "theory") for k in range(m))]
        columns = np.vstack([empirical, [t.probs for t in theory]]).tolist()
        tables.append(
            Table(
                name=f"mc_hist_m{m}_sig{mean_sig:g}",
                header=header,
                rows=list(zip(range(-d_max, d_max + 1), *columns)),
                meta={
                    "lo_mean": config["montecarlo.lo_mean"],
                    "signal_mean": mean_sig,
                    "shots": shots,
                    "seed": seed,
                    "dark_mean": imperfections.dark_mean,
                    "crosstalk_prob": imperfections.crosstalk_prob,
                },
            )
        )
    tables.append(
        Table(
            name="mc_summary",
            header=[
                "m",
                "signal_mean",
                "symbol",
                "fidelity_bhattacharyya",
                "fidelity_product",
                "overlap_next_symbol",
            ],
            rows=summary_rows,
            meta={"shots": shots, "seed": seed},
        )
    )
    tables.append(
        Table(
            name="mc_mi",
            header=["m", "signal_mean", "repetition", "mi_bits_plugin", "mi_bits_analytic"],
            rows=mi_rows,
            meta={"shots_per_repetition": shots_per_rep, "seed": seed},
        )
    )
    return tables


def cmd_skellam(config: RunConfig) -> list[Table]:
    """Theoretical count-difference distributions for the configured setup."""
    m = int(config["constellation.m"])
    params = config.montecarlo_receiver()
    tables = []
    for mean_sig in config["montecarlo.signal_means"]:
        c = build_psk(m, math.sqrt(float(mean_sig)), config.sweep_phi0(m))
        d_max, dists = _skellam_theory(c, params)
        tables.append(
            Table(
                name=f"skellam_m{m}_sig{mean_sig:g}",
                header=["d"] + [f"p_theory_{k}" for k in range(m)],
                rows=list(zip(range(-d_max, d_max + 1), *(d.probs.tolist() for d in dists))),
                meta={"lo_mean": config["montecarlo.lo_mean"], "signal_mean": mean_sig},
            )
        )
    return tables


# ------------------------------------------------------------------ plumbing


def _write_outputs(
    outdir: Path,
    tables: list[Table],
    fmt: str,
    manifest: dict,
    traces: dict | None = None,
) -> list[str]:
    """Write every table and trace, then ``manifest.json`` with the write time.

    A file name given twice raises ValueError before anything is written.
    Each file goes to a temporary name and is renamed into place; on any
    failure the temporary file and every file already written are removed,
    and so are the directories this call created, if they are left empty.
    """
    start = time.perf_counter()
    render = getattr(io, RENDERERS[fmt].__name__)  # the module binding, which a tracer wraps

    def write_table(path: Path, t: Table) -> None:
        path.write_bytes(render(t.header, t.rows, t.meta).encode())

    def write_manifest(path: Path, manifest: dict) -> None:
        timings = dict(manifest["timings_s"], write=time.perf_counter() - start)
        manifest = dict(manifest, outputs=sorted(names[:-1]), timings_s=timings)
        path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")

    files = [(f"{t.name}.{fmt}", write_table, t) for t in tables]
    files += [(f"trace_{label}.csv", write_trace_csv, tr) for label, tr in (traces or {}).items()]
    files.append(("manifest.json", write_manifest, manifest))  # last: it times the writes
    names = [name for name, _, _ in files]
    repeated = [name for name, n in Counter(names).items() if n > 1]
    if repeated:
        raise ValueError(f"two outputs would be written to {outdir / repeated[0]}")
    created = [d for d in (outdir, *outdir.parents) if not d.exists()]
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    tmp = None
    try:
        for name, write, item in files:
            tmp = outdir / f".{name}.tmp{os.getpid()}"
            write(tmp, item)
            os.replace(tmp, outdir / name)
            written.append(outdir / name)
    except BaseException:
        for path in [tmp, *written]:
            if path is not None:
                path.unlink(missing_ok=True)
        for d in created:  # deepest first
            try:
                d.rmdir()
            except OSError:  # not empty: something else wrote there
                break
        raise
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wfhsim",
        description="Coherent-state communication and phase-lock simulation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"wfhsim {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="run configuration file")
    common.add_argument("--seed", type=int, help="override montecarlo.seed and lock.seed")
    common.add_argument("--out", metavar="DIR", help="output directory")
    common.add_argument("--format", choices=tuple(RENDERERS), help="output table format")
    common.add_argument(
        "--set",
        metavar="KEY=VALUE",
        action="append",
        default=[],
        dest="overrides",
        help="override any config key (repeatable)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("sweep-mi", parents=[common], help="mutual information vs channel loss")
    sub.add_parser("sweep-kgr", parents=[common], help="key generation rate vs channel loss")
    sub.add_parser("lock", parents=[common], help="four-condition lock characterization")
    p_allan = sub.add_parser("allan", parents=[common], help="Allan deviation of a trace file")
    p_allan.add_argument("--input", required=True, metavar="TRACE")
    p_asd = sub.add_parser("asd", parents=[common], help="spectral density of a trace file")
    p_asd.add_argument("--input", required=True, metavar="TRACE")
    p_asd.add_argument("--segment-s", type=float, default=0.5)
    p_asd.add_argument("--overlap", type=float, default=0.5)
    sub.add_parser("montecarlo", parents=[common], help="shot-by-shot receiver simulation")
    sub.add_parser("skellam", parents=[common], help="theoretical difference distributions")
    return parser


def run(args: argparse.Namespace) -> int:
    overrides: dict[str, str] = {}
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    if args.seed is not None:
        overrides["montecarlo.seed"] = str(args.seed)
        overrides["lock.seed"] = str(args.seed)
    if args.out is not None:
        overrides["output.directory"] = args.out
    if args.format is not None:
        overrides["output.format"] = args.format
    config = load_config(args.config, overrides)
    start = time.perf_counter()
    traces = None
    if args.command == "sweep-mi":
        tables = cmd_sweep_mi(config)
    elif args.command == "sweep-kgr":
        tables = cmd_sweep_kgr(config)
    elif args.command == "lock":
        tables, traces = cmd_lock(config)
    elif args.command == "allan":
        tables = cmd_allan(config, args.input)
    elif args.command == "asd":
        tables = cmd_asd(config, args.input, args.segment_s, args.overlap)
    elif args.command == "montecarlo":
        tables = cmd_montecarlo(config)
    elif args.command == "skellam":
        tables = cmd_skellam(config)
    else:  # pragma: no cover - argparse enforces the choices
        raise ValueError(f"unknown command {args.command}")
    manifest = {
        "command": args.command,
        "version": __version__,
        "seed": args.seed,
        "config": config.resolved_strings,
        "timings_s": {"compute": time.perf_counter() - start},
        "runtime": _runtime(),
    }
    outdir = Path(str(config["output.directory"]))
    names = _write_outputs(outdir, tables, str(config["output.format"]), manifest, traces)
    for name in names:
        print(outdir / name)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
