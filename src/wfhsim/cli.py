"""Batch command-line front end: parameter sweeps, lock studies, Monte Carlo.

Every run resolves its configuration (shipped defaults, optional config file,
CLI overrides), creates the output directory and computes all requested
tables in memory, with the key-rate sweep's points and the lock study's
(seed, condition) tasks on a thread pool.  Each first-seed lock task also
writes its trace to a temporary name, so compute includes the trace
formatting.  Only then are the tables written, on the command's thread,
every file renamed into place and a ``manifest.json`` written last,
recording the resolved configuration, the seed, the package version, the
wall time of each stage (``timings_s``: compute, write), the peak resident
memory of the process (``peak_rss_mb``, where the ``resource`` module
exists) and the runtime it ran on (``runtime``: python, numpy, blas).  A
failed run leaves no file behind and removes the output directory again if
it created it.
"""

from __future__ import annotations

import os

# One OpenBLAS thread unless the caller exported OPENBLAS_NUM_THREADS.  It must
# be set before numpy loads, because OpenBLAS starts its workers at import:
# on 2 CPUs `--version` took a median 0.31 s with them and 0.23 s without.
# The arrays here are too small for BLAS threads to pay off: they spin,
# adding CPU time without saving wall time.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import json
import math
import platform
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product
from pathlib import Path

try:
    import resource
except ImportError:  # Windows has no resource module
    resource = None

import numpy as np

from . import __version__, io
from .config import ConfigError, RunConfig, load_config
from .constellation import Constellation, loss_db_to_transmissivity
from .detector_sim import (
    difference_hist_from_counts,
    fidelity,
    run_experiment,
)
from .homodyne import hd_mutual_information
from .info_metrics import plugin_mi_estimate, wf_mutual_information
from .io import RENDERERS, write_trace_csv
from .lock_sim import FOUR_CONDITIONS, LockDivergenceError, _condition_plan, simulate_lock
from .phase_metrology import ASD_WINDOW, _sample_count, asd, octave_taus, overlapping_allan, rms_phase
from .security import kgr
from .wf_receiver import difference_laws

WORKER_ENV = "WFHSIM_WORKERS"


@dataclass
class Table:
    name: str
    header: list[str]
    rows: list[tuple]
    meta: dict


def _workers() -> int:
    """Threads of the pool: ``WFHSIM_WORKERS``, else the CPUs this process may run on."""
    raw = os.environ.get(WORKER_ENV, "")
    if raw.strip():
        try:
            n = int(raw)
        except ValueError:
            n = 0
        if n < 1:
            raise ValueError(f"{WORKER_ENV} must be a whole number >= 1, got {raw!r}")
        return n
    if hasattr(os, "sched_getaffinity"):  # Linux: a pinned process gets fewer
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _runtime() -> dict:
    """Python and numpy versions and the BLAS library numpy was built with."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # older numpy has no mode=
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas}


def _peak_rss() -> dict:
    """``peak_rss_mb`` of this process so far, or nothing where ``resource`` is missing."""
    if resource is None:
        return {}
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # bytes on macOS, else KiB
    return {"peak_rss_mb": peak / 2.0**20 if sys.platform == "darwin" else peak / 2.0**10}


def _map_grid(fn, items):
    """``[fn(x) for x in items]``, on ``_workers()`` threads when there are two or more.

    It maps the lock study's tasks (:func:`_lock_runs`), whose numpy work
    releases the interpreter lock and overlaps, and the key-rate sweep's loss
    points (:func:`cmd_sweep_kgr`).  After a failure, the items not yet
    started are cancelled, and the items running finish before the exception
    propagates.
    """
    n = _workers()
    if n == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))


# ------------------------------------------------------------------ commands


def _loss_sweep(
    config: RunConfig, name: str, header: list[str], point_rows, meta: dict, *, pooled: bool
):
    """One table of the rows ``point_rows(constellations, loss_db, t)`` gives at each loss.

    The losses are mapped over :func:`_map_grid` if ``pooled``, else on this thread.
    """
    alpha = float(config["constellation.alpha"])
    cs = config.sweep_psk(alpha)

    def rows_at(db: float) -> list[tuple]:
        return point_rows(cs, db, loss_db_to_transmissivity(db))

    grid = config.loss_grid()
    points = _map_grid(rows_at, grid) if pooled else [rows_at(db) for db in grid]
    meta = {"alpha": alpha, "lo_amplitude": config["receiver.lo_amplitude"], **meta}
    return [Table(name, header, [r for point in points for r in point], meta)]


def cmd_sweep_mi(config: RunConfig) -> list[Table]:
    """MI vs loss for both receivers, both orders, and the visibility band."""
    sigma_phi = float(config["receiver.phase_jitter_rms"])

    def one_point(cs, loss_db: float, t: float) -> list[tuple]:
        rows = []
        for c, xi in product(cs, config["sweep.visibilities"]):
            params = config.receiver_params(t, visibility=xi)
            wf = wf_mutual_information(c, params)
            rows.append((loss_db, len(c), "wf", xi, sigma_phi, wf.mi_bits))
            hd = hd_mutual_information(c, params)
            rows.append((loss_db, len(c), "hd", xi, sigma_phi, hd))
        return sorted(rows, key=lambda r: (r[1], r[2], -r[3]))  # hd before wf, xi falling

    header = ["loss_db", "m", "receiver", "visibility", "sigma_phi", "mi_bits"]
    # The points hold the interpreter lock, so threads overlap none of them and
    # only hand the lock back and forth: on 2 CPUs the jittered sweep took
    # 0.29 s of CPU on one thread against 0.35 s on two workers.
    return _loss_sweep(config, "sweep_mi", header, one_point, {}, pooled=False)


def cmd_sweep_kgr(config: RunConfig) -> list[Table]:
    """Key generation rate vs loss for both orders at the configured visibility."""
    def one_point(cs, loss_db: float, t: float) -> list[tuple]:
        rows = []
        for c in cs:
            r = kgr(c, config.receiver_params(t))
            rows.append(
                (loss_db, len(c), r.kgr_bits, r.mi_bits, r.holevo_bits, r.insecure)
            )
        return rows

    header = ["loss_db", "m", "kgr_bits", "mi_bits", "holevo_bits", "insecure"]
    meta = {
        "visibility": config["receiver.visibility"],
        "sigma_phi": config["receiver.phase_jitter_rms"],
    }
    # These points hold the interpreter lock too, and the pool saves them no
    # time.  They stay pooled because perfbench/tests/test_tracing.py
    # (test_self_times_add_up_to_root) asserts pool-thread spans in a
    # sweep-kgr run; they leave the pool when that test moves to a lock run.
    return _loss_sweep(config, "sweep_kgr", header, one_point, meta, pooled=True)


def _lock_runs(config: RunConfig, output: _Output | None = None) -> dict[str, list]:
    """Every (seed, condition) trace of the lock study, each one task on the pool.

    Each trace is reduced to its Allan curve, spectrum and RMS; returns
    ``{condition: [(allan, spectrum, rms), ...]}`` in seed order, so every
    band reduces as serially.  Given an output, the task of each first-seed
    trace then writes it as ``trace_<condition>.csv`` to the output's
    temporary name, so a worker holds one trace at a time.
    """
    duration = float(config["lock.duration_s"])
    dt = float(config["lock.dt_s"])
    ms = config.lock_taus()
    seg = _sample_count(float(config["lock.asd_segment_s"]), dt)
    overlap = float(config["lock.asd_overlap"])
    actuator, pi_fast = config.actuator(), config.pi_fast()
    base_seed = int(config["lock.seed"])
    tasks = []  # (label, controller, noise model, temporary trace path or None)
    for s in range(int(config["lock.n_seeds"])):
        for label, pi, model in _condition_plan(config.noise_model(base_seed + s), pi_fast):
            path = output.claim(f"trace_{label}.csv") if output is not None and s == 0 else None
            tasks.append((label, pi, model, path))

    def run_task(task):
        _, pi, model, path = task
        trace = simulate_lock(duration, dt, pi, actuator, model)
        result = overlapping_allan(trace, ms), asd(trace, seg, overlap), rms_phase(trace)
        if path is not None:
            write_trace_csv(path, trace)
        return result

    runs = {c: [] for c in FOUR_CONDITIONS}
    for (label, _, _, _), result in zip(tasks, _map_grid(run_task, tasks)):
        runs[label].append(result)
    return runs


def cmd_lock(config: RunConfig, output: _Output) -> list[Table]:
    """Four-condition lock study: Allan bands and spectral bands, traces written as computed."""
    runs = _lock_runs(config, output)
    allan, spectrum, _ = runs[FOUR_CONDITIONS[0]][0]
    meta_common = {
        "duration_s": float(config["lock.duration_s"]),
        "dt_s": float(config["lock.dt_s"]),
        "n_seeds": int(config["lock.n_seeds"]),
        "seed": int(config["lock.seed"]),
    }
    asd_meta = {
        **meta_common,
        "window": ASD_WINDOW,
        "overlap": float(config["lock.asd_overlap"]),
        "segment_s": config["lock.asd_segment_s"],
    }
    tables, summary = [], []
    for label in FOUR_CONDITIONS:
        curves, spectra, rms = zip(*runs[label])
        adevs, asds = [c.adev for c in curves], [sp.asd for sp in spectra]
        tables += [
            _band_table(f"allan_{label}", "tau_s", "adev", allan.taus, adevs, meta_common),
            _band_table(f"asd_{label}", "freq_hz", "asd", spectrum.freqs, asds, asd_meta),
        ]
        summary.append((label, float(np.mean(rms)), float(np.std(rms))))
    tables.append(
        Table("lock_summary", ["condition", "rms_mean", "rms_std"], summary, dict(meta_common))
    )
    return tables


def _band_table(name: str, x_name: str, y_name: str, x, curves: list, meta: dict) -> Table:
    """Columns x, mean and std over seeds of the stacked per-seed curves."""
    a = np.asarray(curves)
    rows = list(zip(map(float, x), a.mean(axis=0).tolist(), a.std(axis=0).tolist()))
    return Table(name, [x_name, f"{y_name}_mean", f"{y_name}_std"], rows, dict(meta))


def cmd_allan(input_path: str) -> list[Table]:
    trace = _read_trace(input_path)
    curve = overlapping_allan(trace, octave_taus(trace))
    rows = [(float(t), float(a), int(c)) for t, a, c in zip(curve.taus, curve.adev, curve.counts)]
    return [
        Table(
            name="allan",
            header=["tau_s", "adev", "n_terms"],
            rows=rows,
            meta={"input": Path(input_path).name, "dt_s": trace.dt},
        )
    ]


def cmd_asd(input_path: str, segment_s: float, overlap: float) -> list[Table]:
    trace = _read_trace(input_path)
    spectrum = asd(trace, _sample_count(segment_s, trace.dt), overlap)
    return [
        Table(
            name="asd",
            header=["freq_hz", "asd"],
            rows=list(zip(spectrum.freqs, spectrum.asd)),
            meta={
                "input": Path(input_path).name,
                "window": ASD_WINDOW,
                "overlap": overlap,
                "resolution_bw_hz": spectrum.resolution_bw,
            },
        )
    ]


def _read_trace(path: str):
    """The trace of :func:`io.read_trace`; an infinite sample is an error.

    The readers pass +-inf through, since a trace may hold it, but the Allan
    deviation and the spectrum of such a trace are meaningless.
    """
    trace = io.read_trace(path)
    if not np.isfinite(trace.samples).all():
        raise ValueError(f"{Path(path)} holds non-finite samples")
    return trace


def _signal_cases(config: RunConfig) -> list[tuple[Constellation, float]]:
    """Each swept constellation at each ``montecarlo.signal_means`` entry, orders outermost."""
    cases = [
        (c, mean_sig)
        for mean_sig in config["montecarlo.signal_means"]
        for c in config.sweep_psk(math.sqrt(float(mean_sig)))
    ]
    return sorted(cases, key=lambda case: len(case[0]))


def cmd_montecarlo(config: RunConfig) -> list[Table]:
    """Per-symbol difference histograms with theory overlays, plus plug-in MI."""
    reps = int(config["montecarlo.repetitions"])
    shots_per_rep = int(config["montecarlo.shots"]) // reps  # config load keeps reps <= shots
    shots = shots_per_rep * reps
    seed = int(config["montecarlo.seed"])
    imperfections = config.imperfections()
    params = config.montecarlo_receiver()
    tables = []
    summary_rows = []
    mi_rows = []
    for c, mean_sig in _signal_cases(config):
        m = len(c)
        theory = difference_laws(c, params)
        d_max = theory.shape[-1] // 2
        ss = np.random.SeedSequence([seed, m, int(round(mean_sig * 1000))])
        mi_analytic = wf_mutual_information(c, params).mi_bits
        pooled = Counter()
        for r, rep_seed in enumerate(ss.spawn(reps)):
            rng = np.random.default_rng(rep_seed)
            counts = run_experiment(c, params, imperfections, shots_per_rep, rng)
            pooled.update(counts)
            mi_rows.append((m, mean_sig, r, plugin_mi_estimate(counts), mi_analytic))
        # a symbol that drew no shot keeps zeros; an out-of-window difference raises
        empirical = difference_hist_from_counts(pooled, m, d_max)
        for k, emp in enumerate(empirical):
            fidelities = (0.0, 0.0)
            if emp.any():  # fidelity needs a normalized row
                fidelities = (fidelity(theory[k], emp), fidelity(theory[k], emp, method="product"))
            overlap = float(np.minimum(emp, empirical[(k + 1) % m]).sum())
            summary_rows.append((m, mean_sig, k, *fidelities, overlap))
        header = ["d", *(f"p_{kind}_{k}" for kind in ("empirical", "theory") for k in range(m))]
        columns = np.vstack([empirical, theory]).tolist()
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
    """Theoretical count-difference distributions: ``montecarlo``'s theory columns."""
    params = config.montecarlo_receiver()
    tables = []
    for c, mean_sig in _signal_cases(config):
        laws = difference_laws(c, params)
        d_max = laws.shape[-1] // 2
        tables.append(
            Table(
                name=f"skellam_m{len(c)}_sig{mean_sig:g}",
                header=["d"] + [f"p_theory_{k}" for k in range(len(c))],
                rows=list(zip(range(-d_max, d_max + 1), *laws.tolist())),
                meta={"lo_mean": config["montecarlo.lo_mean"], "signal_mean": mean_sig},
            )
        )
    return tables


# ------------------------------------------------------------------ plumbing


class _Output:
    """The output directory of one run, which files reach only if the whole run succeeds.

    The directory is created with the object.  Each file is written to the
    temporary name :meth:`claim` gives: claimed on the command's thread,
    written on any.  :meth:`finish` writes the tables on the command's
    thread, renames every claimed file into place and writes
    ``manifest.json`` last.  Used as a context manager, a failure anywhere
    in its block removes the temporary files, every file already renamed
    into place and the directories it created, if they are left empty.
    """

    def __init__(self, outdir: Path, fmt: str):
        self.outdir, self.fmt = outdir, fmt
        self.created = [d for d in (outdir, *outdir.parents) if not d.exists()]
        outdir.mkdir(parents=True, exist_ok=True)
        self.claimed: list[tuple[Path, str]] = []  # (temporary path, file name)
        self.placed: list[Path] = []

    def claim(self, name: str) -> Path:
        """The temporary path to write file ``name`` to."""
        tmp = self.outdir / f".{name}.tmp{os.getpid()}"
        self.claimed.append((tmp, name))
        return tmp

    def finish(self, tables: list[Table], manifest: dict) -> list[str]:
        """Write the tables on this thread, place every file, then write ``manifest.json``.

        Rendering holds the interpreter lock, so a pool would not overlap it.
        The manifest records the time this took as ``timings_s.write``.  A
        file name given twice raises ValueError before any table is written.
        Returns the file names, the manifest last.
        """
        start = time.perf_counter()
        render = getattr(io, RENDERERS[self.fmt].__name__)  # the module binding a tracer wraps
        names = [f"{t.name}.{self.fmt}" for t in tables] + [name for _, name in self.claimed]
        repeated = [name for name, n in Counter(names).items() if n > 1]
        if repeated:
            raise ValueError(f"two outputs would be written to {self.outdir / repeated[0]}")
        for t in tables:
            text = render(t.header, t.rows, t.meta)
            self.claim(f"{t.name}.{self.fmt}").write_bytes(text.encode())
        for tmp, name in self.claimed:
            os.replace(tmp, self.outdir / name)
            self.placed.append(self.outdir / name)
        timings = dict(manifest["timings_s"], write=time.perf_counter() - start)
        manifest = dict(manifest, outputs=sorted(names), timings_s=timings, **_peak_rss())
        tmp = self.claim("manifest.json")
        tmp.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, self.outdir / "manifest.json")
        return names + ["manifest.json"]

    def __enter__(self) -> _Output:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            return
        for tmp, _ in self.claimed:
            tmp.unlink(missing_ok=True)
        for path in self.placed:
            path.unlink(missing_ok=True)
        for d in self.created:  # deepest first
            try:
                d.rmdir()
            except OSError:  # not empty: something else wrote there
                break


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
    _workers()  # a malformed WFHSIM_WORKERS fails every command, pooled or not
    outdir = Path(str(config["output.directory"]))
    with _Output(outdir, str(config["output.format"])) as output:
        start = time.perf_counter()
        if args.command == "sweep-mi":
            tables = cmd_sweep_mi(config)
        elif args.command == "sweep-kgr":
            tables = cmd_sweep_kgr(config)
        elif args.command == "lock":
            tables = cmd_lock(config, output)
        elif args.command == "allan":
            tables = cmd_allan(args.input)
        elif args.command == "asd":
            tables = cmd_asd(args.input, args.segment_s, args.overlap)
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
        names = output.finish(tables, manifest)
    for name in names:
        print(outdir / name)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except (OSError, ValueError, LockDivergenceError, MemoryError) as exc:
        # a ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
