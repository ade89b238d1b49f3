#!/usr/bin/env python3
"""wfhsim benchmark: four CLI workloads, end-to-end metrics and a traced per-layer split.

Run from the repository root:

    python3 perfbench/run.py --workload kgr-sweep --seed 1 --seconds 28 --trace 0

``--trace 0`` starts the workload's ``wfhsim`` CLI invocations in child
processes, one at a time, repeating the workload while ``--seconds`` allows,
checks every output and reports the end-to-end metrics as medians over the
repetitions.  ``--trace 1`` runs the same invocations in this process through
``wfhsim.cli.main``, alternating untraced and traced repetitions, and reports
the per-layer split from the spans (see ``spans.py``).

The metric names and units come from ``BENCHMARK.json``.  The last line
printed is the result object; the line before it records the machine.  Run
details and spans are written under ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
WORK = STATE / f"work-{os.getpid()}"
RESULTS = STATE / "results"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from spans import Tracer, innermost_errors, pool_busy_time, self_times, write_spans  # noqa: E402

# Environment variables that change what the CLI computes or how; children
# never inherit them, so a stray shell setting cannot change a measurement.
SCRUBBED_ENV = ("WFHSIM_WORKERS", "WFHSIM_NO_NUMBA")

# Fresh `--version` processes timed per run for setup_s (after one warm-up
# start that fills the bytecode cache).
SETUP_STARTS = 3
# Traced repetitions per run at least: two kgr-sweep repetitions give 44
# key-rate spans, so security.kgr.p75_s has at least 10 points beyond it.
MIN_TRACED_REPS = 2
# Every run, child processes included, ends well inside the 180 s limit.
RUN_DEADLINE_S = 170.0


def workload_plan(
    workload: str, seed: int, trace: Path | None, samples
) -> list[tuple[list[str], object]]:
    """The workload's CLI invocations (without ``--out``) and their output checks.

    Sizes are the shipped defaults, except where a run must hold several
    repetitions for steady medians: kgr-sweep uses a 1 dB loss step (11
    losses x 2 orders = 22 key-rate points instead of 82) and lock-study one
    noise seed (4 traces, 2 closed-loop runs, instead of 10 seeds).  Per-unit
    sizes (n_max, 600k-sample traces) stay the defaults.
    """
    if workload == "kgr-sweep":
        return [(["sweep-kgr", "--set", "channel.loss_db_step=1.0"], checks.check_sweep_kgr)]
    if workload == "jitter-mi":
        return [(["sweep-mi", "--set", "receiver.phase_jitter_rms=0.25"], checks.check_sweep_mi)]
    if workload == "lock-study":
        return [(["lock", "--seed", str(seed), "--set", "lock.n_seeds=1"], checks.check_lock)]
    if workload == "mc-replay":
        return [
            (["montecarlo", "--seed", str(seed)], checks.check_montecarlo),
            (["allan", "--input", str(trace)], partial(checks.check_allan, samples=samples)),
            (["asd", "--input", str(trace)], partial(checks.check_asd, samples=samples)),
        ]
    raise SystemExit(f"unknown workload {workload!r}")


WORKLOADS = ("kgr-sweep", "jitter-mi", "lock-study", "mc-replay")


# ------------------------------------------------------------------ helpers


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str], env: dict[str, str], deadline: float, log: Path) -> Invocation:
    """Start ``python -m wfhsim.cli args`` and reap it with its resource usage."""
    cmd = [sys.executable, "-m", "wfhsim.cli", *args]
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=WORK, env=env, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
    )


def output_bytes(outdir: Path) -> int:
    """Bytes of the tables and traces written; the manifest does not count."""
    return sum(p.stat().st_size for p in outdir.iterdir() if p.name != "manifest.json")


def csv_digests(outdir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.iterdir())
        if p.suffix == ".csv"
    }


def run_check(check, outdir: Path) -> list[str]:
    try:
        return check(outdir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"output check failed: {exc!r}"]


def report(problems: list[str], what: str) -> None:
    for p in problems:
        print(f"{what}: {p}", file=sys.stderr)


def machine_facts() -> dict:
    import scipy

    import wfhsim
    from wfhsim import cli

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        import numba

        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    affinity = sorted(os.sched_getaffinity(0))
    return {
        "nproc": len(affinity),
        "affinity": affinity,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numba": numba_version,
        "cli_workers": cli._workers(),
        "wfhsim": str(Path(wfhsim.__file__).parent),
    }


# ------------------------------------------------------- end-to-end (trace 0)


def measure_setup(env: dict[str, str], deadline: float) -> float:
    log = WORK / "setup.log"
    walls = []
    for i in range(SETUP_STARTS + 1):
        inv = run_child(["--version"], env, deadline, log)
        if inv.returncode != 0:
            raise RuntimeError(f"wfhsim --version exited {inv.returncode}: {log.read_text()}")
        if i:  # the first start fills the bytecode cache
            walls.append(inv.wall_s)
    return statistics.median(walls)


def measure_end_to_end(plan, seconds: float, deadline: float) -> dict:
    env = child_env()
    setup_s = measure_setup(env, deadline)
    reps = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        rep = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "output_bytes": 0}
        for i, (args, check) in enumerate(plan):
            outdir = WORK / f"out{i}"
            shutil.rmtree(outdir, ignore_errors=True)
            log = WORK / f"out{i}.log"
            inv = run_child([*args, "--out", str(outdir)], env, deadline, log)
            if inv.returncode != 0:
                problems = [f"exit code {inv.returncode}: {log.read_text()[-2000:]}"]
            else:
                problems = run_check(check, outdir)
                rep["output_bytes"] += output_bytes(outdir)
            report(problems, args[0])
            attempted += 1
            failed += bool(problems)
            rep["wall_s"] += inv.wall_s
            rep["cpu_s"] += inv.cpu_s
            rep["peak_rss_mb"] = max(rep["peak_rss_mb"], inv.rss_mb)
            shutil.rmtree(outdir, ignore_errors=True)
        reps.append(rep)
        now = time.perf_counter()
        if now - start + (now - rep_start) > seconds:
            break
    metrics = {key: statistics.median(r[key] for r in reps) for key in reps[0]}
    metrics["setup_s"] = setup_s
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "reps": reps}


# -------------------------------------------------------- per layer (trace 1)


def run_in_process(plan, tag: str, tracer: Tracer | None, caught: Counter):
    """One repetition through ``wfhsim.cli.main``.

    Returns the wall time and, per invocation, whether it passed its check and
    the digests of the CSVs it wrote.
    """
    from wfhsim import cli

    wall = 0.0
    outcomes = []
    for i, (args, check) in enumerate(plan):
        outdir = WORK / f"{tag}{i}"
        shutil.rmtree(outdir, ignore_errors=True)
        if tracer is not None:
            tracer.install()
        try:
            with warnings.catch_warnings(record=True) as seen, contextlib.redirect_stdout(
                io.StringIO()
            ):
                warnings.simplefilter("always")
                start = time.perf_counter()
                try:
                    code = cli.main([*args, "--out", str(outdir)])
                except Exception:
                    code = -1
                    traceback.print_exc()
                wall += time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            caught.update(w.category.__name__ for w in seen)
        problems = [f"exit code {code}"] if code != 0 else run_check(check, outdir)
        report(problems, f"{args[0]} ({tag})")
        outcomes.append((not problems, csv_digests(outdir) if outdir.exists() else {}))
        shutil.rmtree(outdir, ignore_errors=True)
    return wall, outcomes


def measure_layers(plan, seconds: float) -> dict:
    tracer = Tracer()
    caught: Counter = Counter()
    untraced, traced = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        u_wall, u_outcomes = run_in_process(plan, "untraced", None, caught)
        t_wall, t_outcomes = run_in_process(plan, "traced", tracer, caught)
        untraced.append(u_wall)
        traced.append(t_wall)
        for (args, _), (u_ok, u_csvs), (t_ok, t_csvs) in zip(plan, u_outcomes, t_outcomes):
            if u_csvs != t_csvs:
                report(["traced run wrote other CSV bytes than the untraced run"], args[0])
                t_ok = False
            attempted += 2
            failed += (not u_ok) + (not t_ok)
        now = time.perf_counter()
        if len(traced) >= MIN_TRACED_REPS and now - start + (now - pair_start) > seconds:
            break
    metrics = layer_metrics(tracer, len(traced), caught)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "reps": {"untraced_wall_s": untraced, "traced_wall_s": traced},
        "tracer": tracer,
    }


def layer_metrics(tracer: Tracer, reps: int, caught: Counter) -> dict[str, float]:
    """Every per-layer quantity the spans give, per traced repetition.

    ``<module>.<function>.self_s``, ``.self_cpu_s``, ``.total_s`` (span
    duration, children included) and ``.calls`` exist for every traced
    function, called or not; ``<module>.self_s`` and ``<module>.self_cpu_s``
    sum a module's spans.
    """
    from wfhsim import cli

    self_wall, self_cpu, _ = self_times(tracer.spans)
    out: dict[str, float] = {}
    for name in tracer.names:
        module = name.split(".", 1)[0]
        out[f"{module}.self_s"] = out[f"{module}.self_cpu_s"] = 0.0
        out[f"{name}.self_s"] = out[f"{name}.self_cpu_s"] = out[f"{name}.total_s"] = 0.0
        out[f"{name}.calls"] = 0
    for s in tracer.spans:
        for key in (s.name, s.module):
            out[f"{key}.self_s"] += self_wall[s.sid]
            out[f"{key}.self_cpu_s"] += self_cpu[s.sid]
        out[f"{s.name}.total_s"] += s.duration
        out[f"{s.name}.calls"] += 1
    out.update(tracer.counters)
    out = {k: v / reps for k, v in out.items()}
    out["info_metrics.max_truncation_mass"] = tracer.maxima.get(
        "info_metrics.max_truncation_mass", 0.0
    )

    scanned = tracer.counters["security.outcomes_scanned"]
    out["security.outcomes_kept_frac"] = (
        tracer.counters["security.outcomes_kept"] / scanned if scanned else 0.0
    )
    kgr = [s.duration for s in tracer.spans if s.name == "security.kgr"]
    for q in (50, 75):
        out[f"security.kgr.p{q}_s"] = float(np.percentile(kgr, q)) if kgr else 0.0
    busy, command = pool_busy_time(tracer.spans)
    out["cli.pool_busy_frac"] = busy / (cli._workers() * command) if command else 0.0
    out["warnings.count"] = sum(caught.values()) / reps
    for category, n in caught.items():
        out[f"warnings.{category}.count"] = n / reps
    errors = innermost_errors(tracer.spans)
    out["errors.count"] = sum(errors.values()) / reps
    for kind, n in errors.items():
        out[f"errors.{kind}.count"] = n / reps
    out["trace.spans"] = len(tracer.spans) / reps
    return out


# ------------------------------------------------------------------ main


def select(metrics: dict[str, float], specs: list[dict]) -> dict[str, dict]:
    out = {}
    for spec in specs:
        name = spec["name"]
        if name in metrics:
            value = metrics[name]
        elif name.startswith(("warnings.", "errors.")):
            value = 0  # no warning or error of this kind was raised
        else:
            raise KeyError(f"benchmark produced no metric {name!r}")
        out[name] = {"value": value, "unit": spec["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not (SRC / "wfhsim" / "cli.py").is_file():
        print(f"error: no wfhsim source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))
    facts = machine_facts()
    if Path(facts["wfhsim"]) != SRC / "wfhsim":
        print(f"error: imported wfhsim from {facts['wfhsim']}, not {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        trace_path, samples = None, None
        if args.workload == "mc-replay":
            samples = checks.make_trace(args.seed)
            trace_path = WORK / "input_trace.csv"
            checks.write_trace(trace_path, samples)
        plan = workload_plan(args.workload, args.seed, trace_path, samples)
        if args.trace:
            result = measure_layers(plan, args.seconds)
            write_spans(RESULTS / f"{tag}-spans.csv", result.pop("tracer").spans)
            metrics = select(result["metrics"], spec["per_layer"])
        else:
            result = measure_end_to_end(plan, args.seconds, deadline)
            metrics = select(result["metrics"], spec["end_to_end"])
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "facts": facts,
        "reps": result["reps"],
        "all_metrics": result["metrics"],
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"facts": facts}))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
