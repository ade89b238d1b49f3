"""Tracing changes no output and loses no time, on reduced workload sizes.

    python3 -m pytest -q perfbench/tests
"""

import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from wfhsim import cli  # noqa: E402

SMALL = {
    "sweep-kgr": ["sweep-kgr", "--set", "channel.loss_db_stop=0.5"],
    "sweep-mi": [
        "sweep-mi",
        "--set", "receiver.phase_jitter_rms=0.25",
        "--set", "channel.loss_db_stop=0.5",
    ],
    "lock": [
        "lock", "--seed", "5",
        "--set", "lock.duration_s=2.0",
        "--set", "lock.n_seeds=2",
        "--set", "lock.allan_max_m=1024",
    ],
    "montecarlo": [
        "montecarlo", "--seed", "5",
        "--set", "montecarlo.shots=4000",
        "--set", "montecarlo.signal_means=4.13",
    ],
}


def _run(args, outdir, tracer=None):
    if tracer is not None:
        tracer.install()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cli.main([*args, "--out", str(outdir)]) == 0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir()) if p.suffix == ".csv"}


def test_traced_run_writes_identical_csvs(tmp_path):
    trace = tmp_path / "trace.csv"
    checks.write_trace(trace, np.random.default_rng(5).normal(0.0, 0.1, 20_000).cumsum())
    runs = dict(SMALL, allan=["allan", "--input", str(trace)], asd=["asd", "--input", str(trace)])
    tracer = Tracer()
    for name, args in runs.items():
        plain = _run(args, tmp_path / f"{name}-plain")
        traced = _run(args, tmp_path / f"{name}-traced", tracer)
        assert plain and plain == traced, name
    assert tracer.spans, "the tracer recorded nothing"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_self_times_add_up_to_root(tmp_path, monkeypatch, workers):
    monkeypatch.setenv(cli.WORKER_ENV, workers)
    tracer = Tracer()
    _run(SMALL["sweep-kgr"], tmp_path / "out", tracer)
    spans = tracer.spans
    (root,) = [s for s in spans if s.parent is None]
    assert root.name == "cli.main"
    (command,) = [s for s in spans if s.name == "cli.cmd_sweep_kgr"]
    pooled = [s for s in spans if s.thread != root.thread]
    if workers == "1":
        assert not pooled
    else:
        assert pooled and all(s.parent is not None for s in pooled)
        assert {s.parent for s in pooled if s.name == "security.kgr"} == {command.sid}

    self_wall, self_cpu, overlap = self_times(spans)
    assert min(self_wall.values()) >= 0.0
    assert min(self_cpu.values()) >= -1e-6
    # the untraced remainder is the root's own self time; with pool threads
    # the spans that ran side by side count once per thread
    assert sum(self_wall.values()) - overlap == pytest.approx(root.duration, rel=1e-9)
    assert (overlap == 0.0) == (workers == "1")
