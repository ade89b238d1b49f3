import ast
import importlib.util
import inspect
import json
import math
import os
import platform
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import wfhsim
from wfhsim import cli, security, wf_receiver
from wfhsim.cli import Table, main
from wfhsim.config import KEY_PARSERS, load_config
from wfhsim.constellation import build_psk, loss_db_to_transmissivity
from wfhsim.detector_sim import DetectorImperfections, run_experiment
from wfhsim.homodyne import hd_mutual_information
from wfhsim.info_metrics import wf_mutual_information
from wfhsim.io import parse_table, write_trace_bin, write_trace_csv
from wfhsim.lock_sim import ActuatorModel, NoiseModel, simulate_lock
from wfhsim.phase_metrology import PhaseTrace
from wfhsim.security import kgr
from wfhsim.wf_receiver import conditional_tables

SMALL_GRID = ["--set", "channel.loss_db_stop=0.5", "--set", "channel.loss_db_step=0.25"]
REPO_ROOT = Path(__file__).resolve().parents[1]
REFERENCE_DIR = REPO_ROOT / "perfbench" / "reference"
# columns that label a row; every other column must match to 1e-12 rel + abs
LABEL_COLUMNS = {"loss_db", "m", "receiver", "visibility", "sigma_phi", "insecure"}

SMALL_LOCK = [
    "--set", "lock.duration_s=2.0",
    "--set", "lock.n_seeds=2",
    "--set", "lock.allan_max_m=2048",
]


def run_cli(args, tmp_path, name):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


def child_env(*scrubbed):
    """This process's environment without `scrubbed`, with wfhsim importable."""
    paths = [str(Path(wfhsim.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {k: v for k, v in os.environ.items() if k not in scrubbed}
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def run_python(code, env):
    """stdout of a fresh interpreter running `code`."""
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout.strip()


class TestSweepMi:
    def test_writes_expected_columns(self, tmp_path):
        code, out = run_cli(["sweep-mi"] + SMALL_GRID, tmp_path, "mi")
        assert code == 0
        meta, header, rows = parse_table((out / "sweep_mi.csv").read_text())
        assert header == ["loss_db", "m", "receiver", "visibility", "sigma_phi", "mi_bits"]
        # 3 loss points x 2 orders x 2 receivers x 2 visibilities
        assert len(rows) == 24
        assert (out / "manifest.json").exists()

    def test_wf_tracks_homodyne_at_zero_loss(self, tmp_path):
        _, out = run_cli(
            ["sweep-mi", "--set", "channel.loss_db_stop=0",
             "--set", "sweep.visibilities=1.0"],
            tmp_path, "mi0",
        )
        _, _, rows = parse_table((out / "sweep_mi.csv").read_text())
        by_key = {(r[1], r[2]): float(r[5]) for r in rows}
        for m in ("2", "4"):
            wf, hd = by_key[(m, "wf")], by_key[(m, "hd")]
            assert abs(wf - hd) / hd < 0.02

    def test_jitter_nodes_reach_homodyne(self, tmp_path):
        hd = {}
        for sigma in (0.0, 0.25):
            _, out = run_cli(
                ["sweep-mi", "--set", "channel.loss_db_stop=0",
                 "--set", "sweep.visibilities=1.0",
                 "--set", f"receiver.phase_jitter_rms={sigma}"],
                tmp_path, f"mijitter{sigma}",
            )
            _, _, rows = parse_table((out / "sweep_mi.csv").read_text())
            hd[sigma] = {r[1]: float(r[5]) for r in rows if r[2] == "hd"}
        assert hd[0.0]["4"] > hd[0.25]["4"] + 0.01

    @pytest.mark.parametrize("sigma", ["5e-324", "1e-300", "1e-6", "10", "1e6"])
    def test_extreme_jitter_runs_or_errors(self, tmp_path, capsys, sigma):
        """No traceback at any finite jitter: the rule sizes itself or reports an error."""
        code, out = run_cli(
            ["sweep-mi", "--set", "channel.loss_db_stop=0",
             "--set", f"receiver.phase_jitter_rms={sigma}"],
            tmp_path, "extreme",
        )
        err = capsys.readouterr().err
        assert code == 0 or (code == 1 and err.startswith("error:")), err
        assert "Traceback" not in err

    def test_jitter_node_cap_exits_with_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(wf_receiver, "JITTER_MAX_NODES", 8)
        code, out = run_cli(
            ["sweep-mi", "--set", "receiver.phase_jitter_rms=0.25"], tmp_path, "capped"
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "nodes" in err and "Traceback" not in err
        assert not out.exists()

    def test_quaternary_beats_binary_at_low_loss(self, tmp_path):
        _, out = run_cli(
            ["sweep-mi", "--set", "channel.loss_db_stop=1.75",
             "--set", "sweep.visibilities=1.0"],
            tmp_path, "milow",
        )
        _, _, rows = parse_table((out / "sweep_mi.csv").read_text())
        wf = {}
        for r in rows:
            if r[2] == "wf":
                wf.setdefault(float(r[0]), {})[r[1]] = float(r[5])
        for loss, v in wf.items():
            assert v["4"] > v["2"], f"loss {loss}"

    def test_round_trip_exact(self, tmp_path):
        _, out = run_cli(["sweep-mi"] + SMALL_GRID, tmp_path, "mirt")
        text = (out / "sweep_mi.csv").read_text()
        _, _, rows = parse_table(text)
        values = [float(r[5]) for r in rows]
        again = [float(f"{v:.17g}") for v in values]
        assert again == values

    def test_json_format(self, tmp_path):
        code, out = run_cli(
            ["sweep-mi", "--format", "json", "--set", "channel.loss_db_stop=0"],
            tmp_path, "mijson",
        )
        assert code == 0
        payload = json.loads((out / "sweep_mi.json").read_text())
        assert payload["columns"][0] == "loss_db"
        assert len(payload["rows"]) == 8


class TestSweepKgr:
    def test_zero_loss_row_matches_mi(self, tmp_path):
        _, out = run_cli(
            ["sweep-kgr", "--set", "channel.loss_db_stop=0"], tmp_path, "kgr0"
        )
        _, header, rows = parse_table((out / "sweep_kgr.csv").read_text())
        assert header == ["loss_db", "m", "kgr_bits", "mi_bits", "holevo_bits", "insecure"]
        for r in rows:
            assert abs(float(r[2]) - float(r[3])) < 1e-9
            assert abs(float(r[4])) < 1e-9
            assert r[5] == "false"

    def test_quaternary_dominates_on_grid(self, tmp_path):
        _, out = run_cli(
            ["sweep-kgr", "--set", "channel.loss_db_stop=6",
             "--set", "channel.loss_db_step=1.5"],
            tmp_path, "kgrdom",
        )
        _, _, rows = parse_table((out / "sweep_kgr.csv").read_text())
        per_loss = {}
        for r in rows:
            per_loss.setdefault(r[0], {})[r[1]] = float(r[2])
        for loss, v in per_loss.items():
            assert v["4"] >= v["2"], f"loss {loss}"


class TestLockCommand:
    def test_outputs_per_condition(self, tmp_path):
        code, out = run_cli(["lock"] + SMALL_LOCK, tmp_path, "lock")
        assert code == 0
        for label in (
            "lock_off_box_open",
            "lock_off_box_closed",
            "fast_lock_box_open",
            "fast_lock_box_closed",
        ):
            assert (out / f"trace_{label}.csv").exists()
            meta, _, rows = parse_table((out / f"allan_{label}.csv").read_text())
            assert meta["n_seeds"] == "2"
            assert len(rows) == 6  # m = 64 .. 2048 octaves
            meta_asd, _, _ = parse_table((out / f"asd_{label}.csv").read_text())
            assert meta_asd["window"] == "hann"

    def test_workers_change_no_byte(self, tmp_path, monkeypatch):
        # two seeds: the bands reduce over tasks that may finish out of order
        outputs = []
        for workers in ("1", "2"):
            monkeypatch.setenv(cli.WORKER_ENV, workers)
            code, out = run_cli(["lock"] + SMALL_LOCK, tmp_path, f"workers{workers}")
            assert code == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir() if p.suffix == ".csv"})
        assert len(outputs[0]) == 13  # 9 tables and 4 traces
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_holds_one_trace_per_worker(self, tmp_path, monkeypatch, workers):
        # each task writes its trace and drops it, so the traced peak of a
        # whole run is one trace per pool thread and less than one more
        monkeypatch.setenv(cli.WORKER_ENV, str(workers))
        args = ["lock", "--set", "lock.n_seeds=1", "--out", str(tmp_path / "lock")]
        assert main(args) == 0  # warm-up: first-call caches are not the traces' memory
        tracemalloc.start()
        try:
            assert main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        config = load_config()
        n = round(config["lock.duration_s"] / config["lock.dt_s"])  # 600k samples a trace
        assert peak / (8 * n) <= workers + 1

    def test_zero_noise_allan_is_zero(self, tmp_path):
        args = ["lock"] + SMALL_LOCK + [
            "--set", "lock.noise_drift_rate=0",
            "--set", "lock.noise_tone_20hz_rms=0",
            "--set", "lock.noise_tone_200hz_rms=0",
            "--set", "lock.noise_white_rms=0",
            "--set", "lock.noise_air_rms=0",
        ]
        _, out = run_cli(args, tmp_path, "lockzero")
        _, _, rows = parse_table((out / "allan_fast_lock_box_closed.csv").read_text())
        assert all(float(r[1]) == 0.0 for r in rows)


class TestTraceCommands:
    def test_allan_and_asd_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        trace = PhaseTrace(rng.normal(0, 0.1, 20_000), 1e-4)
        src = tmp_path / "trace.csv"
        write_trace_csv(src, trace)
        code, out = run_cli(["allan", "--input", str(src)], tmp_path, "allan")
        assert code == 0
        _, header, rows = parse_table((out / "allan.csv").read_text())
        assert header == ["tau_s", "adev", "n_terms"]
        assert len(rows) > 5
        code, out2 = run_cli(
            ["asd", "--input", str(src), "--segment-s", "0.2"], tmp_path, "asd"
        )
        assert code == 0
        meta, _, rows = parse_table((out2 / "asd.csv").read_text())
        assert meta["window"] == "hann"

    def test_missing_input_fails_cleanly(self, tmp_path, capsys):
        code = main(["allan", "--input", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "nope.csv" in capsys.readouterr().err
        assert not (tmp_path / "o").exists() or not list((tmp_path / "o").iterdir())

    def test_short_trace_rejected(self, tmp_path, capsys):
        # under 8 samples there is no octave m with 8m <= N: no Allan point at all
        src = tmp_path / "short.csv"
        write_trace_csv(src, PhaseTrace(np.linspace(0.0, 0.5, 6), 1e-3))
        out = tmp_path / "o"
        assert main(["allan", "--input", str(src), "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("writer", [write_trace_csv, write_trace_bin], ids=["csv", "bin"])
    @pytest.mark.parametrize(
        "command", [["allan"], ["asd", "--segment-s", "0.4"]], ids=["allan", "asd"]
    )
    @pytest.mark.parametrize("bad", [math.inf, -math.inf], ids=["inf", "-inf"])
    def test_infinite_sample_rejected(self, tmp_path, capsys, writer, command, bad):
        # the readers keep +-inf, but no Allan or spectral row can come from it
        samples = np.linspace(0.0, 1.5, 16)
        samples[9] = bad
        src = tmp_path / "inf.trace"
        writer(src, PhaseTrace(samples, 0.1))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(command + ["--input", str(src), "--out", str(out)]) == 1
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_lock_trace_feeds_allan_command(self, tmp_path):
        """Emitted traces round-trip through the standalone analysis commands."""
        from wfhsim.io import read_trace_csv
        from wfhsim.phase_metrology import octave_taus, overlapping_allan

        _, lock_out = run_cli(["lock"] + SMALL_LOCK, tmp_path, "lockpipe")
        trace_file = lock_out / "trace_fast_lock_box_closed.csv"
        code, allan_out = run_cli(
            ["allan", "--input", str(trace_file)], tmp_path, "allanpipe"
        )
        assert code == 0
        _, _, rows = parse_table((allan_out / "allan.csv").read_text())
        trace = read_trace_csv(trace_file)
        direct = overlapping_allan(trace, octave_taus(trace))
        assert len(rows) == len(octave_taus(trace)) > 0
        for row, tau, adev in zip(rows, direct.taus, direct.adev):
            assert (float(row[0]), float(row[1])) == (tau, adev)

    @pytest.mark.slow
    def test_metrology_ignores_threading(self, tmp_path):
        """The Allan and window-power sums run over >10k points, where BLAS ddot
        splits a sum across threads; as numpy reductions they change no byte."""
        rng = np.random.default_rng(5)
        src = tmp_path / "trace.csv"
        write_trace_csv(src, PhaseTrace(np.cumsum(rng.normal(0, 0.01, 200_000)), 1e-4))
        base = child_env("OPENBLAS_NUM_THREADS")
        outputs = []
        for threads in ("1", "2"):
            files = []
            for args, name in ((["allan"], "allan.csv"), (["asd", "--segment-s", "4"], "asd.csv")):
                out = tmp_path / f"{name}-{threads}"
                subprocess.run(
                    [sys.executable, "-m", "wfhsim.cli", *args, "--input", str(src),
                     "--out", str(out)],
                    env=base | {"OPENBLAS_NUM_THREADS": threads}, capture_output=True, check=True,
                )
                files.append((out / name).read_bytes())
            outputs.append(files)
        assert outputs[0] == outputs[1]


class TestMonteCarloCommand:
    def test_summary_meets_fidelity_bar(self, tmp_path):
        # default dark counts and crosstalk stay on; theory overlay is ideal
        _, out = run_cli(
            ["montecarlo", "--set", "montecarlo.shots=100000",
             "--set", "montecarlo.signal_means=4.13"],
            tmp_path, "mc",
        )
        _, _, rows = parse_table((out / "mc_summary.csv").read_text())
        for r in rows:
            assert float(r[3]) > 0.999
        _, _, mi_rows = parse_table((out / "mc_mi.csv").read_text())
        for r in mi_rows:
            assert abs(float(r[3]) - float(r[4])) < 0.05

    @pytest.mark.parametrize("sigma", ["0.5", "1"])
    def test_theory_follows_phase_jitter(self, tmp_path, sigma):
        # the shots draw the configured jitter, so the overlay must average it too
        _, out = run_cli(
            ["montecarlo", "--set", "montecarlo.shots=100000",
             "--set", "montecarlo.signal_means=4.13",
             "--set", f"receiver.phase_jitter_rms={sigma}"],
            tmp_path, "mc",
        )
        _, _, rows = parse_table((out / "mc_summary.csv").read_text())
        assert len(rows) == 6
        for r in rows:
            assert float(r[3]) > 0.999

    def test_overlap_grows_at_lower_signal(self, tmp_path):
        _, out = run_cli(
            ["montecarlo", "--set", "montecarlo.shots=40000"], tmp_path, "mcov"
        )
        _, _, rows = parse_table((out / "mc_summary.csv").read_text())
        overlap = {}
        for r in rows:
            if r[0] == "4":
                overlap.setdefault(float(r[1]), []).append(float(r[5]))
        assert np.mean(overlap[1.78]) > np.mean(overlap[4.13])

    def test_metadata_states_shots_sampled(self, tmp_path, monkeypatch):
        # 10 shots over 4 repetitions: 2 per repetition, 8 per (order, mean)
        sampled = []
        run_experiment = cli.run_experiment

        def counting(c, params, imperfections, shots, rng):
            sampled.append(shots)
            return run_experiment(c, params, imperfections, shots, rng)

        monkeypatch.setattr(cli, "run_experiment", counting)
        code, out = run_cli(
            ["montecarlo", "--set", "montecarlo.shots=10",
             "--set", "montecarlo.repetitions=4",
             "--set", "montecarlo.signal_means=4.13"],
            tmp_path, "mcshots",
        )
        assert code == 0
        assert sum(sampled) == 2 * 8  # orders 2 and 4
        for name in ("mc_summary.csv", "mc_hist_m2_sig4.13.csv", "mc_hist_m4_sig4.13.csv"):
            assert "# shots=8\n" in (out / name).read_text()
        assert "# shots_per_repetition=2\n" in (out / "mc_mi.csv").read_text()

    def test_receiver_laws_stay_in_the_receiver(self):
        """cli.py takes the Skellam theory from ``difference_laws`` and no private receiver name."""
        tree = ast.parse((REPO_ROOT / "src" / "wfhsim" / "cli.py").read_text())
        imported = [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module in ("wf_receiver", "wfhsim.wf_receiver")
            for alias in node.names
        ]
        assert "difference_laws" in imported
        assert [name for name in imported if name.startswith("_")] == []

    def test_difference_outside_window_fails_the_run(self, tmp_path, capsys):
        # 30 dark counts a shot push symbol 0's differences out of the theory
        # window; its shots exist, so the run must not report them as missing
        code, out = run_cli(
            ["montecarlo", "--set", "montecarlo.crosstalk_prob=0.99",
             "--set", "montecarlo.dark_mean=30", "--set", "montecarlo.shots=2000",
             "--set", "montecarlo.signal_means=4.13"],
            tmp_path, "mcwindow",
        )
        assert code == 1
        err = capsys.readouterr().err
        pattern = r"^error: symbol 0: count difference -?\d+ outside \[-\d+, \d+\]$"
        assert re.search(pattern, err, re.M)
        assert not out.exists()

    def test_default_run_keeps_every_symbol(self, tmp_path):
        code, out = run_cli(["montecarlo"], tmp_path, "mcdefault")
        assert code == 0
        for m in (2, 4):
            for mean in ("4.13", "1.78"):
                _, _, rows = parse_table((out / f"mc_hist_m{m}_sig{mean}.csv").read_text())
                empirical = np.array([[float(v) for v in r[1 : 1 + m]] for r in rows])
                assert np.allclose(empirical.sum(axis=0), 1.0, rtol=0, atol=1e-12)
        _, _, summary = parse_table((out / "mc_summary.csv").read_text())
        assert len(summary) == 2 * (2 + 4)
        assert min(float(r[3]) for r in summary) > 0.99


class TestEdgeCases:
    def test_single_shot_histogram_is_point_mass(self, tmp_path):
        _, out = run_cli(
            ["montecarlo", "--set", "montecarlo.shots=1",
             "--set", "montecarlo.repetitions=1",
             "--set", "montecarlo.signal_means=4.13"],
            tmp_path, "mc1",
        )
        _, header, rows = parse_table((out / "mc_hist_m2_sig4.13.csv").read_text())
        emp0 = np.array([float(r[1]) for r in rows])
        emp1 = np.array([float(r[2]) for r in rows])
        # exactly one record lands on one symbol; the other column is empty
        totals = sorted([emp0.sum(), emp1.sum()])
        assert totals == [0.0, 1.0]
        assert max(emp0.max(), emp1.max()) == 1.0

    def test_skellam_under_bright_reference(self, tmp_path):
        code, out = run_cli(["skellam", "--set", "montecarlo.lo_mean=1e5"], tmp_path, "bright")
        assert code == 0
        _, _, rows = parse_table((out / "skellam_m4_sig4.13.csv").read_text())
        assert np.array([r[1:] for r in rows], dtype=float).sum(axis=0) == pytest.approx(1.0)

    @pytest.mark.parametrize("command", ["sweep-mi", "sweep-kgr"])
    def test_worker_pool_changes_nothing(self, tmp_path, monkeypatch, command):
        outputs = []
        for workers in ("1", "4"):
            monkeypatch.setenv("WFHSIM_WORKERS", workers)
            _, out = run_cli(
                [command] + SMALL_GRID, tmp_path, f"workers{workers}"
            )
            outputs.append((out / f"{command.replace('-', '_')}.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_pool_runs_only_pooled_work(self, tmp_path, monkeypatch):
        # sweep-mi's points hold the interpreter lock, so they run on the command's thread
        created = []

        class RecordingPool(cli.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                created.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setenv(cli.WORKER_ENV, "2")
        pools = {}
        for args in (["sweep-mi", *SMALL_GRID], ["sweep-kgr", *SMALL_GRID], ["lock", *SMALL_LOCK]):
            created.clear()
            code, _ = run_cli(args, tmp_path, args[0])
            assert code == 0
            pools[args[0]] = list(created)
        assert pools == {"sweep-mi": [], "sweep-kgr": [2], "lock": [2]}

    @pytest.mark.slow
    def test_homodyne_result_ignores_threading(self, tmp_path):
        """The jitter node sum is a numpy reduction: BLAS threads and the pool change no byte."""
        base = child_env("OPENBLAS_NUM_THREADS", cli.WORKER_ENV)
        outputs = []
        for name, env in (
            ("blas1", {"OPENBLAS_NUM_THREADS": "1"}),
            ("blas2", {"OPENBLAS_NUM_THREADS": "2"}),
            ("serial", {cli.WORKER_ENV: "1"}),
        ):
            out = tmp_path / name
            subprocess.run(
                [sys.executable, "-m", "wfhsim.cli", "sweep-mi",
                 "--set", "receiver.phase_jitter_rms=0.25", *SMALL_GRID, "--out", str(out)],
                env=base | env, capture_output=True, check=True,
            )
            outputs.append((out / "sweep_mi.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]


class TestBenchmarkReferences:
    """Refactors reproduce the benchmark's reference tables to 1e-12."""

    @pytest.mark.parametrize(
        "args, reference",
        [
            (["sweep-mi", "--set", "receiver.phase_jitter_rms=0.25"], "jitter-mi/sweep_mi.csv"),
            (["sweep-kgr", "--set", "channel.loss_db_step=1.0"], "kgr-sweep/sweep_kgr.csv"),
        ],
        ids=["jitter-mi", "kgr-sweep"],
    )
    def test_matches_reference_table(self, tmp_path, args, reference):
        code, out = run_cli(args, tmp_path, "ref")
        assert code == 0
        ref_path = REFERENCE_DIR / reference
        meta, header, rows = parse_table((out / ref_path.name).read_text())
        ref_meta, ref_header, ref_rows = parse_table(ref_path.read_text())
        assert (meta, header, len(rows)) == (ref_meta, ref_header, len(ref_rows))
        for row, ref in zip(rows, ref_rows):
            for name, cell, ref_cell in zip(header, row, ref):
                if name in LABEL_COLUMNS:
                    assert cell == ref_cell, name
                else:
                    a, b = float(cell), float(ref_cell)
                    assert abs(a - b) <= 1e-12 + 1e-12 * abs(b), (name, row, ref)


class TestErrorHandling:
    def test_unknown_key_exits_nonzero(self, tmp_path, capsys):
        code = main(["sweep-mi", "--set", "nope.key=1", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "unknown" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("workers", ["abc", "2.5", "0"])
    def test_malformed_worker_count_names_itself(self, tmp_path, capsys, monkeypatch, workers):
        # every command reads the variable, not only those that map work over the pool
        trace = tmp_path / "trace.csv"
        samples = np.random.default_rng(5).normal(0.0, 0.1, 2_000).cumsum()
        write_trace_csv(trace, PhaseTrace(samples, 1e-3))
        monkeypatch.setenv(cli.WORKER_ENV, workers)
        for args in (
            ["sweep-mi", *SMALL_GRID],
            ["sweep-kgr", *SMALL_GRID],
            ["lock", *SMALL_LOCK],
            ["montecarlo", "--set", "montecarlo.shots=4000",
             "--set", "montecarlo.signal_means=4.13"],
            ["skellam", "--set", "montecarlo.signal_means=4.13"],
            ["allan", "--input", str(trace)],
            ["asd", "--input", str(trace)],
        ):
            out = tmp_path / args[0]
            assert main([*args, "--out", str(out)]) == 1, args[0]
            err = capsys.readouterr().err
            assert err == f"error: WFHSIM_WORKERS must be a whole number >= 1, got {workers!r}\n"
            assert not out.exists(), args[0]

    @pytest.mark.parametrize(
        "key", ["constellation.m", "receiver.n_max", "sweep.bpsk_phi0", "sweep.qpsk_phi0"]
    )
    def test_removed_key_exits_nonzero(self, tmp_path, capsys, key):
        code = main(["skellam", "--set", f"{key}=1", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "unknown" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    OS_ERRORS = {
        "config-dir": lambda d: ["skellam", "--config", str(d), "--out", str(d / "o")],
        "input-dir": lambda d: ["allan", "--input", str(d), "--out", str(d / "o")],
        "out-is-file": lambda d: ["skellam", "--out", str(d / "file")],
        "out-under-file": lambda d: ["skellam", "--out", str(d / "file" / "sub")],
        "write-denied": lambda d: ["skellam", "--out", str(d / "o")],
    }

    @pytest.mark.parametrize("case", OS_ERRORS)
    def test_os_error_exits_with_error(self, tmp_path, capsys, monkeypatch, case):
        blocker = tmp_path / "file"
        blocker.write_text("keep\n")
        if case == "write-denied":
            def deny(path, data):
                raise PermissionError(13, "Permission denied", str(path))

            monkeypatch.setattr(Path, "write_bytes", deny)
        code = main(self.OS_ERRORS[case](tmp_path))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["file"]
        assert blocker.read_text() == "keep\n"

    def test_memory_error_exits_with_error(self, tmp_path, capsys, monkeypatch):
        def exhaust(config):
            raise MemoryError("Unable to allocate 91.1 GiB for an array")

        monkeypatch.setattr(cli, "cmd_skellam", exhaust)
        code = main(["skellam", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "setting",
        [
            "lock.noise_tone_20hz_width=-1",
            "lock.noise_air_width=-0.15",
            "lock.noise_box_factor=-0.5",
            "lock.noise_acoustic_power_split=0.7,-0.3",
            "lock.noise_acoustic_power_split=0,0",
        ],
    )
    def test_misread_noise_rejected_at_load(self, tmp_path, capsys, setting):
        code = main(["lock", "--set", setting, "--out", str(tmp_path / "n")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: invalid lock configuration")
        assert not (tmp_path / "n").exists()

    @pytest.mark.parametrize(
        "args,section,key",
        [
            (["montecarlo", "--seed", "-1"], "montecarlo", "montecarlo.seed"),
            (["sweep-kgr", "--seed", "-1"], "montecarlo", "montecarlo.seed"),
            (["lock", "--set", "lock.seed=-1"], "lock", "lock.seed"),
        ],
    )
    def test_negative_seed_rejected_at_load(self, tmp_path, capsys, args, section, key):
        code = main([*args, "--out", str(tmp_path / "s")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: invalid {section} configuration") and key in err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("command", ["lock", "sweep-mi"])
    def test_gainless_fast_lock_rejected_at_load(self, tmp_path, capsys, monkeypatch, command):
        calls = []

        def refuse(*args):
            calls.append(args)
            raise AssertionError("simulate_lock ran on a gainless lock")

        monkeypatch.setattr(cli, "simulate_lock", refuse)
        out = tmp_path / "g"
        code = main([
            command, "--set", "lock.kp_fast=0", "--set", "lock.ki_fast=0", "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: invalid lock configuration") and "gains" in err
        assert not out.exists() and not calls

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_diverging_lock_exits_with_error(self, tmp_path, capsys, monkeypatch, workers):
        # the locked conditions cannot follow this drift; at 2 workers they fail on a pool thread
        monkeypatch.setenv(cli.WORKER_ENV, workers)
        out = tmp_path / "d"
        code = main([
            "lock", "--set", "lock.n_seeds=1", "--set", "lock.duration_s=1",
            "--set", "lock.noise_drift_rate=1e4", "--set", "lock.allan_max_m=64",
            "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: loop diverged") and "Traceback" not in err
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["sweep-mi", "--config", str(tmp_path / "absent.cfg"),
                     "--out", str(tmp_path / "z")])
        assert code == 1
        assert not (tmp_path / "z").exists()

    def test_config_file_drives_run(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "channel.loss_db_stop = 0.0\n"
            "sweep.visibilities = 1.0\n"
            "output.directory = ignored-by-flag\n"
        )
        code, out = run_cli(["sweep-mi", "--config", str(cfg)], tmp_path, "fromcfg")
        assert code == 0
        _, _, rows = parse_table((out / "sweep_mi.csv").read_text())
        assert len(rows) == 4  # 1 loss x 2 orders x 2 receivers x 1 visibility

    def test_empty_grid_rejected(self, tmp_path):
        code = main([
            "sweep-mi", "--set", "channel.loss_db_step=-1",
            "--out", str(tmp_path / "y"),
        ])
        assert code == 1
        assert not (tmp_path / "y").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["sweep-kgr", "--set", "channel.loss_db_step=1e-320"],
            ["lock", "--set", "lock.asd_segment_s=1e308"],
            ["lock", "--set", "lock.duration_s=1e308"],
            ["asd", "--segment-s", "inf"],
            ["asd", "--segment-s", "1e308"],
            ["sweep-mi", "--set", "constellation.alpha=1e300"],
            ["sweep-mi", "--set", "receiver.lo_amplitude=1e200"],
            ["sweep-kgr", "--set", "constellation.alpha=1e160"],
        ],
        ids=[
            "loss-step", "asd-segment", "duration", "segment-inf", "segment-1e308",
            "mi-alpha", "mi-lo-amplitude", "kgr-alpha",
        ],
    )
    def test_finite_value_without_sample_count_rejected(self, tmp_path, capsys, args):
        if args[0] == "asd":
            src = tmp_path / "trace.csv"
            write_trace_csv(src, PhaseTrace(np.zeros(400), 1e-4))
            args = [*args, "--input", str(src)]
        code = main([*args, "--out", str(tmp_path / "w")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert not (tmp_path / "w").exists()


class TestDuplicateOutputNames:
    @pytest.mark.parametrize(
        "args, name",
        [
            (["skellam", "--set", "montecarlo.signal_means=4.130001,4.130002"],
             "skellam_m2_sig4.13.csv"),
            (["montecarlo", "--set", "montecarlo.shots=100",
              "--set", "montecarlo.signal_means=4.13,4.13"],
             "mc_hist_m2_sig4.13.csv"),
        ],
        ids=["skellam", "montecarlo"],
    )
    def test_rejected_before_writing(self, tmp_path, capsys, args, name):
        outdir = tmp_path / "new" / "dup"
        assert main(args + ["--out", str(outdir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err
        assert list(tmp_path.iterdir()) == []


class TestSweepPhases:
    """Every command that sweeps the orders builds them by the one rule in sweep_psk."""

    PHASES = {2: 0.0, 4: math.pi / 8}  # the antipodal pair; QPSK at pi/(2M)
    ONE_POINT = ["--set", "channel.loss_db_start=1", "--set", "channel.loss_db_stop=1",
                 "--set", "sweep.visibilities=1.0"]
    MONTECARLO = ["--set", "montecarlo.shots=40", "--set", "montecarlo.signal_means=4.13"]

    @staticmethod
    def _rows(tmp_path, args, table):
        code, out = run_cli(args, tmp_path, table)
        assert code == 0
        _, header, rows = parse_table((out / f"{table}.csv").read_text())
        return [dict(zip(header, r)) for r in rows]

    @staticmethod
    def _close(a: float, b: float) -> bool:
        return abs(a - b) <= 1e-12 * abs(b)

    def test_sweep_kgr(self, tmp_path):
        config = load_config()
        params = config.receiver_params(loss_db_to_transmissivity(1.0))
        rows = self._rows(tmp_path, ["sweep-kgr"] + self.ONE_POINT, "sweep_kgr")
        assert [r["m"] for r in rows] == ["2", "4"]
        for row in rows:
            m = int(row["m"])
            c = build_psk(m, float(config["constellation.alpha"]), self.PHASES[m])
            assert self._close(float(row["kgr_bits"]), kgr(c, params).kgr_bits)

    def test_sweep_mi(self, tmp_path):
        config = load_config()
        t = loss_db_to_transmissivity(1.0)
        rows = self._rows(tmp_path, ["sweep-mi"] + self.ONE_POINT, "sweep_mi")
        assert sorted((r["m"], r["receiver"]) for r in rows) == [
            ("2", "hd"), ("2", "wf"), ("4", "hd"), ("4", "wf"),
        ]
        params = config.receiver_params(t, visibility=1.0)  # one operating point, both receivers
        for row in rows:
            m = int(row["m"])
            c = build_psk(m, float(config["constellation.alpha"]), self.PHASES[m])
            if row["receiver"] == "wf":
                expected = wf_mutual_information(c, params).mi_bits
            else:
                expected = hd_mutual_information(c, params)
            assert self._close(float(row["mi_bits"]), expected)

    def test_montecarlo_analytic_mi(self, tmp_path):
        config = load_config()
        lo_amplitude = math.sqrt(float(config["montecarlo.lo_mean"]))
        params = replace(config.receiver_params(1.0), lo_amplitude=lo_amplitude)
        rows = self._rows(tmp_path, ["montecarlo"] + self.MONTECARLO, "mc_mi")
        assert {r["m"] for r in rows} == {"2", "4"}
        for row in rows:
            m = int(row["m"])
            c = build_psk(m, math.sqrt(4.13), self.PHASES[m])
            expected = wf_mutual_information(c, params).mi_bits
            assert self._close(float(row["mi_bits_analytic"]), expected)

    def test_skellam_tables_are_montecarlo_theory(self, tmp_path):
        for sigma in ("0", "0.5"):  # without and with phase jitter
            args = ["--set", "montecarlo.signal_means=4.13,1.78",
                    "--set", f"receiver.phase_jitter_rms={sigma}"]
            code, sk = run_cli(["skellam"] + args, tmp_path, f"sk{sigma}")
            assert code == 0
            mc_args = ["montecarlo", "--set", "montecarlo.shots=400"] + args
            code, mc = run_cli(mc_args, tmp_path, f"mc{sigma}")
            assert code == 0
            names = sorted(p.name for p in sk.glob("skellam_*.csv"))
            assert names == [f"skellam_m{m}_sig{s}.csv" for m in (2, 4) for s in ("1.78", "4.13")]
            for name in names:
                _, sk_header, sk_rows = parse_table((sk / name).read_text())
                mc_table = (mc / name.replace("skellam", "mc_hist")).read_text()
                _, mc_header, mc_rows = parse_table(mc_table)
                theory = [mc_header.index(h) for h in sk_header]  # d, then p_theory_k
                assert [[row[i] for i in theory] for row in mc_rows] == sk_rows


class TestBenchmarkHooks:
    """The names the benchmark's tracer reads from the package stay in place."""

    SPAN_STATS = {"self_s", "self_cpu_s", "total_s", "calls", "p50_s", "p75_s"}

    def test_per_layer_functions_exist(self):
        spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        checked = 0
        for entry in spec["per_layer"]:
            parts = entry["name"].split(".")
            if len(parts) != 3 or parts[2] not in self.SPAN_STATS:
                continue
            module, function, _ = parts
            fn = getattr(importlib.import_module(f"wfhsim.{module}"), function, None)
            assert inspect.isfunction(fn), entry["name"]
            assert (fn.__module__, fn.__name__) == (f"wfhsim.{module}", function), entry["name"]
            assert not function.startswith("_")
            checked += 1
        assert checked > 0

    def test_every_public_definition_has_a_caller(self):
        """A public top-level name in src/ is used in src/, exported, or named in per_layer.

        A use is code that loads the name or a docstring that cross-references
        it (``:func:`parse_table```): the table reader and the binary trace
        writer are the documented other halves of the formats the CLI writes
        and reads.
        """
        spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        benchmarked = {tuple(entry["name"].split(".")[:2]) for entry in spec["per_layer"]}
        sources = {
            path.stem: path.read_text()
            for path in sorted((REPO_ROOT / "src" / "wfhsim").glob("*.py"))
        }
        trees = {module: ast.parse(text) for module, text in sources.items()}
        used = set()
        for module, tree in trees.items():
            used.update(re.findall(r":[a-z]+:`[~.]*(?:\w+\.)*(\w+)`", sources[module]))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
        orphans = []
        for module, tree in trees.items():
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                else:
                    continue
                orphans += [
                    f"{module}.{name}"
                    for name in names
                    if not name.startswith("_")
                    and name not in used
                    and name not in wfhsim.__all__
                    and (module, name) not in benchmarked
                ]
        assert orphans == []

    def test_benchmark_config_keys_exist(self):
        # every `--set` key the benchmark passes must still load
        keys = {
            key
            for path in (REPO_ROOT / "perfbench").rglob("*.py")
            for key in re.findall(r'"([a-z_]+\.[a-z0-9_]+)=', path.read_text())
        }
        assert len(keys) >= 8
        assert keys <= set(KEY_PARSERS), sorted(keys - set(KEY_PARSERS))

    def test_traced_results_keep_their_shape(self):
        # what perfbench/spans.py's observers read from the traced calls' results
        params = load_config().receiver_params(0.5)
        c = build_psk(4, 1.0)
        tables = conditional_tables(c, params)
        assert len(tables) == 4
        assert all(isinstance(t.probs, np.ndarray) and t.probs.size > 0 for t in tables)
        # the Holevo scan's outcome count: the constellation argument and its priors
        assert next(iter(inspect.signature(conditional_tables).parameters)) == "c"
        priors = np.array([s.prior for s in c.symbols])
        p_o = priors @ np.stack([t.probs.ravel() for t in tables])
        assert priors.shape == (len(tables),) and 0.0 < p_o.sum() <= 1.0 + 1e-12
        assert 0.0 < security.OUTCOME_SKIP_THRESHOLD < 1e-6
        assert 0.0 <= float(wf_mutual_information(c, params).truncation_mass) <= 1e-6
        counts = run_experiment(c, params, DetectorImperfections(), 50, np.random.default_rng(0))
        assert sum(counts.values()) == 50
        trace = simulate_lock(0.02, 1e-4, load_config().pi_fast(), ActuatorModel(), NoiseModel())
        assert len(trace) == 200

    def test_worker_hooks_exist(self):
        assert isinstance(cli.WORKER_ENV, str)
        assert cli._workers() >= 1

    def test_workers_default_to_the_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.delenv(cli.WORKER_ENV, raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert cli._workers() == 1  # pinned to one of the 8
        monkeypatch.delattr(cli.os, "sched_getaffinity")  # a platform without it
        assert cli._workers() == 8
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert cli._workers() == 1
        monkeypatch.setenv(cli.WORKER_ENV, "3")
        assert cli._workers() == 3

    def test_run_calls_command_through_module(self, tmp_path, monkeypatch):
        calls = []
        cmd_skellam = cli.cmd_skellam

        def patched(config):
            calls.append(config)
            return cmd_skellam(config)

        monkeypatch.setattr(cli, "cmd_skellam", patched)
        code, _ = run_cli(["skellam", "--set", "montecarlo.signal_means=4.13"], tmp_path, "hook")
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "command", ["sweep-kgr", "sweep-mi", "lock", "montecarlo", "skellam", "allan", "asd"]
    )
    def test_traced_run_has_one_root(self, tmp_path, monkeypatch, command):
        # every span of a pooled run, the table writes included, opens under cli.main
        monkeypatch.setenv(cli.WORKER_ENV, "2")
        # the tracer and the reduced workload sizes of the benchmark's own tracing test
        path = REPO_ROOT / "perfbench" / "tests" / "test_tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        trace = tmp_path / "trace.csv"
        samples = np.random.default_rng(5).normal(0.0, 0.1, 20_000).cumsum()
        write_trace_csv(trace, PhaseTrace(samples, 1e-4))
        args = {
            **tracing.SMALL,
            "skellam": ["skellam", "--set", "montecarlo.signal_means=4.13"],
            "allan": ["allan", "--input", str(trace)],
            "asd": ["asd", "--input", str(trace)],
        }[command]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert cli.main([*args, "--out", str(tmp_path / "out")]) == 0
        finally:
            tracer.uninstall()
        assert [s.name for s in tracer.spans if s.parent is None] == ["cli.main"]


class TestManifest:
    def test_records_config_seed_version(self, tmp_path):
        _, out = run_cli(
            ["skellam", "--seed", "77", "--set", "montecarlo.signal_means=4.13"],
            tmp_path, "man",
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "skellam"
        assert manifest["seed"] == 77
        assert manifest["config"]["montecarlo.seed"] == "77"
        assert "version" in manifest
        assert "skellam_m4_sig4.13.csv" in manifest["outputs"]

    COMMANDS = [
        ["sweep-mi", "--set", "channel.loss_db_stop=0", "--set", "sweep.visibilities=1.0"],
        ["sweep-kgr", "--set", "channel.loss_db_stop=0"],
        ["lock", "--set", "lock.duration_s=0.5", "--set", "lock.n_seeds=1",
         "--set", "lock.asd_segment_s=0.1", "--set", "lock.allan_max_m=256"],
        ["allan"],
        ["asd", "--segment-s", "0.2"],
        ["montecarlo", "--set", "montecarlo.shots=1000",
         "--set", "montecarlo.signal_means=4.13"],
        ["skellam", "--set", "montecarlo.signal_means=4.13"],
    ]

    @staticmethod
    def _manifest(tmp_path, command):
        if command[0] in ("allan", "asd"):
            src = tmp_path / "trace.csv"
            write_trace_csv(src, PhaseTrace(np.random.default_rng(2).normal(0, 0.1, 4000), 1e-4))
            command = command + ["--input", str(src)]
        code, out = run_cli(command, tmp_path, "timed")
        assert code == 0
        return json.loads((out / "manifest.json").read_text())

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_records_stage_timings(self, tmp_path, command):
        timings = self._manifest(tmp_path, command)["timings_s"]
        assert set(timings) == {"compute", "write"}
        assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_records_runtime(self, tmp_path, command):
        runtime = self._manifest(tmp_path, command)["runtime"]
        assert runtime["python"] == platform.python_version()
        assert runtime["numpy"] == np.__version__
        assert isinstance(runtime["blas"], str) and runtime["blas"]

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_records_peak_rss(self, tmp_path, command):
        peak = self._manifest(tmp_path, command)["peak_rss_mb"]
        assert isinstance(peak, float) and peak > 0.0

    def test_peak_rss_omitted_without_resource(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "resource", None)
        assert "peak_rss_mb" not in self._manifest(tmp_path, self.COMMANDS[-1])

    def test_blas_unknown_without_config_modes(self, monkeypatch):
        monkeypatch.setattr(cli.np, "show_config", lambda: None)
        assert cli._runtime()["blas"] == "unknown"


class TestFailedWrite:
    TABLES = [Table("t", ["x"], [(1,)], {}), Table("u", ["x"], [(2,)], {})]
    TRACES = {"a": PhaseTrace(np.zeros(4), 0.1)}

    @classmethod
    def _write_outputs(cls, outdir, traces):
        # the traces are written on the pool before the tables, as the lock tasks write them
        with cli._Output(outdir, "csv") as output:
            claimed = [(output.claim(f"trace_{k}.csv"), trace) for k, trace in traces.items()]
            cli._map_grid(lambda entry: cli.write_trace_csv(*entry), claimed)
            return output.finish(cls.TABLES, {"timings_s": {"compute": 0.0}})

    @staticmethod
    def _fail_writes(monkeypatch, failing):
        write_bytes = Path.write_bytes

        def write_then_fail(path, *args):
            write_bytes(Path(path), b"partial")
            raise OSError("disk full")

        if failing == "trace":
            monkeypatch.setattr(cli, "write_trace_csv", write_then_fail)
        else:
            monkeypatch.setattr(Path, "write_bytes", write_then_fail)

    @pytest.mark.parametrize("failing", ["trace", "table"])
    def test_leaves_no_file(self, tmp_path, monkeypatch, failing):
        self._fail_writes(monkeypatch, failing)
        outdir = tmp_path / "new" / "out"
        with pytest.raises(OSError, match="disk full"):
            self._write_outputs(outdir, self.TRACES)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("failing", ["trace", "table"])
    def test_keeps_existing_directory(self, tmp_path, monkeypatch, failing):
        outdir = tmp_path / "out"
        outdir.mkdir()
        (outdir / "notes.txt").write_text("keep me\n")
        self._fail_writes(monkeypatch, failing)
        with pytest.raises(OSError, match="disk full"):
            self._write_outputs(outdir, self.TRACES)
        assert [p.name for p in outdir.iterdir()] == ["notes.txt"]
        assert (outdir / "notes.txt").read_text() == "keep me\n"

    def test_failure_while_writes_are_in_flight(self, tmp_path, monkeypatch):
        # trace b fails while trace a is being written on the other pool
        # thread; a lands after the failure and must go with everything else
        monkeypatch.setenv(cli.WORKER_ENV, "2")
        a_started, a_done, b_failed = threading.Event(), threading.Event(), threading.Event()
        write_trace = cli.write_trace_csv

        def racing_write(path, trace):
            name = Path(path).name
            if name.startswith(".trace_b."):
                assert a_started.wait(10)
                Path(path).write_bytes(b"partial")
                b_failed.set()
                raise OSError("disk full")
            if name.startswith(".trace_a."):
                a_started.set()
                assert b_failed.wait(10)
            write_trace(path, trace)
            if name.startswith(".trace_a."):
                a_done.set()

        monkeypatch.setattr(cli, "write_trace_csv", racing_write)
        traces = {k: PhaseTrace(np.zeros(4), 0.1) for k in "abc"}
        outdir = tmp_path / "new" / "out"
        with pytest.raises(OSError, match="disk full"):
            self._write_outputs(outdir, traces)
        assert a_done.is_set()  # the pool let the write in flight finish first
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_lock_trace_write_fails_while_a_task_computes(self, tmp_path, monkeypatch, existing):
        # the lock_off_box_open task's trace write fails while the
        # lock_off_box_closed task, on the other pool thread, is still
        # computing; that task then writes its trace, which must go too
        monkeypatch.setenv(cli.WORKER_ENV, "2")
        failed, late_written = threading.Event(), threading.Event()
        simulate, write_trace = cli.simulate_lock, cli.write_trace_csv

        def held_simulate(duration, dt, pi, actuator, model):
            if pi is None and model.box_closed:
                assert failed.wait(10)
            return simulate(duration, dt, pi, actuator, model)

        def failing_write(path, trace):
            name = Path(path).name
            if name.startswith(".trace_lock_off_box_open."):
                Path(path).write_bytes(b"partial")
                failed.set()
                raise OSError("disk full")
            write_trace(path, trace)
            if name.startswith(".trace_lock_off_box_closed."):
                late_written.set()

        monkeypatch.setattr(cli, "simulate_lock", held_simulate)
        monkeypatch.setattr(cli, "write_trace_csv", failing_write)
        outdir = tmp_path / "out" if existing else tmp_path / "new" / "out"
        if existing:
            outdir.mkdir()
            (outdir / "notes.txt").write_text("keep me\n")
        code = main([
            "lock", "--set", "lock.n_seeds=1", "--set", "lock.duration_s=2.0",
            "--set", "lock.allan_max_m=2048", "--out", str(outdir),
        ])
        assert code == 1
        assert late_written.is_set()  # the pool let the task in flight finish first
        if existing:
            assert [p.name for p in outdir.iterdir()] == ["notes.txt"]
            assert (outdir / "notes.txt").read_text() == "keep me\n"
        else:
            assert list(tmp_path.iterdir()) == []


class TestStartup:
    def test_cli_import_loads_no_scipy(self):
        # scipy is a test-only dependency; a fresh CLI process must not load it
        code = (
            "import sys, wfhsim.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
        )
        assert run_python(code, child_env()) == "[]"

    def test_package_import_loads_no_numpy(self):
        code = "import sys, wfhsim; print('numpy' in sys.modules)"
        assert run_python(code, child_env()) == "False"

    def test_exports_are_the_submodules_objects(self):
        code = (
            "import sys, wfhsim, wfhsim.security\n"
            "names = [n for n in wfhsim.__all__ if n != '__version__']\n"
            "print(sorted(n for n in names if getattr(wfhsim, n) is not "
            "getattr(sys.modules[getattr(wfhsim, n).__module__], n)), "
            "len(names), wfhsim.kgr is wfhsim.security.kgr)"
        )
        assert run_python(code, child_env()) == "[] 16 True"

    def test_unknown_attribute_raises(self):
        code = (
            "import wfhsim\n"
            "try:\n"
            "    wfhsim.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print(exc)"
        )
        assert run_python(code, child_env()) == "module 'wfhsim' has no attribute 'no_such_name'"

    def test_cli_defaults_to_one_blas_thread(self):
        code = (
            "import os, wfhsim.cli\n"
            "task = '/proc/self/task'\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'], "
            "len(os.listdir(task)) if os.path.isdir(task) else 1)"
        )
        # the value, and on Linux the process's thread count: OpenBLAS started no workers
        assert run_python(code, child_env("OPENBLAS_NUM_THREADS")) == "1 1"

    def test_cli_keeps_exported_blas_threads(self):
        code = "import os, wfhsim.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert run_python(code, child_env() | {"OPENBLAS_NUM_THREADS": "3"}) == "3"
