import importlib
import inspect
import json
import math
import os
import platform
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import wfhsim
from wfhsim import cli
from wfhsim.cli import Table, _write_outputs, main
from wfhsim.config import load_config
from wfhsim.constellation import build_psk, loss_db_to_transmissivity
from wfhsim.homodyne import HomodyneParams, hd_mutual_information
from wfhsim.info_metrics import wf_mutual_information
from wfhsim.io import parse_table, write_trace_csv
from wfhsim.phase_metrology import PhaseTrace
from wfhsim.security import kgr

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
        for nodes in (1, 21):
            _, out = run_cli(
                ["sweep-mi", "--set", "channel.loss_db_stop=0",
                 "--set", "sweep.visibilities=1.0",
                 "--set", "receiver.phase_jitter_rms=0.25",
                 "--set", f"receiver.jitter_quad_nodes={nodes}"],
                tmp_path, f"minodes{nodes}",
            )
            _, _, rows = parse_table((out / "sweep_mi.csv").read_text())
            hd[nodes] = {r[1]: float(r[5]) for r in rows if r[2] == "hd"}
        # one node sits at zero phase offset: the jitter has no effect
        assert hd[1]["4"] > hd[21]["4"] + 0.01

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
        assert not (tmp_path / "o").exists() or not list((tmp_path / "o").iterdir())

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

    def test_worker_pool_changes_nothing(self, tmp_path, monkeypatch):
        outputs = []
        for workers in ("1", "4"):
            monkeypatch.setenv("WFHSIM_WORKERS", workers)
            _, out = run_cli(
                ["sweep-mi"] + SMALL_GRID, tmp_path, f"workers{workers}"
            )
            outputs.append((out / "sweep_mi.csv").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.slow
    def test_homodyne_result_ignores_threading(self, tmp_path):
        """The jitter node sum is a BLAS product: BLAS threads and the pool change no byte."""
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
             "skellam_m4_sig4.13.csv"),
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
    """sweep.bpsk_phi0 and sweep.qpsk_phi0 reach every command that sweeps the orders."""

    PHASES = {2: 0.7853981633974483, 4: 0.5}
    ONE_POINT = ["--set", "channel.loss_db_start=1", "--set", "channel.loss_db_stop=1",
                 "--set", "sweep.visibilities=1.0"]
    MONTECARLO = ["--set", "montecarlo.shots=40", "--set", "montecarlo.signal_means=4.13"]

    def _rows(self, tmp_path, args, table, phased):
        phase_args = ["--set", f"sweep.bpsk_phi0={self.PHASES[2]}",
                      "--set", f"sweep.qpsk_phi0={self.PHASES[4]}"] if phased else []
        code, out = run_cli(args + phase_args, tmp_path, f"{table}-{phased}")
        assert code == 0
        _, header, rows = parse_table((out / f"{table}.csv").read_text())
        return [dict(zip(header, r)) for r in rows]

    @staticmethod
    def _close(a: float, b: float) -> bool:
        return abs(a - b) <= 1e-12 * abs(b)

    def test_sweep_kgr(self, tmp_path):
        config = load_config()
        params = config.receiver_params(loss_db_to_transmissivity(1.0))
        rows = self._rows(tmp_path, ["sweep-kgr"] + self.ONE_POINT, "sweep_kgr", True)
        default = self._rows(tmp_path, ["sweep-kgr"] + self.ONE_POINT, "sweep_kgr", False)
        assert [r["m"] for r in rows] == ["2", "4"]
        for row, base in zip(rows, default):
            m = int(row["m"])
            c = build_psk(m, float(config["constellation.alpha"]), self.PHASES[m])
            assert self._close(float(row["kgr_bits"]), kgr(c, params).kgr_bits)
            assert not self._close(float(row["kgr_bits"]), float(base["kgr_bits"]))

    def test_sweep_mi(self, tmp_path):
        config = load_config()
        t = loss_db_to_transmissivity(1.0)
        rows = self._rows(tmp_path, ["sweep-mi"] + self.ONE_POINT, "sweep_mi", True)
        default = self._rows(tmp_path, ["sweep-mi"] + self.ONE_POINT, "sweep_mi", False)
        assert sorted((r["m"], r["receiver"]) for r in rows) == [
            ("2", "hd"), ("2", "wf"), ("4", "hd"), ("4", "wf"),
        ]
        for row, base in zip(rows, default):
            m = int(row["m"])
            c = build_psk(m, float(config["constellation.alpha"]), self.PHASES[m])
            if row["receiver"] == "wf":
                params = config.receiver_params(t, visibility=1.0)
                expected = wf_mutual_information(c, params).mi_bits
            else:
                expected = hd_mutual_information(
                    c,
                    HomodyneParams(transmissivity=t, visibility=1.0),
                    phase_jitter_rms=float(config["receiver.phase_jitter_rms"]),
                    jitter_quad_nodes=int(config["receiver.jitter_quad_nodes"]),
                )
            assert self._close(float(row["mi_bits"]), expected)
            assert not self._close(float(row["mi_bits"]), float(base["mi_bits"]))

    def test_montecarlo_analytic_mi(self, tmp_path):
        config = load_config()
        lo_amplitude = math.sqrt(float(config["montecarlo.lo_mean"]))
        params = replace(config.receiver_params(1.0), lo_amplitude=lo_amplitude)
        rows = self._rows(tmp_path, ["montecarlo"] + self.MONTECARLO, "mc_mi", True)
        default = self._rows(tmp_path, ["montecarlo"] + self.MONTECARLO, "mc_mi", False)
        assert {r["m"] for r in rows} == {"2", "4"}
        for row, base in zip(rows, default):
            m = int(row["m"])
            c = build_psk(m, math.sqrt(4.13), self.PHASES[m])
            expected = wf_mutual_information(c, params).mi_bits
            assert self._close(float(row["mi_bits_analytic"]), expected)
            assert not self._close(float(row["mi_bits_analytic"]), float(base["mi_bits_analytic"]))


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

    def test_worker_hooks_exist(self):
        assert isinstance(cli.WORKER_ENV, str)
        assert cli._workers() >= 1

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

    def test_blas_unknown_without_config_modes(self, monkeypatch):
        monkeypatch.setattr(cli.np, "show_config", lambda: None)
        assert cli._runtime()["blas"] == "unknown"


class TestFailedWrite:
    TABLES = [Table("t", ["x"], [(1,)], {}), Table("u", ["x"], [(2,)], {})]
    TRACES = {"a": PhaseTrace(np.zeros(4), 0.1)}

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
            _write_outputs(outdir, self.TABLES, "csv", {"timings_s": {"compute": 0.0}}, self.TRACES)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("failing", ["trace", "table"])
    def test_keeps_existing_directory(self, tmp_path, monkeypatch, failing):
        outdir = tmp_path / "out"
        outdir.mkdir()
        (outdir / "notes.txt").write_text("keep me\n")
        self._fail_writes(monkeypatch, failing)
        with pytest.raises(OSError, match="disk full"):
            _write_outputs(outdir, self.TABLES, "csv", {"timings_s": {"compute": 0.0}}, self.TRACES)
        assert [p.name for p in outdir.iterdir()] == ["notes.txt"]
        assert (outdir / "notes.txt").read_text() == "keep me\n"


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
        assert run_python(code, child_env()) == "[] 25 True"

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
