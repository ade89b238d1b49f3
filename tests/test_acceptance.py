"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py`` (add ``-q`` for just the
verdict lines, which are written straight to the terminal).
"""

import math
import time

import numpy as np
import pytest

import conftest
from helpers import brute_force_difference, fock_vn_entropy
from wfhsim.cli import main
from wfhsim.constellation import build_psk, loss_db_to_transmissivity
from wfhsim.detector_sim import (
    NO_IMPERFECTIONS,
    difference_hist_from_counts,
    fidelity,
    run_experiment,
)
from wfhsim.homodyne import HomodyneParams, hd_mutual_information
from wfhsim.info_metrics import plugin_mi_estimate, wf_mutual_information
from wfhsim.phase_metrology import PhaseTrace, asd, overlapping_allan
from wfhsim.security import eve_ensemble, kgr, vn_entropy
from wfhsim.wf_receiver import (
    WfReceiverParams,
    branch_means,
    default_d_max,
    difference_dist,
    poisson_pmf,
)

LOSS_GRID = [0.25 * i for i in range(41)]


def verdict(number: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.ACCEPTANCE_RESULTS.append(line)
    print(line)
    assert ok, line


def canonical_constellations():
    return {2: build_psk(2, 2.04, 0.0), 4: build_psk(4, 2.04)}


def test_criterion_1_receiver_matches_homodyne_benchmark():
    start = time.perf_counter()
    worst = 0.0
    for m, c in canonical_constellations().items():
        for loss_db in LOSS_GRID:
            t = loss_db_to_transmissivity(loss_db)
            wf = wf_mutual_information(
                c, WfReceiverParams(lo_amplitude=3.53, transmissivity=t)
            ).mi_bits
            hd = hd_mutual_information(c, HomodyneParams(transmissivity=t))
            worst = max(worst, abs(wf - hd) / hd)
    elapsed = time.perf_counter() - start
    ok = worst <= 0.02 and elapsed < 60.0
    verdict(1, ok, f"worst |WF-HD|/HD = {worst:.4%} over 0-10 dB, {elapsed:.1f}s")


def test_criterion_2_information_saturates_at_source_entropy():
    params = WfReceiverParams(lo_amplitude=40.0)
    mi4 = wf_mutual_information(build_psk(4, 10.0), params).mi_bits
    mi2 = wf_mutual_information(build_psk(2, 10.0, 0.0), params).mi_bits
    ok = mi4 >= 1.99 and mi2 >= 0.999
    verdict(2, ok, f"QPSK {mi4:.4f} bits (>=1.99), BPSK {mi2:.6f} bits (>=0.999)")


def test_criterion_3_quaternary_wins_below_two_db():
    """KNOWN RED at visibility 0.845 (see README).

    With the experiment's antipodal binary encoding and the pinned Gaussian
    jitter model (sigma 0.25 rad), binary MI genuinely exceeds quaternary MI
    between ~0.75 and 2 dB at the lower band edge; an independent per-shot
    Monte Carlo reproduces the analytic ordering, see
    ``test_info_metrics.py::test_binary_beats_quaternary_at_lower_visibility_edge``.
    The claim holds at visibility 1.0.
    """
    alpha, z = math.sqrt(4.16), math.sqrt(12.5)
    c4, c2 = build_psk(4, alpha), build_psk(2, alpha, 0.0)
    min_margin = {}
    for xi in (0.845, 1.0):
        margins = []
        for loss_db in [g for g in LOSS_GRID if g < 2.0]:
            t = loss_db_to_transmissivity(loss_db)
            params = WfReceiverParams(
                lo_amplitude=z, visibility=xi, transmissivity=t, phase_jitter_rms=0.25
            )
            margins.append(
                wf_mutual_information(c4, params).mi_bits
                - wf_mutual_information(c2, params).mi_bits
            )
        min_margin[xi] = min(margins)
    ok = all(v > 0.0 for v in min_margin.values())
    verdict(
        3,
        ok,
        "min QPSK-BPSK MI margin below 2 dB: "
        + ", ".join(f"xi={xi}: {v:+.4f} bits" for xi, v in min_margin.items()),
    )


def test_criterion_4_key_rate_dominance():
    cs = canonical_constellations()
    min_gap = np.inf
    zero_db_gap = None
    for loss_db in LOSS_GRID:
        t = loss_db_to_transmissivity(loss_db)
        r4 = kgr(cs[4], WfReceiverParams(lo_amplitude=3.53, transmissivity=t))
        r2 = kgr(cs[2], WfReceiverParams(lo_amplitude=3.53, transmissivity=t))
        min_gap = min(min_gap, r4.kgr_bits - r2.kgr_bits)
        if loss_db == 0.0:
            zero_db_gap = max(
                abs(r4.kgr_bits - r4.mi_bits), abs(r2.kgr_bits - r2.mi_bits)
            )
    ok = min_gap >= 0.0 and zero_db_gap < 1e-9
    verdict(
        4,
        ok,
        f"QPSK-BPSK KGR gap >= {min_gap:.3e} on grid, |KGR-MI| at 0 dB = {zero_db_gap:.1e}",
    )


def test_criterion_5_entropy_oracle():
    worst = 0.0
    for m in (2, 4):
        c = build_psk(m, 2.04, 0.0 if m == 2 else None)
        for t in (0.25, 0.5, 0.75, 0.9):
            e = eve_ensemble(c, t)
            worst = max(
                worst, abs(vn_entropy(e) - fock_vn_entropy(e.amplitudes, e.weights, 40))
            )
    closed_worst = 0.0
    for t in (0.25, 0.5, 0.75, 0.9):
        e = eve_ensemble(build_psk(2, 2.04, 0.0), t)
        b2 = (1.0 - t) * 2.04**2
        lam = 0.5 * (1.0 + math.exp(-2.0 * b2))
        expected = -(lam * math.log2(lam) + (1.0 - lam) * math.log2(1.0 - lam))
        closed_worst = max(closed_worst, abs(vn_entropy(e) - expected))
    ok = worst <= 1e-8 and closed_worst <= 1e-12
    verdict(5, ok, f"Gram vs Fock: {worst:.2e} (<=1e-8); closed form: {closed_worst:.2e}")


def test_criterion_6_difference_distribution_equivalence():
    worst = 0.0
    for mu_t, mu_r in ((15.512, 1.110), (8.311, 8.311), (1.0, 2.0)):
        d_max = 60
        got = difference_dist(mu_t, mu_r, d_max)
        n_max = 110
        joint = np.outer(poisson_pmf(mu_t, n_max), poisson_pmf(mu_r, n_max))
        ref = brute_force_difference(joint, d_max)
        worst = max(worst, float(np.max(np.abs(got.probs - ref))))
    ok = worst <= 1e-12
    verdict(6, ok, f"max |convolution - joint-table sum| = {worst:.2e}")


def test_criterion_7_monte_carlo_consistency():
    alpha, z = math.sqrt(4.13), math.sqrt(12.5)
    c = build_psk(2, alpha, 0.0)
    params = WfReceiverParams(lo_amplitude=z)
    reps = [
        run_experiment(c, params, NO_IMPERFECTIONS, 50_000, np.random.default_rng([7, r]))
        for r in range(4)
    ]
    pooled: dict = {}
    for counts in reps:
        for key, v in counts.items():
            pooled[key] = pooled.get(key, 0) + v

    mus = [branch_means(s, params) for s in c.symbols]
    d_max = max(default_d_max(*mu) for mu in mus)
    min_fidelity = min(
        fidelity(
            difference_dist(mu[0], mu[1], d_max),
            difference_hist_from_counts(pooled, k, d_max),
        )
        for k, mu in enumerate(mus)
    )

    estimate = plugin_mi_estimate(pooled)
    analytic = wf_mutual_information(c, params).mi_bits
    keys = list(pooled)
    weights = np.array([pooled[k] for k in keys], dtype=float)
    total = int(weights.sum())
    rng = np.random.default_rng(2024)
    boots = []
    for _ in range(200):
        draw = rng.multinomial(total, weights / total)
        boots.append(
            plugin_mi_estimate({k: int(v) for k, v in zip(keys, draw) if v > 0})
        )
    se = float(np.std(boots))
    ok = min_fidelity > 0.999 and abs(estimate - analytic) <= 3.0 * se
    verdict(
        7,
        ok,
        f"fidelity {min_fidelity:.5f} (>0.999); |plugin-analytic| = "
        f"{abs(estimate - analytic):.2e} <= 3 SE = {3 * se:.2e}",
    )


def test_criterion_8_allan_reference_shapes():
    dt = 1e-3
    n = 100_000
    ms = [1, 2, 4, 8]
    flat = overlapping_allan(PhaseTrace(np.full(n, 0.7), dt), ms).adev
    t = np.arange(n) * dt
    # ramp spanning the [0, pi] range the fringe transform produces
    ramp = overlapping_allan(PhaseTrace((math.pi / 100.0) * t, dt), ms).adev
    degenerate_ok = np.all(flat <= 1e-12) and np.all(ramp <= 1e-12)

    s = 0.2
    white = PhaseTrace(np.random.default_rng(88).normal(0.0, s, n), dt)
    adev = overlapping_allan(white, ms).adev
    expected = math.sqrt(3.0) * s / (dt * np.array(ms))
    rel = np.max(np.abs(adev / expected - 1.0))
    ok = degenerate_ok and rel <= 0.05
    verdict(8, ok, f"constant/ramp <= 1e-12; white-noise slope off by {rel:.2%} (<=5%)")


def test_criterion_9_spectral_reference_shapes():
    rng = np.random.default_rng(99)
    x = rng.normal(0.0, 0.6, 2**14)
    spec = asd(PhaseTrace(x, 1e-4), 2048, 0.5)
    parseval = abs(np.trapezoid(spec.asd**2, spec.freqs) / x.var() - 1.0)

    amp, f0 = 0.9, 500.0
    tone = amp * np.sin(2 * np.pi * f0 * np.arange(2**14) * 1e-4)
    spec_tone = asd(PhaseTrace(tone, 1e-4), 4096, 0.5)
    mask = np.abs(spec_tone.freqs - f0) < 40.0
    peak = np.trapezoid(spec_tone.asd[mask] ** 2, spec_tone.freqs[mask])
    tone_err = abs(peak / (amp**2 / 2) - 1.0)
    ok = parseval <= 0.02 and tone_err <= 0.01
    verdict(9, ok, f"Parseval off by {parseval:.2%} (<=2%); tone power off by {tone_err:.2%} (<=1%)")


def test_criterion_10_lock_characterization(default_lock_study):
    rms = default_lock_study.rms
    allan = default_lock_study.allan
    spectra = default_lock_study.spectra
    freqs = default_lock_study.freqs

    rms_open = float(np.mean(rms["lock_off_box_open"]))
    rms_locked = float(np.mean(rms["fast_lock_box_closed"]))
    mean_allan = {c: np.mean(v, axis=0) for c, v in allan.items()}
    monotone = {c: bool(np.all(np.diff(v) <= 0.0)) for c, v in mean_allan.items()}
    only_locked_closed = (
        monotone["fast_lock_box_closed"]
        and not monotone["lock_off_box_open"]
        and not monotone["lock_off_box_closed"]
        and not monotone["fast_lock_box_open"]
    )
    in_band = (freqs > 0.0) & (freqs < 10.0)
    mean_asd = {c: np.mean(v, axis=0) for c, v in spectra.items()}
    asd_ok = bool(
        np.all(
            mean_asd["fast_lock_box_open"][in_band]
            < mean_asd["lock_off_box_open"][in_band]
        )
        and np.all(
            mean_asd["fast_lock_box_closed"][in_band]
            < mean_asd["lock_off_box_closed"][in_band]
        )
    )
    ok = (
        abs(rms_open - 0.30) <= 0.02
        and abs(rms_locked - 0.25) <= 0.02
        and only_locked_closed
        and asd_ok
    )
    verdict(
        10,
        ok,
        f"RMS open={rms_open:.3f} (0.30±0.02), locked={rms_locked:.3f} (0.25±0.02); "
        f"monotone only locked+closed: {only_locked_closed}; in-band ASD reduced: {asd_ok}",
    )


@pytest.mark.slow
def test_criterion_11_cli_determinism(tmp_path):
    runs = {
        "sweep-mi": ["sweep-mi", "--set", "channel.loss_db_stop=0.5"],
        "montecarlo": ["montecarlo", "--set", "montecarlo.shots=4000",
                       "--set", "montecarlo.signal_means=4.13"],
        "lock": ["lock", "--set", "lock.duration_s=2.0", "--set", "lock.n_seeds=2",
                 "--set", "lock.allan_max_m=1024"],
    }
    identical = True
    for name, args in runs.items():
        outs = []
        for attempt in ("a", "b"):
            outdir = tmp_path / f"{name}-{attempt}"
            assert main(args + ["--seed", "5", "--out", str(outdir)]) == 0
            outs.append(
                {
                    p.name: p.read_bytes()
                    for p in sorted(outdir.iterdir())
                    if p.suffix == ".csv"
                }
            )
        identical = identical and outs[0] == outs[1]
    verdict(11, identical, "repeated CLI runs produce byte-identical CSV outputs")
