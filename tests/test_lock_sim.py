import numpy as np
import pytest

from wfhsim.lock_sim import (
    FOUR_CONDITIONS,
    ActuatorModel,
    LockDivergenceError,
    NoiseModel,
    PiConfig,
    _pi_lock_loop,
    default_fast_pi,
    default_slow_pi,
    four_conditions,
    generate_noise,
    pi_step,
    simulate_lock,
)
from wfhsim.phase_metrology import overlapping_allan, rms_phase

QUIET = dict(drift_rate=0.0, tone_20hz_rms=0.0, tone_200hz_rms=0.0, white_rms=0.0, air_rms=0.0)


class TestPiStep:
    def test_zero_gains_zero_output(self):
        cfg = PiConfig(kp=0.0, ki=0.0)
        state = 0.0
        for _ in range(10):
            out, state = pi_step(state, 1.3, 1e-3, cfg)
            assert out == 0.0

    def test_pure_proportional(self):
        cfg = PiConfig(kp=2.0, ki=0.0)
        state = 0.0
        for _ in range(5):
            out, state = pi_step(state, 0.7, 1e-3, cfg)
            assert out == pytest.approx(1.4)

    def test_integral_accumulates(self):
        cfg = PiConfig(kp=0.0, ki=10.0)
        state = 0.0
        outputs = []
        for _ in range(3):
            out, state = pi_step(state, 0.5, 0.1, cfg)
            outputs.append(out)
        assert outputs == pytest.approx([0.0, 0.5, 1.0])

    def test_anti_windup_freezes_integral(self):
        cfg = PiConfig(kp=0.0, ki=1.0, output_limits=(-0.1, 0.1))
        state = 0.0
        for _ in range(100):
            out, state = pi_step(state, 1.0, 0.01, cfg)
        assert out == 0.1
        assert state < 0.12  # stopped integrating once saturated

    def test_integral_removes_steady_state_error(self):
        # constant disturbance, closed loop, ki only
        cfg = PiConfig(kp=0.0, ki=20.0)
        actuator_gain, alpha = 1.0, 0.06
        disturbance, act, state = 0.8, 0.0, 0.0
        dt = 1e-3
        err = 0.0
        for _ in range(200_000):
            phi = disturbance + act
            err = -phi
            out, state = pi_step(state, err, dt, cfg)
            act += alpha * (actuator_gain * out - act)
        assert abs(err) < 1e-6


class TestSimulateLock:
    def test_zero_noise_lock_off_is_flat(self):
        trace = simulate_lock(1.0, 1e-3, None, ActuatorModel(), NoiseModel(seed=1, **QUIET))
        assert np.all(trace.samples == 0.0)

    def test_lock_off_equals_raw_noise(self):
        noise = NoiseModel(seed=7)
        trace = simulate_lock(2.0, 1e-4, None, ActuatorModel(), noise)
        raw = generate_noise(noise, 20_000, 1e-4)
        assert np.array_equal(trace.samples, raw)

    def test_seeded_determinism(self):
        a = simulate_lock(1.0, 1e-4, default_fast_pi(), ActuatorModel(), NoiseModel(seed=3))
        b = simulate_lock(1.0, 1e-4, default_fast_pi(), ActuatorModel(), NoiseModel(seed=3))
        assert np.array_equal(a.samples, b.samples)

    def test_drift_only_locked_allan_decreases(self):
        taus = [64e-4 * 2**j for j in range(9)]
        curves = []
        for seed in range(4):
            nm = NoiseModel(seed=seed, drift_rate=0.028, tone_20hz_rms=0.0,
                            tone_200hz_rms=0.0, white_rms=0.0, air_rms=0.0)
            tr = simulate_lock(30.0, 1e-4, default_fast_pi(), ActuatorModel(), nm)
            curves.append(overlapping_allan(tr, taus).adev)
        mean_curve = np.mean(curves, axis=0)
        assert np.all(np.diff(mean_curve) <= 0.0)

    def test_out_of_band_tone_survives_lock(self):
        nm = NoiseModel(seed=9, acoustic_freqs=(200.0,), acoustic_power_split=(1.0,),
                        tone_200hz_rms=0.12, drift_rate=0.0, tone_20hz_rms=0.0,
                        white_rms=0.0, air_rms=0.0)
        off = simulate_lock(10.0, 1e-4, None, ActuatorModel(), nm)
        on = simulate_lock(10.0, 1e-4, default_fast_pi(), ActuatorModel(), nm)
        assert abs(rms_phase(on) - rms_phase(off)) / rms_phase(off) < 0.05

    def test_in_band_noise_is_reduced(self):
        nm = NoiseModel(seed=11, air_rms=0.2, drift_rate=0.0, tone_20hz_rms=0.0,
                        tone_200hz_rms=0.0, white_rms=0.0)
        off = simulate_lock(20.0, 1e-4, None, ActuatorModel(), nm)
        on = simulate_lock(20.0, 1e-4, default_fast_pi(), ActuatorModel(), nm)
        assert rms_phase(on) < rms_phase(off)

    def test_linear_drift_tracked_to_zero_slope(self):
        dt, n = 1e-3, 400_000
        slope = 0.02
        noise = slope * np.arange(n) * dt
        pi = default_fast_pi()
        residual, diverged = _pi_lock_loop(
            noise, dt, pi.kp, pi.ki, 0.0, -10.0, 10.0, 1.0,
            1.0 - np.exp(-2.0 * np.pi * 10.0 * dt),
        )
        assert diverged == -1
        tail = residual[n // 2 :]
        t = np.arange(tail.size) * dt
        fit_slope = np.polyfit(t, tail, 1)[0]
        assert abs(fit_slope) < 1e-6

    def test_in_band_white_noise_variance_reduced(self):
        import scipy.signal

        rng = np.random.default_rng(17)
        dt, n = 1e-4, 300_000
        white = rng.normal(0.0, 0.2, n)
        b, a = scipy.signal.butter(4, 3.0, fs=1.0 / dt)  # in-band only (< 10 Hz)
        noise = scipy.signal.lfilter(b, a, white)
        pi = default_fast_pi()
        residual, _ = _pi_lock_loop(
            noise, dt, pi.kp, pi.ki, 0.0, -10.0, 10.0, 1.0,
            1.0 - np.exp(-2.0 * np.pi * 10.0 * dt),
        )
        assert residual.var() <= noise.var() * 1.05

    def test_slow_lock_between_off_and_fast(self):
        # integral-only lock kills drift but corrects less in-band noise
        nm = NoiseModel(seed=21, drift_rate=0.05, air_rms=0.2, tone_20hz_rms=0.0,
                        tone_200hz_rms=0.0, white_rms=0.0)
        off = rms_phase(simulate_lock(30.0, 1e-4, None, ActuatorModel(), nm))
        slow = rms_phase(simulate_lock(30.0, 1e-4, default_slow_pi(), ActuatorModel(), nm))
        fast = rms_phase(simulate_lock(30.0, 1e-4, default_fast_pi(), ActuatorModel(), nm))
        assert fast < slow < off

    def test_divergence_reports_gains(self):
        unstable = PiConfig(kp=500.0, ki=0.0, output_limits=(-1e6, 1e6))
        nm = NoiseModel(seed=1, white_rms=0.05, drift_rate=0.0, tone_20hz_rms=0.0,
                        tone_200hz_rms=0.0, air_rms=0.0)
        with pytest.raises(LockDivergenceError, match="kp=500"):
            simulate_lock(5.0, 1e-3, unstable, ActuatorModel(bandwidth_hz=100.0), nm)

    def test_duration_guard(self):
        with pytest.raises(ValueError):
            simulate_lock(0.01, 1e-3, None, ActuatorModel(), NoiseModel(seed=0))


class TestFourConditions:
    def test_zero_noise_gives_four_flat_traces(self):
        traces = four_conditions(
            NoiseModel(seed=5, **QUIET), default_fast_pi(), 1.0, 1e-3
        )
        assert set(traces) == set(FOUR_CONDITIONS)
        for tr in traces.values():
            assert np.all(tr.samples == 0.0)

    def test_rms_targets_with_calibrated_defaults(self):
        rms = {c: [] for c in FOUR_CONDITIONS}
        for seed in range(10):
            traces = four_conditions(
                NoiseModel(seed=seed), default_fast_pi(), 60.0, 1e-4
            )
            for c, tr in traces.items():
                rms[c].append(rms_phase(tr))
        assert np.mean(rms["lock_off_box_open"]) == pytest.approx(0.30, abs=0.02)
        assert np.mean(rms["fast_lock_box_closed"]) == pytest.approx(0.25, abs=0.02)

    def test_box_and_lock_both_reduce_noise(self):
        traces = four_conditions(
            NoiseModel(seed=12), default_fast_pi(), 20.0, 1e-4
        )
        r = {c: rms_phase(tr) for c, tr in traces.items()}
        assert r["fast_lock_box_closed"] < r["lock_off_box_open"]


class TestConfigs:
    def test_negative_gain_rejected(self):
        with pytest.raises(ValueError):
            PiConfig(kp=-1.0)

    def test_bad_limits_rejected(self):
        with pytest.raises(ValueError):
            PiConfig(kp=1.0, output_limits=(1.0, -1.0))

    def test_lock_requires_a_gain(self):
        with pytest.raises(ValueError, match="gains"):
            simulate_lock(1.0, 1e-3, PiConfig(), ActuatorModel(), NoiseModel(seed=0, **QUIET))

    def test_actuator_needs_bandwidth(self):
        with pytest.raises(ValueError):
            ActuatorModel(bandwidth_hz=0.0)

    def test_noise_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(white_rms=-0.1)
