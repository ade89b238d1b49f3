import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from wfhsim import lock_sim
from wfhsim.config import load_config
from wfhsim.lock_sim import (
    _BLOCK,
    FOUR_CONDITIONS,
    ActuatorModel,
    LockDivergenceError,
    NoiseModel,
    PiConfig,
    _linear_lock_response,
    _pi_lock_loop,
    four_conditions,
    generate_noise,
    simulate_lock,
)
from wfhsim.phase_metrology import overlapping_allan, rms_phase

QUIET = dict(drift_rate=0.0, tone_20hz_rms=0.0, tone_200hz_rms=0.0, white_rms=0.0, air_rms=0.0)

# the fast-lock gains of the shipped defaults.cfg
CONFIG = load_config()
FAST_PI = CONFIG.pi_fast()


def controller_io(noise, kp, ki, dt, limits=(-10.0, 10.0)):
    """Errors e_i and PI outputs u_i of the loop behind a unit, one-step actuator.

    With ``actuator_alpha = actuator_gain = 1`` the actuation at sample i+1
    is u_i, so ``u_i = residual[i+1] - noise[i+1]`` and ``e_i = -residual[i]``.
    """
    noise = np.asarray(noise, dtype=np.float64)
    residual, diverged = _pi_lock_loop(noise, dt, kp, ki, *limits, 1.0, 1.0)
    assert diverged == -1
    return -residual[:-1], residual[1:] - noise[1:]


class TestPiStep:
    """The PI law inside the closed loop, read back through the residual."""

    def test_zero_gains_zero_output(self):
        noise = np.random.default_rng(1).normal(0.0, 1.3, 10)
        _, outputs = controller_io(noise, 0.0, 0.0, 1e-3)
        assert np.all(outputs == 0.0)

    def test_pure_proportional(self):
        noise = np.random.default_rng(2).normal(0.0, 0.7, 50)
        errors, outputs = controller_io(noise, 0.5, 0.0, 1e-3)
        assert outputs == pytest.approx(0.5 * errors, abs=1e-15)

    def test_integral_accumulates(self):
        # u_i = ki * dt * (e_0 + ... + e_{i-1}): the first output is zero
        noise = np.random.default_rng(3).normal(0.5, 0.2, 50)
        errors, outputs = controller_io(noise, 0.0, 10.0, 0.01)
        integral = np.concatenate([[0.0], np.cumsum(errors)[:-1] * 0.01])
        assert outputs[0] == 0.0
        assert outputs == pytest.approx(10.0 * integral, abs=1e-14)

    def test_anti_windup_freezes_integral(self):
        # 100 samples pushing the output into its +0.1 limit, then one sample
        # that reverses the error: the frozen integral lets the output leave
        # the limit at once, where a wound-up one (~0.9) would hold it there
        kp, ki, limits = 0.05, 1.0, (-0.1, 0.1)
        noise = np.concatenate([np.full(100, -1.0), [1.0, 1.0]])
        errors, outputs = controller_io(noise, kp, ki, 0.01, limits)
        assert outputs[50:100] == pytest.approx(0.1, abs=1e-15)
        assert outputs[100] < 0.1
        frozen_integral = (outputs[100] - kp * errors[100]) / ki
        assert frozen_integral < 0.12

    def test_integral_removes_steady_state_error(self):
        # constant disturbance, closed loop, ki only
        residual, diverged = _pi_lock_loop(
            np.full(200_000, 0.8), 1e-3, 0.0, 20.0, -10.0, 10.0, 1.0, 0.06
        )
        assert diverged == -1
        assert abs(residual[-1]) < 1e-6


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
        a = simulate_lock(1.0, 1e-4, FAST_PI, ActuatorModel(), NoiseModel(seed=3))
        b = simulate_lock(1.0, 1e-4, FAST_PI, ActuatorModel(), NoiseModel(seed=3))
        assert np.array_equal(a.samples, b.samples)

    def test_drift_only_locked_allan_decreases(self):
        taus = [64e-4 * 2**j for j in range(9)]
        curves = []
        for seed in range(4):
            nm = NoiseModel(seed=seed, drift_rate=0.028, tone_20hz_rms=0.0,
                            tone_200hz_rms=0.0, white_rms=0.0, air_rms=0.0)
            tr = simulate_lock(30.0, 1e-4, FAST_PI, ActuatorModel(), nm)
            curves.append(overlapping_allan(tr, taus).adev)
        mean_curve = np.mean(curves, axis=0)
        assert np.all(np.diff(mean_curve) <= 0.0)

    def test_out_of_band_tone_survives_lock(self):
        nm = NoiseModel(seed=9, acoustic_freqs=(200.0,), acoustic_power_split=(1.0,),
                        tone_200hz_rms=0.12, drift_rate=0.0, tone_20hz_rms=0.0,
                        white_rms=0.0, air_rms=0.0)
        off = simulate_lock(10.0, 1e-4, None, ActuatorModel(), nm)
        on = simulate_lock(10.0, 1e-4, FAST_PI, ActuatorModel(), nm)
        assert abs(rms_phase(on) - rms_phase(off)) / rms_phase(off) < 0.05

    def test_in_band_noise_is_reduced(self):
        nm = NoiseModel(seed=11, air_rms=0.2, drift_rate=0.0, tone_20hz_rms=0.0,
                        tone_200hz_rms=0.0, white_rms=0.0)
        off = simulate_lock(20.0, 1e-4, None, ActuatorModel(), nm)
        on = simulate_lock(20.0, 1e-4, FAST_PI, ActuatorModel(), nm)
        assert rms_phase(on) < rms_phase(off)

    def test_linear_drift_tracked_to_zero_slope(self):
        dt, n = 1e-3, 400_000
        slope = 0.02
        noise = slope * np.arange(n) * dt
        pi = FAST_PI
        residual, diverged = _pi_lock_loop(
            noise, dt, pi.kp, pi.ki, -10.0, 10.0, 1.0,
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
        pi = FAST_PI
        residual, _ = _pi_lock_loop(
            noise, dt, pi.kp, pi.ki, -10.0, 10.0, 1.0,
            1.0 - np.exp(-2.0 * np.pi * 10.0 * dt),
        )
        assert residual.var() <= noise.var() * 1.05

    def test_slow_lock_between_off_and_fast(self):
        # integral-only lock kills drift but corrects less in-band noise
        nm = NoiseModel(seed=21, drift_rate=0.05, air_rms=0.2, tone_20hz_rms=0.0,
                        tone_200hz_rms=0.0, white_rms=0.0)
        off = rms_phase(simulate_lock(30.0, 1e-4, None, ActuatorModel(), nm))
        slow_pi = PiConfig(kp=0.0, ki=5.0)
        slow = rms_phase(simulate_lock(30.0, 1e-4, slow_pi, ActuatorModel(), nm))
        fast = rms_phase(simulate_lock(30.0, 1e-4, FAST_PI, ActuatorModel(), nm))
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

    def test_duration_without_sample_count_rejected(self):
        with pytest.raises(ValueError, match="finite sample count"):
            simulate_lock(1e308, 1e-4, None, ActuatorModel(), NoiseModel(seed=0))

    def test_zero_power_line_draws_nothing(self):
        # a silent acoustic line leaves the random stream alone, like a silent tone
        pair = NoiseModel(seed=4, acoustic_freqs=(100.0, 200.0), acoustic_power_split=(0.0, 1.0))
        single = NoiseModel(seed=4, acoustic_freqs=(200.0,), acoustic_power_split=(1.0,))
        assert np.array_equal(generate_noise(pair, 5000, 1e-4), generate_noise(single, 5000, 1e-4))


def loop_args(disturbance, dt, pi, actuator):
    """The arguments ``simulate_lock`` passes to both lock implementations."""
    alpha = 1.0 - math.exp(-2.0 * math.pi * actuator.bandwidth_hz * dt)
    return (disturbance, dt, pi.kp, pi.ki, *pi.output_limits, actuator.gain, alpha)


def default_lock_args(seed, box_closed, n=None):
    dt = CONFIG["lock.dt_s"]
    n = n or int(round(CONFIG["lock.duration_s"] / dt))
    disturbance = generate_noise(replace(CONFIG.noise_model(seed), box_closed=box_closed), n, dt)
    return loop_args(disturbance, dt, FAST_PI, CONFIG.actuator())


@pytest.fixture
def loop_calls(monkeypatch):
    """Records the result of every ``_pi_lock_loop`` call."""
    calls = []

    def spy(*args):
        result = _pi_lock_loop(*args)
        calls.append(result)
        return result

    monkeypatch.setattr(lock_sim, "_pi_lock_loop", spy)
    return calls


class TestLinearLockResponse:
    """The blocked state-space path against the loop it replaces."""

    @pytest.mark.parametrize("box_closed", [False, True], ids=["open", "closed"])
    def test_matches_loop_at_defaults(self, box_closed):
        for seed in range(5):
            args = default_lock_args(seed, box_closed)
            residual, diverged = _pi_lock_loop(*args)
            assert diverged == -1
            blocked = _linear_lock_response(*args)
            assert blocked is not None
            assert np.max(np.abs(blocked - residual)) <= 1e-12

    @pytest.mark.parametrize("n", [100, _BLOCK, 3 * _BLOCK + 17])
    def test_partial_blocks(self, n):
        args = default_lock_args(4, False, n)
        residual, _ = _pi_lock_loop(*args)
        blocked = _linear_lock_response(*args)
        assert blocked.shape == (n,)
        assert np.max(np.abs(blocked - residual)) <= 1e-12

    def test_saturation_runs_the_loop(self, loop_calls):
        nm, dt, actuator = NoiseModel(seed=2), 1e-4, ActuatorModel()
        wide = PiConfig(kp=60.0, ki=4000.0, output_limits=(-100.0, 100.0))
        narrow = PiConfig(kp=60.0, ki=4000.0, output_limits=(-0.05, 0.05))
        disturbance = generate_noise(nm, 20_000, dt)
        # the same stable gains stay linear inside +-100 and saturate at +-0.05
        assert _linear_lock_response(*loop_args(disturbance, dt, wide, actuator)) is not None
        assert _linear_lock_response(*loop_args(disturbance, dt, narrow, actuator)) is None
        trace = simulate_lock(2.0, dt, narrow, actuator, nm)
        assert len(loop_calls) == 1
        expected, _ = _pi_lock_loop(*loop_args(disturbance, dt, narrow, actuator))
        assert np.array_equal(trace.samples, expected)

    def test_divergence_runs_the_loop(self, loop_calls):
        # a stable loop with wide limits that cannot follow a fast random walk
        nm = NoiseModel(seed=3, **dict(QUIET, drift_rate=2e4))
        dt, actuator = 1e-4, ActuatorModel()
        pi = PiConfig(kp=0.6, ki=40.0, output_limits=(-1e6, 1e6))
        disturbance = generate_noise(nm, 20_000, dt)
        args = loop_args(disturbance, dt, pi, actuator)
        assert _linear_lock_response(*args) is None
        expected, at = _pi_lock_loop(*args)
        assert at > 0
        with pytest.raises(LockDivergenceError, match=f"t={at * dt:.3f}s"):
            simulate_lock(2.0, dt, pi, actuator, nm)
        [(residual, diverged)] = loop_calls
        assert diverged == at
        # the loop leaves the samples after the divergence unwritten
        assert np.array_equal(residual[: at + 1], expected[: at + 1])

    def test_unstable_loop_raises_without_warnings(self):
        unstable = PiConfig(kp=500.0, ki=0.0, output_limits=(-1e6, 1e6))
        actuator = ActuatorModel(bandwidth_hz=100.0)
        nm = NoiseModel(seed=1, **dict(QUIET, white_rms=0.05))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            disturbance = generate_noise(nm, 5000, 1e-3)
            assert _linear_lock_response(*loop_args(disturbance, 1e-3, unstable, actuator)) is None
            with pytest.raises(LockDivergenceError, match="kp=500"):
                simulate_lock(5.0, 1e-3, unstable, actuator, nm)

    @pytest.mark.parametrize("box_closed", [False, True], ids=["open", "closed"])
    def test_defaults_never_run_the_loop(self, monkeypatch, box_closed):
        # the fast path must not fall back silently where the lock study runs
        def refuse(*args):
            raise AssertionError("the per-sample loop ran at the shipped defaults")

        monkeypatch.setattr(lock_sim, "_pi_lock_loop", refuse)
        trace = simulate_lock(
            CONFIG["lock.duration_s"], CONFIG["lock.dt_s"], FAST_PI,
            CONFIG.actuator(), replace(CONFIG.noise_model(7), box_closed=box_closed),
        )
        assert len(trace) == int(round(CONFIG["lock.duration_s"] / CONFIG["lock.dt_s"]))


class TestFourConditions:
    def test_zero_noise_gives_four_flat_traces(self):
        traces = four_conditions(
            NoiseModel(seed=5, **QUIET), FAST_PI, 1.0, 1e-3, ActuatorModel()
        )
        assert set(traces) == set(FOUR_CONDITIONS)
        for tr in traces.values():
            assert np.all(tr.samples == 0.0)

    def test_rms_targets_with_calibrated_defaults(self, default_lock_study):
        # the shared study is four_conditions(NoiseModel(seed), FAST_PI, 60.0,
        # 1e-4) for seeds 0-9: check that its shipped config says exactly that
        config = default_lock_study.config
        assert (config["lock.duration_s"], config["lock.dt_s"]) == (60.0, 1e-4)
        assert (config["lock.seed"], config["lock.n_seeds"]) == (0, 10)
        for seed in range(10):
            assert config.noise_model(seed=seed) == NoiseModel(seed=seed)
        assert config.pi_fast() == FAST_PI
        assert config.actuator() == ActuatorModel()
        rms = default_lock_study.rms
        assert np.mean(rms["lock_off_box_open"]) == pytest.approx(0.30, abs=0.02)
        assert np.mean(rms["fast_lock_box_closed"]) == pytest.approx(0.25, abs=0.02)

    def test_box_and_lock_both_reduce_noise(self):
        traces = four_conditions(
            NoiseModel(seed=12), FAST_PI, 20.0, 1e-4, ActuatorModel()
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
