import math
import tracemalloc

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings, strategies as st

from wfhsim import phase_metrology
from wfhsim.config import load_config
from wfhsim.phase_metrology import (
    PhaseTrace,
    _pairwise_sum,
    asd,
    octave_taus,
    overlapping_allan,
    rms_phase,
)

from helpers import reference_allan

CONFIG = load_config()
LOCK_N = round(CONFIG["lock.duration_s"] / CONFIG["lock.dt_s"])  # 600k, a shipped lock trace
LOCK_LADDER = CONFIG.lock_taus()
OCTAVE_LADDER = octave_taus(PhaseTrace(np.zeros(LOCK_N), 1.0))


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def random_walk(n, seed=0):
    return np.random.default_rng(seed).normal(0.0, 0.01, n).cumsum()


class TestOverlappingAllan:
    def test_constant_trace_is_zero(self):
        trace = PhaseTrace(np.full(4096, 1.234), 1e-3)
        curve = overlapping_allan(trace, [1, 4, 64])
        assert np.all(curve.adev == 0.0)

    def test_linear_ramp_annihilated(self):
        t = np.arange(8192) * 1e-3
        trace = PhaseTrace(0.73 * t + 0.2, 1e-3)
        curve = overlapping_allan(trace, [1, 8, 128])
        assert np.all(curve.adev < 1e-12)

    def test_white_noise_slope(self):
        rng = np.random.default_rng(11)
        s = 0.2
        trace = PhaseTrace(rng.normal(0.0, s, 100_000), 1e-3)
        curve = overlapping_allan(trace, [1, 2, 4, 8])
        expected = np.sqrt(3.0) * s / (1e-3 * np.array([1, 2, 4, 8]))
        assert curve.adev == pytest.approx(expected, rel=0.05)

    def test_factors_outside_trace_rejected(self):
        trace = PhaseTrace(np.zeros(100), 1e-3)
        assert overlapping_allan(trace, [1, 49]).counts.tolist() == [98, 2]
        for m in (0, 50):
            with pytest.raises(ValueError, match="2m < 100"):
                overlapping_allan(trace, [1, m])
        with pytest.raises(TypeError):  # seconds are not a sample count
            overlapping_allan(trace, [1e-3])
        with pytest.raises(ValueError, match="100 samples"):
            overlapping_allan(trace, [])

    @settings(max_examples=20, deadline=None)
    @given(
        offset=st.floats(min_value=-5.0, max_value=5.0),
        slope=st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_offset_and_ramp_invariance(self, offset, slope):
        rng = np.random.default_rng(3)
        base = rng.normal(0.0, 0.1, 4096)
        t = np.arange(4096) * 1e-3
        a = overlapping_allan(PhaseTrace(base, 1e-3), [1, 16]).adev
        b = overlapping_allan(PhaseTrace(base + offset + slope * t, 1e-3), [1, 16]).adev
        assert b == pytest.approx(a, abs=1e-9)

    def test_quadrature_additivity_of_independent_noise(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0.0, 0.3, 50_000)
        y = rng.normal(0.0, 0.4, 50_000)
        ms = [1, 4, 16]
        ax = overlapping_allan(PhaseTrace(x, 1e-3), ms).adev
        ay = overlapping_allan(PhaseTrace(y, 1e-3), ms).adev
        axy = overlapping_allan(PhaseTrace(x + y, 1e-3), ms).adev
        assert np.all(axy <= np.sqrt(ax**2 + ay**2) * 1.05)

    def test_octave_grid(self):
        trace = PhaseTrace(np.zeros(1024), 0.5)
        assert octave_taus(trace) == [1, 2, 4, 8, 16, 32, 64, 128]
        assert overlapping_allan(trace, octave_taus(trace)).taus.tolist() == [
            0.5 * m for m in (1, 2, 4, 8, 16, 32, 64, 128)
        ]
        # the lock study's ladder starts at allan_min_m and stops at allan_max_m
        config = load_config(overrides={"lock.allan_min_m": "3", "lock.allan_max_m": "48"})
        assert config.lock_taus() == [3, 6, 12, 24, 48]


class TestAsd:
    def test_zero_trace(self):
        spectrum = asd(PhaseTrace(np.zeros(4096), 1e-4), 1024)
        assert np.all(spectrum.asd == 0.0)

    def test_parseval_on_random_trace(self):
        rng = np.random.default_rng(21)
        x = rng.normal(0.0, 0.7, 2**14)
        spectrum = asd(PhaseTrace(x, 1e-4), 2048, 0.5)
        total = np.trapezoid(spectrum.asd**2, spectrum.freqs)
        assert total == pytest.approx(x.var(), rel=0.02)

    def test_on_bin_sinusoid_power(self):
        amp, f0, dt = 0.8, 500.0, 1e-4
        t = np.arange(2**14) * dt
        spectrum = asd(PhaseTrace(amp * np.sin(2 * np.pi * f0 * t), dt), 4096, 0.5)
        mask = np.abs(spectrum.freqs - f0) < 40.0
        peak_power = np.trapezoid(spectrum.asd[mask] ** 2, spectrum.freqs[mask])
        assert peak_power == pytest.approx(amp**2 / 2, rel=0.01)

    def test_white_noise_level(self):
        rng = np.random.default_rng(8)
        s, dt = 0.5, 1e-4
        x = rng.normal(0.0, s, 2**16)
        spectrum = asd(PhaseTrace(x, dt), 4096, 0.5)
        # one-sided white PSD is 2 s^2 dt
        level = np.median(spectrum.asd[1:-1])
        assert level == pytest.approx(np.sqrt(2 * s * s * dt), rel=0.10)

    def test_matches_scipy_welch(self):
        rng = np.random.default_rng(13)
        x = rng.normal(0.0, 1.0, 2**13)
        spectrum = asd(PhaseTrace(x, 1e-3), 1024, 0.5)
        f_ref, p_ref = scipy.signal.welch(
            x, fs=1e3, window="hann", nperseg=1024, noverlap=512, detrend="constant"
        )
        assert spectrum.freqs == pytest.approx(f_ref)
        assert spectrum.asd**2 == pytest.approx(p_ref, abs=1e-12)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            asd(PhaseTrace(np.zeros(100), 1e-3), 256)


class TestRms:
    def test_constant(self):
        assert rms_phase(PhaseTrace(np.full(64, 0.9), 1e-3)) == pytest.approx(0.0, abs=1e-12)

    def test_alternating(self):
        trace = PhaseTrace(np.tile([0.4, -0.4], 500), 1e-3)
        assert rms_phase(trace) == pytest.approx(0.4)

    def test_mean_shift_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0.0, 0.25, 10_000)
        a = rms_phase(PhaseTrace(x, 1e-3))
        b = rms_phase(PhaseTrace(x + 3.7, 1e-3))
        assert a == pytest.approx(b, rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0.0, 0.25, 1000)
        assert rms_phase(PhaseTrace(x, 1e-3)) == pytest.approx(
            rms_phase(PhaseTrace(np.sort(x), 1e-3))
        )


# leaves of 128 samples, the shortest numpy sums without a split, put
# splits into short sums as well; the module's leaf splits only long ones
LEAVES = pytest.mark.parametrize("leaf", [None, 128], ids=["module-leaf", "leaf-128"])


class TestChunkedSums:
    """The leaf-by-leaf sums against numpy's whole-array sums, bit for bit.

    They follow numpy's pairwise split; a numpy that changed it fails here.
    """

    @LEAVES
    def test_tree_is_numpy_sum(self, monkeypatch, leaf):
        if leaf is not None:
            monkeypatch.setattr(phase_metrology, "_LEAF", leaf)
        lengths = set(range(1, 301))
        lengths |= {2**k + d for k in range(1, 22) for d in (-1, 1)}
        lengths |= {LOCK_N - 2 * m for m in LOCK_LADDER + OCTAVE_LADDER}
        rng = np.random.default_rng(7)
        x = rng.standard_normal(max(lengths)) * np.exp(rng.uniform(-8.0, 8.0, max(lengths)))
        for n in sorted(lengths):
            total = _pairwise_sum(lambda lo, hi: float(x[lo:hi].sum()), 0, n)
            assert bits(total) == bits(x[:n].sum()), n

    @LEAVES
    @pytest.mark.parametrize("n", [3, 300, 65_538, 131_075, 200_001, LOCK_N])
    def test_allan_is_the_whole_buffer_sum(self, monkeypatch, leaf, n):
        if leaf is not None:
            monkeypatch.setattr(phase_metrology, "_LEAF", leaf)
        phi = random_walk(n, seed=n)
        ms = sorted(set(LOCK_LADDER + OCTAVE_LADDER) & set(range(1, (n + 1) // 2))) or [1]
        curve = overlapping_allan(PhaseTrace(phi, 1e-4), ms)
        assert np.array_equal(bits(curve.adev), bits(reference_allan(phi, 1e-4, ms)))

    @LEAVES
    @pytest.mark.parametrize("n", [2, 300, 65_537, 131_075, 200_001, LOCK_N])
    def test_rms_is_numpy_std(self, monkeypatch, leaf, n):
        if leaf is not None:
            monkeypatch.setattr(phase_metrology, "_LEAF", leaf)
        phi = random_walk(n, seed=n)
        assert bits(rms_phase(PhaseTrace(phi, 1e-4))) == bits(np.std(phi))


class TestPeakMemory:
    """Peak traced allocation of the metrology of one shipped lock trace, in trace-sized arrays."""

    @staticmethod
    def _peak_arrays(fn):
        fn()  # warm-up: first-call caches are not the trace's memory
        tracemalloc.start()
        try:
            fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (8 * LOCK_N)

    TRACE = PhaseTrace(random_walk(LOCK_N), CONFIG["lock.dt_s"])

    def test_allan_on_the_lock_ladder(self):
        assert self._peak_arrays(lambda: overlapping_allan(self.TRACE, LOCK_LADDER)) <= 0.25

    def test_rms(self):
        assert self._peak_arrays(lambda: rms_phase(self.TRACE)) <= 0.25


class TestTraceType:
    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            PhaseTrace(np.array([0.0, np.nan]), 1e-3)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            PhaseTrace(np.array([1.0]), 1e-3)

    def test_positive_dt(self):
        with pytest.raises(ValueError):
            PhaseTrace(np.zeros(10), 0.0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
    def test_finite_dt(self, dt):
        with pytest.raises(ValueError, match="finite"):
            PhaseTrace(np.zeros(10), dt)
