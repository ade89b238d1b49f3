"""Time- and frequency-domain characterization of interferometer phase traces.

Covers the overlapping Allan deviation built from phase second differences,
a Welch-averaged amplitude spectral density, and the RMS phase noise.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

# Samples per leaf of the chunked sums: each leaf is one ``ndarray.sum``, and
# the scratch array of a sum stays this size whatever the trace length.  It
# must be at least 128, the length up to which numpy sums without splitting.
_LEAF = 65536

ASD_WINDOW = "hann"  # the taper :func:`asd` applies to each segment


@dataclass(frozen=True)
class PhaseTrace:
    """Uniformly sampled phase time series (rad) with sample interval dt (s)."""

    samples: np.ndarray
    dt: float

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if samples.ndim != 1 or samples.size < 2:
            raise ValueError("trace needs at least 2 samples in a 1-D array")
        if np.any(np.isnan(samples)):
            raise ValueError("trace contains NaN samples")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class AllanCurve:
    """Allan deviation vs averaging time; counts holds the terms per estimate."""

    taus: np.ndarray
    adev: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.taus) == len(self.adev) == len(self.counts)):
            raise ValueError("taus, adev, counts must have matching lengths")


@dataclass(frozen=True)
class SpectrumCurve:
    """One-sided amplitude spectral density in rad/sqrt(Hz)."""

    freqs: np.ndarray
    asd: np.ndarray
    resolution_bw: float


def _sample_count(seconds: float, dt: float) -> int:
    """The one seconds-to-samples rule: round(seconds / dt), which must be finite."""
    samples = seconds / dt
    if not math.isfinite(samples):
        raise ValueError(f"{seconds} s at dt = {dt} s gives no finite sample count")
    return int(round(samples))


def _pairwise_sum(leaf_sum, lo: int, hi: int) -> float:
    """The sum of ``leaf_sum(lo, hi)`` over the leaves of numpy's pairwise tree of [lo, hi).

    numpy's float64 ``ndarray.sum`` of a contiguous array splits n > 128
    samples at n // 2 rounded down to a multiple of 8 and adds the sums of
    the two halves (Higham 1993).  This takes the same splits down to leaves
    of at most ``_LEAF`` samples; when ``leaf_sum`` is the ``ndarray.sum`` of
    a leaf, the result has the bits of the whole array's sum, while only one
    leaf need exist at a time.
    """
    n = hi - lo
    if n <= _LEAF:
        return leaf_sum(lo, hi)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(leaf_sum, lo, lo + half) + _pairwise_sum(leaf_sum, lo + half, hi)


def _octave_ladder(m: int, m_max: int) -> list[int]:
    """Averaging factors m, 2m, 4m, ... up to m_max; needs m >= 1."""
    ms = []
    while m <= m_max:
        ms.append(m)
        m *= 2
    return ms


def octave_taus(trace: PhaseTrace) -> list[int]:
    """Octave-spaced averaging factors m = 1, 2, 4, ... up to N/8."""
    return _octave_ladder(1, int(len(trace) * 0.125))


def overlapping_allan(trace: PhaseTrace, ms) -> AllanCurve:
    """Overlapping Allan deviation of a phase trace at averaging factors m.

    sigma^2(tau) = mean of (phi_{i+2m} - 2 phi_{i+m} + phi_i)^2 / (2 tau^2)
    over all overlapping start indices, for tau = m*dt.  The second difference
    makes the estimate exactly insensitive to constant offsets and linear
    drift.  Each m must be a whole sample count with 1 <= m and 2m < len(trace),
    and there must be at least one; anything else raises ValueError.

    The second differences are built and squared leaf by leaf in one buffer
    of ``_LEAF`` samples and summed over numpy's pairwise tree, so each
    estimate has the bits of the sum over the whole difference array.
    """
    phi = trace.samples
    n = phi.size
    ms = [operator.index(m) for m in ms]
    if not ms:
        raise ValueError(f"no averaging factors for a trace of {n} samples")
    if any(m < 1 or 2 * m >= n for m in ms):
        raise ValueError(f"averaging factors {ms} need 1 <= m and 2m < {n} samples")
    taus = np.array([m * trace.dt for m in ms])
    adev = np.empty(len(ms))
    counts = np.array([n - 2 * m for m in ms], dtype=np.int64)
    buf = np.empty(min(n - 2, _LEAF))  # one leaf of the longest difference, m = 1

    def squares(m: int, lo: int, hi: int) -> float:
        # the second differences lo..hi in the reused buffer, summed by a
        # numpy reduction, not np.dot: BLAS ddot splits a long sum across
        # threads, which would make the result depend on the thread count
        d2 = buf[: hi - lo]
        np.multiply(phi[m + lo : m + hi], 2.0, out=d2)
        np.subtract(phi[2 * m + lo : 2 * m + hi], d2, out=d2)
        np.add(d2, phi[lo:hi], out=d2)
        np.square(d2, out=d2)
        return float(d2.sum())

    for idx, (m, tau, count) in enumerate(zip(ms, taus, counts.tolist())):
        total = _pairwise_sum(functools.partial(squares, m), 0, count)
        adev[idx] = math.sqrt(total / (2.0 * tau * tau * count))
    return AllanCurve(taus=taus, adev=adev, counts=counts)


def asd(
    trace: PhaseTrace, segment_length: int, overlap_fraction: float = 0.5
) -> SpectrumCurve:
    """Welch-averaged one-sided amplitude spectral density of a phase trace.

    Segments are mean-removed, Hann-windowed and scaled so the integral of the
    power spectral density over frequency recovers the trace variance (window
    power compensated).  ASD = sqrt(PSD).
    """
    phi = trace.samples
    n = phi.size
    if segment_length > n:
        raise ValueError(f"segment_length {segment_length} exceeds trace length {n}")
    if segment_length < 2:
        raise ValueError("segment_length must be >= 2")
    if not 0.0 <= overlap_fraction <= 0.9:
        raise ValueError(f"overlap_fraction must be in [0, 0.9], got {overlap_fraction}")
    step = max(1, int(round(segment_length * (1.0 - overlap_fraction))))
    starts = range(0, n - segment_length + 1, step)
    # periodic Hann (ASD_WINDOW), the usual Welch convention
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(segment_length) / segment_length)
    win_power = float(np.square(window).sum())  # compensates window loss; a numpy sum
    fs = 1.0 / trace.dt
    psd = np.zeros(segment_length // 2 + 1)
    n_seg = 0
    for s in starts:
        seg = phi[s : s + segment_length]
        seg = (seg - seg.mean()) * window
        spec = np.fft.rfft(seg)
        psd += np.abs(spec) ** 2
        n_seg += 1
    psd /= n_seg * win_power * fs
    # one-sided: double everything except DC (and Nyquist for even lengths)
    psd[1:] *= 2.0
    if segment_length % 2 == 0:
        psd[-1] /= 2.0
    freqs = np.fft.rfftfreq(segment_length, d=trace.dt)
    return SpectrumCurve(freqs=freqs, asd=np.sqrt(psd), resolution_bw=fs / segment_length)


def rms_phase(trace: PhaseTrace) -> float:
    """RMS phase noise: standard deviation of the samples about their mean.

    ``np.std``'s steps, taken leaf by leaf in one buffer of ``_LEAF``
    samples: the mean is the sum over n, then the squared deviations from
    it are summed and divided by n before the square root.  Every sum runs
    over numpy's pairwise tree, so the result has the bits of ``np.std``.
    """
    x = trace.samples
    n = x.size
    mean = _pairwise_sum(lambda lo, hi: float(x[lo:hi].sum()), 0, n) / n
    buf = np.empty(min(n, _LEAF))

    def squares(lo: int, hi: int) -> float:
        d = buf[: hi - lo]
        np.subtract(x[lo:hi], mean, out=d)
        np.multiply(d, d, out=d)
        return float(d.sum())

    return math.sqrt(_pairwise_sum(squares, 0, n) / n)
