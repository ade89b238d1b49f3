"""Test-only oracles: dense Fock-space entropy, brute-force convolutions, the
count tables' window, the phase-jitter average on the real line, out-of-place
references for the lock study's in-place noise synthesis and linear loop
response, and a whole-buffer reference for the leaf-by-leaf Allan deviation."""

import math

import numpy as np
from scipy.special import gammaln

from wfhsim.lock_sim import _BLOCK
from wfhsim.wf_receiver import _branch_means, count_window


def table_window(c, params) -> tuple[int, int]:
    """The count window of ``c``'s tables: every branch mean any phase reaches."""
    mu_t, mu_r = _branch_means(np.array(c.amplitudes), 0.0, params)
    return count_window(mu_r.min(), mu_t.max())


def fock_vn_entropy(amplitudes, weights, n_cut: int = 40) -> float:
    """Entropy of a coherent-state mixture via explicit Fock-basis truncation.

    Builds the density matrix up to photon number ``n_cut`` and diagonalizes
    it directly; independent of the Gram-spectrum route in the package.
    """
    n = np.arange(n_cut + 1)
    log_fact = gammaln(n + 1.0)
    rho = np.zeros((n_cut + 1, n_cut + 1), dtype=complex)
    for a, w in zip(np.asarray(amplitudes, dtype=complex), weights):
        coeff = np.exp(-0.5 * abs(a) ** 2) * np.power(a, n) / np.exp(0.5 * log_fact)
        rho += w * np.outer(coeff, coeff.conj())
    eig = np.linalg.eigvalsh(rho)
    eig = np.clip(eig.real, 0.0, None)
    nz = eig[eig > 1e-300]
    return float(-np.sum(nz * np.log2(nz)))


def brute_force_difference(joint: np.ndarray, d_max: int) -> np.ndarray:
    """P(d) summed directly from a joint (n, m) table."""
    out = np.zeros(2 * d_max + 1)
    n_max = joint.shape[0] - 1
    for n in range(n_max + 1):
        for m in range(n_max + 1):
            d = n - m
            if -d_max <= d <= d_max:
                out[d + d_max] += joint[n, m]
    return out


def jitter_oracle(f, sigma: float, step: float):
    """The average of f(delta) over delta ~ N(0, sigma^2), at ``step`` and at twice it.

    The trapezoid rule on the real line, not wrapped, over +-12 sigma: for a
    2 pi-periodic f it is the average over the wrapped normal law, and it
    shares no code with the package's rule on the circle.  ``f`` maps an
    array of offsets to an array with one row per offset.  The step is
    ``step`` radians or finer, so that the 24 sigma hold an even count of
    steps and the doubled-step sum reuses every other evaluation.  Zero
    jitter is f(0), twice.
    """
    if sigma == 0.0:
        value = f(np.zeros(1))[0]
        return value, value
    n = 2 * math.ceil(12.0 * sigma / step)
    z = np.linspace(-12.0, 12.0, n + 1)
    w = np.exp(-0.5 * z * z) * (24.0 / n) / math.sqrt(2.0 * math.pi)
    fine = coarse = 0.0
    for i in range(0, n + 1, 64):  # blocks of 64 offsets bound the memory of one call
        values = f(sigma * z[i : i + 64])
        fine = fine + np.tensordot(w[i : i + 64], values, axes=1)
        coarse = coarse + np.tensordot(2.0 * w[i : i + 64 : 2], values[::2], axes=1)
    return fine, coarse


def reference_noise(noise, n: int, dt: float) -> np.ndarray:
    """``lock_sim.generate_noise`` written out of place: one array per term.

    Same IEEE operations in the same order and the same rng draws, so the
    in-place synthesis must match it bit for bit.
    """
    rng = np.random.default_rng(noise.seed)
    shield = noise.box_factor if noise.box_closed else 1.0

    def tone(t, freq, width, rms):
        if rms == 0.0:
            return np.zeros(t.size)
        psi0 = rng.uniform(0.0, 2.0 * math.pi)
        if width > 0.0:
            psi = np.cumsum(rng.normal(0.0, math.sqrt(2.0 * math.pi * width * dt), t.size))
        else:
            psi = 0.0
        return math.sqrt(2.0) * rms * np.sin(2.0 * math.pi * freq * t + psi + psi0)

    out = np.zeros(n)
    if noise.white_rms > 0.0:
        out += rng.normal(0.0, noise.white_rms, n)
    drift = shield * noise.drift_rate
    if drift > 0.0:
        walk = np.cumsum(rng.normal(0.0, drift * math.sqrt(dt), n))
        slope = noise.drift_linear_fraction * drift
        out += walk + slope * np.arange(n) * dt
    t = np.arange(n) * dt
    out += tone(t, noise.tone_20hz_freq, noise.tone_20hz_width, shield * noise.tone_20hz_rms)
    out += tone(t, noise.air_freq, noise.air_width, shield * noise.air_rms)
    split = np.asarray(noise.acoustic_power_split, dtype=np.float64)
    split = split / split.sum()
    for freq, frac in zip(noise.acoustic_freqs, split):
        out += tone(t, freq, 0.0, math.sqrt(noise.tone_200hz_rms**2 * frac))
    return out


def reference_linear_response(noise, dt, kp, ki, out_min, out_max, actuator_gain, alpha):
    """``lock_sim._linear_lock_response`` with its state sums written out of place.

    Returns the residual r and the PI output u = ki I - kp r over every
    sample, with no guard and no fallback.
    """
    ag = alpha * actuator_gain
    a = np.array([[1.0, -dt], [ag * ki, 1.0 - alpha - ag * kp]])
    b = np.array([-dt, -ag * kp])
    n, L = noise.shape[0], _BLOCK
    e = np.zeros((-(-n // L), L))
    e.ravel()[:n] = noise
    powers = np.empty((L + 1, 2, 2))
    powers[0] = np.eye(2)
    for j in range(L):
        powers[j + 1] = a @ powers[j]
    impulse = (powers[:L] @ b).T
    (p00, p01), (p10, p11) = powers[L].tolist()
    s0 = s1 = 0.0
    starts = []
    for d0, d1 in (e @ impulse[:, ::-1].T).tolist():
        starts.append((s0, s1))
        s0, s1 = p00 * s0 + p01 * s1 + d0, p10 * s0 + p11 * s1 + d1
    starts = np.array(starts)
    lag = np.arange(L) - np.arange(L)[:, None] - 1
    integral, act = (
        (e @ np.where(lag >= 0, impulse[c][np.maximum(lag, 0)], 0.0) + starts @ powers[:L, c].T)
        .ravel()[:n]
        for c in (0, 1)
    )
    residual = act + e.ravel()[:n]
    return residual, ki * integral - kp * residual


def reference_allan(phi: np.ndarray, dt: float, ms) -> np.ndarray:
    """``phase_metrology.overlapping_allan``'s deviations from whole-trace buffers.

    Each second difference is built and squared over the whole trace in one
    buffer and summed by one ``ndarray.sum``, the sum the leaf-by-leaf
    estimate must reproduce bit for bit.
    """
    n = phi.size
    adev = np.empty(len(ms))
    buf = np.empty(n - 2)
    for idx, m in enumerate(ms):
        tau = np.float64(m * dt)
        d2 = buf[: n - 2 * m]
        np.multiply(phi[m : n - m], 2.0, out=d2)
        np.subtract(phi[2 * m :], d2, out=d2)
        np.add(d2, phi[: n - 2 * m], out=d2)
        np.square(d2, out=d2)
        adev[idx] = math.sqrt(float(d2.sum()) / (2.0 * tau * tau * d2.size))
    return adev
