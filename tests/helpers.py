"""Test-only oracles: dense Fock-space entropy, brute-force convolutions and
the phase-jitter average on the real line."""

import math

import numpy as np
from scipy.special import gammaln


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
