"""Ideal quadrature-readout benchmark for the same constellations.

A balanced homodyne receiver measuring a single quadrature sees each symbol
as a Gaussian with shot-noise variance; the mutual information follows from
the differential entropy of the Gaussian mixture.  Quadratures are in
shot-noise units (sigma0 = 1): the means, the width and the automatic grid
all scale with sigma0, so the information does not depend on it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .constellation import Constellation, CoherentSymbol
from .wf_receiver import DEFAULT_JITTER_NODES, _gauss_hermite_weights, _prior_mixture

# Default integration grid: this many steps per shot-noise sigma.
STEPS_PER_SIGMA = 200
GRID_PAD_SIGMAS = 10.0
# Bound on the exponent of each factor of the blocked jitter average: far
# from overflow, and each factor rounds to within ~100 ulps.
_FACTOR_EXPONENT = 64.0


class GridAccuracyError(ValueError):
    """Quadrature grid too coarse for the requested entropy accuracy."""


@dataclass(frozen=True)
class HomodyneParams:
    """Channel transmissivity, integration grid and visibility.

    ``grid`` is (x_min, x_max, step); None lets the integrator pick a grid
    covering every conditional mean plus a 10-sigma pad.  ``visibility``
    scales the conditional means for imperfect mode overlap (1 = ideal).
    """

    transmissivity: float = 1.0
    grid: tuple[float, float, float] | None = None
    visibility: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.transmissivity <= 1.0:
            raise ValueError(
                f"transmissivity must be in [0, 1], got {self.transmissivity}"
            )
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility must be in [0, 1], got {self.visibility}")
        if self.grid is not None:
            x_min, x_max, step = self.grid
            if not (x_max > x_min and step > 0.0):
                raise ValueError(f"malformed grid {self.grid}")


def _conditional_means(amps, phases, params: HomodyneParams) -> np.ndarray:
    """Quadrature means 2 xi sqrt(T) a cos(phase), elementwise."""
    return (
        2.0
        * params.visibility
        * math.sqrt(params.transmissivity)
        * np.asarray(amps, dtype=np.float64)
        * np.cos(phases)
    )


def conditional_mean(symbol: CoherentSymbol, params: HomodyneParams) -> float:
    """Quadrature mean 2 xi sqrt(T) a cos(phase) of one symbol."""
    return float(_conditional_means(symbol.amplitude, symbol.phase, params))


def hd_conditional_pdf(
    x: float | np.ndarray, symbol: CoherentSymbol, params: HomodyneParams
) -> float | np.ndarray:
    """Unit-variance Gaussian density of the measured quadrature given one sent symbol."""
    mean = conditional_mean(symbol, params)
    return np.exp(-((x - mean) ** 2) / 2.0) / math.sqrt(2.0 * math.pi)


def _grid(c: Constellation, params: HomodyneParams) -> np.ndarray:
    if params.grid is not None:
        x_min, x_max, step = params.grid
    else:
        means = _conditional_means(c.amplitudes, c.phases, params)
        reach = float(np.max(np.abs(means))) + GRID_PAD_SIGMAS
        x_min, x_max, step = -reach, reach, 1.0 / STEPS_PER_SIGMA
    n = int(math.ceil((x_max - x_min) / step)) + 1
    if n % 2 == 0:  # Simpson needs an odd point count
        n += 1
    return np.linspace(x_min, x_max, n)


def _simpson_weights(n: int, h: float) -> np.ndarray:
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def _jittered_pdfs(
    x: np.ndarray,
    symbols: Sequence[CoherentSymbol],
    params: HomodyneParams,
    jitter_rms: float,
    quad_nodes: int,
) -> np.ndarray:
    """Jitter-averaged densities of ``symbols`` on the increasing uniform grid ``x``.

    Row k is sum_j w_j N(x; m_kj, 1) over the Gauss-Hermite phase nodes j.
    The grid is cut into blocks of B points starting at X_b, and with d = i h

        exp(-(X_b + d - m)^2 / 2) = E[b, j] V[j, i] U[b, i],
        E = exp(-(X_b - m_j)^2 / 2),  V = exp(d m_j),
        U = exp(-d X_b - d^2 / 2),

    so each symbol's row is one (E @ V) * U product, with the node weight and
    the Gaussian normalisation folded into V, and U is shared by every symbol.
    B is about sqrt(len(x)), with B h <= 1 and B h <= _FACTOR_EXPONENT over
    the largest |x| or |m|, so no factor's exponent leaves +-(that bound
    + 1/2).  B = 1 (a grid coarser than that) is the direct evaluation.
    """
    deltas, weights = _gauss_hermite_weights(jitter_rms, quad_nodes)
    amps = np.array([s.amplitude for s in symbols])
    phases = np.array([s.phase for s in symbols])
    means = _conditional_means(amps[:, None], phases[:, None] + deltas, params)
    n = len(x)
    # the linspace step: x[1] - x[0] differs from it by up to ~1e-12 relative
    h = (x[-1] - x[0]) / (n - 1)
    reach = max(abs(x[0]), abs(x[-1]), float(np.max(np.abs(means))))
    span = min(1.0, _FACTOR_EXPONENT / reach)
    block = max(1, min(math.isqrt(n), int(span / h)))
    starts = x[::block]
    offsets = h * np.arange(block)
    e = np.exp(-((starts[:, None] - means[:, None, :]) ** 2) / 2.0)
    v = (weights / math.sqrt(2.0 * math.pi))[:, None] * np.exp(means[:, :, None] * offsets)
    out = np.empty((len(symbols), len(starts), block))
    # 2-D products: a stacked matmul with one node (sigma = 0) skips BLAS and
    # takes ~3x longer
    for e_k, v_k, out_k in zip(e, v, out):
        np.dot(e_k, v_k, out=out_k)
    out *= np.exp(-(starts[:, None] * offsets + 0.5 * offsets**2))
    return out.reshape(len(symbols), -1)[:, :n]


def _differential_entropy_bits(pdf: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Quadrature of -pdf log2 pdf along the last axis, one entropy per density."""
    logs = np.log2(pdf, out=np.zeros_like(pdf), where=pdf > 1e-300)
    # a numpy reduction, not np.dot: BLAS ddot threads above ~10k points and
    # its wake-ups cost more than the sum itself
    return np.sum(weights * (-pdf * logs), axis=-1)


def hd_mutual_information(
    c: Constellation,
    params: HomodyneParams,
    phase_jitter_rms: float = 0.0,
    jitter_quad_nodes: int = DEFAULT_JITTER_NODES,
) -> float:
    """Mutual information of the homodyne benchmark, in bits.

    Entropy of the quadrature mixture minus the conditional Gaussian entropy,
    both by composite Simpson quadrature.  With ``phase_jitter_rms`` set, the
    conditional densities are Gaussian-jitter averaged over
    ``jitter_quad_nodes`` Gauss-Hermite nodes (and the conditional entropy is
    then itself integrated per symbol).  Raises
    :class:`GridAccuracyError` when halving the step moves the result by more
    than 1e-6.  The densities are evaluated once on the base grid and once
    on the odd points of the halved-step grid; interleaved, they are the
    halved-step densities, whose even points are the base evaluation itself.
    """
    x = _grid(c, params)
    x_fine = np.linspace(x[0], x[-1], 2 * len(x) - 1)
    base = _jittered_pdfs(x, c.symbols, params, phase_jitter_rms, jitter_quad_nodes)
    pdfs = np.empty((len(c.symbols), len(x_fine)))
    pdfs[:, ::2] = base
    pdfs[:, 1::2] = _jittered_pdfs(
        x_fine[1::2], c.symbols, params, phase_jitter_rms, jitter_quad_nodes
    )
    priors = np.array(c.priors)
    result = _mi_from_pdfs(base, x, priors, phase_jitter_rms)
    refined = _mi_from_pdfs(pdfs, x_fine, priors, phase_jitter_rms)
    if abs(refined - result) > 1e-6:
        raise GridAccuracyError(
            f"entropy moved by {abs(refined - result):.3e} when halving the "
            "grid step; refine the grid"
        )
    return result


def _mi_from_pdfs(
    pdfs: np.ndarray,
    x: np.ndarray,
    priors: np.ndarray,
    jitter_rms: float,
) -> float:
    """Simpson-quadrature MI of the (M, len(x)) conditional densities on ``x``."""
    w = _simpson_weights(len(x), float(x[1] - x[0]))
    h_mix = float(_differential_entropy_bits(_prior_mixture(priors, pdfs), w))
    if jitter_rms == 0.0:
        h_cond = 0.5 * math.log2(2.0 * math.pi * math.e)
    else:
        h_cond = float(_prior_mixture(priors, _differential_entropy_bits(pdfs, w)))
    return max(0.0, h_mix - h_cond)
