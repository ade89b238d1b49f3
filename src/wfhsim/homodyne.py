"""Ideal quadrature-readout benchmark for the same constellations.

A balanced homodyne receiver measuring a single quadrature sees each symbol
as a Gaussian with shot-noise variance; its mutual information is the count
tables' law on the Simpson-weighted densities.  Quadratures are in shot-noise
units (sigma0 = 1): the means, the width and the automatic grid all scale
with sigma0, so the information does not depend on it.

The operating point is the count tables' :class:`WfReceiverParams`: the
homodyne reads its transmissivity, visibility and phase jitter.  It is the
strong-reference limit of that receiver, so ``lo_amplitude`` and ``n_max``
do not enter.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .constellation import Constellation, CoherentSymbol
from .info_metrics import _mi_from_tables
from .wf_receiver import WfReceiverParams, _gauss_hermite_weights

# Default integration grid: this many steps per shot-noise sigma.
STEPS_PER_SIGMA = 200
GRID_PAD_SIGMAS = 10.0
# Bound on the exponent of each factor of the blocked jitter average: far
# from overflow, and each factor rounds to within ~100 ulps.
_FACTOR_EXPONENT = 64.0


class GridAccuracyError(ValueError):
    """Quadrature grid too coarse for the requested entropy accuracy."""


def _conditional_means(amps, phases, params: WfReceiverParams) -> np.ndarray:
    """Quadrature means 2 xi sqrt(T) a cos(phase), elementwise."""
    return (
        2.0
        * params.visibility
        * math.sqrt(params.transmissivity)
        * np.asarray(amps, dtype=np.float64)
        * np.cos(phases)
    )


def conditional_mean(symbol: CoherentSymbol, params: WfReceiverParams) -> float:
    """Quadrature mean 2 xi sqrt(T) a cos(phase) of one symbol."""
    return float(_conditional_means(symbol.amplitude, symbol.phase, params))


def hd_conditional_pdf(
    x: float | np.ndarray, symbol: CoherentSymbol, params: WfReceiverParams
) -> float | np.ndarray:
    """Unit-variance Gaussian density of the measured quadrature given one sent symbol."""
    mean = conditional_mean(symbol, params)
    return np.exp(-((x - mean) ** 2) / 2.0) / math.sqrt(2.0 * math.pi)


def _grid(
    c: Constellation,
    params: WfReceiverParams,
    grid: tuple[float, float, float] | None = None,
) -> np.ndarray:
    """Odd-length uniform grid (x_min, x_max, step); None covers every mean plus a pad."""
    if grid is not None:
        x_min, x_max, step = grid
        # NaN fails every comparison, an infinite bound or point count the last
        if not (
            x_max > x_min
            and 0.0 < step < math.inf
            and math.isfinite((x_max - x_min) / step)
        ):
            raise ValueError(f"malformed grid {grid}")
    else:
        means = _conditional_means(c.amplitudes, c.phases, params)
        reach = float(np.max(np.abs(means))) + GRID_PAD_SIGMAS
        x_min, x_max, step = -reach, reach, 1.0 / STEPS_PER_SIGMA
    n = int(math.ceil((x_max - x_min) / step)) + 1
    if n % 2 == 0:  # Simpson needs an odd point count
        n += 1
    return np.linspace(x_min, x_max, n)


def _simpson_weights(x: np.ndarray) -> np.ndarray:
    """Composite Simpson weights of the odd-length uniform grid ``x``."""
    w = np.ones(len(x))
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (float(x[1] - x[0]) / 3.0)


def _jittered_pdfs(
    x: np.ndarray, symbols: Sequence[CoherentSymbol], params: WfReceiverParams
) -> np.ndarray:
    """Jitter-averaged densities of ``symbols`` on the increasing uniform grid ``x``.

    Row k is sum_j w_j N(x; m_kj, 1) over the Gauss-Hermite phase nodes j of
    ``params.phase_jitter_rms``.
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
    deltas, weights = _gauss_hermite_weights(params.phase_jitter_rms, params.jitter_quad_nodes)
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


def hd_mutual_information(
    c: Constellation,
    params: WfReceiverParams,
    grid: tuple[float, float, float] | None = None,
) -> float:
    """Mutual information of the homodyne benchmark, in bits.

    :func:`info_metrics._mi_from_tables` on the table q(x_i | k) =
    w_i p(x_i | k), the densities times the composite Simpson weights: its
    plug-in MI is the Simpson rule for the MI integral, as the log w_i terms
    cancel between the marginal and conditional entropies.  With
    ``params.phase_jitter_rms`` set, the densities are Gaussian-jitter
    averaged over ``params.jitter_quad_nodes`` Gauss-Hermite nodes.
    ``grid`` is (x_min, x_max, step); None covers every conditional mean
    plus a 10-sigma pad.  Raises :class:`GridAccuracyError` when halving the
    step moves the result by more than 1e-6.  The densities are evaluated
    once on the base grid and once on the odd points of the halved-step
    grid; interleaved, they are the halved-step densities, whose even points
    are the base evaluation itself.
    """
    x = _grid(c, params, grid=grid)
    x_fine = np.linspace(x[0], x[-1], 2 * len(x) - 1)
    base = _jittered_pdfs(x, c.symbols, params)
    pdfs = np.empty((len(c.symbols), len(x_fine)))
    pdfs[:, ::2] = base
    pdfs[:, 1::2] = _jittered_pdfs(x_fine[1::2], c.symbols, params)
    result = _mi_from_tables(c, base * _simpson_weights(x)).mi_bits
    refined = _mi_from_tables(c, pdfs * _simpson_weights(x_fine)).mi_bits
    if abs(refined - result) > 1e-6:
        raise GridAccuracyError(
            f"entropy moved by {abs(refined - result):.3e} when halving the "
            "grid step; refine the grid"
        )
    return result
