"""Ideal quadrature-readout benchmark for the same constellations.

A balanced homodyne receiver measuring a single quadrature sees each symbol
as a Gaussian with shot-noise variance; its mutual information is the count
tables' law on the densities at the points of a uniform grid, each weighed by
the step (the trapezoid rule), and the grid is checked by the same law on its
every other point.  Quadratures are in shot-noise units (sigma0 = 1): the
means, the width and the grid all scale with sigma0, so the information does
not depend on it.

The operating point is the count tables' :class:`WfReceiverParams`: the
homodyne reads its transmissivity, visibility and phase jitter.  It is the
strong-reference limit of that receiver, so ``lo_amplitude`` does not
enter.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .constellation import Constellation, CoherentSymbol
from .info_metrics import _mi_from_tables
from .wf_receiver import GridAccuracyError, WfReceiverParams, _jitter_average

# Integration grid: this many trapezoid steps per shot-noise sigma.
STEPS_PER_SIGMA = 10
GRID_PAD_SIGMAS = 10.0


def _conditional_means(amps, phases, params: WfReceiverParams) -> np.ndarray:
    """Quadrature means 2 xi sqrt(T) a cos(phase), elementwise."""
    return (
        2.0
        * params.visibility
        * math.sqrt(params.transmissivity)
        * np.asarray(amps, dtype=np.float64)
        * np.cos(phases)
    )


def _grid(c: Constellation, params: WfReceiverParams) -> np.ndarray:
    """Uniform grid over every mean, at full amplitude under jitter, plus a GRID_PAD_SIGMAS pad."""
    means = _conditional_means(c.amplitudes, 0.0 if params.phase_jitter_rms else c.phases, params)
    reach = float(np.max(np.abs(means))) + GRID_PAD_SIGMAS
    n = int(math.ceil(2.0 * reach * STEPS_PER_SIGMA)) + 1
    return np.linspace(-reach, reach, n)


def _jittered_pdfs(
    x: np.ndarray, symbols: Sequence[CoherentSymbol], params: WfReceiverParams
) -> np.ndarray:
    """Jitter-averaged densities of ``symbols`` at the points ``x``.

    Row k is sum_j w_j N(x; m_kj, 1) over the phase nodes j that
    :func:`_jitter_average` takes for ``params.phase_jitter_rms``.  The node
    sum is a numpy reduction, not a BLAS call, so no byte depends on BLAS
    threading.
    """
    amps = np.array([s.amplitude for s in symbols])
    phases = np.array([s.phase for s in symbols])

    def contract(deltas, weights):
        means = _conditional_means(amps[:, None], phases[:, None] + deltas, params)
        gauss = x - means[:, :, None]  # in place from here: a large temporary costs page faults
        gauss *= gauss
        gauss *= -0.5
        np.exp(gauss, out=gauss)
        weights = weights / math.sqrt(2.0 * math.pi)
        return np.stack([np.einsum("j,kjx->kx", w, gauss) for w in weights.T])

    return _jitter_average(params.phase_jitter_rms, contract)


def hd_mutual_information(c: Constellation, params: WfReceiverParams) -> float:
    """Mutual information of the homodyne benchmark, in bits.

    :func:`info_metrics._mi_from_tables` on the table q(x_i | k) =
    h p(x_i | k), the densities times the grid step h: its plug-in MI is the
    trapezoid rule for the MI integral, as the log h terms cancel between the
    marginal and conditional entropies (the grid's end points lie
    GRID_PAD_SIGMAS beyond every mean the jitter reaches, where the
    densities vanish, so their half weights do not matter).  The densities
    are jitter-averaged by :func:`wf_receiver._jitter_average` and evaluated
    once, on a grid of STEPS_PER_SIGMA steps per shot-noise sigma.  Raises
    :class:`GridAccuracyError` when the same law on every other point (step
    2h) differs from the result by more than 1e-6.
    """
    x = _grid(c, params)
    # the linspace step: x[1] - x[0] differs from it by up to ~1e-12 relative
    h = (x[-1] - x[0]) / (len(x) - 1)
    pdfs = _jittered_pdfs(x, c.symbols, params)
    result = _mi_from_tables(c, pdfs * h).mi_bits
    coarse = _mi_from_tables(c, pdfs[:, ::2] * (2.0 * h)).mi_bits
    if abs(coarse - result) > 1e-6:
        raise GridAccuracyError(
            f"entropy moved by {abs(coarse - result):.3e} between the grid and "
            "its every other point; refine the grid"
        )
    return result
