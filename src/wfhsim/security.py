"""Key-rate analysis for beam-splitting collective attacks, reverse reconciliation.

The eavesdropper holds the lost fraction of each coherent pulse.  Her
accessible information is bounded by the Holevo quantity chi = S(E) - S(E|B),
evaluated exactly on the span of the constellation states: the nonzero
spectrum of a coherent-state mixture equals that of the weighted Gram matrix
G'_{jk} = sqrt(w_j w_k) <beta_j | beta_k>, so an M x M eigenproblem per
detector outcome suffices.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .constellation import Constellation
from .info_metrics import _entropy_bits, _mi_from_tables
from .wf_receiver import WfReceiverParams, _stack, conditional_tables

# Outcomes below this probability are skipped in the conditional-entropy
# average; their mass bounds the omitted contribution by ~1e-11 bits.
OUTCOME_SKIP_THRESHOLD = 1e-15


class NumericalFailureError(ArithmeticError):
    """An eigenvalue fell below the tolerated negative round-off band."""


@dataclass(frozen=True)
class Ensemble:
    """Weighted set of coherent amplitudes (a mixed state of pure coherent states)."""

    amplitudes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        w = np.asarray(self.weights, dtype=np.float64)
        if amps.shape != w.shape or amps.ndim != 1 or amps.size == 0:
            raise ValueError("amplitudes and weights must be matching 1-D arrays")
        if np.any(w < 0.0):
            raise ValueError("weights must be >= 0")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 within 1e-12, got {w.sum()!r}")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class KgrResult:
    """Key rate decomposition: KGR = MI - chi, chi = S(E) - S(E|B)."""

    kgr_bits: float
    mi_bits: float
    holevo_bits: float
    s_e_bits: float
    s_e_given_b_bits: float

    @property
    def insecure(self) -> bool:
        return self.kgr_bits < 0.0


def coherent_overlap(a: complex, b: complex) -> complex:
    """Inner product <a|b> = exp(-|a|^2/2 - |b|^2/2 + conj(a) b) of coherent states."""
    return cmath.exp(
        -0.5 * (abs(a) ** 2) - 0.5 * (abs(b) ** 2) + a.conjugate() * b
    )


def overlap_matrix(amplitudes: np.ndarray) -> np.ndarray:
    amps = np.asarray(amplitudes, dtype=np.complex128)
    mags2 = np.abs(amps) ** 2
    log_ov = (
        -0.5 * mags2[:, None] - 0.5 * mags2[None, :] + np.conj(amps[:, None]) * amps[None, :]
    )
    return np.exp(log_ov)


def _entropy_of_eigvals(eig: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits of each spectrum along the last axis."""
    if np.any(eig < -1e-10):
        raise NumericalFailureError(
            f"Gram eigenvalue {eig.min():.3e} below -1e-10; inputs ill-conditioned"
        )
    return _entropy_bits(np.clip(eig, 0.0, None))


def vn_entropy(e: Ensemble) -> float:
    """Von Neumann entropy of the ensemble's density operator, in bits.

    Computed as the Shannon entropy of the weighted Gram spectrum; exact for
    any mixture of pure states, with cost set only by the ensemble size.  It is
    the conditional scan with one certain outcome.
    """
    certain = np.ones((e.weights.size, 1))
    return _conditional_entropy_scan(certain, e.weights, overlap_matrix(e.amplitudes))[0]


def eve_ensemble(c: Constellation, transmissivity: float) -> Ensemble:
    """The eavesdropper's ensemble: each symbol attenuated by sqrt(1 - T)."""
    root = math.sqrt(max(0.0, 1.0 - transmissivity))
    amps = root * np.array(c.amplitudes) * np.exp(1j * np.array(c.phases))
    return Ensemble(amplitudes=amps, weights=c.priors)


def _conditional_entropy_scan(
    cond_probs: np.ndarray, priors: np.ndarray, overlaps: np.ndarray
) -> tuple[float, float]:
    """Outcome-averaged von Neumann entropy of the conditional ensembles.

    ``cond_probs`` is the (M, n_out) table p(o | symbol k) and ``overlaps``
    the (M, M) matrix <beta_j | beta_k>.  Outcomes with p(o) below
    :data:`OUTCOME_SKIP_THRESHOLD` are dropped; the Gram matrices of all kept
    outcomes go through one batched eigensolve.

    Returns (entropy_bits, skipped_mass): the sum over kept outcomes of
    p(o) * S(ensemble | o), and the total probability skipped.
    """
    joint = priors[:, None] * cond_probs
    p_o = joint.sum(axis=0)
    kept = p_o >= OUTCOME_SKIP_THRESHOLD
    root = np.sqrt(joint[:, kept] / p_o[kept]).T
    gram = root[:, :, None] * root[:, None, :] * overlaps
    s_o = _entropy_of_eigvals(np.linalg.eigvalsh(gram))
    return float(p_o[kept] @ s_o), float(p_o[~kept].sum())


def conditional_eve_entropy(c: Constellation, params: WfReceiverParams) -> float:
    """Outcome-averaged entropy of the eavesdropper's conditional states, in bits.

    For every detector outcome the conditional ensemble reweights the symbols
    by their posterior; the average runs over the truncated outcome table,
    skipping outcomes with negligible probability.
    """
    overlaps = overlap_matrix(eve_ensemble(c, params.transmissivity).amplitudes)
    stacked = _stack(conditional_tables(c, params))
    return _conditional_entropy_scan(stacked, np.array(c.priors), overlaps)[0]


def kgr(c: Constellation, params: WfReceiverParams) -> KgrResult:
    """Key generation rate against beam-splitting collective attacks.

    Negative rates are reported as-is and flagged through
    :attr:`KgrResult.insecure` rather than clamped.
    """
    stacked = _stack(conditional_tables(c, params))
    mi = _mi_from_tables(c, stacked)
    eve = eve_ensemble(c, params.transmissivity)
    s_e = vn_entropy(eve)
    s_e_given_b, _skipped = _conditional_entropy_scan(
        stacked, np.array(c.priors), overlap_matrix(eve.amplitudes)
    )
    holevo = s_e - s_e_given_b
    return KgrResult(
        kgr_bits=mi.mi_bits - holevo,
        mi_bits=mi.mi_bits,
        holevo_bits=holevo,
        s_e_bits=s_e,
        s_e_given_b_bits=s_e_given_b,
    )
