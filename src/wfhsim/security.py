"""Key-rate analysis for beam-splitting collective attacks, reverse reconciliation.

The eavesdropper holds the lost fraction of each coherent pulse.  Her
accessible information is bounded by the Holevo quantity chi = S(E) - S(E|B),
evaluated exactly on the span of the constellation states: the nonzero
spectrum of a coherent-state mixture equals that of the weighted Gram matrix
G'_{jk} = sqrt(w_j w_k) <beta_j | beta_k>, so an M x M eigenproblem per
detector outcome suffices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constellation import Constellation, apply_loss
from .info_metrics import _entropy_bits, _mi_from_tables
from .wf_receiver import WfReceiverParams, _stack, conditional_tables

# Outcomes below this probability are skipped in the conditional-entropy
# average; their mass bounds the omitted contribution by ~1e-11 bits.
OUTCOME_SKIP_THRESHOLD = 1e-15


class NumericalFailureError(ArithmeticError):
    """An eigenvalue fell below the tolerated negative round-off band."""


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


def overlap_matrix(c: Constellation) -> np.ndarray:
    """The (M, M) matrix of overlaps <beta_j | beta_k> of the symbols' coherent states."""
    amps = np.array(c.amplitudes) * np.exp(1j * np.array(c.phases))
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


def vn_entropy(c: Constellation) -> float:
    """Von Neumann entropy of the prior-weighted mixture of the symbols' states, in bits.

    Computed as the Shannon entropy of the weighted Gram spectrum; exact for
    any mixture of pure states, with cost set only by the constellation size.
    It is the conditional scan with one certain outcome.
    """
    certain = np.ones((len(c), 1))
    return _conditional_entropy_scan(certain, np.array(c.priors), overlap_matrix(c))[0]


def eve_ensemble(c: Constellation, transmissivity: float) -> Constellation:
    """The eavesdropper's states: the constellation through the lost arm, 1 - T."""
    return apply_loss(c, 1.0 - transmissivity)


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
    skipping outcomes with negligible probability.  It is :func:`kgr`'s term.
    """
    return kgr(c, params).s_e_given_b_bits


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
        stacked, np.array(c.priors), overlap_matrix(eve)
    )
    holevo = s_e - s_e_given_b
    return KgrResult(
        kgr_bits=mi.mi_bits - holevo,
        mi_bits=mi.mi_bits,
        holevo_bits=holevo,
        s_e_bits=s_e,
        s_e_given_b_bits=s_e_given_b,
    )
