"""Shannon entropies and mutual information over the receiver's count tables."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .constellation import Constellation
from .wf_receiver import WfReceiverParams, _prior_mixture, _stack, conditional_tables


@dataclass(frozen=True)
class MiResult:
    """Mutual information split into its marginal and conditional entropies."""

    mi_bits: float
    marginal_entropy_bits: float
    conditional_entropy_bits: float
    truncation_mass: float


def _entropy_bits(p: np.ndarray) -> np.ndarray:
    """-sum p log2 p in bits along the last axis, with 0 log 0 = 0.

    The one Shannon entropy kernel: the public entropies, the plug-in MI
    estimate and the Holevo spectra all reduce to it.
    """
    logs = np.log2(p, out=np.zeros_like(p), where=p > 0.0)
    return -np.sum(p * logs, axis=-1)


def shannon_entropy(dist: np.ndarray) -> float:
    """Shannon entropy -sum p log2 p in bits, with 0 log 0 = 0.

    Accepts any array of nonnegative entries; sub-normalized tables (mass lost
    to truncation) are summed as-is.
    """
    p = np.asarray(dist, dtype=np.float64)
    if p.size == 0:
        raise ValueError("empty distribution")
    if np.any(p < 0.0):
        raise ValueError("distribution entries must be >= 0")
    if p.sum() > 1.0 + 1e-9:
        raise ValueError(f"distribution mass {p.sum()!r} exceeds 1")
    return float(_entropy_bits(p.ravel()))


def wf_mutual_information(c: Constellation, params: WfReceiverParams) -> MiResult:
    """Mutual information carried by the joint count pair, in bits.

    Marginal entropy of the prior-weighted outcome mixture minus the average
    conditional entropy, both over the shared truncated table (jitter-averaged
    when the receiver has phase jitter configured).
    """
    return _mi_from_tables(c, _stack(conditional_tables(c, params)))


def _mi_from_tables(c: Constellation, stacked: np.ndarray) -> MiResult:
    """:func:`wf_mutual_information` over already stacked conditional tables."""
    priors = np.array(c.priors)
    mixture = _prior_mixture(priors, stacked)
    h_marg = float(_entropy_bits(mixture))
    h_cond = float(_prior_mixture(priors, _entropy_bits(stacked)))
    mi = h_marg - h_cond
    if -1e-12 < mi < 0.0:  # pure float cancellation; keep the = marg - cond contract
        mi = 0.0
    return MiResult(
        mi_bits=mi,
        marginal_entropy_bits=h_marg,
        conditional_entropy_bits=h_cond,
        truncation_mass=max(0.0, 1.0 - float(mixture.sum())),
    )


def plugin_mi_estimate(counts: Mapping[tuple[int, int, int], float]) -> float:
    """Plug-in (maximum-likelihood) mutual information of an empirical table.

    ``counts`` maps (symbol index, n, m) to an occurrence count.  The estimate
    H(K) + H(O) - H(K, O) carries the usual upward plug-in bias at finite
    sample size; no correction is applied.
    """
    if not counts:
        raise ValueError("empty counts table")
    keys = np.array(list(counts))
    values = np.array(list(counts.values()), dtype=np.float64)
    total = float(values.sum())
    if total <= 0.0:
        raise ValueError("counts must have positive total")
    if np.any(values < 0.0):
        raise ValueError("counts must be >= 0")
    p_joint = values / total
    n, m = keys[:, 1], keys[:, 2] - keys[:, 2].min()
    _, symbol = np.unique(keys[:, 0], return_inverse=True)
    _, outcome = np.unique(n * (m.max() + 1) + m, return_inverse=True)  # one id per (n, m)
    p_symbol = np.bincount(symbol, weights=p_joint)
    p_outcome = np.bincount(outcome, weights=p_joint)
    mi = _entropy_bits(p_symbol) + _entropy_bits(p_outcome) - _entropy_bits(p_joint)
    return max(0.0, float(mi))
