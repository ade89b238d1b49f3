"""Shannon entropies and mutual information over the receiver's count tables."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .constellation import Constellation
from .wf_receiver import JointPnrDistribution, WfReceiverParams, conditional_tables


@dataclass(frozen=True)
class MiResult:
    """Mutual information split into its marginal and conditional entropies."""

    mi_bits: float
    marginal_entropy_bits: float
    conditional_entropy_bits: float
    truncation_mass: float


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
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log2(nz)))


def wf_mutual_information(c: Constellation, params: WfReceiverParams) -> MiResult:
    """Mutual information carried by the joint count pair, in bits.

    Marginal entropy of the prior-weighted outcome mixture minus the average
    conditional entropy, both over the shared truncated table (jitter-averaged
    when the receiver has phase jitter configured).
    """
    return _mi_from_tables(c, conditional_tables(c, params))


def _mi_from_tables(c: Constellation, tables: list[JointPnrDistribution]) -> MiResult:
    """:func:`wf_mutual_information` over already built conditional tables."""
    mixed = np.zeros_like(tables[0].probs)
    h_cond = 0.0
    truncation = 0.0
    for symbol, table in zip(c.symbols, tables):
        mixed += symbol.prior * table.probs
        h_cond += symbol.prior * shannon_entropy(table.probs)
        truncation += symbol.prior * table.truncation_mass
    h_marg = shannon_entropy(mixed)
    mi = h_marg - h_cond
    if -1e-12 < mi < 0.0:  # pure float cancellation; keep the = marg - cond contract
        mi = 0.0
    return MiResult(
        mi_bits=mi,
        marginal_entropy_bits=h_marg,
        conditional_entropy_bits=h_cond,
        truncation_mass=truncation,
    )


def plugin_mi_estimate(counts: Mapping[tuple[int, int, int], float]) -> float:
    """Plug-in (maximum-likelihood) mutual information of an empirical table.

    ``counts`` maps (symbol index, n, m) to an occurrence count.  The estimate
    carries the usual upward plug-in bias at finite sample size; no correction
    is applied.
    """
    if not counts:
        raise ValueError("empty counts table")
    total = float(sum(counts.values()))
    if total <= 0.0:
        raise ValueError("counts must have positive total")
    if any(v < 0 for v in counts.values()):
        raise ValueError("counts must be >= 0")
    p_symbol: dict[int, float] = {}
    p_outcome: dict[tuple[int, int], float] = {}
    for (k, n, m), v in counts.items():
        if v == 0:
            continue
        p_symbol[k] = p_symbol.get(k, 0.0) + v
        p_outcome[(n, m)] = p_outcome.get((n, m), 0.0) + v
    mi = 0.0
    for (k, n, m), v in counts.items():
        if v == 0:
            continue
        p_joint = v / total
        mi += p_joint * math.log2(
            p_joint * total * total / (p_symbol[k] * p_outcome[(n, m)])
        )
    return max(0.0, mi)
