"""Shot-by-shot Monte Carlo of the two-detector receiver.

Samples Poissonian branch counts per pulse with optional Gaussian phase
jitter, dark counts, and single-generation crosstalk, and reduces the shot
counts to the empirical distributions used for fidelity checks and plug-in
information estimates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .constellation import Constellation
from .wf_receiver import WfReceiverParams, _branch_means


@dataclass(frozen=True)
class DetectorImperfections:
    """Dark counts (mean per gate) and crosstalk probability.

    ``crosstalk_prob`` is the chance that each primary count triggers exactly
    one extra count (a single duplication generation; the measured crosstalk
    is ~1%, so higher generations are negligible).
    """

    dark_mean: float = 0.0
    crosstalk_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.dark_mean < 0.0:
            raise ValueError(f"dark_mean must be >= 0, got {self.dark_mean}")
        if not 0.0 <= self.crosstalk_prob < 1.0:
            raise ValueError(
                f"crosstalk_prob must be in [0, 1), got {self.crosstalk_prob}"
            )


# Branch means outside this range trigger a :class:`RangeWarning`.
VALID_MEAN_RANGE = (0.5, 15.0)


class RangeWarning(UserWarning):
    """A branch mean left the trusted detection range."""


def _check_range(mu: float) -> None:
    lo, hi = VALID_MEAN_RANGE
    if not lo <= mu <= hi:
        warnings.warn(
            f"branch mean {mu:.3f} outside trusted range [{lo}, {hi}]",
            RangeWarning,
            stacklevel=3,
        )


def _detect(
    mu: np.ndarray, imperfections: DetectorImperfections, rng: np.random.Generator
) -> np.ndarray:
    counts = rng.poisson(mu)
    if imperfections.dark_mean > 0.0:
        counts = counts + rng.poisson(imperfections.dark_mean, size=counts.shape)
    if imperfections.crosstalk_prob > 0.0:
        counts = counts + rng.binomial(counts, imperfections.crosstalk_prob)
    return counts


def run_experiment(
    c: Constellation,
    params: WfReceiverParams,
    imperfections: DetectorImperfections,
    shots: int,
    rng: np.random.Generator,
) -> dict[tuple[int, int, int], int]:
    """Acquire ``shots`` pulses with symbols drawn i.i.d. from the priors.

    Returns occurrence counts keyed by (symbol index, n, m), in lexicographic
    key order, ready for :func:`wfhsim.info_metrics.plugin_mi_estimate`.
    Deterministic for a given generator state.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    ks = rng.choice(len(c), size=shots, p=np.array(c.priors))
    n, m = sample_branch_counts(c, ks, params, imperfections, rng)
    # the linear index of (k, n, m) keeps their lexicographic order; only the
    # cells that occur are tallied, so memory does not grow with side**2
    side = int(max(n.max(), m.max())) + 1
    cells, counts = np.unique((ks * side + n) * side + m, return_counts=True)
    k_of, rest = np.divmod(cells, side * side)
    n_of, m_of = np.divmod(rest, side)
    return dict(zip(zip(k_of.tolist(), n_of.tolist(), m_of.tolist()), counts.tolist()))


def sample_branch_counts(
    c: Constellation,
    symbol_indices: np.ndarray,
    params: WfReceiverParams,
    imperfections: DetectorImperfections,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized branch counts for a sequence of symbol indices."""
    amps = np.array(c.amplitudes)
    phases = np.array(c.phases)
    shot_phases = phases[symbol_indices]
    if params.phase_jitter_rms > 0.0:
        shot_phases = shot_phases + rng.normal(
            0.0, params.phase_jitter_rms, size=shot_phases.shape
        )
    mu_t, mu_r = _branch_means(amps[symbol_indices], shot_phases, params)
    for nominal in zip(*_branch_means(amps, phases, params)):
        for mu in nominal:
            _check_range(mu)
    return _detect(mu_t, imperfections, rng), _detect(mu_r, imperfections, rng)


def difference_hist_from_counts(
    counts: dict[tuple[int, int, int], int], m: int, d_max: int
) -> np.ndarray:
    """Every symbol's normalised count-difference histogram from an experiment counts table.

    ``counts`` is keyed by (symbol, n_t, n_r).  Returns an (m, 2 d_max + 1)
    array whose row k is symbol k's empirical law of d = n_t - n_r over
    [-d_max, d_max]; a symbol with no shots keeps a row of zeros.  An empty
    table, a symbol index outside [0, m) or a difference outside the window
    (the first key, in table order, of the lowest such symbol is named)
    raises ValueError.
    """
    if not counts:
        raise ValueError("no shots: the counts table is empty")
    k, n_t, n_r = np.array(list(counts), dtype=np.int64).T
    stray = k[(k < 0) | (k >= m)]
    if stray.size:
        raise ValueError(f"symbol index {stray[0]} outside [0, {m})")
    d = n_t - n_r
    outside = np.abs(d) > d_max
    if outside.any():
        i = np.flatnonzero(outside & (k == k[outside].min()))[0]
        raise ValueError(f"symbol {k[i]}: count difference {d[i]} outside [-{d_max}, {d_max}]")
    width = 2 * d_max + 1
    weights = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
    hist = np.bincount(k * width + d + d_max, weights, minlength=m * width).reshape(m, width)
    totals = hist.sum(axis=1, keepdims=True)
    return np.divide(hist, totals, out=np.zeros_like(hist), where=totals > 0)


def fidelity(p_a, p_b, method: str = "bhattacharyya") -> float:
    """Agreement between two distributions (arrays) on the same support, in [0, 1].

    The default is the Bhattacharyya coefficient sum(sqrt(p q)), which is 1
    iff the distributions coincide.  ``method='product'`` computes the plain
    product sum sum(p q) instead; it underestimates agreement for broad
    distributions (sum(p^2) << 1) and is kept for comparison only.
    """
    a, b = np.asarray(p_a, dtype=float), np.asarray(p_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"mismatched supports: {a.shape} vs {b.shape}")
    for name, p in (("p_a", a), ("p_b", b)):
        s = p.sum()
        if not 0.99 <= s <= 1.0 + 1e-9:
            raise ValueError(f"{name} is not normalized (mass {s!r})")
    if method == "bhattacharyya":
        return float(np.sum(np.sqrt(a * b)))
    if method == "product":
        return float(np.sum(a * b))
    raise ValueError(f"unknown fidelity method {method!r}")
