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
from .wf_receiver import DiffDistribution, WfReceiverParams, _branch_means


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


NO_IMPERFECTIONS = DetectorImperfections()

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
    # one bin per (k, n, m); the linear index keeps their lexicographic order
    side = int(max(n.max(), m.max())) + 1
    counts = np.bincount((ks * side + n) * side + m)
    cells = np.flatnonzero(counts)
    k_of, rest = np.divmod(cells, side * side)
    n_of, m_of = np.divmod(rest, side)
    return dict(
        zip(zip(k_of.tolist(), n_of.tolist(), m_of.tolist()), counts[cells].tolist())
    )


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
    counts: dict[tuple[int, int, int], int], symbol_index: int, d_max: int
) -> DiffDistribution:
    """Per-symbol difference histogram extracted from an experiment counts table."""
    probs = np.zeros(2 * d_max + 1)
    total = 0
    for (k, n, m), v in counts.items():
        if k != symbol_index:
            continue
        d = n - m
        if abs(d) > d_max:
            raise ValueError(
                f"symbol {symbol_index}: count difference {d} outside [-{d_max}, {d_max}]"
            )
        probs[d + d_max] += v
        total += v
    if total == 0:
        raise ValueError(f"no shots for symbol {symbol_index}")
    return DiffDistribution(probs=probs / total, d_max=d_max)


def fidelity(p_a, p_b, method: str = "bhattacharyya") -> float:
    """Agreement between two distributions on the same support, in [0, 1].

    The default is the Bhattacharyya coefficient sum(sqrt(p q)), which is 1
    iff the distributions coincide.  ``method='product'`` computes the plain
    product sum sum(p q) instead; it underestimates agreement for broad
    distributions (sum(p^2) << 1) and is kept for comparison only.
    """
    a = p_a.probs if isinstance(p_a, DiffDistribution) else np.asarray(p_a, dtype=float)
    b = p_b.probs if isinstance(p_b, DiffDistribution) else np.asarray(p_b, dtype=float)
    if isinstance(p_a, DiffDistribution) and isinstance(p_b, DiffDistribution):
        if p_a.d_max != p_b.d_max:
            raise ValueError("distributions have mismatched supports")
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
