"""Photon-counting interferometric receiver: exact outcome statistics.

The signal interferes with a mesoscopic reference beam on a balanced splitter;
both outputs are photon-number resolved.  Conditioned on the sent symbol, each
branch is Poissonian with a mean set by the interference term, so the joint
outcome table is a product of two Poisson laws and the count difference
follows a Skellam distribution.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .constellation import Constellation, CoherentSymbol

# Nodes for Gauss-Hermite averaging over Gaussian phase jitter.
DEFAULT_JITTER_NODES = 21

# Largest probability mass a table may lose to truncation before erroring.
TRUNCATION_LIMIT = 1e-6


class TruncationError(ValueError):
    """Probability mass lost to table truncation exceeded the allowed budget."""


@dataclass(frozen=True)
class WfReceiverParams:
    """Operating point of the receiver and channel.

    ``lo_amplitude`` is the reference-beam field amplitude (sqrt photons),
    ``visibility`` the mode overlap scaling the interference term, and
    ``phase_jitter_rms`` the RMS of residual Gaussian phase noise folded into
    the outcome tables.  ``n_max`` of None lets table builders choose the
    truncation from a Poisson tail bound.
    """

    lo_amplitude: float
    visibility: float = 1.0
    transmissivity: float = 1.0
    n_max: int | None = None
    phase_jitter_rms: float = 0.0
    jitter_quad_nodes: int = DEFAULT_JITTER_NODES

    def __post_init__(self) -> None:
        if self.lo_amplitude < 0.0:
            raise ValueError(f"lo_amplitude must be >= 0, got {self.lo_amplitude}")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility must be in [0, 1], got {self.visibility}")
        if not 0.0 <= self.transmissivity <= 1.0:
            raise ValueError(
                f"transmissivity must be in [0, 1], got {self.transmissivity}"
            )
        if self.n_max is not None and self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if self.phase_jitter_rms < 0.0:
            raise ValueError(
                f"phase_jitter_rms must be >= 0, got {self.phase_jitter_rms}"
            )
        if self.jitter_quad_nodes < 1:
            raise ValueError("jitter_quad_nodes must be >= 1")


@dataclass(frozen=True)
class JointPnrDistribution:
    """Joint probability table over count pairs (n, m), n, m in [0, n_max]."""

    probs: np.ndarray
    n_max: int
    truncation_mass: float

    def __post_init__(self) -> None:
        if self.probs.shape != (self.n_max + 1, self.n_max + 1):
            raise ValueError("probs must be (n_max+1, n_max+1)")
        if np.any(self.probs < 0.0):
            raise ValueError("table entries must be >= 0")

    def marginal_transmitted(self) -> np.ndarray:
        return self.probs.sum(axis=1)

    def marginal_reflected(self) -> np.ndarray:
        return self.probs.sum(axis=0)


@dataclass(frozen=True)
class DiffDistribution:
    """Distribution of the count difference d = n - m over [-d_max, d_max]."""

    probs: np.ndarray
    d_max: int

    def __post_init__(self) -> None:
        if self.probs.shape != (2 * self.d_max + 1,):
            raise ValueError("probs must have length 2*d_max + 1")
        if np.any(self.probs < 0.0) or float(self.probs.sum()) > 1.0 + 1e-9:
            raise ValueError("probs must be >= 0 with total mass <= 1")

    @property
    def support(self) -> np.ndarray:
        return np.arange(-self.d_max, self.d_max + 1)

    def mean(self) -> float:
        return float(np.dot(self.support, self.probs))

    def variance(self) -> float:
        mu = self.mean()
        return float(np.dot((self.support - mu) ** 2, self.probs))


def _branch_means(amps, phases, params: WfReceiverParams) -> tuple[np.ndarray, np.ndarray]:
    """Mean photon numbers (mu_t, mu_r) at the two interferometer outputs.

    mu_t/r = (T a^2 + z^2 +/- 2 xi sqrt(T) a z cos(phase)) / 2, elementwise
    over broadcast amplitudes and phases.  The split is computed so the sum
    mu_t + mu_r equals T a^2 + z^2 exactly in floating point (the smaller
    branch is the exact complement of the larger one).
    """
    t = params.transmissivity
    z = params.lo_amplitude
    a = np.asarray(amps, dtype=np.float64)
    total = t * a * a + z * z
    half = 0.5 * total
    cross = params.visibility * math.sqrt(t) * a * z * np.cos(phases)
    # |cross| <= half by AM-GM; clip guards the float boundary case.
    cross = np.clip(cross, -half, half)
    big = np.minimum(half + np.abs(cross), total)
    small = total - big  # exact (Sterbenz): big in [total/2, total]
    positive = cross >= 0.0
    return np.where(positive, big, small), np.where(positive, small, big)


def branch_means(symbol: CoherentSymbol, params: WfReceiverParams) -> tuple[float, float]:
    """Branch means (mu_t, mu_r) of one symbol; see :func:`_branch_means`."""
    mu_t, mu_r = _branch_means(symbol.amplitude, symbol.phase, params)
    return float(mu_t), float(mu_r)


def homodyne_limit_ok(symbol: CoherentSymbol, params: WfReceiverParams) -> bool:
    """True when the reference beam dominates the signal energy (z^2 >= 3 T a^2)."""
    return params.lo_amplitude**2 >= 3.0 * params.transmissivity * symbol.amplitude**2


def _tail_bound(centre: float, variance: float) -> int:
    """The one count cut, ceil(centre + 12 sd + 20); a non-finite cut is a TruncationError."""
    bound = centre + 12.0 * math.sqrt(variance) + 20.0
    if not math.isfinite(bound):
        raise TruncationError(f"count cut {bound} is not finite; the branch means overflow")
    return int(math.ceil(bound))


def auto_n_max(amplitude: float, params: WfReceiverParams) -> int:
    """Truncation from a Poisson tail bound on the largest possible branch mean."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed mean fails the cut
        mu_bound = float(_branch_means(amplitude, 0.0, params)[0])
    return _tail_bound(mu_bound, mu_bound)


def _resolve_n_max(amplitudes, params: WfReceiverParams) -> int:
    if params.n_max is not None:
        return params.n_max
    return max(auto_n_max(a, params) for a in amplitudes)


@functools.lru_cache(maxsize=128)
def _log_factorials(n_max: int) -> np.ndarray:
    """Read-only table of log(n!) for n = 0..n_max."""
    table = np.array([math.lgamma(k + 1.0) for k in range(n_max + 1)])
    table.flags.writeable = False
    return table


def poisson_pmf(mu, n_max: int) -> np.ndarray:
    """Poisson probabilities for counts 0..n_max, evaluated in log space.

    An array of k means gives a (k, n_max + 1) array, one row per mean.
    """
    mu = np.asarray(mu, dtype=np.float64)[..., None]
    if np.any(mu < 0.0):
        raise ValueError(f"Poisson mean must be >= 0, got {mu.min()}")
    n = np.arange(n_max + 1, dtype=np.float64)
    positive = mu > 0.0
    logp = n * np.log(np.where(positive, mu, 1.0)) - mu - _log_factorials(n_max)
    return np.where(positive, np.exp(logp), n == 0.0)


@functools.lru_cache(maxsize=32)
def _hermgauss(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Hermite nodes and weights for ``nodes`` points."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _gauss_hermite_weights(sigma: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Phase offsets and weights averaging over N(0, sigma^2) phase jitter.

    Zero jitter is the one-node rule: no offset, unit weight.
    """
    if sigma == 0.0:
        return np.zeros(1), np.ones(1)
    x, w = _hermgauss(nodes)
    return math.sqrt(2.0) * sigma * x, w / math.sqrt(math.pi)


def joint_pnr_conditional(
    symbol: CoherentSymbol, params: WfReceiverParams
) -> JointPnrDistribution:
    """Joint count table conditioned on one sent symbol.

    The product of the two branch Poisson laws, averaged over Gaussian phase
    jitter by Gauss-Hermite quadrature: sum_j w_j P_t(delta_j) P_r(delta_j)^T.
    """
    if not homodyne_limit_ok(symbol, params):
        warnings.warn(
            "reference beam weaker than 3x the signal energy; difference "
            "statistics drift away from the quadrature-readout regime",
            stacklevel=2,
        )
    n_max = _resolve_n_max([symbol.amplitude], params)
    deltas, weights = _gauss_hermite_weights(
        params.phase_jitter_rms, params.jitter_quad_nodes
    )
    mu_t, mu_r = _branch_means(symbol.amplitude, symbol.phase + deltas, params)
    table = (weights[:, None] * poisson_pmf(mu_t, n_max)).T @ poisson_pmf(mu_r, n_max)
    truncation_mass = max(0.0, 1.0 - float(table.sum()))
    if truncation_mass > TRUNCATION_LIMIT:
        raise TruncationError(
            f"{truncation_mass:.3e} of probability truncated at n_max={n_max}; "
            "increase n_max"
        )
    return JointPnrDistribution(probs=table, n_max=n_max, truncation_mass=truncation_mass)


def joint_pnr_marginal(c: Constellation, params: WfReceiverParams) -> JointPnrDistribution:
    """Prior-weighted mixture of the conditional tables of a constellation."""
    tables = conditional_tables(c, params)
    mixed = _prior_mixture(np.array(c.priors), np.stack([t.probs for t in tables]))
    truncation_mass = max(0.0, 1.0 - float(mixed.sum()))
    return JointPnrDistribution(
        probs=mixed, n_max=tables[0].n_max, truncation_mass=truncation_mass
    )


def _prior_mixture(priors: np.ndarray, stacked: np.ndarray) -> np.ndarray:
    """sum_k priors[k] * stacked[k]: the one prior-weighted mixture.

    Rows of tables or densities are added in symbol order, bit for bit as a
    loop over the symbols adds them (a 1-D average too, below 8 symbols).  No
    BLAS call: its threads cost more than a sum this small.
    """
    return np.sum(priors.reshape((-1,) + (1,) * (stacked.ndim - 1)) * stacked, axis=0)


def _stack(tables: list[JointPnrDistribution]) -> np.ndarray:
    """The conditional tables as one (M, cells) array, one raveled table a row."""
    return np.stack([table.probs.ravel() for table in tables])


def conditional_tables(
    c: Constellation, params: WfReceiverParams
) -> list[JointPnrDistribution]:
    """Conditional tables for every symbol, on one shared truncation grid."""
    n_max = _resolve_n_max(c.amplitudes, params)
    shared = replace(params, n_max=n_max)
    return [joint_pnr_conditional(s, shared) for s in c.symbols]


def difference_dist(mu_t: float, mu_r: float, d_max: int | None = None) -> DiffDistribution:
    """Skellam law of the branch count difference, by truncated convolution.

    P(d) = sum_m P_{m+d}(mu_t) P_m(mu_r).  ``d_max`` of None picks a span from
    the Skellam moments; an explicit span that captures less than 1 - 1e-9 of
    the mass raises :class:`TruncationError`.
    """
    if mu_t < 0.0 or mu_r < 0.0:
        raise ValueError("branch means must be >= 0")
    if d_max is None:
        d_max = default_d_max(mu_t, mu_r)
    if d_max < 0:
        raise ValueError("d_max must be >= 0")
    # Internal Poisson cut, wider than _tail_bound's (sharing it moves the far theory
    # tail): the correlation below carries all mass the requested window could hold.
    n_hi = int(math.ceil(max(mu_t, mu_r) + 12.0 * math.sqrt(max(mu_t, mu_r, 1.0)) + 25.0))
    n_hi = max(n_hi, d_max + 1)
    p_t = poisson_pmf(mu_t, n_hi)
    p_r = poisson_pmf(mu_r, n_hi)
    # correlate gives P(d) = sum_m p_t[m + d] p_r[m] for d in [-n_hi, n_hi].
    full = np.correlate(p_t, p_r, mode="full")
    center = n_hi
    lo = center - d_max
    hi = center + d_max + 1
    probs = full[lo:hi].copy()
    mass = float(probs.sum())
    if mass < 1.0 - 1e-9:
        raise TruncationError(
            f"difference window [-{d_max}, {d_max}] captures only {mass:.12f} "
            "of the distribution; increase d_max"
        )
    return DiffDistribution(probs=probs, d_max=d_max)


def default_d_max(mu_t: float, mu_r: float) -> int:
    return _tail_bound(abs(mu_t - mu_r), mu_t + mu_r)
