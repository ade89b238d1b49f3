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

# Largest probability mass a table may lose to truncation before erroring.
TRUNCATION_LIMIT = 1e-6

# Jitter rule: largest move of its N/2-node subset, relative; most new nodes per level.
JITTER_TOLERANCE, JITTER_MAX_NODES = 1e-6, 2**16
_JITTER_REACH = math.sqrt(2.0 * math.log(1e18))  # kept offsets, in sigmas: weight >= 1e-18 of peak


class TruncationError(ValueError):
    """Probability mass lost to table truncation exceeded the allowed budget."""


class GridAccuracyError(ValueError):
    """A quadrature rule too coarse for the requested accuracy."""


@dataclass(frozen=True)
class WfReceiverParams:
    """Operating point of the receiver and channel.

    ``lo_amplitude`` is the reference-beam field amplitude (sqrt photons),
    ``visibility`` the mode overlap scaling the interference term, and
    ``phase_jitter_rms`` the RMS of residual Gaussian phase noise folded into
    the outcome tables by :func:`_jitter_average`.  Count and Skellam windows
    follow from these (:func:`count_window`, :func:`difference_laws`).
    """

    lo_amplitude: float
    visibility: float = 1.0
    transmissivity: float = 1.0
    phase_jitter_rms: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.lo_amplitude < math.inf:
            raise ValueError(f"lo_amplitude must be finite and >= 0, got {self.lo_amplitude}")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility must be in [0, 1], got {self.visibility}")
        if not 0.0 <= self.transmissivity <= 1.0:
            raise ValueError(f"transmissivity must be in [0, 1], got {self.transmissivity}")
        if not 0.0 <= self.phase_jitter_rms < math.inf:
            raise ValueError(
                f"phase_jitter_rms must be finite and >= 0, got {self.phase_jitter_rms}"
            )


@dataclass(frozen=True)
class JointPnrDistribution:
    """Joint count table on a square count window (lo, hi): probs[i, j] is P(lo + i, lo + j)."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        if self.probs.ndim != 2 or self.probs.shape[0] != self.probs.shape[1]:
            raise ValueError("probs must be a square (hi-lo+1, hi-lo+1) table")
        if np.any(self.probs < 0.0):
            raise ValueError("table entries must be >= 0")


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


def _tail_bound(centre: float, variance: float) -> int:
    """The one count cut, ceil(centre + 12 sd + 20); a non-finite cut is a TruncationError."""
    bound = centre + 12.0 * math.sqrt(variance) + 20.0
    if not math.isfinite(bound):
        raise TruncationError(f"count cut {bound} is not finite; the branch means overflow")
    return int(math.ceil(bound))


def count_window(mu_min: float, mu_max: float) -> tuple[int, int]:
    """Counts (lo, hi) within the one count cut of every mean in [mu_min, mu_max], lo >= 0."""
    return max(0, -_tail_bound(-mu_min, mu_min)), _tail_bound(mu_max, mu_max)


@functools.lru_cache(maxsize=128)
def _log_factorials(n_max: int, n_min: int = 0) -> np.ndarray:
    """Read-only table of log(n!) for n = n_min..n_max."""
    table = np.array([math.lgamma(k + 1.0) for k in range(n_min, n_max + 1)])
    table.flags.writeable = False
    return table


def poisson_pmf(mu, n_max: int, n_min: int = 0) -> np.ndarray:
    """Poisson probabilities for counts n_min..n_max, evaluated in log space.

    An array of k means gives a (k, n_max - n_min + 1) array, one row per mean.
    """
    mu = np.asarray(mu, dtype=np.float64)[..., None]
    if np.any(mu < 0.0):
        raise ValueError(f"Poisson mean must be >= 0, got {mu.min()}")
    n = np.arange(n_min, n_max + 1, dtype=np.float64)
    positive = mu > 0.0
    logp = n * np.log(np.where(positive, mu, 1.0)) - mu - _log_factorials(n_max, n_min)
    return np.where(positive, np.exp(logp), n == 0.0)


@functools.lru_cache(maxsize=64)
def _circle_nodes(sigma: float, e: int) -> tuple[np.ndarray, np.ndarray, slice]:
    """The kept nodes 2 pi j / 2^e, read-only: offsets, (node, 2) weights, odd-j slice.

    Weight column 0 holds the even j, column 1 the odd j.  A weight is the
    N(0, sigma^2) density summed over its images 2 pi k in reach, normalised;
    past sigma = 10 that is uniform to rounding.
    """
    s = min(sigma, 10.0)
    u = 2.0 * math.pi / math.ldexp(s, e)  # node step in sigmas
    half, reach = 2 ** (e - 1), int(_JITTER_REACH / u)
    j = np.arange(-half + 1, half + 1) if reach >= half else np.arange(-reach, reach + 1)
    k = int((_JITTER_REACH * s + math.pi) / (2.0 * math.pi))  # images in reach
    w = np.exp(-0.5 * (j[:, None] * u + 2.0 * math.pi * np.arange(-k, k + 1) / s) ** 2).sum(axis=1)
    d, w = j * math.ldexp(2.0 * math.pi, -e), w / w.sum()
    halves = np.stack([np.where(j % 2 == 0, w, 0.0), np.where(j % 2 == 0, 0.0, w)], axis=1)
    d.flags.writeable = halves.flags.writeable = False
    return d, halves, slice(1 - j[0] % 2, None, 2)


def _jitter_average(sigma: float, contract):
    """The average of f over N(0, sigma^2) phase jitter: the trapezoid rule on the circle.

    ``contract(offsets, weights)`` returns sum_j weights[j, c] f(offsets[j])
    for each column c of the (node, column) ``weights``, stacked.  N starts at
    max(64, 2^ceil(log2(4 pi / sigma))) and doubles, evaluating only the N new
    midpoints, while the N-node result and its renormalised even half (the
    N/2 rule) differ by over JITTER_TOLERANCE of its largest entry; a level
    with over JITTER_MAX_NODES new nodes raises :class:`GridAccuracyError`.
    Zero jitter is the one-node rule, unchecked.
    """
    if sigma == 0.0:
        return contract(np.zeros(1), np.ones((1, 1)))[0]

    def part(d, w):  # the new nodes, in blocks of 64 to bound the memory of one call
        if len(d) > JITTER_MAX_NODES:
            raise GridAccuracyError(f"the jitter rule needs over {JITTER_MAX_NODES} new nodes")
        return sum(contract(d[i : i + 64], w[i : i + 64]) for i in range(0, len(d), 64))

    e = max(6, math.ceil(math.log2(4.0 * math.pi) - math.log2(sigma)))
    d, w, odd = _circle_nodes(sigma, e)
    even_sum, odd_sum = part(d, w)
    coarse, total = even_sum / w[:, 0].sum(), even_sum + odd_sum
    while np.max(np.abs(total - coarse)) > JITTER_TOLERANCE * np.max(np.abs(total)):
        e += 1
        d, w, odd = _circle_nodes(sigma, e)  # the old nodes are its even half
        coarse, total = total, total * w[:, 0].sum() + part(d[odd], w[odd, 1:])[0]
    return total


def joint_pnr_conditional(symbol: CoherentSymbol, params: WfReceiverParams) -> JointPnrDistribution:
    """Joint count table conditioned on one sent symbol; see :func:`conditional_tables`."""
    return conditional_tables(Constellation((replace(symbol, prior=1.0),)), params)[0]


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


def conditional_tables(c: Constellation, params: WfReceiverParams) -> list[JointPnrDistribution]:
    """Joint count tables of the symbols of ``c``, built in one batch.

    Each is the product of the two branch Poisson laws on one shared square
    :func:`count_window`, over the extreme branch means of any phase, averaged
    over Gaussian phase jitter by :func:`_jitter_average`:
    sum_j w_j P_t(delta_j) P_r(delta_j)^T.
    """
    amps, phases = np.array(c.amplitudes), np.array(c.phases)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # first: an overflowed mean fails the cut
        mu_t, mu_r = _branch_means(amps, 0.0, params)  # the extremes any phase reaches
        lo, hi = count_window(float(np.min(mu_r)), float(np.max(mu_t)))
    if np.any(params.lo_amplitude**2 < 3.0 * params.transmissivity * amps**2):
        warnings.warn(
            "reference beam weaker than 3x the signal energy; difference "
            "statistics drift away from the quadrature-readout regime",
            stacklevel=2,
        )

    def contract(deltas, weights):
        mus = np.stack(_branch_means(amps[:, None], phases + deltas, params))
        p_t, p_r = poisson_pmf(mus, hi, lo)  # (symbol, node, n), both branches in one call
        return (weights.T[:, None, :, None] * p_t).swapaxes(-1, -2) @ p_r

    tables = _jitter_average(params.phase_jitter_rms, contract)
    lost = max(0.0, 1.0 - float(np.min(tables.sum(axis=(1, 2)))))
    if lost > TRUNCATION_LIMIT:
        raise TruncationError(f"{lost:.3e} of probability truncated to counts [{lo}, {hi}]")
    return [JointPnrDistribution(table) for table in tables]


def difference_laws(c: Constellation, params: WfReceiverParams) -> np.ndarray:
    """Skellam laws of the count difference of the symbols of ``c``, on one shared window.

    The batched sibling of :func:`conditional_tables`: an (M, 2 d_max + 1)
    array whose row k is :func:`difference_dist` of symbol k, averaged over
    the phase jitter as the count tables take it; ``d_max = shape[-1] // 2``.
    The window holds every branch-mean pair the phases reach: each symbol's
    own without jitter, with jitter any (the peaks at phase 0).
    """
    sigma = params.phase_jitter_rms
    amps, phases = np.array(c.amplitudes), np.array(c.phases)
    peaks = zip(*_branch_means(amps, phases if sigma == 0.0 else 0.0, params))
    d_max = max(default_d_max(*mu) for mu in peaks)

    def contract(deltas, weights):  # the (node, symbol) laws, mixed over the nodes
        mus = np.stack(_branch_means(amps, phases + deltas[:, None], params), axis=-1)
        laws = np.stack([[difference_dist(*mu, d_max) for mu in node] for node in mus])
        return np.stack([_prior_mixture(w, laws) for w in weights.T])

    return _jitter_average(sigma, contract)


def difference_dist(mu_t: float, mu_r: float, d_max: int | None = None) -> np.ndarray:
    """Skellam law of the branch count difference, by truncated correlation.

    Returns P(d) for d = -d_max..d_max, a (2 d_max + 1,) array:
    P(d) = sum_m P_{m+d}(mu_t) P_m(mu_r), each branch's Poisson row taken over
    the :func:`count_window` of its mean; differences outside that support
    get 0.  ``d_max`` of None picks a span from the Skellam moments; a
    span that captures less than 1 - 1e-9 of the mass raises
    :class:`TruncationError`.
    """
    if mu_t < 0.0 or mu_r < 0.0:
        raise ValueError("branch means must be >= 0")
    if d_max is None:
        d_max = default_d_max(mu_t, mu_r)
    if d_max < 0:
        raise ValueError("d_max must be >= 0")
    (lo_t, hi_t), (lo_r, hi_r) = count_window(mu_t, mu_t), count_window(mu_r, mu_r)
    # correlate gives P(d) = sum_m p_t[m + d] p_r[m] for d in [lo_t - hi_r, hi_t - lo_r].
    lags = np.correlate(poisson_pmf(mu_t, hi_t, lo_t), poisson_pmf(mu_r, hi_r, lo_r), mode="full")
    d = np.arange(lo_t - hi_r, hi_t - lo_r + 1)
    kept = np.abs(d) <= d_max
    probs = np.zeros(2 * d_max + 1)
    probs[d[kept] + d_max] = lags[kept]
    mass = float(probs.sum())
    if mass < 1.0 - 1e-9:
        raise TruncationError(
            f"difference window [-{d_max}, {d_max}] captures only {mass:.12f} "
            "of the distribution; increase d_max"
        )
    return probs


def default_d_max(mu_t: float, mu_r: float) -> int:
    return _tail_bound(abs(mu_t - mu_r), mu_t + mu_r)
