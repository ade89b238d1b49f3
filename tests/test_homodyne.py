import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from helpers import jitter_oracle, table_window
from wfhsim.constellation import Constellation, CoherentSymbol, build_psk
from wfhsim import homodyne, wf_receiver
from wfhsim.homodyne import (
    GridAccuracyError,
    _conditional_means,
    _grid,
    _jittered_pdfs,
    hd_mutual_information,
)
from wfhsim.info_metrics import _mi_from_tables, wf_mutual_information
from wfhsim.wf_receiver import WfReceiverParams, _branch_means, poisson_pmf

from conftest import LO_AMPLITUDE


def point(**kwargs) -> WfReceiverParams:
    """An operating point at the canonical reference amplitude, which the homodyne ignores."""
    return WfReceiverParams(lo_amplitude=LO_AMPLITUDE, **kwargs)


def binary_awgn_mi_oracle(mean: float, sigma: float) -> float:
    """MI of antipodal signaling over a Gaussian channel, by adaptive quadrature.

    I = 1 - E_{y ~ N(mean, sigma^2)}[log2(1 + exp(-2 mean y / sigma^2))],
    an independent formulation and integrator from the trapezoid-grid path.
    """

    def integrand(y):
        dens = math.exp(-((y - mean) ** 2) / (2 * sigma**2)) / math.sqrt(
            2 * math.pi * sigma**2
        )
        arg = -2.0 * mean * y / sigma**2
        # log1p under/overflow-safe evaluation of log2(1 + e^arg)
        if arg > 50:
            penalty = arg / math.log(2.0)
        else:
            penalty = math.log1p(math.exp(arg)) / math.log(2.0)
        return dens * penalty

    lo, hi = mean - 12 * sigma, mean + 12 * sigma
    val1, err1 = quad(integrand, lo, mean, limit=400, epsabs=1e-13, epsrel=1e-12)
    val2, err2 = quad(integrand, mean, hi, limit=400, epsabs=1e-13, epsrel=1e-12)
    assert err1 + err2 < 1e-10
    return 1.0 - (val1 + val2)


def linspace_grid(x_min: float, x_max: float, step: float, odd: bool = False) -> np.ndarray:
    """Uniform grid from x_min to x_max with steps of at most ``step``."""
    n = int(math.ceil((x_max - x_min) / step)) + 1
    if odd and n % 2 == 0:
        n += 1
    return np.linspace(x_min, x_max, n)


def simpson_mi_oracle(c: Constellation, params: WfReceiverParams) -> float:
    """Differential MI h_mix - sum_k pi_k h_k by composite Simpson sums in math.fsum.

    An independent summation of the integral the table law evaluates: its own
    odd-length grid at 200 steps per sigma with a 10-sigma pad, Simpson
    weights, exact float sums and, without jitter, the unit Gaussian's
    closed-form entropy 0.5 log2(2 pi e) for every h_k.
    """
    reach = max(abs(float(_conditional_means(s.amplitude, s.phase, params))) for s in c) + 10.0
    x = linspace_grid(-reach, reach, 1.0 / 200, odd=True)
    pdfs = _jittered_pdfs(x, c.symbols, params).tolist()
    w = [1.0] + [4.0, 2.0] * ((len(x) - 3) // 2) + [4.0, 1.0]
    h = (float(x[-1]) - float(x[0])) / (len(x) - 1) / 3.0

    def entropy(p):
        return -h * math.fsum(wi * q * math.log2(q) for wi, q in zip(w, p) if q > 0.0)

    mix = [math.fsum(s.prior * p for s, p in zip(c.symbols, col)) for col in zip(*pdfs)]
    if params.phase_jitter_rms == 0.0:
        h_cond = 0.5 * math.log2(2.0 * math.pi * math.e)
    else:
        h_cond = math.fsum(s.prior * entropy(row) for s, row in zip(c.symbols, pdfs))
    return entropy(mix) - h_cond


def oracle_pdfs(x, symbols, params: WfReceiverParams, window: float = 40.0) -> np.ndarray:
    """Jitter-averaged densities of ``symbols`` at ``x`` by :func:`helpers.jitter_oracle`.

    Its step resolves both the Gaussian law and the widest mean swing; doubling
    it must move no density by more than 1e-14.  A Gaussian more than ~38.6
    from its mean underflows to exactly 0.0, so each block of offsets
    evaluates a symbol only on the points of the ascending ``x`` within
    ``window`` of the block's means and leaves exact zeros elsewhere;
    ``window=math.inf`` evaluates every point.
    """
    assert np.all(np.diff(x) > 0.0)
    amps = np.array([s.amplitude for s in symbols])
    phases = np.array([s.phase for s in symbols])
    sigma = params.phase_jitter_rms

    def pdfs(deltas):
        means = _conditional_means(amps, phases + deltas[:, None], params)
        out = np.zeros(means.shape + x.shape)
        lo = np.searchsorted(x, means.min(axis=0) - window)
        hi = np.searchsorted(x, means.max(axis=0) + window, side="right")
        for k, (a, b) in enumerate(zip(lo, hi)):
            # -(d ** 2) / 2.0 in place: d * d is d ** 2, and * -0.5 rounds as / -2.0
            gauss = x[a:b] - means[:, k, None]
            gauss *= gauss
            gauss *= -0.5
            np.exp(gauss, out=gauss)
            np.divide(gauss, math.sqrt(2.0 * math.pi), out=out[:, k, a:b])
        return out

    fine, coarse = jitter_oracle(pdfs, sigma, min(sigma / 8, 1 / 8, 0.15 / max(amps.max(), 1.0)))
    assert np.max(np.abs(fine - coarse)) <= 1e-14
    return fine


def oracle_hd_mi(c: Constellation, params: WfReceiverParams) -> float:
    """Homodyne MI from :func:`oracle_pdfs` on its own grid: 16 steps per sigma, 12-sigma pad."""
    reach = 2.0 * params.visibility * math.sqrt(params.transmissivity) * max(c.amplitudes) + 12.0
    x = np.linspace(-reach, reach, int(math.ceil(32.0 * reach)) + 1)
    h = (x[-1] - x[0]) / (len(x) - 1)
    return _mi_from_tables(c, oracle_pdfs(x, c.symbols, params) * h).mi_bits


def oracle_wf_mi(c: Constellation, params: WfReceiverParams) -> float:
    """Count-table MI with each table averaged by :func:`helpers.jitter_oracle`."""
    lo, hi = table_window(c, params)
    sigma = params.phase_jitter_rms
    tables = []
    for s in c.symbols:
        def outer(deltas):
            mu_t, mu_r = _branch_means(s.amplitude, s.phase + deltas, params)
            return poisson_pmf(mu_t, hi, lo)[:, :, None] * poisson_pmf(mu_r, hi, lo)[:, None, :]

        fine, coarse = jitter_oracle(outer, sigma, min(sigma, 1.0) / 16)
        assert np.max(np.abs(fine - coarse)) <= 1e-14
        tables.append(fine.ravel())
    return _mi_from_tables(c, np.stack(tables)).mi_bits


class TestConditionalPdf:
    """The density law production uses, ``_jittered_pdfs``, without jitter."""

    def test_vacuum_is_standard_normal(self):
        s = CoherentSymbol(0.0, 0.0, 1.0)
        p = point()
        xs = np.linspace(-5, 5, 11)
        expected = np.exp(-(xs**2) / 2) / math.sqrt(2 * math.pi)
        assert _jittered_pdfs(xs, [s], p)[0] == pytest.approx(expected, rel=1e-12)

    def test_mean_at_canonical_amplitude(self):
        assert _conditional_means(2.04, 0.0, point()) == pytest.approx(4.08)

    @pytest.mark.parametrize("phase", [0.1, 0.9, 2.0])
    def test_reflection_symmetry(self, phase):
        p = point()
        a = CoherentSymbol(1.7, phase, 1.0)
        b = CoherentSymbol(1.7, math.pi - phase, 1.0)
        xs = np.linspace(-6, 6, 25)
        assert _jittered_pdfs(xs, [a], p)[0] == pytest.approx(
            _jittered_pdfs(-xs, [b], p)[0], rel=1e-12
        )


class TestMutualInformation:
    def test_single_symbol_carries_nothing(self):
        single = Constellation((CoherentSymbol(2.0, 0.0, 1.0),))
        assert hd_mutual_information(single, point()) == 0.0

    @pytest.mark.parametrize("sigma", [0.0, 0.25])
    def test_lost_signal_carries_nothing(self, qpsk, sigma):
        """At T = 0 every row is the vacuum density, so the mixture is that row."""
        params = point(transmissivity=0.0, phase_jitter_rms=sigma)
        assert hd_mutual_information(qpsk, params) == 0.0

    def test_bpsk_saturates_to_one_bit(self):
        c = build_psk(2, 10.0, 0.0)
        assert hd_mutual_information(c, point()) == pytest.approx(1.0, abs=1e-6)

    def test_qpsk_saturates_to_two_bits(self):
        c = build_psk(4, 40.0)
        assert hd_mutual_information(c, point()) == pytest.approx(2.0, abs=1e-4)

    @pytest.mark.parametrize("m,alpha,t", [(2, 2.04, 1.0), (2, 1.2, 0.4), (4, 2.04, 0.7)])
    def test_bounded_by_source_entropy(self, m, alpha, t):
        c = build_psk(m, alpha, 0.0 if m == 2 else None)
        mi = hd_mutual_information(c, point(transmissivity=t))
        assert 0.0 <= mi <= math.log2(m) + 1e-9

    @pytest.mark.parametrize("alpha,t", [(2.04, 1.0), (2.04, 0.5), (0.9, 0.8)])
    def test_matches_binary_channel_oracle(self, alpha, t):
        c = build_psk(2, alpha, 0.0)
        params = point(transmissivity=t)
        ours = hd_mutual_information(c, params)
        oracle = binary_awgn_mi_oracle(2.0 * math.sqrt(t) * alpha, 1.0)
        assert ours == pytest.approx(oracle, abs=1e-9)

    def test_grid_convergence_at_defaults(self, qpsk, monkeypatch):
        base = hd_mutual_information(qpsk, point())
        monkeypatch.setattr(homodyne, "STEPS_PER_SIGMA", 400)
        monkeypatch.setattr(homodyne, "GRID_PAD_SIGMAS", 20.0)
        fine = hd_mutual_information(qpsk, point())
        assert abs(base - fine) < 1e-8

    def test_coarse_grid_rejected(self, qpsk, monkeypatch):
        """The every-other-point rule moves the MI by 1.7e-2 bits at 1 step per
        sigma and by 1.4e-4 at 2; both exceed the 1e-6 bound."""
        for steps in (1, 2):
            monkeypatch.setattr(homodyne, "STEPS_PER_SIGMA", steps)
            with pytest.raises(GridAccuracyError):
                hd_mutual_information(qpsk, point())

    def test_visibility_scales_information(self, qpsk):
        full = hd_mutual_information(qpsk, point())
        reduced = hd_mutual_information(qpsk, point(visibility=0.845))
        assert reduced < full

    def test_jitter_reduces_information(self, qpsk):
        clean = hd_mutual_information(qpsk, point())
        noisy = hd_mutual_information(qpsk, point(phase_jitter_rms=0.25))
        assert noisy < clean

    def test_jitter_average_is_warning_free(self, qpsk):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hd_mutual_information(qpsk, point(phase_jitter_rms=0.25))

    def test_jitter_nodes_converge(self, qpsk, monkeypatch):
        """The doubling check's tolerance is loose; a tight one moves nothing."""
        params = point(transmissivity=0.5, phase_jitter_rms=0.25)
        mi = hd_mutual_information(qpsk, params)
        monkeypatch.setattr(wf_receiver, "JITTER_TOLERANCE", 1e-13)
        assert abs(hd_mutual_information(qpsk, params) - mi) <= 1e-14

    @pytest.mark.parametrize("sigma", [0.0, 0.1, 0.25])
    def test_jittered_pdf_matches_node_loop(self, qpsk, sigma):
        """The node loop is :func:`oracle_pdfs`, on the real line."""
        params = point(transmissivity=0.6, visibility=0.845, phase_jitter_rms=sigma)
        x = _grid(qpsk, params)
        got = _jittered_pdfs(x, qpsk.symbols, params)
        assert np.max(np.abs(got - oracle_pdfs(x, qpsk.symbols, params))) <= 1e-12

    def test_jitter_nodes_reach_the_average(self, qpsk):
        """A vanishing jitter reproduces the jitter-free MI; 0.25 rad costs information."""
        params = point(transmissivity=0.5)
        clean = hd_mutual_information(qpsk, params)
        for sigma in (5e-324, 1e-300, 1e-9):
            jittered = hd_mutual_information(qpsk, replace(params, phase_jitter_rms=sigma))
            assert jittered == pytest.approx(clean, abs=1e-12)
        assert hd_mutual_information(qpsk, replace(params, phase_jitter_rms=0.25)) < clean - 0.05

    @pytest.mark.parametrize("sigma", [0.0, 0.25])
    def test_reference_beam_does_not_enter(self, qpsk, sigma):
        """The homodyne is the strong-reference limit: z is not read."""
        params = point(transmissivity=0.5, visibility=0.845, phase_jitter_rms=sigma)
        bright = replace(params, lo_amplitude=50.0)
        assert hd_mutual_information(qpsk, bright) == hd_mutual_information(qpsk, params)


class TestSharedRefinedGrid:
    """One grid: the densities are evaluated once, on the points of
    :func:`_grid`; the result is the trapezoid rule on all of them and agrees
    with an independent Simpson sum, and the convergence check reads every
    other point of the same densities, so it must not change the result."""

    @pytest.mark.parametrize("sigma", [0.0, 0.25])
    def test_densities_evaluated_once_on_the_grid(self, qpsk, sigma, monkeypatch):
        params = point(transmissivity=0.5, visibility=0.9, phase_jitter_rms=sigma)
        seen = []

        def spy(x, symbols, p):
            seen.append(x.copy())
            return _jittered_pdfs(x, symbols, p)

        monkeypatch.setattr(homodyne, "_jittered_pdfs", spy)
        hd_mutual_information(qpsk, params)
        assert len(seen) == 1
        assert np.array_equal(seen[0], _grid(qpsk, params))

    @pytest.mark.parametrize("sigma", [0.0, 0.25])
    # (steps per sigma, pad in sigmas); None is the module's own grid
    @pytest.mark.parametrize("grid", [None, (100, 4.0)])
    def test_check_does_not_change_result(self, qpsk, sigma, grid, monkeypatch):
        if grid is not None:
            monkeypatch.setattr(homodyne, "STEPS_PER_SIGMA", grid[0])
            monkeypatch.setattr(homodyne, "GRID_PAD_SIGMAS", grid[1])
        params = point(transmissivity=0.5, visibility=0.845, phase_jitter_rms=sigma)
        checked = hd_mutual_information(qpsk, params)
        x = _grid(qpsk, params)
        h = (x[-1] - x[0]) / (len(x) - 1)
        table = _jittered_pdfs(x, qpsk.symbols, params) * h
        assert checked == _mi_from_tables(qpsk, table).mi_bits

    @pytest.mark.parametrize("visibility", [1.0, 0.845])
    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("loss_db", [0.0, 1.0, 3.0, 10.0])
    @pytest.mark.parametrize("sigma", [0.0, 0.25, 0.5])
    def test_table_law_is_the_simpson_integral(self, sigma, loss_db, m, visibility):
        """The table's plug-in MI is the differential MI: the log h terms cancel
        between the marginal and conditional entropies, and the trapezoid sum
        agrees with a fine Simpson sum to float rounding."""
        c = build_psk(m, 2.04, 0.0 if m == 2 else None)
        params = point(
            transmissivity=10.0 ** (-loss_db / 10.0),
            visibility=visibility,
            phase_jitter_rms=sigma,
        )
        ours = hd_mutual_information(c, params)
        assert abs(ours - simpson_mi_oracle(c, params)) <= 1e-12


class TestJitteredDensities:
    """The jitter average, one (symbol, node, x) broadcast, against the node loop
    of the oracle on the real line."""

    def _assert_matches_node_loop(self, c, grid, sigma):
        params = point(phase_jitter_rms=sigma)
        x = _grid(c, params) if grid is None else linspace_grid(*grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _jittered_pdfs(x, c.symbols, params)
        # beyond 40 sigma of every mean a density underflows to exactly 0
        near = np.abs(x) <= 2.0 * max(c.amplitudes) + 40.0
        assert not got[:, ~near].any()
        assert np.max(np.abs(got[:, near] - oracle_pdfs(x[near], c.symbols, params))) <= 1e-12

    # None is the module's grid; the others reach beyond it or step coarser
    @pytest.mark.parametrize(
        "grid", [None, (-30.0, 30.0, 0.7), (-40.0, 40.0, 1.5), (-100.0, 100.0, 0.05)]
    )
    @pytest.mark.parametrize("sigma", [0.0, 0.25, 1.0])
    def test_matches_node_loop(self, grid, sigma):
        for alpha in (0.3, 2.04, 10.0, 40.0):
            for m in (2, 4, 8):
                self._assert_matches_node_loop(build_psk(m, alpha), grid, sigma)

    @pytest.mark.parametrize("alpha", [2.04, 40.0])
    def test_grid_far_beyond_the_means(self, alpha):
        """Points 1000 sigma out underflow to 0 without a warning."""
        self._assert_matches_node_loop(build_psk(4, alpha), (-1000.0, 1000.0, 0.02), 0.25)

    def test_oracle_window_changes_no_bit(self):
        """The oracle's 40-sigma window leaves every density as the whole grid gives it."""
        for alpha, grid in ((40.0, (-100.0, 100.0, 0.05)), (2.04, (-1000.0, 1000.0, 0.02))):
            c, params, x = build_psk(2, alpha), point(phase_jitter_rms=0.25), linspace_grid(*grid)
            windowed = oracle_pdfs(x, c.symbols, params)
            assert np.array_equal(windowed, oracle_pdfs(x, c.symbols, params, window=math.inf))


class TestJitterRuleAgainstOracle:
    """The circle rule sizes itself: both receivers' MI match the real-line oracle."""

    @pytest.mark.parametrize("visibility", [1.0, 0.845])
    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("sigma", [0.05, 0.25, 1.0, 3.0])
    def test_mi_of_both_receivers(self, sigma, m, visibility):
        c = build_psk(m, 2.04, 0.0 if m == 2 else None)
        params = point(transmissivity=0.5, visibility=visibility, phase_jitter_rms=sigma)
        assert abs(wf_mutual_information(c, params).mi_bits - oracle_wf_mi(c, params)) <= 1e-12
        assert abs(hd_mutual_information(c, params) - oracle_hd_mi(c, params)) <= 1e-12

    @pytest.mark.parametrize("alpha", [6.0, 20.0])
    def test_qpsk_homodyne_at_large_amplitude(self, alpha):
        """Here the starting 64 nodes are too few; the doubling check finds more."""
        c = build_psk(4, alpha)
        params = WfReceiverParams(lo_amplitude=2.0 * alpha, phase_jitter_rms=0.25)
        assert abs(hd_mutual_information(c, params) - oracle_hd_mi(c, params)) <= 1e-12

    def test_grid_reaches_the_jittered_means(self, monkeypatch):
        """Under jitter the span covers every symbol's full amplitude, not only its own mean."""
        c = build_psk(4, 40.0)
        params = WfReceiverParams(lo_amplitude=80.0, phase_jitter_rms=0.25)
        mi = hd_mutual_information(c, params)
        monkeypatch.setattr(homodyne, "GRID_PAD_SIGMAS", homodyne.GRID_PAD_SIGMAS + 80.0)
        assert abs(mi - hd_mutual_information(c, params)) <= 1e-12

    def test_one_accuracy_error(self):
        assert homodyne.GridAccuracyError is wf_receiver.GridAccuracyError
        assert issubclass(GridAccuracyError, ValueError)


class TestParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(transmissivity=1.2),
            dict(visibility=-0.1),
        ],
    )
    def test_invalid_params(self, qpsk, kwargs):
        """T and xi are the operating point's own checks."""
        with pytest.raises(ValueError):
            hd_mutual_information(qpsk, point(**kwargs))
