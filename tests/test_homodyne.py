import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from wfhsim.constellation import Constellation, CoherentSymbol, build_psk
from wfhsim.homodyne import (
    GridAccuracyError,
    HomodyneParams,
    _differential_entropy_bits,
    _grid,
    _jittered_pdfs,
    _mi_from_pdfs,
    _simpson_weights,
    conditional_mean,
    hd_conditional_pdf,
    hd_mutual_information,
)


def binary_awgn_mi_oracle(mean: float, sigma: float) -> float:
    """MI of antipodal signaling over a Gaussian channel, by adaptive quadrature.

    I = 1 - E_{y ~ N(mean, sigma^2)}[log2(1 + exp(-2 mean y / sigma^2))],
    an independent formulation and integrator from the Simpson-grid path.
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


class TestConditionalPdf:
    def test_vacuum_is_standard_normal(self):
        s = CoherentSymbol(0.0, 0.0, 1.0)
        p = HomodyneParams()
        xs = np.linspace(-5, 5, 11)
        expected = np.exp(-(xs**2) / 2) / math.sqrt(2 * math.pi)
        assert hd_conditional_pdf(xs, s, p) == pytest.approx(expected, rel=1e-12)

    def test_mean_at_canonical_amplitude(self):
        s = CoherentSymbol(2.04, 0.0, 1.0)
        assert conditional_mean(s, HomodyneParams()) == pytest.approx(4.08)

    @pytest.mark.parametrize("phase", [0.1, 0.9, 2.0])
    def test_reflection_symmetry(self, phase):
        p = HomodyneParams()
        a = CoherentSymbol(1.7, phase, 1.0)
        b = CoherentSymbol(1.7, math.pi - phase, 1.0)
        xs = np.linspace(-6, 6, 25)
        assert hd_conditional_pdf(xs, a, p) == pytest.approx(
            hd_conditional_pdf(-xs, b, p), rel=1e-12
        )


class TestMutualInformation:
    def test_single_symbol_carries_nothing(self):
        single = Constellation((CoherentSymbol(2.0, 0.0, 1.0),), order_m=2, phi0=0.0)
        assert hd_mutual_information(single, HomodyneParams()) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_bpsk_saturates_to_one_bit(self):
        c = build_psk(2, 10.0, 0.0)
        assert hd_mutual_information(c, HomodyneParams()) == pytest.approx(1.0, abs=1e-6)

    def test_qpsk_saturates_to_two_bits(self):
        c = build_psk(4, 40.0)
        assert hd_mutual_information(c, HomodyneParams()) == pytest.approx(2.0, abs=1e-4)

    @pytest.mark.parametrize("m,alpha,t", [(2, 2.04, 1.0), (2, 1.2, 0.4), (4, 2.04, 0.7)])
    def test_bounded_by_source_entropy(self, m, alpha, t):
        c = build_psk(m, alpha, 0.0 if m == 2 else None)
        mi = hd_mutual_information(c, HomodyneParams(transmissivity=t))
        assert 0.0 <= mi <= math.log2(m) + 1e-9

    @pytest.mark.parametrize("alpha,t", [(2.04, 1.0), (2.04, 0.5), (0.9, 0.8)])
    def test_matches_binary_channel_oracle(self, alpha, t):
        c = build_psk(2, alpha, 0.0)
        params = HomodyneParams(transmissivity=t)
        ours = hd_mutual_information(c, params)
        oracle = binary_awgn_mi_oracle(2.0 * math.sqrt(t) * alpha, 1.0)
        assert ours == pytest.approx(oracle, abs=1e-9)

    def test_grid_convergence_at_defaults(self, qpsk):
        params = HomodyneParams()
        base = hd_mutual_information(qpsk, params)
        fine = hd_mutual_information(qpsk, HomodyneParams(grid=(-25.0, 25.0, 1.0 / 400)))
        assert abs(base - fine) < 1e-8

    def test_coarse_grid_rejected(self, qpsk):
        with pytest.raises(GridAccuracyError):
            hd_mutual_information(qpsk, HomodyneParams(grid=(-15.0, 15.0, 1.0)))

    def test_visibility_scales_information(self, qpsk):
        full = hd_mutual_information(qpsk, HomodyneParams())
        reduced = hd_mutual_information(qpsk, HomodyneParams(visibility=0.845))
        assert reduced < full

    def test_jitter_reduces_information(self, qpsk):
        clean = hd_mutual_information(qpsk, HomodyneParams())
        noisy = hd_mutual_information(qpsk, HomodyneParams(), phase_jitter_rms=0.25)
        assert noisy < clean

    def test_jitter_average_is_warning_free(self, qpsk):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hd_mutual_information(qpsk, HomodyneParams(), phase_jitter_rms=0.25)

    def test_jitter_nodes_converge(self, qpsk):
        params = HomodyneParams(transmissivity=0.5)
        mi = [
            hd_mutual_information(
                qpsk, params, phase_jitter_rms=0.25, jitter_quad_nodes=n
            )
            for n in (15, 21, 31)
        ]
        assert max(mi) - min(mi) < 1e-9

    @pytest.mark.parametrize("sigma", [0.0, 0.1, 0.25])
    def test_jittered_pdf_matches_node_loop(self, qpsk, sigma):
        params = HomodyneParams(transmissivity=0.6, visibility=0.845)
        x = _grid(qpsk, params)
        nodes, weights = np.polynomial.hermite.hermgauss(21)
        for s in qpsk.symbols:
            ref = np.zeros_like(x)
            for delta, w in zip(math.sqrt(2.0) * sigma * nodes, weights / math.sqrt(math.pi)):
                ref += w * hd_conditional_pdf(
                    x, CoherentSymbol(s.amplitude, s.phase + delta, 1.0), params
                )
            got = _jittered_pdfs(x, [s], params, sigma, 21)[0]
            assert np.max(np.abs(got - ref)) <= 1e-12

    def test_jitter_nodes_reach_the_average(self, qpsk):
        """One node sits at zero phase offset, so it reproduces the jitter-free MI."""
        params = HomodyneParams(transmissivity=0.5)
        clean = hd_mutual_information(qpsk, params)
        one = hd_mutual_information(
            qpsk, params, phase_jitter_rms=0.25, jitter_quad_nodes=1
        )
        default = hd_mutual_information(qpsk, params, phase_jitter_rms=0.25)
        assert one == pytest.approx(clean, abs=1e-9)
        assert default < one - 0.05


class TestSharedRefinedGrid:
    """The convergence check evaluates the halved-step grid once and reads the
    base result from its even points, so it must not change the result."""

    @pytest.mark.parametrize("sigma", [0.0, 0.25])
    @pytest.mark.parametrize("grid", [None, (-14.0, 14.0, 0.01)])
    def test_check_does_not_change_result(self, qpsk, sigma, grid):
        params = HomodyneParams(transmissivity=0.5, visibility=0.845, grid=grid)
        checked = hd_mutual_information(qpsk, params, phase_jitter_rms=sigma)
        x = _grid(qpsk, params)
        pdfs = _jittered_pdfs(x, qpsk.symbols, params, sigma, 21)
        direct = _mi_from_pdfs(pdfs, x, np.array(qpsk.priors), sigma)
        assert checked == direct

    @settings(max_examples=300, deadline=None)
    @given(
        x_min=st.floats(-1e4, 1e4),
        width=st.floats(1e-6, 1e4),
        steps=st.floats(1.0, 4000.0),
    )
    def test_even_points_of_halved_grid_are_the_grid(self, x_min, width, steps):
        x_max = x_min + width
        params = HomodyneParams(grid=(x_min, x_max, (x_max - x_min) / steps))
        x = _grid(build_psk(4, 2.04), params)
        halved = np.linspace(x[0], x[-1], 2 * len(x) - 1)
        assert np.array_equal(halved[::2], x)

    def test_entropy_sum_matches_exact_sum(self, qpsk):
        params = HomodyneParams()
        x = _grid(qpsk, params)
        x2 = np.linspace(x[0], x[-1], 2 * len(x) - 1)
        pdfs = _jittered_pdfs(x2, qpsk.symbols, params, 0.25, 21)
        mix = sum(s.prior * pdf for s, pdf in zip(qpsk.symbols, pdfs))
        w = _simpson_weights(len(x2), float(x2[1] - x2[0]))
        exact = math.fsum(
            wi * -p * math.log2(p) for wi, p in zip(w.tolist(), mix.tolist()) if p > 1e-300
        )
        assert _differential_entropy_bits(mix, w) == pytest.approx(exact, rel=1e-14, abs=0)


class TestBlockedJitterAverage:
    """The blocked (E @ V) * U jitter average against the direct node loop."""

    @staticmethod
    def _node_loop(x, symbol, params, sigma):
        nodes, weights = np.polynomial.hermite.hermgauss(21)
        ref = np.zeros_like(x)
        for delta, w in zip(math.sqrt(2.0) * sigma * nodes, weights / math.sqrt(math.pi)):
            ref += w * hd_conditional_pdf(
                x, CoherentSymbol(symbol.amplitude, symbol.phase + delta, 1.0), params
            )
        return ref

    def _assert_matches_node_loop(self, c, params, sigma):
        x = _grid(c, params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _jittered_pdfs(x, c.symbols, params, sigma, 21)
        for s, row in zip(c.symbols, got):
            assert np.max(np.abs(row - self._node_loop(x, s, params, sigma))) <= 1e-12

    # None is the default grid, blocks of ~sqrt(n) points, and at alpha = 40 the
    # exponent bound caps them; a step of 0.7 or 1.5 sigma gives one-point blocks
    @pytest.mark.parametrize(
        "grid", [None, (-30.0, 30.0, 0.7), (-40.0, 40.0, 1.5), (-100.0, 100.0, 0.05)]
    )
    @pytest.mark.parametrize("sigma", [0.0, 0.25, 1.0])
    def test_matches_node_loop(self, grid, sigma):
        for alpha in (0.3, 2.04, 10.0, 40.0):
            for m in (2, 4, 8):
                c = build_psk(m, alpha)
                self._assert_matches_node_loop(c, HomodyneParams(grid=grid), sigma)

    @pytest.mark.parametrize("alpha", [2.04, 40.0])
    def test_grid_far_beyond_the_means(self, alpha):
        """Blocks one sigma long would put e^950 in U here; the bound shrinks them."""
        params = HomodyneParams(grid=(-1000.0, 1000.0, 0.02))
        self._assert_matches_node_loop(build_psk(4, alpha), params, 0.25)


class TestParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(transmissivity=1.2),
            dict(visibility=-0.1),
            dict(grid=(1.0, -1.0, 0.1)),
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(ValueError):
            HomodyneParams(**kwargs)
