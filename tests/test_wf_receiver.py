import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import skellam

from helpers import brute_force_difference
from wfhsim import wf_receiver
from wfhsim.constellation import CoherentSymbol, build_psk, wrap_phase
from wfhsim.info_metrics import shannon_entropy
from wfhsim.wf_receiver import (
    TruncationError,
    WfReceiverParams,
    _branch_means,
    _hermgauss,
    _log_factorials,
    auto_n_max,
    branch_means,
    conditional_tables,
    difference_dist,
    joint_pnr_conditional,
    joint_pnr_marginal,
    poisson_pmf,
)

CANONICAL = dict(lo_amplitude=3.53, visibility=1.0, transmissivity=1.0)
# Branch means of QPSK symbol 0 at signal mean 4.13 under a bright reference
# (montecarlo.lo_mean), where the count windows sit far above count 0.
BRIGHT_MEANS = [
    pytest.param(
        branch_means(build_psk(4, math.sqrt(4.13)).symbols[0], WfReceiverParams(math.sqrt(lo))),
        id=f"lo_mean={lo:g}",
    )
    for lo in (1e4, 1e5, 1e6)
]


class TestBranchMeans:
    def test_canonical_operating_point(self):
        mu_t, mu_r = branch_means(CoherentSymbol(2.04, 0.0, 1.0), WfReceiverParams(**CANONICAL))
        assert mu_t == pytest.approx(15.512, abs=5e-4)
        assert mu_r == pytest.approx(1.110, abs=5e-4)

    def test_vacuum(self):
        mu_t, mu_r = branch_means(
            CoherentSymbol(0.0, 0.0, 1.0), WfReceiverParams(lo_amplitude=0.0)
        )
        assert (mu_t, mu_r) == (0.0, 0.0)

    def test_quadrature_phase_balances_branches(self):
        mu_t, mu_r = branch_means(
            CoherentSymbol(2.04, math.pi / 2, 1.0), WfReceiverParams(**CANONICAL)
        )
        assert mu_t == pytest.approx(mu_r, abs=1e-12)
        assert mu_t == pytest.approx(8.311, abs=5e-4)

    @pytest.mark.parametrize("alpha", [0.0, 0.7, 2.04, 9.3])
    @pytest.mark.parametrize("phase", [0.0, 0.4, math.pi / 2, 2.1, math.pi])
    @pytest.mark.parametrize("t", [1.0, 0.42, 0.0])
    def test_energy_conservation_exact(self, alpha, phase, t):
        params = WfReceiverParams(lo_amplitude=3.53, transmissivity=t)
        mu_t, mu_r = branch_means(CoherentSymbol(alpha, phase, 1.0), params)
        assert mu_t >= 0.0 and mu_r >= 0.0
        assert mu_t + mu_r == t * alpha * alpha + 3.53 * 3.53

    @pytest.mark.parametrize(
        "receiver",
        [dict(lo_amplitude=3.53), dict(lo_amplitude=2.2, visibility=0.845, transmissivity=0.37)],
    )
    def test_array_law_matches_scalar_law(self, receiver):
        params = WfReceiverParams(**receiver)
        rng = np.random.default_rng(8)
        amps = rng.uniform(0.0, 4.0, 400)
        phases = np.array([wrap_phase(p) for p in rng.uniform(-8.0, 8.0, 400)])
        mu_t, mu_r = _branch_means(amps, phases, params)
        scalar = [branch_means(CoherentSymbol(a, p, 1.0), params) for a, p in zip(amps, phases)]
        assert np.array_equal(mu_t, [s[0] for s in scalar])
        assert np.array_equal(mu_r, [s[1] for s in scalar])
        t, z = params.transmissivity, params.lo_amplitude
        assert np.array_equal(mu_t + mu_r, t * amps * amps + z * z)

    def test_visibility_monotonicity(self):
        symbol = CoherentSymbol(2.04, 0.3, 1.0)
        gaps = []
        for xi in np.linspace(0.0, 1.0, 11):
            mu_t, mu_r = branch_means(
                symbol, WfReceiverParams(lo_amplitude=3.53, visibility=xi)
            )
            gaps.append(abs(mu_t - mu_r))
        assert all(b >= a - 1e-12 for a, b in zip(gaps, gaps[1:]))


class TestJointTables:
    def test_vacuum_table_is_point_mass(self):
        symbol = CoherentSymbol(0.0, 0.0, 1.0)
        dist = joint_pnr_conditional(
            symbol, WfReceiverParams(lo_amplitude=0.0, n_max=5)
        )
        assert dist.probs[0, 0] == pytest.approx(1.0)
        assert dist.probs.sum() == pytest.approx(1.0)

    def test_small_mean_value(self):
        # mu_t = 1, mu_r = 2 -> p(0,0) = e^-3
        probs = np.outer(poisson_pmf(1.0, 40), poisson_pmf(2.0, 40))
        assert probs[0, 0] == pytest.approx(math.exp(-3.0), rel=1e-12)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_factorizes_without_jitter(self):
        symbol = CoherentSymbol(2.04, 0.3, 1.0)
        dist = joint_pnr_conditional(symbol, WfReceiverParams(**CANONICAL))
        outer = np.outer(dist.marginal_transmitted(), dist.marginal_reflected())
        assert np.max(np.abs(outer - dist.probs)) < 1e-12

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_normalized_within_truncation(self, qpsk):
        dist = joint_pnr_marginal(qpsk, WfReceiverParams(**CANONICAL))
        assert dist.truncation_mass <= 1e-9
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_single_symbol_marginal_equals_conditional(self):
        c = build_psk(2, 0.8, 0.0)
        only = CoherentSymbol(0.8, 0.0, 1.0)
        params = WfReceiverParams(lo_amplitude=2.0, n_max=40)
        cond = joint_pnr_conditional(only, params)
        from wfhsim.constellation import Constellation

        single = Constellation((only,), order_m=2, phi0=0.0)
        marg = joint_pnr_marginal(single, params)
        assert np.array_equal(cond.probs, marg.probs)

    def test_bpsk_swap_symmetry(self, bpsk):
        dist = joint_pnr_marginal(bpsk, WfReceiverParams(**CANONICAL))
        assert np.max(np.abs(dist.probs - dist.probs.T)) < 1e-15

    @pytest.mark.parametrize("m", [2, 3, 4, 8])
    def test_marginal_adds_symbols_in_order(self, m):
        # the mixture is bit for bit the loop that adds one symbol at a time
        c = build_psk(m, 2.04)
        params = WfReceiverParams(**CANONICAL)
        tables = conditional_tables(c, params)
        loop = np.zeros_like(tables[0].probs)
        for s, table in zip(c.symbols, tables):
            loop += s.prior * table.probs
        assert np.array_equal(joint_pnr_marginal(c, params).probs, loop)

    @pytest.mark.parametrize("m", [2, 3, 4, 7])
    def test_prior_average_adds_symbols_in_order(self, m):
        rng = np.random.default_rng(m)
        priors, values = rng.random(m), rng.random(m)
        loop = 0.0
        for prior, value in zip(priors, values):
            loop += prior * value
        assert wf_receiver._prior_mixture(priors, values) == loop

    def test_marginal_entropy_exceeds_conditionals(self, qpsk):
        params = WfReceiverParams(**CANONICAL)
        mixed = joint_pnr_marginal(qpsk, params)
        h_mixed = shannon_entropy(mixed.probs)
        for s in qpsk.symbols:
            h_cond = shannon_entropy(joint_pnr_conditional(s, params).probs)
            assert h_mixed > h_cond

    def test_truncation_error_reports_n_max(self):
        symbol = CoherentSymbol(2.04, 0.0, 1.0)
        with pytest.raises(TruncationError, match="n_max"):
            joint_pnr_conditional(symbol, WfReceiverParams(lo_amplitude=3.53, n_max=8))

    def test_jitter_limit_matches_unjittered(self):
        symbol = CoherentSymbol(2.04, 0.3, 1.0)
        base = joint_pnr_conditional(symbol, WfReceiverParams(**CANONICAL))
        tiny = joint_pnr_conditional(
            symbol, WfReceiverParams(phase_jitter_rms=1e-12, **CANONICAL)
        )
        assert np.max(np.abs(base.probs - tiny.probs)) < 1e-10

    def test_jitter_spreads_table(self):
        symbol = CoherentSymbol(2.04, 0.0, 1.0)
        base = joint_pnr_conditional(symbol, WfReceiverParams(**CANONICAL))
        jit = joint_pnr_conditional(
            symbol, WfReceiverParams(phase_jitter_rms=0.25, **CANONICAL)
        )
        assert shannon_entropy(jit.probs) > shannon_entropy(base.probs)

    @pytest.mark.parametrize("m", [2, 4, 8])
    @pytest.mark.parametrize("sigma", [0.1, 0.25])
    def test_jittered_table_matches_node_loop(self, m, sigma):
        params = WfReceiverParams(phase_jitter_rms=sigma, **CANONICAL)
        c = build_psk(m, 2.04)
        tables = conditional_tables(c, params)
        x, w = np.polynomial.hermite.hermgauss(params.jitter_quad_nodes)
        for symbol, table in zip(c.symbols, tables):
            ref = np.zeros_like(table.probs)
            for delta, weight in zip(math.sqrt(2.0) * sigma * x, w / math.sqrt(math.pi)):
                shifted = CoherentSymbol(symbol.amplitude, symbol.phase + delta, 1.0)
                mu_t, mu_r = branch_means(shifted, params)
                ref += weight * np.outer(
                    poisson_pmf(mu_t, table.n_max), poisson_pmf(mu_r, table.n_max)
                )
            assert np.max(np.abs(table.probs - ref)) <= 1e-12

    def test_zero_jitter_is_plain_outer_product(self):
        params = WfReceiverParams(**CANONICAL)
        for symbol in build_psk(4, 2.04).symbols:
            table = joint_pnr_conditional(symbol, params)
            mu_t, mu_r = branch_means(symbol, params)
            ref = np.outer(poisson_pmf(mu_t, table.n_max), poisson_pmf(mu_r, table.n_max))
            assert np.array_equal(table.probs, ref)

    def test_poisson_rows_match_scalar_pmf(self):
        mus = np.array([0.0, 0.3, 2.5, 15.5, 40.0])
        rows = poisson_pmf(mus, 60)
        assert rows.shape == (5, 61)
        for mu, row in zip(mus, rows):
            assert np.array_equal(row, poisson_pmf(mu, 60))
        assert np.array_equal(rows[0], np.eye(61)[0])
        with pytest.raises(ValueError):
            poisson_pmf(np.array([1.0, -0.5]), 10)

    def test_conditional_tables_keep_receiver_fields(self, monkeypatch):
        params = WfReceiverParams(
            lo_amplitude=3.1,
            visibility=0.9,
            transmissivity=0.7,
            phase_jitter_rms=0.2,
            jitter_quad_nodes=9,
        )
        seen = []
        build = wf_receiver.joint_pnr_conditional
        monkeypatch.setattr(
            wf_receiver,
            "joint_pnr_conditional",
            lambda s, p: seen.append(p) or build(s, p),
        )
        c = build_psk(4, 2.04)
        tables = conditional_tables(c, params)
        n_max = max(auto_n_max(s.amplitude, params) for s in c.symbols)
        assert [t.n_max for t in tables] == [n_max] * 4
        # frozen-dataclass equality compares every field
        assert seen == [replace(params, n_max=n_max)] * 4

    def test_auto_truncation_scale(self):
        # the tail rule keeps tables compact at the canonical parameters
        params = WfReceiverParams(**CANONICAL)
        assert auto_n_max(2.04, params) < 100


class TestCachedConstants:
    def test_log_factorials_match_gammaln(self):
        n = np.arange(2001)
        np.testing.assert_allclose(_log_factorials(2000), gammaln(n + 1.0), rtol=1e-12, atol=0)

    def test_log_factorials_cached_read_only(self):
        table = _log_factorials(50)
        assert _log_factorials(50) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[3] = 0.0

    def test_hermite_nodes_cached_read_only(self):
        x, w = _hermgauss(21)
        again = _hermgauss(21)
        assert again[0] is x and again[1] is w
        ref_x, ref_w = np.polynomial.hermite.hermgauss(21)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
        for arr in (x, w):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestDifferenceDist:
    def test_symmetric_when_balanced(self):
        d = difference_dist(3.2, 3.2, 40)
        assert np.allclose(d.probs, d.probs[::-1], atol=1e-15)

    def test_degenerate_branch_is_poisson(self):
        d = difference_dist(2.5, 0.0, 30)
        assert np.all(d.probs[: d.d_max] == 0.0)
        assert d.probs[d.d_max :] == pytest.approx(poisson_pmf(2.5, d.d_max), abs=1e-15)

    def test_moments_at_canonical_means(self):
        d = difference_dist(15.512, 1.110)
        assert d.mean() == pytest.approx(14.402, abs=1e-3)
        assert d.variance() == pytest.approx(16.622, abs=1e-3)

    @pytest.mark.parametrize("mu", [(15.512, 1.110), (8.311, 8.311), (1.0, 2.0), *BRIGHT_MEANS])
    def test_matches_bessel_closed_form(self, mu):
        d = difference_dist(*mu)
        support = d.support
        ref = skellam.pmf(support, mu1=mu[0], mu2=mu[1])
        assert np.max(np.abs(d.probs - ref)) < 1e-12

    @pytest.mark.parametrize("mu", [(15.512, 1.110), (8.311, 8.311), (1.0, 2.0)])
    def test_matches_brute_force_joint_sum(self, mu):
        n_max = 80
        joint = np.outer(poisson_pmf(mu[0], n_max), poisson_pmf(mu[1], n_max))
        d = difference_dist(*mu, d_max=50)
        ref = brute_force_difference(joint, 50)
        assert np.max(np.abs(d.probs - ref)) < 1e-12

    @pytest.mark.parametrize("mu", [(400.0, 30.0), (400.0, 250.0)])
    def test_windows_above_zero_match_brute_force(self, mu):
        # the count windows start at 140 and 0, then at 140 and 40
        joint = np.outer(poisson_pmf(mu[0], 700), poisson_pmf(mu[1], 700))
        d = difference_dist(*mu)
        assert np.max(np.abs(d.probs - brute_force_difference(joint, d.d_max))) < 1e-12

    def test_insufficient_window_raises(self):
        with pytest.raises(TruncationError):
            difference_dist(15.512, 1.110, d_max=5)


class TestParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lo_amplitude=-1.0),
            dict(lo_amplitude=1.0, visibility=1.5),
            dict(lo_amplitude=1.0, transmissivity=-0.2),
            dict(lo_amplitude=1.0, n_max=0),
            dict(lo_amplitude=1.0, phase_jitter_rms=-0.1),
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            WfReceiverParams(**kwargs)

    def test_weak_lo_warns(self):
        with pytest.warns(UserWarning, match="reference beam"):
            joint_pnr_conditional(
                CoherentSymbol(2.0, 0.0, 1.0), WfReceiverParams(lo_amplitude=1.0)
            )
