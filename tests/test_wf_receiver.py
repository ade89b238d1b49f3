import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import skellam

from helpers import brute_force_difference, jitter_oracle, table_window
from wfhsim import info_metrics, security, wf_receiver
from wfhsim.config import load_config
from wfhsim.constellation import CoherentSymbol, Constellation, build_psk, wrap_phase
from wfhsim.info_metrics import _entropy_bits
from wfhsim.wf_receiver import (
    TruncationError,
    WfReceiverParams,
    _branch_means,
    _circle_nodes,
    _jitter_average,
    _log_factorials,
    conditional_tables,
    count_window,
    default_d_max,
    difference_dist,
    difference_laws,
    joint_pnr_conditional,
    poisson_pmf,
)

CANONICAL = dict(lo_amplitude=3.53, visibility=1.0, transmissivity=1.0)
# Branch means of QPSK symbol 0 at signal mean 4.13 under a bright reference
# (montecarlo.lo_mean), where the count windows sit far above count 0.
BRIGHT_MEANS = [
    pytest.param(
        _branch_means(math.sqrt(4.13), math.pi / 8, WfReceiverParams(math.sqrt(lo))),
        id=f"lo_mean={lo:g}",
    )
    for lo in (1e4, 1e5, 1e6)
]


def mix(c, params) -> np.ndarray:
    """The prior mixture of the conditional tables, as the MI law forms it, shaped as one table."""
    tables = conditional_tables(c, params)
    mixture = wf_receiver._prior_mixture(np.array(c.priors), wf_receiver._stack(tables))
    return mixture.reshape(tables[0].probs.shape)


def unequal(*amplitudes: float) -> Constellation:
    """Equiprobable symbols of the given amplitudes, at phases 0, 1, 2, ... rad."""
    m = len(amplitudes)
    return Constellation(tuple(CoherentSymbol(a, k, 1.0 / m) for k, a in enumerate(amplitudes)))


class TestBranchMeans:
    def test_canonical_operating_point(self):
        mu_t, mu_r = _branch_means(2.04, 0.0, WfReceiverParams(**CANONICAL))
        assert mu_t == pytest.approx(15.512, abs=5e-4)
        assert mu_r == pytest.approx(1.110, abs=5e-4)

    def test_vacuum(self):
        mu_t, mu_r = _branch_means(0.0, 0.0, WfReceiverParams(lo_amplitude=0.0))
        assert (mu_t, mu_r) == (0.0, 0.0)

    def test_quadrature_phase_balances_branches(self):
        mu_t, mu_r = _branch_means(2.04, math.pi / 2, WfReceiverParams(**CANONICAL))
        assert mu_t == pytest.approx(mu_r, abs=1e-12)
        assert mu_t == pytest.approx(8.311, abs=5e-4)

    @pytest.mark.parametrize("alpha", [0.0, 0.7, 2.04, 9.3])
    @pytest.mark.parametrize("phase", [0.0, 0.4, math.pi / 2, 2.1, math.pi])
    @pytest.mark.parametrize("t", [1.0, 0.42, 0.0])
    def test_energy_conservation_exact(self, alpha, phase, t):
        params = WfReceiverParams(lo_amplitude=3.53, transmissivity=t)
        mu_t, mu_r = _branch_means(alpha, phase, params)
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
        scalar = [_branch_means(float(a), float(p), params) for a, p in zip(amps, phases)]
        assert np.array_equal(mu_t, [s[0] for s in scalar])
        assert np.array_equal(mu_r, [s[1] for s in scalar])
        t, z = params.transmissivity, params.lo_amplitude
        assert np.array_equal(mu_t + mu_r, t * amps * amps + z * z)

    def test_visibility_monotonicity(self):
        symbol = CoherentSymbol(2.04, 0.3, 1.0)
        gaps = []
        for xi in np.linspace(0.0, 1.0, 11):
            mu_t, mu_r = _branch_means(
                symbol.amplitude, symbol.phase, WfReceiverParams(lo_amplitude=3.53, visibility=xi)
            )
            gaps.append(abs(mu_t - mu_r))
        assert all(b >= a - 1e-12 for a, b in zip(gaps, gaps[1:]))


class TestJointTables:
    def test_vacuum_table_is_point_mass(self):
        symbol = CoherentSymbol(0.0, 0.0, 1.0)
        dist = joint_pnr_conditional(symbol, WfReceiverParams(lo_amplitude=0.0))
        assert dist.probs[0, 0] == pytest.approx(1.0)
        assert dist.probs.sum() == pytest.approx(1.0)

    def test_table_must_be_square(self):
        wf_receiver.JointPnrDistribution(np.full((3, 3), 0.1))
        for shape in [(3, 4), (9,), (2, 2, 2)]:
            with pytest.raises(ValueError, match="square"):
                wf_receiver.JointPnrDistribution(np.zeros(shape))

    def test_small_mean_value(self):
        # mu_t = 1, mu_r = 2 -> p(0,0) = e^-3
        probs = np.outer(poisson_pmf(1.0, 40), poisson_pmf(2.0, 40))
        assert probs[0, 0] == pytest.approx(math.exp(-3.0), rel=1e-12)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_factorizes_without_jitter(self):
        symbol = CoherentSymbol(2.04, 0.3, 1.0)
        dist = joint_pnr_conditional(symbol, WfReceiverParams(**CANONICAL))
        outer = np.outer(dist.probs.sum(axis=1), dist.probs.sum(axis=0))
        assert np.max(np.abs(outer - dist.probs)) < 1e-12

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_normalized_within_truncation(self, qpsk):
        mixture = mix(qpsk, WfReceiverParams(**CANONICAL))
        assert 1.0 - mixture.sum() <= 1e-9
        assert mixture.sum() == pytest.approx(1.0, abs=1e-9)

    def test_single_symbol_marginal_equals_conditional(self):
        c = build_psk(2, 0.8, 0.0)
        only = CoherentSymbol(0.8, 0.0, 1.0)
        params = WfReceiverParams(lo_amplitude=2.0)
        cond = joint_pnr_conditional(only, params)
        from wfhsim.constellation import Constellation

        single = Constellation((only,))
        assert np.array_equal(cond.probs, mix(single, params))

    def test_bpsk_swap_symmetry(self, bpsk):
        probs = mix(bpsk, WfReceiverParams(**CANONICAL))
        assert np.max(np.abs(probs - probs.T)) < 1e-15

    @pytest.mark.parametrize("m", [2, 3, 4, 8])
    def test_marginal_adds_symbols_in_order(self, m):
        # the mixture is bit for bit the loop that adds one symbol at a time
        c = build_psk(m, 2.04)
        params = WfReceiverParams(**CANONICAL)
        tables = conditional_tables(c, params)
        loop = np.zeros_like(tables[0].probs)
        for s, table in zip(c.symbols, tables):
            loop += s.prior * table.probs
        assert np.array_equal(mix(c, params), loop)

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
        h_mixed = _entropy_bits(mix(qpsk, params).ravel())
        for s in qpsk.symbols:
            h_cond = _entropy_bits(joint_pnr_conditional(s, params).probs.ravel())
            assert h_mixed > h_cond

    def test_truncation_error_reports_n_max(self, monkeypatch):
        monkeypatch.setattr(wf_receiver, "count_window", lambda mu_min, mu_max: (0, 8))
        symbol = CoherentSymbol(2.04, 0.0, 1.0)
        with pytest.raises(TruncationError, match=r"counts \[0, 8\]"):
            joint_pnr_conditional(symbol, WfReceiverParams(lo_amplitude=3.53))

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
        assert _entropy_bits(jit.probs.ravel()) > _entropy_bits(base.probs.ravel())

    @pytest.mark.parametrize("m", [2, 4, 8])
    @pytest.mark.parametrize("sigma", [0.1, 0.25, 1.0, 3.0])
    def test_jittered_table_matches_node_loop(self, m, sigma):
        """The node loop is :func:`helpers.jitter_oracle`, on the real line."""
        params = WfReceiverParams(phase_jitter_rms=sigma, **CANONICAL)
        c = build_psk(m, 2.04)
        tables = conditional_tables(c, params)
        lo, hi = table_window(c, params)
        for symbol, table in zip(c.symbols, tables):
            def outer(deltas):
                mu_t, mu_r = _branch_means(symbol.amplitude, symbol.phase + deltas, params)
                pmf_t, pmf_r = poisson_pmf(mu_t, hi, lo), poisson_pmf(mu_r, hi, lo)
                return pmf_t[:, :, None] * pmf_r[:, None, :]

            ref, coarse = jitter_oracle(outer, sigma, min(sigma, 1.0) / 16)
            assert np.max(np.abs(ref - coarse)) <= 1e-14
            assert np.max(np.abs(table.probs - ref)) <= 1e-12

    def test_zero_jitter_is_plain_outer_product(self):
        params = WfReceiverParams(**CANONICAL)
        c = build_psk(4, 2.04)
        lo, hi = table_window(c, params)
        for symbol in c.symbols:
            table = joint_pnr_conditional(symbol, params)
            mu_t, mu_r = _branch_means(symbol.amplitude, symbol.phase, params)
            ref = np.outer(poisson_pmf(mu_t, hi, lo), poisson_pmf(mu_r, hi, lo))
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

    def test_conditional_tables_keep_receiver_fields(self):
        """One batch over the symbols is each symbol's table at every receiver field."""
        params = WfReceiverParams(
            lo_amplitude=3.1,
            visibility=0.9,
            transmissivity=0.7,
            phase_jitter_rms=0.2,
        )
        c = build_psk(4, 2.04)
        tables = conditional_tables(c, params)
        lo, hi = table_window(c, params)
        assert [t.probs.shape for t in tables] == [(hi - lo + 1,) * 2] * 4
        for s, table in zip(c.symbols, tables):
            alone = joint_pnr_conditional(s, params)
            assert np.array_equal(table.probs, alone.probs)

    def test_auto_truncation_scale(self):
        # the tail rule keeps tables compact at the canonical parameters
        lo, hi = table_window(build_psk(4, 2.04), WfReceiverParams(**CANONICAL))
        assert lo == 0 and hi < 100

    def test_auto_truncation_covers_brightest_symbol(self):
        """One window over unequal amplitudes spans each amplitude's own window."""
        params = WfReceiverParams(lo_amplitude=math.sqrt(800.0))
        c = unequal(0.5, 2.04, 3.0)
        cuts = [table_window(unequal(a), params) for a in c.amplitudes]
        assert len(set(cuts)) == 3 and min(lo for lo, _ in cuts) > 0
        lo, hi = min(lo for lo, _ in cuts), max(hi for _, hi in cuts)
        for s, table in zip(c.symbols, conditional_tables(c, params)):
            mu_t, mu_r = _branch_means(s.amplitude, s.phase, params)
            ref = np.outer(poisson_pmf(mu_t, hi, lo), poisson_pmf(mu_r, hi, lo))
            assert np.array_equal(table.probs, ref)

    def test_overflowing_symbol_raises_truncation_error(self):
        with pytest.raises(TruncationError, match="not finite"):
            conditional_tables(unequal(0.5, 1e300), WfReceiverParams(**CANONICAL))


class TestWeakReferenceWarning:
    """One warning a build when any symbol has z^2 < 3 T a^2, and none otherwise."""

    @staticmethod
    def weak_warnings(c, params) -> list[str]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            conditional_tables(c, params)
        return [str(w.message) for w in caught]

    def test_one_weak_symbol_warns_once(self):
        # z^2 = 12.4609 against 3 a^2 = 3 and 18.75
        (message,) = self.weak_warnings(unequal(1.0, 2.5), WfReceiverParams(**CANONICAL))
        assert message.startswith("reference beam weaker than 3x the signal energy")

    def test_strong_reference_is_silent(self):
        # z^2 = 12.4609 against 3 T a^2 = 3 and 12
        assert self.weak_warnings(unequal(1.0, 2.0), WfReceiverParams(**CANONICAL)) == []

    def test_defaults_sit_just_below_threshold(self):
        # z = 3.53, alpha = 2.04, T = 1: z^2 = 12.4609 < 3 alpha^2 = 12.4848
        config = load_config(None, {})
        for c in config.sweep_psk(float(config["constellation.alpha"])):
            (message,) = self.weak_warnings(c, config.receiver_params(1.0))
            assert "reference beam weaker" in message


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

    def test_circle_nodes_cached_read_only(self):
        nodes = _circle_nodes(0.25, 6)
        assert _circle_nodes(0.25, 6) is nodes
        for arr in nodes[:2]:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestJitterRule:
    @pytest.mark.parametrize("sigma", [5e-324, 1e-300, 1e-6, 0.05, 0.25, 3.0, 10.0, 1e6])
    def test_node_set_at_any_sigma(self, sigma):
        """A few dozen nodes within the reach, weights >= 0 summing to 1, no overflow."""
        seen = []
        _jitter_average(sigma, lambda d, w: seen.append((d, w)) or w.sum(axis=0)[:, None])
        deltas = np.concatenate([d for d, _ in seen])
        weights = np.concatenate([w.sum(axis=1) for _, w in seen])
        assert 37 <= len(weights) <= 73
        assert np.all(weights >= 0.0) and abs(weights.sum() - 1.0) <= 1e-15
        assert np.all(np.abs(deltas) <= min(math.pi, wf_receiver._JITTER_REACH * sigma))

    @pytest.mark.parametrize("sigma", [5e-324, 1e-300, 1e-6, 0.05, 0.25, 1.0, 3.0, 10.0, 1e6])
    def test_wrapped_normal_moments(self, sigma):
        """E cos(k delta) = exp(-k^2 sigma^2 / 2), the wrapped normal's characteristic function."""
        k = np.arange(9)
        got = _jitter_average(sigma, lambda d, w: w.T @ np.cos(np.outer(d, k)))
        assert np.max(np.abs(got - np.exp(-0.5 * (k * sigma) ** 2))) <= 1e-15

    def test_doubling_evaluates_only_new_midpoints(self):
        """A sharp integrand doubles N; every node is evaluated once."""
        seen = []

        def contract(d, w):
            seen.append(d)
            return w.T @ np.exp(40.0 * np.cos(d))[:, None] / math.exp(40.0)

        _jitter_average(0.25, contract)
        deltas = np.concatenate(seen)
        assert len(deltas) > 73
        assert len(np.unique(deltas)) == len(deltas)

    def test_node_cap_raises(self, monkeypatch):
        monkeypatch.setattr(wf_receiver, "JITTER_MAX_NODES", 8)
        with pytest.raises(wf_receiver.GridAccuracyError, match="nodes"):
            _jitter_average(0.25, lambda d, w: w.sum(axis=0)[:, None])

    @pytest.mark.parametrize("sigma", [5e-324, 1e-300, 1e-6, 10.0, 1e6])
    def test_receiver_at_extreme_sigma(self, sigma):
        c = build_psk(4, 2.04)
        params = WfReceiverParams(phase_jitter_rms=sigma, **CANONICAL)
        mi = info_metrics.wf_mutual_information(c, params).mi_bits
        assert 0.0 <= mi <= 2.0
        if sigma <= 1e-6:
            clean = info_metrics.wf_mutual_information(c, WfReceiverParams(**CANONICAL)).mi_bits
            assert mi == pytest.approx(clean, abs=1e-9)


class TestDifferenceDist:
    def test_symmetric_when_balanced(self):
        d = difference_dist(3.2, 3.2, 40)
        assert np.allclose(d, d[::-1], atol=1e-15)

    def test_degenerate_branch_is_poisson(self):
        d = difference_dist(2.5, 0.0, 30)
        assert np.all(d[:30] == 0.0)
        assert d[30:] == pytest.approx(poisson_pmf(2.5, 30), abs=1e-15)

    def test_moments_at_canonical_means(self):
        d = difference_dist(15.512, 1.110)
        support = np.arange(len(d)) - len(d) // 2
        mean = float(np.dot(support, d))
        assert mean == pytest.approx(14.402, abs=1e-3)
        assert float(np.dot((support - mean) ** 2, d)) == pytest.approx(16.622, abs=1e-3)

    @pytest.mark.parametrize("mu", [(15.512, 1.110), (8.311, 8.311), (1.0, 2.0), *BRIGHT_MEANS])
    def test_matches_bessel_closed_form(self, mu):
        d = difference_dist(*mu)
        support = np.arange(len(d)) - len(d) // 2
        ref = skellam.pmf(support, mu1=mu[0], mu2=mu[1])
        assert np.max(np.abs(d - ref)) < 1e-12

    @pytest.mark.parametrize("mu", [(15.512, 1.110), (8.311, 8.311), (1.0, 2.0)])
    def test_matches_brute_force_joint_sum(self, mu):
        n_max = 80
        joint = np.outer(poisson_pmf(mu[0], n_max), poisson_pmf(mu[1], n_max))
        d = difference_dist(*mu, d_max=50)
        ref = brute_force_difference(joint, 50)
        assert np.max(np.abs(d - ref)) < 1e-12

    @pytest.mark.parametrize("mu", [(400.0, 30.0), (400.0, 250.0)])
    def test_windows_above_zero_match_brute_force(self, mu):
        # the count windows start at 140 and 0, then at 140 and 40
        joint = np.outer(poisson_pmf(mu[0], 700), poisson_pmf(mu[1], 700))
        d = difference_dist(*mu)
        assert np.max(np.abs(d - brute_force_difference(joint, len(d) // 2))) < 1e-12

    def test_insufficient_window_raises(self):
        with pytest.raises(TruncationError):
            difference_dist(15.512, 1.110, d_max=5)


# (receiver, amplitude): signal means 4.13 and 1.78 at reference mean 12.5
# (montecarlo's lab point), and the canonical alpha = 2.04 at z = 3.53.
DIFFERENCE_POINTS = [
    pytest.param(WfReceiverParams(math.sqrt(12.5)), math.sqrt(4.13), id="lab-4.13"),
    pytest.param(WfReceiverParams(math.sqrt(12.5)), math.sqrt(1.78), id="lab-1.78"),
    pytest.param(WfReceiverParams(**CANONICAL), 2.04, id="canonical"),
]


class TestDifferenceLaws:
    """The Skellam laws of a constellation on one window, as ``montecarlo`` and ``skellam`` read them."""

    @pytest.mark.parametrize("m", [2, 4, 8])
    @pytest.mark.parametrize("params, amplitude", DIFFERENCE_POINTS)
    def test_unjittered_is_each_symbols_law(self, params, amplitude, m):
        """Without jitter, each law is difference_dist at its own means, on the widest window."""
        c = build_psk(m, amplitude)
        mus = [_branch_means(s.amplitude, s.phase, params) for s in c.symbols]
        d_max = max(default_d_max(*mu) for mu in mus)
        laws = difference_laws(c, params)
        assert isinstance(laws, np.ndarray) and laws.shape == (m, 2 * d_max + 1)
        for law, mu in zip(laws, mus):
            assert np.array_equal(law, difference_dist(*mu, d_max))

    @pytest.mark.parametrize("sigma", [0.05, 0.25, 0.5, 1.0])
    @pytest.mark.parametrize("m", [2, 4, 8])
    @pytest.mark.parametrize("params, amplitude", DIFFERENCE_POINTS)
    def test_jittered_is_the_tables_diagonal_sums(self, params, amplitude, m, sigma):
        """With jitter, each law sums the diagonals n - m = d of its jittered count table."""
        params = replace(params, phase_jitter_rms=sigma)
        c = build_psk(m, amplitude)
        laws = difference_laws(c, params)
        d_max = laws.shape[-1] // 2
        assert laws.shape == (m, 2 * d_max + 1)
        for law, table in zip(laws, conditional_tables(c, params)):
            ref = brute_force_difference(table.probs, d_max)
            assert np.max(np.abs(law - ref)) <= 1e-15


def dense_tables(c: Constellation, params: WfReceiverParams):
    """Each symbol's count table on counts 0..hi, one symbol at a time: the window's reference."""
    hi = table_window(c, params)[1]
    for s in c.symbols:
        def contract(deltas, weights):
            mu_t, mu_r = _branch_means(s.amplitude, s.phase + deltas, params)
            p_t = weights.T[:, :, None] * poisson_pmf(mu_t, hi)
            return p_t.swapaxes(-1, -2) @ poisson_pmf(mu_r, hi)

        yield _jitter_average(params.phase_jitter_rms, contract)


class TestCountWindow:
    """Tables cut to the counts about their means lose no more than counts from 0 do."""

    def test_window_rule(self):
        # 12 sd + 20 below the smallest mean, clipped at 0, and above the largest
        assert count_window(4.0, 9.0) == (0, 65)
        assert count_window(400.0, 900.0) == (140, 1280)
        assert count_window(400.0, 400.0) == (140, 660)

    @pytest.mark.parametrize("z2", [800.0, 2000.0])
    @pytest.mark.parametrize("sigma", [0.0, 0.25])
    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_mi_matches_counts_from_zero(self, m, sigma, z2):
        params = WfReceiverParams(math.sqrt(z2), phase_jitter_rms=sigma)
        c = build_psk(m, 2.04)
        assert table_window(c, params)[0] > 0
        mixture, h_cond = 0.0, 0.0
        for prior, table in zip(c.priors, dense_tables(c, params)):
            mixture = mixture + prior * table
            h_cond += prior * float(_entropy_bits(table.ravel()))
        ref = float(_entropy_bits(mixture.ravel())) - h_cond
        assert abs(info_metrics.wf_mutual_information(c, params).mi_bits - ref) <= 1e-12

    def test_key_rate_matches_counts_from_zero(self):
        params = WfReceiverParams(math.sqrt(800.0), transmissivity=0.5)
        c = build_psk(4, 2.04)
        assert table_window(c, params)[0] > 0
        dense = np.stack([table.ravel() for table in dense_tables(c, params)])
        eve = security.eve_ensemble(c, params.transmissivity)
        scan = security._conditional_entropy_scan(
            dense, np.array(c.priors), security.overlap_matrix(eve)
        )
        holevo = security.vn_entropy(eve) - scan[0]
        ref = info_metrics._mi_from_tables(c, dense).mi_bits - holevo
        assert abs(security.kgr(c, params).kgr_bits - ref) <= 1e-12

    @pytest.mark.parametrize("sigma", [0.0, 0.25])
    def test_laws_are_the_windowed_tables_diagonal_sums(self, sigma):
        """Criterion 6 on tables that start above count 0: d = n - m = i - j."""
        params = WfReceiverParams(math.sqrt(800.0), phase_jitter_rms=sigma)
        c = build_psk(4, 2.04)
        assert table_window(c, params)[0] > 0
        laws = difference_laws(c, params)
        d_max = laws.shape[-1] // 2
        for law, table in zip(laws, conditional_tables(c, params)):
            ref = [np.trace(table.probs, offset=-d) for d in range(-d_max, d_max + 1)]
            assert np.max(np.abs(law - ref)) <= 1e-15


class TestParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lo_amplitude=-1.0),
            dict(lo_amplitude=1.0, visibility=1.5),
            dict(lo_amplitude=1.0, transmissivity=-0.2),
            dict(lo_amplitude=1.0, phase_jitter_rms=-0.1),
            dict(lo_amplitude=math.nan),
            dict(lo_amplitude=math.inf),
            dict(lo_amplitude=1.0, phase_jitter_rms=math.nan),
            dict(lo_amplitude=1.0, phase_jitter_rms=math.inf),
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
