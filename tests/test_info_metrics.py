import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wfhsim.constellation import build_psk, loss_db_to_transmissivity
from wfhsim.detector_sim import NO_IMPERFECTIONS, run_experiment
from wfhsim.info_metrics import (
    plugin_mi_estimate,
    shannon_entropy,
    wf_mutual_information,
)
from wfhsim.wf_receiver import WfReceiverParams, joint_pnr_marginal

CANONICAL = dict(lo_amplitude=3.53, visibility=1.0)


class TestShannonEntropy:
    def test_point_mass(self):
        assert shannon_entropy(np.array([1.0, 0.0, 0.0])) == 0.0

    def test_uniform_four(self):
        assert shannon_entropy(np.full(4, 0.25)) == pytest.approx(2.0, abs=1e-15)

    def test_hand_computed(self):
        assert shannon_entropy(np.array([0.5, 0.25, 0.25])) == pytest.approx(1.5)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            shannon_entropy(np.array([0.7, -0.1, 0.4]))

    def test_overfull_mass_rejected(self):
        with pytest.raises(ValueError):
            shannon_entropy(np.array([0.9, 0.2]))

    def test_table_entropy_sums_every_cell(self):
        table = np.array([[0.5, 0.0], [0.125, 0.375]])
        assert shannon_entropy(table) == shannon_entropy(np.array([0.5, 0.125, 0.375]))
        assert shannon_entropy(table) == pytest.approx(1.4056390622295665, abs=1e-15)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=12).filter(
            lambda v: sum(v) > 1e-6
        )
    )
    def test_permutation_invariance(self, values):
        p = np.array(values)
        p = p / p.sum()
        shuffled = p[np.argsort(np.sin(np.arange(p.size)))]
        assert shannon_entropy(p) == pytest.approx(shannon_entropy(shuffled), abs=1e-9)


class TestWfMutualInformation:
    def test_full_loss_carries_nothing(self, qpsk):
        res = wf_mutual_information(qpsk, WfReceiverParams(transmissivity=0.0, **CANONICAL))
        assert abs(res.mi_bits) < 1e-9

    def test_decomposition_identity(self, qpsk):
        res = wf_mutual_information(qpsk, WfReceiverParams(transmissivity=0.8, **CANONICAL))
        assert res.mi_bits == pytest.approx(
            res.marginal_entropy_bits - res.conditional_entropy_bits, abs=1e-12
        )

    def test_truncation_mass_is_the_mixture_loss(self, qpsk):
        params = WfReceiverParams(n_max=40, **CANONICAL)
        lost = 1.0 - joint_pnr_marginal(qpsk, params).probs.sum()
        assert lost > 1e-9
        assert wf_mutual_information(qpsk, params).truncation_mass == pytest.approx(lost, rel=1e-9)

    def test_close_to_homodyne_at_canonical_point(self, qpsk):
        from wfhsim.homodyne import HomodyneParams, hd_mutual_information

        wf = wf_mutual_information(qpsk, WfReceiverParams(**CANONICAL)).mi_bits
        hd = hd_mutual_information(qpsk, HomodyneParams())
        assert abs(wf - hd) / hd < 0.02

    def test_saturation_self_check(self):
        c = build_psk(4, 10.0)
        res = wf_mutual_information(c, WfReceiverParams(lo_amplitude=40.0))
        assert res.mi_bits >= 1.99

    @pytest.mark.parametrize("loss_db", [0.0, 2.0, 5.0, 10.0])
    def test_bounds(self, qpsk, loss_db):
        t = loss_db_to_transmissivity(loss_db)
        res = wf_mutual_information(qpsk, WfReceiverParams(transmissivity=t, **CANONICAL))
        assert 0.0 <= res.mi_bits <= min(2.0, res.marginal_entropy_bits) + 1e-9

    @pytest.mark.parametrize("loss_db", [0.0, 4.0, 8.0])
    def test_jitter_monotonicity(self, qpsk, loss_db):
        t = loss_db_to_transmissivity(loss_db)
        clean = wf_mutual_information(qpsk, WfReceiverParams(transmissivity=t, **CANONICAL))
        noisy = wf_mutual_information(
            qpsk, WfReceiverParams(transmissivity=t, phase_jitter_rms=0.25, **CANONICAL)
        )
        assert noisy.mi_bits <= clean.mi_bits + 1e-12

    def test_loss_sweep_continuity(self, qpsk):
        t0 = 0.63
        base = wf_mutual_information(qpsk, WfReceiverParams(transmissivity=t0, **CANONICAL))
        for delta in (1e-3, 1e-5):
            near = wf_mutual_information(
                qpsk, WfReceiverParams(transmissivity=t0 + delta, **CANONICAL)
            )
            assert abs(near.mi_bits - base.mi_bits) < 10.0 * delta + 1e-9


class TestPluginEstimate:
    def test_deterministic_mapping_reaches_source_entropy(self):
        counts = {(0, 3, 1): 50, (1, 1, 3): 50, (2, 7, 0): 50, (3, 0, 7): 50}
        assert plugin_mi_estimate(counts) == pytest.approx(2.0, abs=1e-12)

    def test_independent_outcomes_carry_nothing(self):
        counts = {}
        for k in range(2):
            for nm, weight in (((2, 1), 30), ((0, 4), 70)):
                counts[(k, *nm)] = weight
        assert plugin_mi_estimate(counts) == pytest.approx(0.0, abs=1e-12)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(0)
        keys = [(k, n, m) for k in range(3) for n in range(4) for m in range(4)]
        vals = rng.integers(0, 50, size=len(keys))
        counts = {key: int(v) for key, v in zip(keys, vals) if v > 0}
        perm = {(n, m): ((m + 1) % 4, (n + 2) % 4) for n in range(4) for m in range(4)}
        relabeled = {}
        for (k, n, m), v in counts.items():
            nn, mm = perm[(n, m)]
            relabeled[(k, nn, mm)] = relabeled.get((k, nn, mm), 0) + v
        assert plugin_mi_estimate(counts) == pytest.approx(
            plugin_mi_estimate(relabeled), abs=1e-12
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            plugin_mi_estimate({})

    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(
                st.integers(-3, 3), st.integers(0, 60), st.integers(-5, 60)
            ),
            st.integers(0, 10_000),
            min_size=1,
            max_size=80,
        ).filter(lambda d: sum(d.values()) > 0)
    )
    # labels are any integers: (1, -2) and (0, 0) must stay two outcomes
    @example({(0, 1, -2): 5, (1, 0, 0): 5, (0, 0, 1): 1})
    def test_equals_log_ratio_sum(self, counts):
        # the estimate is H(K) + H(O) - H(K, O); the direct form sums
        # p(k, o) log2 p(k, o) / (p(k) p(o)) over the occupied cells
        total = sum(counts.values())
        p_k, p_o = {}, {}
        for (k, n, m), v in counts.items():
            p_k[k] = p_k.get(k, 0) + v
            p_o[(n, m)] = p_o.get((n, m), 0) + v
        direct = math.fsum(
            v / total * math.log2(v * total / (p_k[k] * p_o[(n, m)]))
            for (k, n, m), v in counts.items()
            if v > 0
        )
        assert plugin_mi_estimate(counts) == pytest.approx(max(0.0, direct), abs=1e-12)

    def test_zero_counts_change_nothing(self):
        counts = {(0, 3, 1): 40, (1, 1, 3): 25, (1, 3, 1): 10}
        padded = {**counts, (2, 0, 0): 0, (0, 9, 9): 0}
        assert plugin_mi_estimate(padded) == pytest.approx(
            plugin_mi_estimate(counts), abs=1e-15
        )

    @settings(max_examples=25)
    @given(st.integers(min_value=1, max_value=6))
    def test_nonnegative(self, m):
        rng = np.random.default_rng(m)
        counts = {
            (k, int(n), int(mm)): int(v)
            for k in range(m)
            for n, mm, v in rng.integers(0, 8, size=(5, 3))
            if v > 0
        }
        if not counts:
            counts = {(0, 0, 0): 1}
        assert plugin_mi_estimate(counts) >= 0.0


def bootstrap_plugin_se(counts, rng, draws=50):
    """Standard error of the plug-in MI over multinomial resamples of the table."""
    keys = list(counts)
    n = np.array([counts[k] for k in keys], dtype=float)
    resampled = rng.multinomial(int(n.sum()), n / n.sum(), size=draws)
    return float(np.std([plugin_mi_estimate(dict(zip(keys, r))) for r in resampled]))


@pytest.mark.parametrize("loss_db", [0.75, 1.25, 1.75])
def test_binary_beats_quaternary_at_lower_visibility_edge(loss_db):
    """Shot-level evidence behind acceptance criterion 3's known red.

    At visibility 0.845 with 0.25 rad jitter, the per-shot Monte Carlo puts
    binary MI above quaternary MI by more than three combined bootstrap
    standard errors, with the sign of the analytic gap.  The plug-in bias is
    upward and larger for QPSK, so it works against this ordering.
    """
    alpha, z = math.sqrt(4.16), math.sqrt(12.5)
    params = WfReceiverParams(
        lo_amplitude=z,
        visibility=0.845,
        transmissivity=loss_db_to_transmissivity(loss_db),
        phase_jitter_rms=0.25,
    )
    rng = np.random.default_rng(3)
    mi, se, analytic = {}, {}, {}
    for m, c in ((2, build_psk(2, alpha, 0.0)), (4, build_psk(4, alpha))):
        counts = run_experiment(c, params, NO_IMPERFECTIONS, 200_000, rng)
        mi[m] = plugin_mi_estimate(counts)
        se[m] = bootstrap_plugin_se(counts, rng)
        analytic[m] = wf_mutual_information(c, params).mi_bits
    gap = mi[2] - mi[4]
    assert analytic[2] - analytic[4] > 0.0
    assert gap > 3.0 * math.hypot(se[2], se[4])
