import math

import numpy as np
import pytest

from wfhsim.constellation import Constellation, CoherentSymbol, build_psk
from wfhsim.detector_sim import (
    NO_IMPERFECTIONS,
    DetectorImperfections,
    RangeWarning,
    difference_hist_from_counts,
    fidelity,
    run_experiment,
    sample_branch_counts,
)
from wfhsim.info_metrics import plugin_mi_estimate
from wfhsim.wf_receiver import (
    WfReceiverParams,
    branch_means,
    default_d_max,
    difference_dist,
    joint_pnr_conditional,
)

LAB_POINT = dict(lo_amplitude=math.sqrt(12.5), visibility=1.0, transmissivity=1.0)


def lab_symbol(sign: float = 1.0) -> CoherentSymbol:
    return CoherentSymbol(math.sqrt(4.13), 0.0 if sign > 0 else math.pi, 1.0)


class TestSampleShot:
    def test_dark_port_only_zeros(self):
        dark = Constellation((CoherentSymbol(0.0, 0.0, 1.0),), order_m=2, phi0=0.0)
        params = WfReceiverParams(lo_amplitude=0.0, phase_jitter_rms=0.25)
        n, m = sample_branch_counts(
            dark, np.zeros(50, dtype=np.intp), params, NO_IMPERFECTIONS,
            np.random.default_rng(0),
        )
        assert not n.any() and not m.any()

    def test_sample_mean_with_imperfections(self):
        imp = DetectorImperfections(dark_mean=0.01, crosstalk_prob=0.02)
        params = WfReceiverParams(**LAB_POINT)
        c = build_psk(2, math.sqrt(4.13), 0.0)
        ks = np.zeros(1_000_000, dtype=np.intp)
        n, _ = sample_branch_counts(c, ks, params, imp, np.random.default_rng(77))
        mu_t = branch_means(lab_symbol(), params)[0]
        expected = mu_t * 1.02 + 0.01
        se = n.std() / math.sqrt(n.size)
        assert abs(n.mean() - expected) < 3.0 * se

    def test_histogram_converges_to_analytic_table(self):
        params = WfReceiverParams(**LAB_POINT)
        symbol = lab_symbol()
        table = joint_pnr_conditional(symbol, params)
        rng = np.random.default_rng(42)
        shots = 200_000
        c = Constellation((symbol,), order_m=2, phi0=0.0)
        n, m = sample_branch_counts(
            c, np.zeros(shots, dtype=np.intp), params, NO_IMPERFECTIONS, rng
        )
        emp = np.zeros_like(table.probs)
        np.add.at(emp, (n, m), 1.0)
        emp /= shots
        tv = 0.5 * np.abs(emp - table.probs).sum()
        assert tv < 0.01

    def test_out_of_range_mean_warns(self):
        params = WfReceiverParams(lo_amplitude=10.0)
        vacuum = Constellation((CoherentSymbol(0.0, 0.0, 1.0),), order_m=2, phi0=0.0)
        with pytest.warns(RangeWarning, match="branch mean 50.000"):
            sample_branch_counts(vacuum, np.zeros(1, dtype=np.intp), params,
                                 NO_IMPERFECTIONS, np.random.default_rng(1))


class TestRunExperiment:
    def test_zero_shots_rejected(self, lab_bpsk, lab_receiver):
        with pytest.raises(ValueError):
            run_experiment(lab_bpsk, lab_receiver, NO_IMPERFECTIONS, 0,
                           np.random.default_rng(0))

    def test_single_symbol_records(self, lab_receiver):
        single = Constellation((lab_symbol(),), order_m=2, phi0=0.0)
        counts = run_experiment(single, lab_receiver, NO_IMPERFECTIONS, 500,
                                np.random.default_rng(3))
        assert all(k == 0 for (k, _, _) in counts)
        assert sum(counts.values()) == 500

    def test_seeded_determinism(self, lab_bpsk, lab_receiver):
        a = run_experiment(lab_bpsk, lab_receiver, NO_IMPERFECTIONS, 2000,
                           np.random.default_rng(11))
        b = run_experiment(lab_bpsk, lab_receiver, NO_IMPERFECTIONS, 2000,
                           np.random.default_rng(11))
        assert a == b

    def test_total_variation_shrinks_with_shots(self, lab_bpsk, lab_receiver):
        table_by_symbol = [
            joint_pnr_conditional(s, lab_receiver).probs for s in lab_bpsk.symbols
        ]
        n_max = table_by_symbol[0].shape[0] - 1
        support = np.count_nonzero(sum(table_by_symbol) > 1e-12)
        for shots in (10_000, 100_000):
            counts = run_experiment(lab_bpsk, lab_receiver, NO_IMPERFECTIONS, shots,
                                    np.random.default_rng(29))
            emp = np.zeros((2, n_max + 1, n_max + 1))
            for (k, n, m), v in counts.items():
                emp[k, n, m] = v
            emp /= shots
            joint = 0.5 * np.stack(table_by_symbol)
            tv = 0.5 * np.abs(emp - joint).sum()
            assert tv < 3.0 / math.sqrt(shots) * math.sqrt(support)

    def test_repetition_spread_small(self, lab_receiver):
        c = build_psk(4, math.sqrt(4.13))
        values = []
        for rep in range(4):
            counts = run_experiment(c, lab_receiver, NO_IMPERFECTIONS, 50_000,
                                    np.random.default_rng(100 + rep))
            values.append(plugin_mi_estimate(counts))
        assert max(values) - min(values) < 0.05

    @pytest.mark.parametrize(
        "order, imperfections",
        [
            (2, NO_IMPERFECTIONS),
            (4, DetectorImperfections(dark_mean=0.5, crosstalk_prob=0.2)),
            (1, DetectorImperfections(dark_mean=0.003, crosstalk_prob=0.01)),
        ],
    )
    def test_counts_match_unique_reference(self, lab_receiver, order, imperfections):
        if order == 1:
            c = Constellation((lab_symbol(),), order_m=2, phi0=0.0)
        else:
            c = build_psk(order, math.sqrt(4.13))
        counts = run_experiment(c, lab_receiver, imperfections, 20_000,
                                np.random.default_rng(41))
        # the row-sort count the bincount replaced
        rng = np.random.default_rng(41)
        ks = rng.choice(len(c.symbols), size=20_000, p=[s.prior for s in c.symbols])
        n, m = sample_branch_counts(c, ks, lab_receiver, imperfections, rng)
        uniq, freq = np.unique(np.stack([ks, n, m], axis=1), axis=0, return_counts=True)
        reference = {(int(k), int(a), int(b)): int(v) for (k, a, b), v in zip(uniq, freq)}
        assert list(counts.items()) == list(reference.items())
        assert all(type(x) is int for key in counts for x in key)


class TestDifferenceHistograms:
    def test_all_equal_counts_give_point_mass(self):
        counts = {(0, 3, 3): 1, (0, 5, 5): 1, (1, 4, 0): 7}
        dist = difference_hist_from_counts(counts, 0, 2)
        assert dist.d_max == 2
        assert dist.probs == pytest.approx([0.0, 0.0, 1.0, 0.0, 0.0])

    def test_swap_mirrors(self):
        counts = {(0, 4, 1): 2, (0, 2, 0): 1, (0, 0, 3): 1}
        swapped = {(k, m, n): v for (k, n, m), v in counts.items()}
        a = difference_hist_from_counts(counts, 0, 3)
        b = difference_hist_from_counts(swapped, 0, 3)
        assert a.probs == pytest.approx(b.probs[::-1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no shots"):
            difference_hist_from_counts({}, 0, 3)
        with pytest.raises(ValueError, match="no shots"):
            difference_hist_from_counts({(1, 2, 0): 5}, 0, 3)

    def test_lab_point_fidelity_above_threshold(self, lab_bpsk, lab_receiver):
        counts = run_experiment(lab_bpsk, lab_receiver, NO_IMPERFECTIONS, 200_000,
                                np.random.default_rng(123))
        mus = [branch_means(s, lab_receiver) for s in lab_bpsk.symbols]
        d_max = max(default_d_max(*mu) for mu in mus)
        for k, mu in enumerate(mus):
            theory = difference_dist(mu[0], mu[1], d_max)
            emp = difference_hist_from_counts(counts, k, d_max)
            assert fidelity(theory, emp) > 0.999


class TestFidelity:
    def test_identical_distributions(self):
        p = np.array([0.2, 0.5, 0.3])
        assert fidelity(p, p) == pytest.approx(1.0)

    def test_disjoint_supports(self):
        assert fidelity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_symmetry(self):
        p = np.array([0.2, 0.5, 0.3])
        q = np.array([0.4, 0.4, 0.2])
        assert fidelity(p, q) == fidelity(q, p)

    def test_only_equal_distributions_reach_one(self):
        p = np.array([0.2, 0.5, 0.3])
        q = np.array([0.25, 0.45, 0.3])
        assert fidelity(p, q) < 1.0

    def test_binning_refinement_monotonicity(self):
        rng = np.random.default_rng(6)
        p = rng.dirichlet(np.ones(8))
        q = rng.dirichlet(np.ones(8))
        coarse_p = p.reshape(4, 2).sum(axis=1)
        coarse_q = q.reshape(4, 2).sum(axis=1)
        assert fidelity(coarse_p, coarse_q) >= fidelity(p, q)

    def test_product_variant_is_small_for_broad_distributions(self):
        p = np.full(100, 0.01)
        assert fidelity(p, p, method="product") == pytest.approx(0.01)
        assert fidelity(p, p) == pytest.approx(1.0)

    def test_mismatched_support_rejected(self):
        with pytest.raises(ValueError):
            fidelity(np.array([1.0]), np.array([0.5, 0.5]))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            fidelity(np.array([0.5, 0.1]), np.array([0.5, 0.5]))


class TestImperfectionsType:
    @pytest.mark.parametrize("kwargs", [dict(dark_mean=-0.1), dict(crosstalk_prob=1.0)])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DetectorImperfections(**kwargs)
