import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wfhsim import wf_receiver
from wfhsim.constellation import build_psk, loss_db_to_transmissivity
from wfhsim.detector_sim import DetectorImperfections, run_experiment
from wfhsim.info_metrics import _entropy_bits, plugin_mi_estimate, wf_mutual_information
from wfhsim.wf_receiver import WfReceiverParams, _prior_mixture, _stack, conditional_tables

CANONICAL = dict(lo_amplitude=3.53, visibility=1.0)


class TestShannonEntropy:
    """The one entropy kernel, ``_entropy_bits``, along the last axis."""

    def test_point_mass(self):
        assert _entropy_bits(np.array([1.0, 0.0, 0.0])) == 0.0

    def test_uniform_four(self):
        assert _entropy_bits(np.full(4, 0.25)) == pytest.approx(2.0, abs=1e-15)

    def test_hand_computed(self):
        assert _entropy_bits(np.array([0.5, 0.25, 0.25])) == pytest.approx(1.5)

    def test_table_entropy_sums_every_cell(self):
        # a raveled table sums every cell; a stacked one gives one entropy a row
        table = np.array([[0.5, 0.0], [0.125, 0.375]])
        assert _entropy_bits(table.ravel()) == _entropy_bits(np.array([0.5, 0.125, 0.375]))
        assert _entropy_bits(table.ravel()) == pytest.approx(1.4056390622295665, abs=1e-15)
        assert np.array_equal(_entropy_bits(table), [_entropy_bits(row) for row in table])

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=12).filter(
            lambda v: sum(v) > 1e-6
        )
    )
    def test_permutation_invariance(self, values):
        p = np.array(values)
        p = p / p.sum()
        shuffled = p[np.argsort(np.sin(np.arange(p.size)))]
        assert _entropy_bits(p) == pytest.approx(_entropy_bits(shuffled), abs=1e-9)


class TestWfMutualInformation:
    def test_full_loss_carries_nothing(self, qpsk):
        res = wf_mutual_information(qpsk, WfReceiverParams(transmissivity=0.0, **CANONICAL))
        assert abs(res.mi_bits) < 1e-9

    def test_decomposition_identity(self, qpsk):
        res = wf_mutual_information(qpsk, WfReceiverParams(transmissivity=0.8, **CANONICAL))
        assert res.mi_bits == pytest.approx(
            res.marginal_entropy_bits - res.conditional_entropy_bits, abs=1e-12
        )

    def test_truncation_mass_is_the_mixture_loss(self, qpsk, monkeypatch):
        monkeypatch.setattr(wf_receiver, "count_window", lambda mu_min, mu_max: (0, 40))
        params = WfReceiverParams(**CANONICAL)
        mixture = _prior_mixture(np.array(qpsk.priors), _stack(conditional_tables(qpsk, params)))
        lost = 1.0 - mixture.sum()
        assert lost > 1e-9
        assert wf_mutual_information(qpsk, params).truncation_mass == pytest.approx(lost, rel=1e-9)

    def test_close_to_homodyne_at_canonical_point(self, qpsk):
        from wfhsim.homodyne import hd_mutual_information

        params = WfReceiverParams(**CANONICAL)
        wf = wf_mutual_information(qpsk, params).mi_bits
        hd = hd_mutual_information(qpsk, params)
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


class TestStrongReferenceLimit:
    """The count receiver tends to its strong-reference limit, the homodyne, from above.

    QPSK at alpha = 2.04, visibility 1: the gap WF - HD falls as 1/z^2, so
    (WF - HD) z^2 rises towards a constant.  At z^2 = 200, 800 and 3200 it
    reads 0.5007, 0.5204, 0.5253 without loss or jitter; 0.3195, 0.3314,
    0.3344 at 0.25 rad of jitter; 0.0566, 0.0595, 0.0603 at T = 0.5.  WF >= HD
    holds only in the limit: at z^2 = 12.5 and T = 0.5 the gap is -1.3e-4 bits.
    """

    @pytest.mark.parametrize(
        "receiver, band",
        [
            (dict(), (0.49, 0.53)),
            (dict(phase_jitter_rms=0.25), (0.31, 0.34)),
            (dict(transmissivity=0.5), (0.055, 0.062)),
        ],
        ids=["ideal", "jitter-0.25", "loss-3dB"],
    )
    def test_gap_times_reference_mean_rises_inside_band(self, receiver, band):
        from wfhsim.homodyne import hd_mutual_information

        c = build_psk(4, 2.04)
        scaled = []
        for z2 in (200.0, 800.0, 3200.0):
            params = WfReceiverParams(math.sqrt(z2), **receiver)
            gap = wf_mutual_information(c, params).mi_bits - hd_mutual_information(c, params)
            assert gap > 0.0
            scaled.append(gap * z2)
        assert band[0] < scaled[0] < scaled[1] < scaled[2] < band[1]

    def test_table_memory_grows_at_most_linearly_in_reference_mean(self):
        """Windowed tables hold O(z^2) cells: a 4x brighter reference costs at most 4.5x."""
        c, peaks = build_psk(4, 2.04), []
        for z2 in (800.0, 3200.0):
            tracemalloc.start()
            try:
                wf_mutual_information(c, WfReceiverParams(math.sqrt(z2)))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] / peaks[0] <= 4.5


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_count_rejected(self, bad):
        """max(0, nan) is 0, so a non-finite count once read as zero information."""
        with pytest.raises(ValueError, match="finite"):
            plugin_mi_estimate({(0, 1, 1): bad, (1, 2, 2): 3.0})

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
        counts = run_experiment(c, params, DetectorImperfections(), 200_000, rng)
        mi[m] = plugin_mi_estimate(counts)
        se[m] = bootstrap_plugin_se(counts, rng)
        analytic[m] = wf_mutual_information(c, params).mi_bits
    gap = mi[2] - mi[4]
    assert analytic[2] - analytic[4] > 0.0
    assert gap > 3.0 * math.hypot(se[2], se[4])


@pytest.mark.parametrize(
    ("visibility", "sigma", "wins"),
    [(0.845, 0.15, True), (0.845, 0.155, False), (0.945, 0.25, True), (0.935, 0.25, False)],
)
def test_criterion_3_boundary(visibility, sigma, wins):
    """Where quaternary beats binary below 2 dB, by criterion 3's own computation.

    The minimum QPSK - BPSK margin over the 0.25 dB loss grid below 2 dB
    changes sign between sigma 0.15 and 0.155 rad at visibility 0.845, and
    between visibility 0.935 and 0.945 at sigma 0.25 rad.  The margins at
    these four points are +0.000984, -0.002445, +0.003560 and -0.004916 bits.
    """
    alpha, z = math.sqrt(4.16), math.sqrt(12.5)
    c4, c2 = build_psk(4, alpha), build_psk(2, alpha, 0.0)
    margins = []
    for loss_db in [0.25 * i for i in range(8)]:  # criterion 3's loss grid below 2 dB
        params = WfReceiverParams(
            lo_amplitude=z,
            visibility=visibility,
            transmissivity=loss_db_to_transmissivity(loss_db),
            phase_jitter_rms=sigma,
        )
        margins.append(
            wf_mutual_information(c4, params).mi_bits - wf_mutual_information(c2, params).mi_bits
        )
    assert min(margins) > 0.0 if wins else min(margins) < 0.0
