import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import fock_vn_entropy
from wfhsim import info_metrics, security
from wfhsim.constellation import (
    CoherentSymbol,
    Constellation,
    InvalidTransmissivityError,
    apply_loss,
    build_psk,
    loss_db_to_transmissivity,
)
from wfhsim.info_metrics import wf_mutual_information
from wfhsim.security import (
    NumericalFailureError,
    conditional_eve_entropy,
    eve_ensemble,
    kgr,
    overlap_matrix,
    vn_entropy,
)
from wfhsim.wf_receiver import WfReceiverParams

CANONICAL = dict(lo_amplitude=3.53, visibility=1.0)

finite_small = st.floats(min_value=-2.5, max_value=2.5)


def polar(amplitudes, priors) -> Constellation:
    """The constellation of the given complex amplitudes and priors."""
    return Constellation(tuple(
        CoherentSymbol(abs(a), math.atan2(a.imag, a.real), w) for a, w in zip(amplitudes, priors)
    ))


def overlap(a: complex, b: complex) -> complex:
    """<a|b> of two coherent states, read off ``overlap_matrix``."""
    return overlap_matrix(polar([a, b], [0.5, 0.5]))[0, 1]


class TestCoherentOverlap:
    def test_identical_states(self):
        assert overlap(1.3 + 0.2j, 1.3 + 0.2j) == pytest.approx(1.0)

    def test_vacuum_against_two_photons(self):
        b = cmath.sqrt(2)
        assert abs(overlap(0j, b)) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_antipodal_modulus(self):
        assert abs(overlap(1 + 0j, -1 + 0j)) ** 2 == pytest.approx(math.exp(-4.0), rel=1e-12)

    @given(ar=finite_small, ai=finite_small, br=finite_small, bi=finite_small)
    # the phase of b underflows to a subnormal, where cmath.phase raises OverflowError
    @example(ar=0.0, ai=0.0, br=2.0, bi=5e-324)
    def test_modulus_identity(self, ar, ai, br, bi):
        a, b = complex(ar, ai), complex(br, bi)
        lhs = abs(overlap(a, b)) ** 2
        rhs = math.exp(-abs(a - b) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-300)

    def test_matrix_agrees_with_scalar(self):
        c = polar([0.3 + 0.1j, -0.7j, 1.2], [0.25, 0.25, 0.5])
        mat = overlap_matrix(c)
        amps = [s.complex_amplitude for s in c]
        for i, a in enumerate(amps):
            for j, b in enumerate(amps):
                scalar = cmath.exp(-0.5 * abs(a) ** 2 - 0.5 * abs(b) ** 2 + a.conjugate() * b)
                assert mat[i, j] == pytest.approx(scalar, rel=1e-12)


class TestEveEnsemble:
    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
    def test_is_the_lost_arm(self, qpsk, t):
        assert eve_ensemble(qpsk, t) == apply_loss(qpsk, 1.0 - t)

    def test_gram_keeps_the_polar_float_sequence(self, qpsk):
        # sqrt(1 - T) * |a| * exp(i phase), the product the key rates were built on
        e = eve_ensemble(qpsk, 0.3)
        root = math.sqrt(1.0 - 0.3)
        amps = root * np.array(qpsk.amplitudes) * np.exp(1j * np.array(qpsk.phases))
        mags2 = np.abs(amps) ** 2
        log_ov = -0.5 * mags2[:, None] - 0.5 * mags2[None, :] + np.conj(amps[:, None]) * amps
        assert np.array_equal(overlap_matrix(e), np.exp(log_ov))

    def test_transmissivity_above_one_rejected(self, qpsk):
        with pytest.raises(InvalidTransmissivityError):
            eve_ensemble(qpsk, 1.2)


class TestVnEntropy:
    def test_pure_state(self):
        assert vn_entropy(polar([1.7 + 0.3j], [1.0])) == pytest.approx(0.0, abs=1e-12)

    def test_bpsk_closed_form(self):
        # equal mixture of |b> and |-b>: eigenvalues (1 +- e^{-2 b^2})/2
        c = build_psk(2, 2.04, 0.0)
        e = eve_ensemble(c, transmissivity=0.75)
        b2 = 0.25 * 2.04**2
        lam = 0.5 * (1.0 + math.exp(-2.0 * b2))
        expected = -(lam * math.log2(lam) + (1 - lam) * math.log2(1 - lam))
        assert vn_entropy(e) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.9887, abs=1e-4)

    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("t", [0.25, 0.5, 0.75, 0.9])
    def test_matches_fock_oracle(self, m, t):
        c = build_psk(m, 2.04, 0.0 if m == 2 else None)
        e = eve_ensemble(c, t)
        dense = fock_vn_entropy([s.complex_amplitude for s in e], e.priors, n_cut=40)
        assert vn_entropy(e) == pytest.approx(dense, abs=1e-8)

    @pytest.mark.parametrize("m", [2, 3, 4, 8])
    def test_dimension_bound(self, m):
        c = build_psk(m, 1.1)
        s = vn_entropy(eve_ensemble(c, 0.4))
        assert 0.0 <= s <= math.log2(m) + 1e-12

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_equals_direct_gram_spectrum(self, m):
        # vn_entropy is the outcome scan with one certain outcome; the direct
        # form diagonalises sqrt(w_j w_k) <b_j|b_k> itself
        e = eve_ensemble(build_psk(m, 2.04), 0.5)
        gram = np.sqrt(np.outer(e.priors, e.priors)) * overlap_matrix(e)
        lam = np.clip(np.linalg.eigvalsh(gram), 0.0, None)
        lam = lam[lam > 0.0]
        assert vn_entropy(e) == pytest.approx(-np.sum(lam * np.log2(lam)), abs=1e-14)

    def test_gram_spectrum_is_distribution(self):
        c = build_psk(8, 1.7)
        e = eve_ensemble(c, 0.3)
        gram = np.sqrt(np.outer(e.priors, e.priors)) * overlap_matrix(e)
        eig = np.linalg.eigvalsh(gram)
        assert eig.min() > -1e-10
        assert eig.max() <= 1.0 + 1e-12
        assert eig.sum() == pytest.approx(1.0, abs=1e-10)

    def test_entropy_vanishes_continuously_at_full_transmission(self, qpsk):
        values = [
            vn_entropy(eve_ensemble(qpsk, t)) for t in (0.99, 0.995, 0.999, 0.9999, 1.0)
        ]
        assert all(b <= a + 1e-8 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(0.0, abs=1e-10)

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            polar([1.0, 2.0], [0.7, 0.7])

    def test_detects_broken_spectrum(self):
        from wfhsim.security import _entropy_of_eigvals

        with pytest.raises(NumericalFailureError):
            _entropy_of_eigvals(np.array([1.1, -1e-6]))


class TestConditionalEntropy:
    def test_full_transmission_leaves_vacuum(self, qpsk):
        s = conditional_eve_entropy(qpsk, WfReceiverParams(transmissivity=1.0, **CANONICAL))
        assert s == pytest.approx(0.0, abs=1e-10)

    def test_zero_visibility_conditioning_is_useless(self, qpsk):
        params = WfReceiverParams(transmissivity=0.5, lo_amplitude=3.53, visibility=0.0)
        s_cond = conditional_eve_entropy(qpsk, params)
        s_un = vn_entropy(eve_ensemble(qpsk, 0.5))
        assert s_cond == pytest.approx(s_un, abs=1e-9)

    @pytest.mark.parametrize("loss_db", [1.0, 3.0, 7.0])
    def test_conditioning_never_hurts(self, qpsk, loss_db):
        t = loss_db_to_transmissivity(loss_db)
        params = WfReceiverParams(transmissivity=t, **CANONICAL)
        assert conditional_eve_entropy(qpsk, params) < vn_entropy(eve_ensemble(qpsk, t))


class TestKgr:
    def test_lossless_channel_gives_mi(self, qpsk):
        r = kgr(qpsk, WfReceiverParams(transmissivity=1.0, **CANONICAL))
        assert r.holevo_bits == pytest.approx(0.0, abs=1e-9)
        assert r.kgr_bits == pytest.approx(r.mi_bits, abs=1e-9)
        assert not r.insecure

    def test_zero_visibility_rate_vanishes(self, qpsk):
        r = kgr(qpsk, WfReceiverParams(transmissivity=0.5, lo_amplitude=3.53, visibility=0.0))
        assert r.kgr_bits == pytest.approx(0.0, abs=1e-9)

    def test_builds_conditional_tables_once(self, qpsk, monkeypatch):
        params = WfReceiverParams(transmissivity=0.5, phase_jitter_rms=0.1, **CANONICAL)
        mi = wf_mutual_information(qpsk, params)
        s_e_given_b = conditional_eve_entropy(qpsk, params)
        builds = []
        build = security.conditional_tables

        def counted(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(security, "conditional_tables", counted)
        monkeypatch.setattr(info_metrics, "conditional_tables", counted)
        r = kgr(qpsk, params)
        assert len(builds) == 1
        # sharing the tables changes no bit of either term
        assert r.mi_bits == mi.mi_bits
        assert r.s_e_given_b_bits == s_e_given_b

    @pytest.mark.parametrize("loss_db", [0.0, 1.0, 3.0, 6.0, 10.0])
    def test_quaternary_dominates_binary(self, loss_db):
        t = loss_db_to_transmissivity(loss_db)
        r4 = kgr(build_psk(4, 2.04), WfReceiverParams(transmissivity=t, **CANONICAL))
        r2 = kgr(build_psk(2, 2.04, 0.0), WfReceiverParams(transmissivity=t, **CANONICAL))
        assert r4.kgr_bits >= r2.kgr_bits

    @pytest.mark.parametrize("loss_db", [0.5, 2.0, 8.0])
    def test_holevo_within_bounds(self, qpsk, loss_db):
        t = loss_db_to_transmissivity(loss_db)
        r = kgr(qpsk, WfReceiverParams(transmissivity=t, **CANONICAL))
        assert -1e-9 <= r.holevo_bits <= r.s_e_bits + 1e-9
        assert r.kgr_bits == pytest.approx(r.mi_bits - r.holevo_bits, abs=1e-12)
        assert r.holevo_bits == pytest.approx(
            r.s_e_bits - r.s_e_given_b_bits, abs=1e-12
        )

    def test_insecure_flag_tracks_sign(self):
        # strong jitter at high loss drives the rate negative
        c = build_psk(4, 2.04)
        r = kgr(
            c,
            WfReceiverParams(
                transmissivity=0.2, phase_jitter_rms=0.6, **CANONICAL
            ),
        )
        assert r.insecure == (r.kgr_bits < 0.0)


orders = st.sampled_from([2, 4, 8])
amplitudes = st.floats(min_value=0.3, max_value=2.5)
transmissivities = st.floats(min_value=0.05, max_value=1.0)
phases = st.floats(min_value=0.0, max_value=2.0 * math.pi)


class TestKeyRateInvariants:
    """Properties every operating point must satisfy."""

    @settings(max_examples=20, deadline=None)
    @given(m=orders, amp=amplitudes, t=transmissivities, jitter=st.sampled_from([0.0, 0.25]))
    def test_conditioning_bounded_by_unconditioned(self, m, amp, t, jitter):
        # 0 <= S(E|B) <= S(E), i.e. 0 <= chi <= S(E)
        c = build_psk(m, amp)
        params = WfReceiverParams(transmissivity=t, phase_jitter_rms=jitter, **CANONICAL)
        s_cond = conditional_eve_entropy(c, params)
        assert -1e-9 <= s_cond <= vn_entropy(eve_ensemble(c, t)) + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(m=orders, amp=amplitudes, t=transmissivities, jitter=st.sampled_from([0.0, 0.25]))
    def test_rate_below_mi_below_source_entropy(self, m, amp, t, jitter):
        params = WfReceiverParams(transmissivity=t, phase_jitter_rms=jitter, **CANONICAL)
        r = kgr(build_psk(m, amp), params)
        assert r.kgr_bits <= r.mi_bits + 1e-9
        assert r.mi_bits <= math.log2(m) + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(m=orders, amp=amplitudes, t=transmissivities, phi0=phases)
    def test_rotation_by_symbol_spacing_only_relabels(self, m, amp, t, phi0):
        params = WfReceiverParams(transmissivity=t, **CANONICAL)
        a = kgr(build_psk(m, amp, phi0), params)
        b = kgr(build_psk(m, amp, phi0 + 2.0 * math.pi / m), params)
        assert b.mi_bits == pytest.approx(a.mi_bits, abs=1e-10)
        assert b.holevo_bits == pytest.approx(a.holevo_bits, abs=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(m=orders, amp=amplitudes, t=transmissivities, phi0=phases)
    def test_eve_entropy_ignores_global_phase(self, m, amp, t, phi0):
        s_ref = vn_entropy(eve_ensemble(build_psk(m, amp, 0.0), t))
        assert vn_entropy(eve_ensemble(build_psk(m, amp, phi0), t)) == pytest.approx(
            s_ref, abs=1e-10
        )
