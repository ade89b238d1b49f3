"""The two hot loops: the batched Holevo outcome scan and the closed lock loop."""

import numpy as np
import pytest

from wfhsim.constellation import build_psk
from wfhsim.lock_sim import _pi_lock_loop
from wfhsim.security import (
    OUTCOME_SKIP_THRESHOLD,
    _conditional_entropy_scan,
    eve_ensemble,
    overlap_matrix,
)
from wfhsim.wf_receiver import WfReceiverParams, conditional_tables


def reference_scan(cond, priors, overlaps):
    """One eigvalsh call per weighted Gram matrix, outcome by outcome."""
    total = skipped = 0.0
    for o in range(cond.shape[1]):
        w = priors * cond[:, o]
        p_o = w.sum()
        if p_o < OUTCOME_SKIP_THRESHOLD:
            skipped += p_o
            continue
        post = w / p_o
        lam = np.linalg.eigvalsh(np.sqrt(np.outer(post, post)) * overlaps)
        lam = lam[lam > 0.0]
        total += p_o * float(-np.sum(lam * np.log2(lam)))
    return total, skipped


class TestEntropyScan:
    @pytest.mark.parametrize("jitter", [0.0, 0.25])
    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_matches_per_outcome_reference(self, m, jitter):
        c = build_psk(m, 2.04, 0.0 if m == 2 else None)
        params = WfReceiverParams(
            lo_amplitude=3.53, visibility=0.845, transmissivity=0.5, phase_jitter_rms=jitter
        )
        cond = np.stack([t.probs.ravel() for t in conditional_tables(c, params)])
        priors = np.array([s.prior for s in c.symbols])
        overlaps = overlap_matrix(eve_ensemble(c, params.transmissivity).amplitudes)
        total, skipped = _conditional_entropy_scan(cond, priors, overlaps)
        ref_total, ref_skipped = reference_scan(cond, priors, overlaps)
        assert total == pytest.approx(ref_total, abs=1e-12)
        assert skipped == pytest.approx(ref_skipped, abs=1e-12)

    def test_skips_negligible_outcomes(self):
        cond = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 1e-18]])
        priors = np.array([0.5, 0.5])
        overlaps = np.eye(2, dtype=complex)
        total, skipped = _conditional_entropy_scan(cond, priors, overlaps)
        # orthogonal states, equal posterior weights: one bit per kept outcome
        assert total == pytest.approx(1.0, abs=1e-12)
        assert skipped == pytest.approx(5e-19)


class TestLockLoopKernel:
    def test_lock_disabled_passes_noise_through(self):
        # both gains zero: the controller never actuates
        noise = np.linspace(-0.5, 0.5, 100)
        residual, diverged = _pi_lock_loop(noise, 1e-3, 0.0, 0.0, -1.0, 1.0, 1.0, 0.1)
        assert diverged == -1
        assert np.array_equal(residual, noise)

    def test_divergence_index_reported(self):
        noise = np.zeros(100)
        noise[10] = 2e3
        residual, diverged = _pi_lock_loop(noise, 1e-3, 0.0, 1.0, -10.0, 10.0, 1.0, 0.1)
        assert diverged == 10
