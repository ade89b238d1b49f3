import math

import pytest
from hypothesis import given, strategies as st

from wfhsim.constellation import (
    Constellation,
    CoherentSymbol,
    InvalidOrderError,
    InvalidTransmissivityError,
    apply_loss,
    build_psk,
    loss_db_to_transmissivity,
    wrap_phase,
)


class TestBuildPsk:
    def test_qpsk_phases(self):
        c = build_psk(4, 2.04, math.pi / 8)
        expected = [math.pi / 8, 5 * math.pi / 8, 9 * math.pi / 8, 13 * math.pi / 8]
        for symbol, phase in zip(c.symbols, expected):
            assert symbol.phase == pytest.approx(phase, abs=1e-12)
            assert symbol.amplitude == 2.04
            assert symbol.prior == 0.25

    def test_bpsk_antipodal(self):
        c = build_psk(2, 1.0, 0.0)
        assert c.phases == pytest.approx((0.0, math.pi), abs=1e-12)
        assert c.priors == (0.5, 0.5)

    def test_adjacent_spacing_m8(self):
        c = build_psk(8, 1.0, math.pi / 16)
        gaps = [c.symbols[k + 1].phase - c.symbols[k].phase for k in range(7)]
        assert gaps == pytest.approx([math.pi / 4] * 7, abs=1e-12)

    def test_default_reference_phase(self):
        c = build_psk(4, 1.0)
        assert c.symbols[0].phase == pytest.approx(math.pi / 8, abs=1e-15)

    def test_order_below_two_rejected(self):
        with pytest.raises(InvalidOrderError):
            build_psk(1, 1.0)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            build_psk(4, -0.5)


def assert_gus(c: Constellation) -> None:
    """Equal amplitudes and priors, and wrapped phases that +2 pi/M maps onto themselves."""
    m = len(c)
    assert len(set(c.amplitudes)) == 1 and len(set(c.priors)) == 1
    hits = []
    for phi in c.phases:
        rotated = wrap_phase(phi + 2.0 * math.pi / m)
        gaps = [abs(math.remainder(rotated - other, 2.0 * math.pi)) for other in c.phases]
        assert min(gaps) <= 1e-12
        hits.append(gaps.index(min(gaps)))
    assert sorted(hits) == list(range(m))


class TestCheckGus:
    @pytest.mark.parametrize("m", range(2, 17))
    @pytest.mark.parametrize("phi0_kind", ["zero", "half_sector"])
    def test_psk_builds_are_gus(self, m, phi0_kind):
        phi0 = 0.0 if phi0_kind == "zero" else math.pi / (2 * m)
        assert_gus(build_psk(m, 1.3, phi0))


class TestApplyLoss:
    def test_identity_channel(self, qpsk):
        out = apply_loss(qpsk, 1.0)
        assert out.amplitudes == qpsk.amplitudes

    def test_full_loss_gives_vacuum(self, qpsk):
        out = apply_loss(qpsk, 0.0)
        assert all(a == 0.0 for a in out.amplitudes)

    def test_quarter_transmissivity(self):
        c = build_psk(4, 2.0)
        out = apply_loss(c, 0.25)
        assert out.amplitudes == pytest.approx((1.0,) * 4)

    def test_preserves_gus(self, qpsk):
        assert_gus(apply_loss(qpsk, 0.37))

    @pytest.mark.parametrize("t", [-0.1, 1.1])
    def test_invalid_transmissivity(self, qpsk, t):
        with pytest.raises(InvalidTransmissivityError):
            apply_loss(qpsk, t)

    @given(
        t1=st.floats(min_value=0.0, max_value=1.0),
        t2=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_loss_composition(self, t1, t2):
        c = build_psk(4, 2.04)
        once = apply_loss(c, t1 * t2)
        twice = apply_loss(apply_loss(c, t1), t2)
        for a, b in zip(once.symbols, twice.symbols):
            assert abs(a.amplitude - b.amplitude) < 1e-12
            assert a.phase == b.phase and a.prior == b.prior


class TestLossConversion:
    @pytest.mark.parametrize("loss_db,t", [(0.0, 1.0), (10.0, 0.1)])
    def test_known_points(self, loss_db, t):
        assert loss_db_to_transmissivity(loss_db) == pytest.approx(t, abs=1e-15)

    def test_three_db(self):
        assert loss_db_to_transmissivity(3.0) == pytest.approx(0.5011872336272722)

    @pytest.mark.parametrize("t", [1.0, 0.5, 0.1, 0.01])
    def test_round_trip(self, t):
        assert loss_db_to_transmissivity(-10.0 * math.log10(t)) == pytest.approx(
            t, abs=1e-12
        )

    def test_negative_loss_rejected(self):
        with pytest.raises(ValueError):
            loss_db_to_transmissivity(-1.0)


class TestTypes:
    def test_priors_must_sum_to_one(self):
        symbols = (CoherentSymbol(1.0, 0.0, 0.6), CoherentSymbol(1.0, math.pi, 0.6))
        with pytest.raises(ValueError):
            Constellation(symbols)

    def test_phase_stored_wrapped(self):
        s = CoherentSymbol(1.0, 2 * math.pi + 0.3, 1.0)
        assert s.phase == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize(
        "amplitude, phase",
        [(math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf)],
    )
    def test_non_finite_symbol_rejected(self, amplitude, phase):
        with pytest.raises(ValueError, match="finite"):
            CoherentSymbol(amplitude, phase, 1.0)

    def test_complex_amplitude(self):
        s = CoherentSymbol(2.0, math.pi / 2, 1.0)
        assert s.complex_amplitude == pytest.approx(2j, abs=1e-12)

    @given(st.floats(min_value=-50.0, max_value=50.0))
    def test_wrap_phase_range(self, phi):
        w = wrap_phase(phi)
        assert 0.0 <= w < 2 * math.pi
