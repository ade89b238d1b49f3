"""Coherent-state constellations: PSK builders and the loss channel."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi

# Tolerance for phase/prior comparisons throughout this module.
PHASE_TOL = 1e-12


def wrap_phase(phi: float) -> float:
    """Map an angle to [0, 2*pi). Values within PHASE_TOL of 2*pi wrap to 0."""
    out = math.fmod(phi, TWO_PI)
    if out < 0.0:
        out += TWO_PI
    if TWO_PI - out < PHASE_TOL:
        out = 0.0
    return out


@dataclass(frozen=True)
class CoherentSymbol:
    """One constellation point: field amplitude (sqrt photons), phase, prior.

    The complex field amplitude is ``amplitude * exp(1j * phase)``; the polar
    pair is the primary representation, with :meth:`complex_amplitude` as the
    Cartesian view.
    """

    amplitude: float
    phase: float
    prior: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.amplitude < math.inf:
            raise ValueError(f"amplitude must be finite and >= 0, got {self.amplitude}")
        if not math.isfinite(self.phase):
            raise ValueError(f"phase must be finite, got {self.phase}")
        if not 0.0 <= self.prior <= 1.0:
            raise ValueError(f"prior must be in [0, 1], got {self.prior}")
        object.__setattr__(self, "phase", wrap_phase(self.phase))

    @property
    def complex_amplitude(self) -> complex:
        return self.amplitude * cmath.exp(1j * self.phase)


@dataclass(frozen=True)
class Constellation:
    """Weighted set of coherent states: an ordered list of symbols.

    Arbitrary symbol lists are representable (priors just have to sum to 1);
    only PSK construction is provided here.  The order is ``len(c)``.
    """

    symbols: tuple[CoherentSymbol, ...]

    def __post_init__(self) -> None:
        if len(self.symbols) == 0:
            raise ValueError("constellation needs at least one symbol")
        total = math.fsum(s.prior for s in self.symbols)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"priors must sum to 1 within 1e-12, got {total!r}")
        object.__setattr__(self, "symbols", tuple(self.symbols))

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    @property
    def priors(self) -> tuple[float, ...]:
        return tuple(s.prior for s in self.symbols)

    @property
    def amplitudes(self) -> tuple[float, ...]:
        return tuple(s.amplitude for s in self.symbols)

    @property
    def phases(self) -> tuple[float, ...]:
        return tuple(s.phase for s in self.symbols)


def build_psk(order_m: int, amplitude: float, phi0: float | None = None) -> Constellation:
    """Build a PSK(M) constellation: equal amplitudes, equally spaced phases.

    Phases are ``phi0 + 2*pi*k/M`` for k = 0..M-1, each symbol with prior 1/M.
    ``phi0`` defaults to ``pi / (2*M)``, the arrangement whose projections on a
    single measured quadrature stay distinct.
    """
    if order_m < 2:
        raise InvalidOrderError(f"PSK order must be >= 2, got {order_m}")
    if phi0 is None:
        phi0 = math.pi / (2 * order_m)
    symbols = [
        CoherentSymbol(
            amplitude=amplitude,
            phase=phi0 + TWO_PI * k / order_m,
            prior=1.0 / order_m,
        )
        for k in range(order_m)
    ]
    return Constellation(tuple(symbols))


class InvalidOrderError(ValueError):
    """PSK order below 2."""


class InvalidTransmissivityError(ValueError):
    """Channel transmissivity outside [0, 1]."""


def apply_loss(c: Constellation, transmissivity: float) -> Constellation:
    """Pure-loss channel: scale every amplitude by sqrt(T), keep phases/priors."""
    if not 0.0 <= transmissivity <= 1.0:
        raise InvalidTransmissivityError(
            f"transmissivity must be in [0, 1], got {transmissivity}"
        )
    root_t = math.sqrt(transmissivity)
    scaled = tuple(
        CoherentSymbol(amplitude=root_t * s.amplitude, phase=s.phase, prior=s.prior)
        for s in c.symbols
    )
    return Constellation(scaled)


def loss_db_to_transmissivity(loss_db: float) -> float:
    """Convert a channel loss in dB to a transmissivity T = 10**(-loss/10)."""
    if loss_db < 0.0:
        raise ValueError(f"loss must be >= 0 dB, got {loss_db}")
    return 10.0 ** (-loss_db / 10.0)
