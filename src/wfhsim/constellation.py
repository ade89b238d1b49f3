"""Coherent-state constellations: PSK builders, symmetry checks, loss channel."""

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


def _circ_close(a: float, b: float, tol: float = PHASE_TOL) -> bool:
    d = abs(a - b) % TWO_PI
    return d <= tol or TWO_PI - d <= tol


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
        if self.amplitude < 0.0:
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude}")
        if not 0.0 <= self.prior <= 1.0:
            raise ValueError(f"prior must be in [0, 1], got {self.prior}")
        object.__setattr__(self, "phase", wrap_phase(self.phase))

    @property
    def complex_amplitude(self) -> complex:
        return self.amplitude * cmath.exp(1j * self.phase)


@dataclass(frozen=True)
class Constellation:
    """Ordered list of coherent symbols plus the PSK metadata used to build it.

    Arbitrary symbol lists are representable (priors just have to sum to 1);
    only PSK construction is provided here.
    """

    symbols: tuple[CoherentSymbol, ...]
    order_m: int
    phi0: float

    def __post_init__(self) -> None:
        if len(self.symbols) == 0:
            raise ValueError("constellation needs at least one symbol")
        total = math.fsum(s.prior for s in self.symbols)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"priors must sum to 1 within 1e-12, got {total!r}")
        object.__setattr__(self, "symbols", tuple(self.symbols))
        object.__setattr__(self, "phi0", wrap_phase(self.phi0))

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
    if amplitude < 0.0:
        raise ValueError(f"amplitude must be >= 0, got {amplitude}")
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
    return Constellation(symbols=tuple(symbols), order_m=order_m, phi0=phi0)


class InvalidOrderError(ValueError):
    """PSK order below 2."""


class InvalidTransmissivityError(ValueError):
    """Channel transmissivity outside [0, 1]."""


def check_gus(c: Constellation) -> bool:
    """True iff the constellation set is invariant under a phase step 2*pi/M.

    Requires equal amplitudes, equal priors, and a phase set that maps onto
    itself (bijectively) when every phase is advanced by 2*pi/M.
    """
    m = len(c.symbols)
    if m == 0:
        return False
    a0 = c.symbols[0].amplitude
    q0 = c.symbols[0].prior
    for s in c.symbols:
        if abs(s.amplitude - a0) > PHASE_TOL or abs(s.prior - q0) > PHASE_TOL:
            return False
    step = TWO_PI / m
    phases = [s.phase for s in c.symbols]
    unmatched = list(range(m))
    for phi in phases:
        rotated = wrap_phase(phi + step)
        hit = next((j for j in unmatched if _circ_close(phases[j], rotated)), None)
        if hit is None:
            return False
        unmatched.remove(hit)
    return True


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
    return Constellation(symbols=scaled, order_m=c.order_m, phi0=c.phi0)


def loss_db_to_transmissivity(loss_db: float) -> float:
    """Convert a channel loss in dB to a transmissivity T = 10**(-loss/10)."""
    if loss_db < 0.0:
        raise ValueError(f"loss must be >= 0 dB, got {loss_db}")
    return 10.0 ** (-loss_db / 10.0)
