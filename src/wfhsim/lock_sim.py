"""Closed-loop simulation of the interferometer phase lock.

A PI controller drives a bandwidth-limited piezo actuator against injected
environmental phase noise.  The noise model mirrors the measured setup: a slow
random-walk drift and a low-frequency air-current band (both shielded by the
enclosure), a narrow vibration band near 20 Hz (also reduced by the
enclosure), acoustic resonance lines above 100 Hz, and a white noise floor.

The default numbers are calibration artifacts, chosen so that the four
standard operating conditions reproduce the measured RMS figures and the
qualitative Allan/spectral structure; they are mirrored in the shipped
default config file and are meant to be overridden freely.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .phase_metrology import PhaseTrace


class LockDivergenceError(RuntimeError):
    """The closed loop left the +-1e3 rad band."""


@dataclass(frozen=True)
class PiConfig:
    """Proportional-integral controller settings."""

    kp: float = 0.0
    ki: float = 0.0
    output_limits: tuple[float, float] = (-10.0, 10.0)

    def __post_init__(self) -> None:
        if self.kp < 0.0 or self.ki < 0.0:
            raise ValueError("gains must be >= 0")
        lo, hi = self.output_limits
        if not lo < hi:
            raise ValueError(f"output_limits must satisfy min < max, got {self.output_limits}")


@dataclass(frozen=True)
class ActuatorModel:
    """Single-pole low-pass actuator: corner frequency and rad-per-unit gain."""

    bandwidth_hz: float = 10.0
    gain: float = 1.0

    def __post_init__(self) -> None:
        if self.bandwidth_hz <= 0.0:
            raise ValueError(f"bandwidth_hz must be > 0, got {self.bandwidth_hz}")


@dataclass(frozen=True)
class NoiseModel:
    """Environmental phase noise budget for one simulation run.

    ``box_closed`` halves the amplitudes of the components the enclosure
    shields (drift, air band, 20 Hz vibration band).  The acoustic resonance
    lines sit on frequencies commensurate with the default 10 kHz sampling so
    their contribution cancels from octave-spaced Allan estimates, matching
    the flat long-term behaviour seen with the lock engaged.
    """

    drift_rate: float = 0.028
    tone_20hz_rms: float = 0.065
    tone_200hz_rms: float = 0.248
    white_rms: float = 0.016
    air_rms: float = 0.13
    box_closed: bool = False
    seed: int = 0

    # band-structure knobs; the acceptance defaults live in data/defaults.cfg
    drift_linear_fraction: float = 0.02
    tone_20hz_freq: float = 20.0
    tone_20hz_width: float = 0.5
    acoustic_freqs: tuple[float, ...] = (156.25, 312.5)
    acoustic_power_split: tuple[float, ...] = (0.7, 0.3)
    air_freq: float = 1.8
    air_width: float = 0.15
    box_factor: float = 0.5

    def __post_init__(self) -> None:
        for name in ("drift_rate", "tone_20hz_rms", "tone_200hz_rms", "white_rms", "air_rms"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if len(self.acoustic_freqs) != len(self.acoustic_power_split):
            raise ValueError("acoustic_freqs and acoustic_power_split lengths differ")


def _diffused_tone(
    rng: np.random.Generator, t: np.ndarray, dt: float, freq: float, width: float, rms: float
) -> np.ndarray:
    """Sinusoid with random-walk phase: a Lorentzian band of FWHM ``width``.

    ``t`` is the time axis ``arange(n) * dt`` of the trace.
    """
    if rms == 0.0:
        return np.zeros(t.size)
    psi0 = rng.uniform(0.0, 2.0 * math.pi)
    if width > 0.0:
        psi = np.cumsum(rng.normal(0.0, math.sqrt(2.0 * math.pi * width * dt), t.size))
    else:
        psi = 0.0
    return math.sqrt(2.0) * rms * np.sin(2.0 * math.pi * freq * t + psi + psi0)


def generate_noise(noise: NoiseModel, n: int, dt: float) -> np.ndarray:
    """Phase disturbance trace implied by the noise model (open loop)."""
    rng = np.random.default_rng(noise.seed)
    shield = noise.box_factor if noise.box_closed else 1.0

    out = np.zeros(n)
    if noise.white_rms > 0.0:
        out += rng.normal(0.0, noise.white_rms, n)

    drift = shield * noise.drift_rate
    if drift > 0.0:
        walk = np.cumsum(rng.normal(0.0, drift * math.sqrt(dt), n))
        slope = noise.drift_linear_fraction * drift
        out += walk + slope * np.arange(n) * dt

    t = np.arange(n) * dt
    out += _diffused_tone(
        rng, t, dt, noise.tone_20hz_freq, noise.tone_20hz_width, shield * noise.tone_20hz_rms
    )
    out += _diffused_tone(rng, t, dt, noise.air_freq, noise.air_width, shield * noise.air_rms)

    total_power = noise.tone_200hz_rms**2
    split = np.asarray(noise.acoustic_power_split, dtype=np.float64)
    split = split / split.sum() if split.sum() > 0 else split
    for freq, frac in zip(noise.acoustic_freqs, split):
        line_rms = math.sqrt(total_power * frac)
        psi0 = rng.uniform(0.0, 2.0 * math.pi)
        out += math.sqrt(2.0) * line_rms * np.sin(2.0 * math.pi * freq * t + psi0)
    return out


def _pi_lock_loop(
    noise: np.ndarray,
    dt: float,
    kp: float,
    ki: float,
    out_min: float,
    out_max: float,
    actuator_gain: float,
    actuator_alpha: float,
) -> tuple[np.ndarray, int]:
    """Euler-stepped closed loop: disturbance + low-passed PI actuation.

    This is the one implementation of the PI law: the output
    ``u = kp * e + ki * integral`` is clamped to ``[out_min, out_max]``, and
    the integral freezes while the output is saturated (anti-windup).
    ``actuator_alpha`` is the per-step smoothing factor of the single-pole
    actuator response.  Returns the residual phase trace and the index of
    divergence (-1 if the loop stayed bounded).
    """
    n = noise.shape[0]
    residual = np.empty(n, dtype=np.float64)
    integral = 0.0
    act = 0.0
    for i in range(n):
        r = noise[i] + act
        residual[i] = r
        if abs(r) > 1e3:
            return residual, i
        err = -r
        unsat = kp * err + ki * integral
        if unsat > out_max:
            u = out_max
        elif unsat < out_min:
            u = out_min
        else:
            u = unsat
            integral += err * dt  # anti-windup: integrate only unsaturated
        act += actuator_alpha * (actuator_gain * u - act)
    return residual, -1


# Samples per block of the linear lock response.  256 keeps the Toeplitz at
# 256 x 512 and leaves n / 256 steps (~2.3k at the defaults) to the Python
# recurrence over block starts.
_BLOCK = 256

# Relative distance from the output limits and from the 1e3 rad divergence
# band inside which the linear response hands the trace to the loop.  Taken
# relative to the largest term of the PI output, it is ~1e9 times the
# rounding by which the two differ, so a sample the linear response accepts
# takes the unsaturated branch in the loop as well.
_GUARD_MARGIN = 1e-6


def _linear_lock_response(
    noise: np.ndarray,
    dt: float,
    kp: float,
    ki: float,
    out_min: float,
    out_max: float,
    actuator_gain: float,
    actuator_alpha: float,
) -> np.ndarray | None:
    """Residual of :func:`_pi_lock_loop` for a loop that never saturates.

    Unsaturated, the loop is linear in the state x = (integral, actuation):
    ``x_{i+1} = A x_i + b e_i`` with ``e_i = noise_i`` and residual
    ``r_i = x_i[1] + e_i``.  The trace is cut into blocks of ``_BLOCK``
    samples.  The response of every block to its own disturbance is one
    matrix product against the Toeplitz of ``A^j b``, the block-start states
    follow a short recurrence in ``A^L``, and their free response ``A^j x``
    is one more product.

    Returns None, and the caller runs the loop, when A is unstable, or when
    any output ``u_i = -kp r_i + ki I_i`` comes within ``_GUARD_MARGIN`` of
    the limits or any ``|r_i|`` of the divergence band.
    """
    ag = actuator_alpha * actuator_gain
    a = np.array([[1.0, -dt], [ag * ki, 1.0 - actuator_alpha - ag * kp]])
    b = np.array([-dt, -ag * kp])
    if np.abs(np.linalg.eigvals(a)).max() > 1.0:
        return None  # A^L could overflow; the loop reports the divergence
    n, L = noise.shape[0], _BLOCK
    n_blocks = -(-n // L)
    e = np.zeros((n_blocks, L))
    e.ravel()[:n] = noise

    powers = np.empty((L + 1, 2, 2))  # A^j
    powers[0] = np.eye(2)
    for j in range(L):
        powers[j + 1] = a @ powers[j]
    impulse = (powers[:L] @ b).T  # (2, L): A^k b

    # block-start states: x_(k+1) = A^L x_k + sum_m A^(L-1-m) b e_(k,m)
    block_end = e @ impulse[:, ::-1].T
    (p00, p01), (p10, p11) = powers[L].tolist()
    s0 = s1 = 0.0
    starts = []
    for d0, d1 in block_end.tolist():
        starts.append((s0, s1))
        s0, s1 = p00 * s0 + p01 * s1 + d0, p10 * s0 + p11 * s1 + d1
    starts = np.array(starts)

    # per state component: the in-block forced response (toeplitz[m, j] =
    # (A^(j-1-m) b)[c] for m < j) plus the free response A^j x_start
    lag = np.arange(L) - np.arange(L)[:, None] - 1
    integral, act = (
        (e @ np.where(lag >= 0, impulse[c][np.maximum(lag, 0)], 0.0) + starts @ powers[:L, c].T)
        .ravel()[:n]
        for c in (0, 1)
    )
    residual = act + e.ravel()[:n]
    u = ki * integral - kp * residual

    r_max = max(residual.max(), -residual.min())
    # unsaturated, |ki I| <= |u| + kp |r|: this bounds every term of u
    margin = _GUARD_MARGIN * (max(abs(out_min), abs(out_max)) + kp * r_max)
    if not (
        np.all(u > out_min + margin)
        and np.all(u < out_max - margin)
        and r_max < 1e3 * (1.0 - _GUARD_MARGIN)
    ):
        return None
    return residual


def simulate_lock(
    duration: float,
    dt: float,
    pi: PiConfig | None,
    actuator: ActuatorModel,
    noise: NoiseModel,
) -> PhaseTrace:
    """Run the Euler-discretized loop and return the residual phase trace.

    ``pi`` of None disables the lock entirely, in which case the residual is
    exactly the raw noise trace.
    Reproducible from the noise seed; raises :class:`LockDivergenceError` if
    the loop leaves +-1e3 rad.
    """
    if dt <= 0.0 or duration < 100.0 * dt:
        raise ValueError("need dt > 0 and duration >= 100*dt")
    active = [0.0]
    if noise.tone_20hz_rms > 0.0:
        active.append(noise.tone_20hz_freq)
    if noise.air_rms > 0.0:
        active.append(noise.air_freq)
    if noise.tone_200hz_rms > 0.0:
        active.extend(noise.acoustic_freqs)
    f_max = max(active)
    if f_max > 0.0 and dt > 1.0 / (20.0 * f_max):
        warnings.warn(
            f"dt={dt:g}s resolves the {f_max:g} Hz component with fewer than "
            "20 samples per cycle",
            stacklevel=2,
        )
    n = int(round(duration / dt))
    disturbance = generate_noise(noise, n, dt)
    if pi is None:
        return PhaseTrace(samples=disturbance, dt=dt)
    if pi.kp == 0.0 and pi.ki == 0.0:
        raise ValueError("lock enabled but both gains are zero")
    alpha = 1.0 - math.exp(-2.0 * math.pi * actuator.bandwidth_hz * dt)
    args = (disturbance, dt, pi.kp, pi.ki, *pi.output_limits, actuator.gain, alpha)
    residual = _linear_lock_response(*args)
    diverged_at = -1
    if residual is None:  # saturation, divergence or an unstable loop
        residual, diverged_at = _pi_lock_loop(*args)
    if diverged_at >= 0:
        raise LockDivergenceError(
            f"loop diverged at t={diverged_at * dt:.3f}s with kp={pi.kp}, ki={pi.ki}"
        )
    return PhaseTrace(samples=residual, dt=dt)


FOUR_CONDITIONS = (
    "lock_off_box_open",
    "lock_off_box_closed",
    "fast_lock_box_open",
    "fast_lock_box_closed",
)


def four_conditions(
    noise: NoiseModel,
    pi_fast: PiConfig,
    duration: float,
    dt: float,
    actuator: ActuatorModel,
) -> dict[str, PhaseTrace]:
    """The four standard operating conditions: {lock off, fast lock} x {box}.

    Each condition runs on an independent child seed derived from the model's
    base seed, mirroring independently acquired measurements.
    """
    children = np.random.SeedSequence(noise.seed).spawn(4)
    seeds = [int(c.generate_state(1)[0]) for c in children]
    plan = [
        (FOUR_CONDITIONS[0], None, False, seeds[0]),
        (FOUR_CONDITIONS[1], None, True, seeds[1]),
        (FOUR_CONDITIONS[2], pi_fast, False, seeds[2]),
        (FOUR_CONDITIONS[3], pi_fast, True, seeds[3]),
    ]
    out: dict[str, PhaseTrace] = {}
    for label, pi, closed, seed in plan:
        cfg = replace(noise, box_closed=closed, seed=seed)
        out[label] = simulate_lock(duration, dt, pi, actuator, cfg)
    return out

