"""Run configuration: dotted key = value files with strict key validation.

The shipped ``data/defaults.cfg`` is always loaded first; a user file and
explicit overrides are layered on top.  Unknown keys are rejected with their
full path so typos fail loudly instead of silently using defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

from .constellation import Constellation, build_psk
from .detector_sim import DetectorImperfections
from .io import RENDERERS
from .lock_sim import ActuatorModel, NoiseModel, PiConfig
from .phase_metrology import _octave_ladder, _sample_count
from .wf_receiver import WfReceiverParams


class ConfigError(ValueError):
    """Malformed config line, unknown key, or invalid value."""


def _parse_float(s: str) -> float:
    x = float(s)
    if not math.isfinite(x):
        raise ValueError("value must be finite")
    return x


def _parse_float_list(s: str) -> tuple[float, ...]:
    parts = [p.strip() for p in s.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple(_parse_float(p) for p in parts)


def _parse_auto_int(s: str) -> int | None:
    return None if s.lower() == "auto" else int(s)


# key -> parser; this is the complete set of accepted keys
KEY_PARSERS = {
    "constellation.m": int,
    "constellation.alpha": _parse_float,
    "receiver.lo_amplitude": _parse_float,
    "receiver.visibility": _parse_float,
    "receiver.phase_jitter_rms": _parse_float,
    "receiver.n_max": _parse_auto_int,
    "receiver.jitter_quad_nodes": int,
    "channel.loss_db_start": _parse_float,
    "channel.loss_db_stop": _parse_float,
    "channel.loss_db_step": _parse_float,
    "sweep.visibilities": _parse_float_list,
    "sweep.bpsk_phi0": _parse_float,
    "sweep.qpsk_phi0": _parse_float,
    "montecarlo.shots": int,
    "montecarlo.repetitions": int,
    "montecarlo.seed": int,
    "montecarlo.dark_mean": _parse_float,
    "montecarlo.crosstalk_prob": _parse_float,
    "montecarlo.signal_means": _parse_float_list,
    "montecarlo.lo_mean": _parse_float,
    "lock.duration_s": _parse_float,
    "lock.dt_s": _parse_float,
    "lock.n_seeds": int,
    "lock.seed": int,
    "lock.kp_fast": _parse_float,
    "lock.ki_fast": _parse_float,
    "lock.actuator_bandwidth_hz": _parse_float,
    "lock.actuator_gain": _parse_float,
    "lock.noise_drift_rate": _parse_float,
    "lock.noise_drift_linear_fraction": _parse_float,
    "lock.noise_tone_20hz_rms": _parse_float,
    "lock.noise_tone_20hz_freq": _parse_float,
    "lock.noise_tone_20hz_width": _parse_float,
    "lock.noise_tone_200hz_rms": _parse_float,
    "lock.noise_acoustic_freqs": _parse_float_list,
    "lock.noise_acoustic_power_split": _parse_float_list,
    "lock.noise_white_rms": _parse_float,
    "lock.noise_air_rms": _parse_float,
    "lock.noise_air_freq": _parse_float,
    "lock.noise_air_width": _parse_float,
    "lock.noise_box_factor": _parse_float,
    "lock.allan_min_m": int,
    "lock.allan_max_m": int,
    "lock.asd_segment_s": _parse_float,
    "lock.asd_overlap": _parse_float,
    "output.directory": str,
    "output.format": str,
}


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse ``key = value`` lines into a raw string mapping."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in KEY_PARSERS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        raw[key] = value
    return raw


def _defaults_text() -> str:
    return resources.files("wfhsim.data").joinpath("defaults.cfg").read_text()


@dataclass
class RunConfig:
    """Fully resolved configuration with typed accessors per subsystem."""

    values: dict[str, object]
    resolved_strings: dict[str, str] = field(default_factory=dict)

    def __getitem__(self, key: str):
        return self.values[key]

    # -- typed views -----------------------------------------------------

    def sweep_phi0(self, order_m: int) -> float | None:
        """Reference phase for order 2 or 4; None leaves :func:`build_psk`'s default."""
        if order_m == 2:
            return float(self.values["sweep.bpsk_phi0"])
        if order_m == 4:
            return float(self.values["sweep.qpsk_phi0"])
        return None

    def sweep_psk(self, amplitude: float) -> list[Constellation]:
        """The PSK constellations the order sweeps compare (orders 2 and 4), in order."""
        return [build_psk(m, amplitude, self.sweep_phi0(m)) for m in (2, 4)]

    def receiver_params(self, transmissivity: float, visibility: float | None = None) -> WfReceiverParams:
        return WfReceiverParams(
            lo_amplitude=float(self.values["receiver.lo_amplitude"]),
            visibility=float(
                self.values["receiver.visibility"] if visibility is None else visibility
            ),
            transmissivity=transmissivity,
            n_max=self.values["receiver.n_max"],
            phase_jitter_rms=float(self.values["receiver.phase_jitter_rms"]),
            jitter_quad_nodes=int(self.values["receiver.jitter_quad_nodes"]),
        )

    def montecarlo_receiver(self) -> WfReceiverParams:
        """The count-difference runs' receiver: no loss, LO mean ``montecarlo.lo_mean``."""
        z = math.sqrt(float(self.values["montecarlo.lo_mean"]))
        return replace(self.receiver_params(1.0), lo_amplitude=z)

    def loss_grid(self) -> list[float]:
        start = float(self.values["channel.loss_db_start"])
        stop = float(self.values["channel.loss_db_stop"])
        step = float(self.values["channel.loss_db_step"])
        if step <= 0.0 or stop < start:
            raise ConfigError("channel grid needs step > 0 and stop >= start")
        # floored, so no point passes stop; the tolerance absorbs 0.3 / 0.1 < 3
        n = math.floor((stop - start) / step + 1e-9)
        grid = [start + i * step for i in range(n + 1)]
        if not grid:
            raise ConfigError("empty loss grid")
        return grid

    def imperfections(self) -> DetectorImperfections:
        return DetectorImperfections(
            dark_mean=float(self.values["montecarlo.dark_mean"]),
            crosstalk_prob=float(self.values["montecarlo.crosstalk_prob"]),
        )

    def noise_model(self, seed: int) -> NoiseModel:
        v = self.values
        return NoiseModel(
            drift_rate=float(v["lock.noise_drift_rate"]),
            tone_20hz_rms=float(v["lock.noise_tone_20hz_rms"]),
            tone_200hz_rms=float(v["lock.noise_tone_200hz_rms"]),
            white_rms=float(v["lock.noise_white_rms"]),
            air_rms=float(v["lock.noise_air_rms"]),
            seed=seed,
            drift_linear_fraction=float(v["lock.noise_drift_linear_fraction"]),
            tone_20hz_freq=float(v["lock.noise_tone_20hz_freq"]),
            tone_20hz_width=float(v["lock.noise_tone_20hz_width"]),
            acoustic_freqs=tuple(v["lock.noise_acoustic_freqs"]),
            acoustic_power_split=tuple(v["lock.noise_acoustic_power_split"]),
            air_freq=float(v["lock.noise_air_freq"]),
            air_width=float(v["lock.noise_air_width"]),
            box_factor=float(v["lock.noise_box_factor"]),
        )

    def pi_fast(self) -> PiConfig:
        return PiConfig(kp=float(self.values["lock.kp_fast"]), ki=float(self.values["lock.ki_fast"]))

    def actuator(self) -> ActuatorModel:
        return ActuatorModel(
            bandwidth_hz=float(self.values["lock.actuator_bandwidth_hz"]),
            gain=float(self.values["lock.actuator_gain"]),
        )

    def lock_taus(self) -> list[int]:
        """The lock study's Allan averaging factors m, in octaves from allan_min_m."""
        m = int(self.values["lock.allan_min_m"])
        if m < 1:  # doubling would never pass allan_max_m
            raise ConfigError(f"lock.allan_min_m must be >= 1, got {m}")
        return _octave_ladder(m, int(self.values["lock.allan_max_m"]))


def load_config(
    path: str | Path | None = None, overrides: dict[str, str] | None = None
) -> RunConfig:
    """Layer defaults <- optional user file <- explicit overrides."""
    raw = parse_config_text(_defaults_text(), source="defaults.cfg")
    if path is not None:
        p = Path(path)
        raw.update(parse_config_text(p.read_text(), source=str(p)))
    for key, value in (overrides or {}).items():
        if key not in KEY_PARSERS:
            raise ConfigError(f"unknown config key {key!r}")
        raw[key] = value
    values: dict[str, object] = {}
    for key, text in raw.items():
        try:
            values[key] = KEY_PARSERS[key](text)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"invalid value for {key}: {text!r} ({exc})") from exc
    if values["output.format"] not in RENDERERS:
        raise ConfigError(f"output.format must be one of {', '.join(RENDERERS)}")
    config = RunConfig(values=values, resolved_strings=dict(raw))
    _validate_sections(config)
    return config


def _validate_sections(config: RunConfig) -> None:
    """Re-run the module-level invariants on the loaded values."""
    checks = (
        ("constellation", lambda: _check_constellation(config)),
        ("receiver", lambda: config.receiver_params(1.0)),
        ("channel", config.loss_grid),
        ("sweep", lambda: _check_sweep(config)),
        ("montecarlo", lambda: _check_montecarlo(config)),
        ("lock", lambda: _check_lock(config)),
    )
    for section, check in checks:
        try:
            check()
        except ConfigError:
            raise
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"invalid {section} configuration: {exc}") from exc


def _check_constellation(config: RunConfig) -> None:
    m = int(config["constellation.m"])
    build_psk(m, float(config["constellation.alpha"]), config.sweep_phi0(m))


def _check_sweep(config: RunConfig) -> None:
    for xi in config["sweep.visibilities"]:
        config.receiver_params(1.0, visibility=xi)


def _check_montecarlo(config: RunConfig) -> None:
    config.imperfections()
    if int(config["montecarlo.shots"]) < 1:
        raise ValueError("montecarlo.shots must be >= 1")
    if not 1 <= int(config["montecarlo.repetitions"]) <= int(config["montecarlo.shots"]):
        raise ValueError("montecarlo.repetitions must be in [1, montecarlo.shots]")
    if float(config["montecarlo.lo_mean"]) < 0.0:
        raise ValueError("montecarlo.lo_mean must be >= 0")
    for mean in config["montecarlo.signal_means"]:
        if float(mean) < 0.0:
            raise ValueError(f"signal mean {mean} must be >= 0")


def _check_lock(config: RunConfig) -> None:
    config.noise_model(seed=0)
    config.pi_fast()
    config.actuator()
    if float(config["lock.dt_s"]) <= 0.0:
        raise ValueError("lock.dt_s must be > 0")
    if float(config["lock.duration_s"]) < 100.0 * float(config["lock.dt_s"]):
        raise ValueError("lock.duration_s must be >= 100 * lock.dt_s")
    if int(config["lock.n_seeds"]) < 1:
        raise ValueError("lock.n_seeds must be >= 1")
    ms = config.lock_taus()
    if not ms:
        raise ValueError("empty Allan grid: lock.allan_min_m exceeds allan_max_m")
    dt = float(config["lock.dt_s"])
    n = _sample_count(float(config["lock.duration_s"]), dt)
    if 2 * ms[-1] >= n:
        raise ValueError(f"lock.allan_max_m: Allan factor {ms[-1]} is not under half the {n}-sample trace")
    segment = _sample_count(float(config["lock.asd_segment_s"]), dt)
    if not 2 <= segment <= n:
        raise ValueError(f"lock.asd_segment_s gives {segment} samples, not 2..trace length")
    if not 0.0 <= float(config["lock.asd_overlap"]) <= 0.9:
        raise ValueError("lock.asd_overlap must be in [0, 0.9]")
