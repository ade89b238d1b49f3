import math
from dataclasses import dataclass, field

import pytest

from wfhsim.config import RunConfig, load_config
from wfhsim.constellation import build_psk
from wfhsim.lock_sim import four_conditions
from wfhsim.phase_metrology import asd, overlapping_allan, rms_phase
from wfhsim.wf_receiver import WfReceiverParams

# verdict lines collected by the acceptance tests, echoed after the run
ACCEPTANCE_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)

# Canonical operating-point parameters used across the suite.
ALPHA = 2.04
LO_AMPLITUDE = 3.53
SIG_MEAN = 4.13
LO_MEAN = 12.5


@pytest.fixture
def qpsk():
    return build_psk(4, ALPHA)


@pytest.fixture
def bpsk():
    # antipodal binary encoding {0, pi}
    return build_psk(2, ALPHA, 0.0)


@pytest.fixture
def receiver():
    return WfReceiverParams(lo_amplitude=LO_AMPLITUDE)


@pytest.fixture
def lab_bpsk():
    return build_psk(2, math.sqrt(SIG_MEAN), 0.0)


@pytest.fixture
def lab_receiver():
    return WfReceiverParams(lo_amplitude=math.sqrt(LO_MEAN))


@dataclass
class LockStudy:
    """Per-condition results of the shipped lock study, one list entry a seed."""

    config: RunConfig
    rms: dict = field(default_factory=dict)
    allan: dict = field(default_factory=dict)
    spectra: dict = field(default_factory=dict)
    freqs: object = None


@pytest.fixture(scope="session")
def default_lock_study():
    """The shipped four-condition lock study (10 seeds, 60 s at 1e-4 s), run once.

    Criterion 10 and the lock RMS calibration test both read it.  Each seed's
    traces are reduced to RMS, Allan deviation and ASD and then dropped.
    """
    config = load_config()
    dt = float(config["lock.dt_s"])
    ms = config.lock_taus()
    seg = int(round(float(config["lock.asd_segment_s"]) / dt))
    study = LockStudy(config=config)
    for seed in range(int(config["lock.n_seeds"])):
        traces = four_conditions(
            config.noise_model(seed=int(config["lock.seed"]) + seed),
            config.pi_fast(),
            float(config["lock.duration_s"]),
            dt,
            actuator=config.actuator(),
        )
        for label, trace in traces.items():
            study.rms.setdefault(label, []).append(rms_phase(trace))
            study.allan.setdefault(label, []).append(overlapping_allan(trace, ms).adev)
            spectrum = asd(trace, seg, float(config["lock.asd_overlap"]))
            study.spectra.setdefault(label, []).append(spectrum.asd)
            study.freqs = spectrum.freqs
    return study
