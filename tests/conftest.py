import math
from dataclasses import dataclass, field

import pytest

from wfhsim.cli import _lock_runs
from wfhsim.config import RunConfig, load_config
from wfhsim.constellation import build_psk
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

    Criterion 10 and the lock RMS calibration test both read it.  The traces
    run on the pool as in ``wfhsim lock``; each is reduced to RMS, Allan
    deviation and ASD, in seed order, and then dropped.
    """
    config = load_config()
    study = LockStudy(config=config)
    runs = _lock_runs(config)
    for label, results in runs.items():
        study.rms[label] = [r for _, _, r in results]
        study.allan[label] = [allan.adev for allan, _, _ in results]
        study.spectra[label] = [spectrum.asd for _, spectrum, _ in results]
        study.freqs = results[0][1].freqs
    return study
