"""Simulation and analysis toolkit for phase-encoded coherent-state links.

Subpackages cover constellation construction, the photon-counting
interferometric receiver and its ideal homodyne benchmark, mutual-information
and key-rate evaluation, phase metrology (Allan deviation, spectral density),
a closed-loop phase-lock simulator, and a shot-by-shot detector Monte Carlo.

The names below are re-exported from their submodules on first access, so
``import wfhsim`` loads no numpy.  That lets ``wfhsim.cli`` choose the BLAS
thread count before numpy starts its thread pool.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "constellation": (
        "Constellation", "CoherentSymbol", "apply_loss", "build_psk", "loss_db_to_transmissivity",
    ),
    "homodyne": ("hd_mutual_information",),
    "info_metrics": ("MiResult", "plugin_mi_estimate", "wf_mutual_information"),
    "security": ("KgrResult", "kgr", "vn_entropy"),
    "wf_receiver": (
        "JointPnrDistribution", "WfReceiverParams", "difference_dist", "joint_pnr_conditional",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
