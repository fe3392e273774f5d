"""Link-level simulator for wideband time-frequency coding.

Derives scheme parameters from physical channel inputs, estimates the
symbol error probability of the non-coherent square-law receiver by
inverse-transform Monte Carlo, and converts error probability into
capacity through the symmetric DMC model, with the impulsive-FSK special
case and the Shannon AWGN baseline.

Importing the package loads the standard library alone. The Monte Carlo
sampler ``estimate_pe`` comes from ``wtfc.detector``, which imports numpy,
on first access.
"""

from .capacity import awgn_capacity, dmc_capacity
from .channel import (
    LargeScaleModel,
    deterministic_power_gain,
    shadowing_mean_power_gain,
    transmit_power,
)
from .config import ConfigError, RunConfig
from .errorlaw import PeEstimate, analytic_pe_no_shadowing, signal_energy
from .scheme import PhysicalInputs, SchemeParams, amplitude, derive_scheme
from .sweep import SweepResult, SweepRow, SweepSpec, compare_shadowing, run_sweep

__version__ = "0.1.0"

__all__ = [
    "PhysicalInputs",
    "SchemeParams",
    "derive_scheme",
    "amplitude",
    "LargeScaleModel",
    "deterministic_power_gain",
    "transmit_power",
    "shadowing_mean_power_gain",
    "PeEstimate",
    "signal_energy",
    "estimate_pe",
    "analytic_pe_no_shadowing",
    "dmc_capacity",
    "awgn_capacity",
    "SweepSpec",
    "SweepRow",
    "SweepResult",
    "run_sweep",
    "compare_shadowing",
    "ConfigError",
    "RunConfig",
    "__version__",
]

# Re-exported from wtfc.detector on first access (PEP 562), so that
# ``import wtfc`` does not import numpy.
_SAMPLER_NAMES = ("estimate_pe",)


def __getattr__(name: str):
    if name in _SAMPLER_NAMES:
        from . import detector

        return getattr(detector, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SAMPLER_NAMES))
