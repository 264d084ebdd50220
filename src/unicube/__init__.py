"""Uniformity tests on the unit hypercube.

The empirical process of a sample on [0,1]^p splits into one tent component
per coordinate subset; the squared L2 norms of those components drive two
consistent decision rules (min-p and sum), calibrated either by Monte Carlo
simulation of the finite-n null or by simulated tables of the limiting law.

The package exports the names its examples and acceptance suite use; every
other name is imported from its own module (``unicube.core``,
``unicube.tents``, ``unicube.inference``, ...).
"""

from .alternatives import AlternativeSpec
from .brownian import (AsymptoticNormTable, KLConfig, asymptotic_norm_draws, simulate_sheet,
                       truncated_sheet_covariance)
from .core import RandomStream, Sample, enumerate_subsets, mask_members, uniform_sample
from .decompose import (GridFunction, RampComponent, decompose, ramp_values, reconstruct,
                        tent_bound_constant)
from .inference import (NullReference, TestReport, asymptotic_test, build_asymptotic_tables,
                        build_null_reference, load_reference, m_test, render_report,
                        report_json, run_tests, s_test, save_reference)
from .power import PowerEstimate, PowerExperiment, estimate_power
from .tents import tent_norm

__version__ = "0.1.0"

__all__ = [
    "AlternativeSpec", "AsymptoticNormTable", "GridFunction", "KLConfig",
    "NullReference", "PowerEstimate", "PowerExperiment", "RampComponent",
    "RandomStream", "Sample", "TestReport", "asymptotic_norm_draws",
    "asymptotic_test", "build_asymptotic_tables", "build_null_reference",
    "decompose", "enumerate_subsets", "estimate_power", "load_reference",
    "m_test", "mask_members", "ramp_values", "reconstruct", "render_report",
    "report_json", "run_tests", "s_test", "save_reference", "simulate_sheet",
    "tent_bound_constant", "tent_norm", "truncated_sheet_covariance",
    "uniform_sample",
]
