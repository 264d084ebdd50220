"""Uniformity tests on the unit hypercube.

The empirical process of a sample on [0,1]^p splits into one tent component
per coordinate subset; the squared L2 norms of those components drive two
consistent decision rules (min-p and sum), calibrated either by Monte Carlo
simulation of the finite-n null or by simulated tables of the limiting law.
"""

from .alternatives import (AlternativeSpec, copula_cdf, parse_alternative,
                           sample_alternative)
from .brownian import (AsymptoticNormTable, KLConfig, asymptotic_cdf,
                       asymptotic_norm_draws, default_nu_max, simulate_sheet,
                       simulate_tent, truncated_sheet_covariance,
                       truncation_tail_mean)
from .core import (MAX_DIMENSION, RandomStream, Sample, enumerate_subsets,
                   mask_cardinality, mask_label, mask_members, subset_count,
                   uniform_sample)
from .decompose import (GridFunction, RampComponent, decompose, grid_coords,
                        ramp_values, reconstruct, tent_bound_constant)
from .inference import (NullReference, TestReport, asymptotic_test,
                        build_asymptotic_tables, build_null_reference,
                        load_reference, load_table, m_test, phat,
                        reference_filename, render_report, report_json,
                        run_tests, s_test, save_reference, save_table,
                        table_filename)
from .power import (PowerEstimate, PowerExperiment, estimate_power, rows_to_csv,
                    run_single, run_table)
from .special import chisq_quantile, normal_cdf
from .tents import all_tent_norms, null_norm_mean, pair_factor, tent_eval, tent_norm

__version__ = "0.1.0"

__all__ = [
    "AlternativeSpec", "AsymptoticNormTable", "GridFunction", "KLConfig",
    "MAX_DIMENSION", "NullReference", "PowerEstimate", "PowerExperiment",
    "RampComponent", "RandomStream", "Sample", "TestReport",
    "all_tent_norms", "asymptotic_cdf", "asymptotic_norm_draws",
    "asymptotic_test", "build_asymptotic_tables", "build_null_reference",
    "chisq_quantile", "copula_cdf", "decompose", "default_nu_max",
    "enumerate_subsets", "estimate_power", "grid_coords", "load_reference",
    "load_table", "m_test", "mask_cardinality", "mask_label", "mask_members",
    "normal_cdf", "null_norm_mean", "pair_factor",
    "parse_alternative", "phat", "ramp_values", "reconstruct",
    "reference_filename", "render_report", "report_json", "rows_to_csv",
    "run_single", "run_table", "run_tests", "s_test", "sample_alternative",
    "save_reference",
    "save_table", "simulate_sheet", "simulate_tent", "subset_count",
    "table_filename", "tent_bound_constant", "tent_eval", "tent_norm",
    "truncated_sheet_covariance", "truncation_tail_mean", "uniform_sample",
]
