"""The package's public surface: what ``unicube`` exports and who imports it."""

import re
from pathlib import Path

import pytest

import unicube

ROOT = Path(__file__).resolve().parent.parent

# The names a README example, the CI workflow or the acceptance suite import
# from ``unicube``, and the classes those functions return.
PUBLIC = [
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

_IMPORT = re.compile(r"from unicube import (\([^)]*\)|[\w, ]+)")


def imported_names(text):
    """Every name of every ``from unicube import ...`` in ``text``."""
    return {name.strip() for group in _IMPORT.findall(text)
            for name in group.strip("()").split(",") if name.strip()}


def test_all_is_pinned():
    assert sorted(unicube.__all__) == PUBLIC


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from unicube import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == PUBLIC


@pytest.mark.parametrize("path", ["README.md", ".github/workflows/tests.yml",
                                  "tests/test_acceptance.py"])
def test_every_documented_import_is_exported(path):
    names = imported_names((ROOT / path).read_text(encoding="utf-8"))
    assert names, f"{path} imports nothing from unicube"
    assert names <= set(unicube.__all__), sorted(names - set(unicube.__all__))
