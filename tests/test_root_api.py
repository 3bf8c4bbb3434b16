"""The package root re-exports every public name of its modules, each as the module's own object."""

import importlib
from pathlib import Path

import pytest

import tubekernels
from tubekernels import cli

ROOT = Path(__file__).resolve().parents[1]

# The root's __all__ before it was built from the modules' lists, by module.
_PUBLISHED = {
    "partitions": ["Partition", "JackParameter", "enumerate_partitions", "gen_pochhammer", "jack_C"],
    "hypergeom": ["HyperParams", "SeriesResult", "hyp2f1_multi", "hyp2f1_classical", "euler_transform_check"],
    "domains": ["DomainSpec", "LineBundleParams", "KernelPoint", "jordan_h", "poisson_kernel", "hua_eigenvalue",
                "casimir_eigenvalue", "check_admissibility", "moebius_typeI", "cocycle_j"],
    "shilov": ["McEstimate", "BoundaryFunction", "haar_unitary", "mc_integrate", "circle_quadrature",
               "poisson_transform"],
    "schur": ["SignatureM", "weyl_dim", "schur_char", "phi_m", "phi_lambda_k", "det_formula_rhs"],
    "radial": ["SphericalParams", "RadialPoint", "spherical_F", "spherical_F_xform", "hua_radial_residual",
               "x_system_residual", "disk_casimir_residual"],
}


def test_every_name_the_root_published_is_its_modules_object():
    for module, names in _PUBLISHED.items():
        source = importlib.import_module(f"tubekernels.{module}")
        for name in names:
            assert name in tubekernels.__all__, name
            assert getattr(tubekernels, name) is getattr(source, name), name


def test_root_all_is_the_modules_lists_after_the_version():
    assert tubekernels.__all__[0] == "__version__"
    assert len(set(tubekernels.__all__)) == len(tubekernels.__all__)
    for module in _PUBLISHED:
        source = importlib.import_module(f"tubekernels.{module}")
        assert set(source.__all__) <= set(tubekernels.__all__), module
    namespace = {}
    exec("from tubekernels import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(tubekernels.__all__)


def test_the_console_script_is_cli_main():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["tubekernels"]
    module, _, attr = target.partition(":")
    entry = getattr(importlib.import_module(module), attr)
    assert entry is cli.main
    assert entry(["table", "--n", "3"]) == 0
