"""Inputs that once ended in a pass with nothing checked: a NaN covariance residual
and a disk integral asked to run on fewer than one worker."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tubekernels.cli import main
from tubekernels.domains import DomainSpec, LineBundleParams, kernel_covariance_residual, random_group_element
from tubekernels.errors import InvalidArgumentError, NonFiniteResultError
from tubekernels.shilov import BoundaryFunction, haar_unitary, philox_generator, poisson_transform

ROOT = Path(__file__).resolve().parents[1]


def test_a_non_finite_covariance_residual_exits_2_without_a_warning():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    argv = ["check-covariance", "--n", "2", "--lambda", "0.8", "--nu", "1578", "--trials", "1"]
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "tubekernels.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 2
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: ") and "non-finite" in line


def test_kernel_covariance_residual_raises_instead_of_returning_nan():
    # the first trial of `check-covariance --n 2` at its default seed
    rng = philox_generator(20240314, 0xC0C1)
    g = random_group_element(2, rng)
    random_group_element(2, rng)
    w = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    z = 0.7 * rng.uniform(0.2, 1.0) * w / np.linalg.norm(w, 2)
    u = haar_unitary(2, rng)
    spec = DomainSpec.type_i(2)
    assert kernel_covariance_residual(spec, LineBundleParams(0.8, 1), g, z, u) < 1e-8
    with np.errstate(all="raise"), pytest.raises(NonFiniteResultError):
        kernel_covariance_residual(spec, LineBundleParams(0.8, 1578), g, z, u)


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_disk_hua_integral_without_workers_exits_3(workers, capsys):
    argv = ["check-hua-integral", "--domain", "disk", "--lambda", "0.7", "--t", "0.2", f"--workers={workers}"]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("error: ") and "workers must be >= 1" in line


@pytest.mark.parametrize("workers", [0, -1])
def test_disk_poisson_transform_rejects_workers_below_1(workers):
    one = BoundaryFunction(fn=lambda u: 1.0, batch=lambda us: np.ones(us.shape[0]))
    with pytest.raises(InvalidArgumentError, match="workers must be >= 1"):
        poisson_transform(DomainSpec.disk(), LineBundleParams(0.7, 0), one, 0.2, 0, 0, workers=workers)


def test_an_empty_x_system_point_is_a_rank_error(capsys):
    assert main(["check-x-system", "--r", "2", "--lambda", "0.9", "--x="]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("error: ")
