"""Values that have one source: Jack values are table entries, the disk's Casimir
constant is the general one, and counts below 1 are bad arguments."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from tubekernels.cli import main
from tubekernels.domains import DomainSpec, LineBundleParams, casimir_eigenvalue, check_admissibility
from tubekernels.partitions import Partition, enumerate_partitions, jack_C, jack_C_all

ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# jack_C is the matching entry of jack_C_all
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.7])
@pytest.mark.parametrize("x, kmax", [((0.6,), 40), ((-0.83,), 40), ((0.6, 0.3), 12), ((0.9, -0.45), 12)])
def test_jack_C_is_its_table_entry_bitwise(alpha, x, kmax):
    table = jack_C_all(alpha, x, kmax)
    for k in range(kmax + 1):
        for kappa in enumerate_partitions(k, len(x)):
            assert jack_C(kappa, alpha, x).hex() == float(table[kappa.parts]).hex(), kappa


def test_jack_C_reaches_the_rank2_table_cap():
    x = (0.6, 0.3)
    value = jack_C(Partition((100, 50)), 1.0, x)
    assert value.hex() == float(jack_C_all(1.0, x, 150)[(100, 50)]).hex()
    assert value != 0.0


def test_jack_C_of_a_too_long_partition_is_zero():
    assert jack_C(Partition((1, 1, 1)), 1.0, (0.6, 0.3)) == 0.0
    assert jack_C(Partition((1,)), 1.0, ()) == 0.0
    assert jack_C(Partition(()), 1.0, ()) == 1.0


# ---------------------------------------------------------------------------
# one spectral constant
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lam", [2.0 + 0j, 0.9 + 0.3j, -1.7 + 2.5j, 1j, 1e-9 + 0j])
def test_disk_casimir_constant_is_the_general_one_bitwise(lam):
    eig = casimir_eigenvalue(DomainSpec.disk(), LineBundleParams(lam, 0))
    want = (lam**2 - 1.0) / 4.0
    assert (eig.real.hex(), eig.imag.hex()) == (want.real.hex(), want.imag.hex())


@pytest.mark.parametrize("lam, nu, cond13, cond14", [
    (-1.0, 0, False, True),   # -lam - 0 = 1 at j = 0
    (-2.0, 0, False, False),  # and -lam + eta - |nu| = 4 at n = 2 (eta = 2)
    (-0.5, 1, True, True),    # 1.5 is no multiple of 1; -lam + 1 = 1.5 is no even integer
    (0.0, 0, True, False),    # eta = 2 is a positive even integer
    (-1.0 + 1e-6j, 0, True, True),
])
def test_admissibility_multiples_at_type_i_2(lam, nu, cond13, cond14):
    rep = check_admissibility(DomainSpec.type_i(2), LineBundleParams(lam, nu))
    assert (rep.condition_13, rep.condition_14) == (cond13, cond14)


# ---------------------------------------------------------------------------
# inputs that have no answer or are bad arguments
# ---------------------------------------------------------------------------


def _error_line(err: str) -> str:
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


def test_non_finite_schur_determinant_exits_2_before_sampling():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    argv = ["check-schur-det", "--n", "2", "--sig", "1,0", "--lambda=-602", "--t", "2", "--samples", "2000"]
    proc = subprocess.run([sys.executable, "-m", "tubekernels.cli", *argv], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "determinant formula is non-finite" in _error_line(proc.stderr)


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_check_covariance_without_trials_exits_3(trials, capsys):
    assert main(["check-covariance", "--n", "2", "--lambda", "0.8", "--trials", trials]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "trials must be >= 1" in _error_line(err)


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_check_hua_integral_without_workers_exits_3(workers, capsys):
    argv = ["check-hua-integral", "--domain", "typeI", "--n", "2", "--lambda", "0.7", "--t", "0.2,0.5",
            "--samples", "1000", f"--workers={workers}"]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "workers must be >= 1" in _error_line(err)
