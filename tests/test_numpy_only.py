"""NumPy is the only runtime dependency, and three facts have one implementation each:
the group exponential is a NumPy series, the Weyl dimension an integer quotient, and
unitarity one test at one tolerance."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from tubekernels import cli, radial
from tubekernels.cli import main
from tubekernels.domains import KernelPoint, random_group_element
from tubekernels.errors import InvalidArgumentError
from tubekernels.schur import SignatureM, phi_m, weyl_dim

ROOT = Path(__file__).resolve().parents[1]


def test_check_covariance_runs_without_scipy():
    code = ("import sys; sys.modules['scipy'] = None; from tubekernels.cli import main; "
            "sys.exit(main(['check-covariance', '--n', '2', '--lambda', '0.8', '--trials', '3']))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert '"pass": true' in proc.stdout


def _lie_element(n: int, rng: np.random.Generator) -> np.ndarray:
    """The algebra element random_group_element exponentiates, drawn in its order."""
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    xi = np.block([[0.5 * (x - x.conj().T), b], [b.conj().T, 0.5 * (y - y.conj().T)]])
    nrm = np.linalg.norm(xi, 2)
    return xi * (0.5 / nrm) if nrm > 0.5 else xi


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("seed", range(10))
def test_the_group_element_is_the_exponential_to_40_digits(n, seed):
    g = random_group_element(n, np.random.default_rng(seed))
    xi = _lie_element(n, np.random.default_rng(seed))
    with mpmath.workdps(40):
        exact = mpmath.expm(mpmath.matrix(xi.tolist()))
        ref = np.array([[complex(exact[i, j]) for j in range(2 * n)] for i in range(2 * n)])
    assert np.max(np.abs(g - ref)) <= 2e-15
    j = np.diag([1.0] * n + [-1.0] * n)
    assert np.max(np.abs(g.conj().T @ j @ g - j)) <= 1e-14


def test_weyl_dim_is_the_rational_product():
    rng = np.random.default_rng(20240314)
    for _ in range(2000):
        n = int(rng.integers(1, 9))
        parts = sorted(rng.integers(-200, 201, size=n).tolist(), reverse=True)
        exact = Fraction(1)
        for i in range(n):
            for j in range(i + 1, n):
                exact *= 1 + Fraction(parts[i] - parts[j], j - i)
        d = weyl_dim(SignatureM(parts))
        assert type(d) is int and d == exact, parts


def _unitary_times(scale: float) -> np.ndarray:
    c, s = np.cos(0.4), np.sin(0.4)
    return scale * np.array([[c, -s], [s, c]], dtype=complex)


def test_one_unitarity_tolerance_for_kernel_points_and_characters():
    u = _unitary_times(1.0 + 2.5e-11)  # max|u u* - I| = 5e-11
    with pytest.raises(InvalidArgumentError, match=r"5e-11 exceeds 1e-12"):
        KernelPoint(0.3 * np.eye(2), u)
    with pytest.raises(InvalidArgumentError, match=r"5e-11 exceeds 1e-12"):
        phi_m(SignatureM((1, 0)), u)
    inside = _unitary_times(1.0 + 2.5e-13)
    KernelPoint(0.3 * np.eye(2), inside)
    assert abs(phi_m(SignatureM((1, 0)), inside) - np.cos(0.4)) < 1e-12


def _third_party_imports() -> set[str]:
    found = set()
    for path in (ROOT / "src" / "tubekernels").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.partition(".")[0])
    return found - set(sys.stdlib_module_names) - {"tubekernels"}


def test_the_runtime_dependencies_are_the_imported_modules():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower() for dep in deps}
    assert names == _third_party_imports() == {"numpy"}


@pytest.mark.parametrize("argv, stderr, bound", [
    (["check-hua-integral", "--domain", "typeI", "--n", "2", "--lambda", "0.7", "--nu", "2", "--t", "0.2,0.5"],
     "0.128", "0.0509"),
    (["check-schur-det", "--n", "2", "--sig", "1,0", "--lambda", "0.5", "--t", "0.4"], "0.0715", "0.05"),
])
def test_an_estimate_too_noisy_for_its_gate_exits_2(argv, stderr, bound, capsys):
    assert main(argv + ["--samples", "64"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("error: ")
    assert f"stderr {stderr} exceeds" in line and f"= {bound}" in line


def test_the_disk_casimir_check_computes_its_eigenvalue_once(monkeypatch):
    calls = []

    def spy(spec, params):
        calls.append(spec.kind)
        return casimir(spec, params)

    casimir = radial.casimir_eigenvalue
    monkeypatch.setattr(radial, "casimir_eigenvalue", spy)
    monkeypatch.setattr(cli, "casimir_eigenvalue", spy)
    assert main(["check-casimir-disk", "--lambda", "2", "--z=0.3,0.1"]) == 0
    assert calls == ["disk"]
