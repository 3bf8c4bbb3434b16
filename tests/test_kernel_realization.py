"""Each family's kernel realization is stated once, in ``FAMILIES``: the families
without one get one refusal from every kernel entry point, and keep their invariants."""

import json

import numpy as np
import pytest

from tubekernels import shilov
from tubekernels.cli import EXIT_BAD_ARGS, EXIT_PASS, main
from tubekernels.domains import (FAMILIES, KERNEL_FAMILIES, DomainSpec, KernelPoint, LineBundleParams,
                                 casimir_eigenvalue, catalog_record, check_admissibility, families_at, hua_eigenvalue,
                                 jordan_h, poisson_kernel, poisson_kernel_batch)
from tubekernels.errors import InvalidArgumentError
from tubekernels.radial import _ONE

# The families with no kernel realization, each at a size where it has a record.
CATALOG_ONLY = [("typeII", 2), ("typeIII", 3), ("typeIV", 6), ("e7", 1)]
PARAMS = LineBundleParams(lam=0.9, nu=1)


def _point(spec):
    """A diagonal interior point and the identity boundary point at the family's rank."""
    r = spec.rank
    return np.diag(np.linspace(0.3, 0.1, r)).astype(complex), np.eye(r, dtype=complex)


ENTRY_POINTS = {
    "jordan_h": lambda spec, z, u: jordan_h(spec, z, u),
    "poisson_kernel_batch": lambda spec, z, u: poisson_kernel_batch(spec, PARAMS, z, u[None]),
    "poisson_kernel": lambda spec, z, u: poisson_kernel(spec, PARAMS, KernelPoint(z, u)),
    "KernelPoint": lambda spec, z, u: KernelPoint(z, u, spec),
}


@pytest.mark.parametrize("kind, n", CATALOG_ONLY)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_kernel_entry_point_refuses_a_family_without_a_realization(kind, n, entry):
    spec = DomainSpec.of(kind, n)
    z, u = _point(spec)
    with pytest.raises(InvalidArgumentError, match=f"^{kind} has no kernel realization"):
        ENTRY_POINTS[entry](spec, z, u)


@pytest.mark.parametrize("kind, n", CATALOG_ONLY)
def test_poisson_transform_refuses_before_drawing_a_block(kind, n, monkeypatch):
    drawn = []
    monkeypatch.setattr(shilov, "_haar_block", lambda *args: drawn.append(args))
    spec = DomainSpec.of(kind, n)
    z, _ = _point(spec)
    with pytest.raises(InvalidArgumentError, match=f"^{kind} has no kernel realization"):
        shilov.poisson_transform(spec, PARAMS, _ONE, z, 1000, 1)
    assert drawn == []


@pytest.mark.parametrize("kind, n", CATALOG_ONLY)
def test_the_invariants_hold_for_a_family_without_a_realization(kind, n, capsys):
    spec = DomainSpec.of(kind, n)
    eta = 0.5 * spec.multiplicity * (spec.rank - 1) + 1.0
    constant = PARAMS.lam**2 - (eta - PARAMS.nu) ** 2
    assert hua_eigenvalue(spec, PARAMS) == constant / (4.0 * spec.genus)
    assert casimir_eigenvalue(spec, PARAMS) == constant / (4.0 * spec.rank)
    assert check_admissibility(spec, PARAMS).admissible
    assert main(["table", "--domain", kind, "--n", str(n), "--lambda", "0.9", "--nu", "1"]) == EXIT_PASS
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert row["kind"] == kind and row["has_kernel"] is False
    assert row["hua_eigenvalue"]["re"] == hua_eigenvalue(spec, PARAMS).real


def test_kernel_families_has_kernel_and_matrix_size_all_read_the_table():
    assert KERNEL_FAMILIES == ("disk", "typeI")  # the values of cli's domain key
    for n in range(1, 5):
        for kind in families_at(n):
            side = FAMILIES[kind](n)[2]
            assert (kind in KERNEL_FAMILIES) is (side > 0), (kind, n)
            assert catalog_record(kind, n)["has_kernel"] is (side > 0), (kind, n)
            assert DomainSpec.of(kind, n).matrix_size == side, (kind, n)
            assert side == {"disk": 1, "typeI": n}.get(kind, 0), (kind, n)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("nodes", [shilov.MAX_NODES + 1, 10**20])
def test_a_nodes_count_the_quadrature_cannot_build_exits_3(capsys, nodes):
    code, out, err = _run(capsys, "check-casimir-disk", "--lambda", "2", "--z", "0.3,0.1", "--nodes", str(nodes))
    assert code == EXIT_BAD_ARGS
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and str(nodes) in err


def test_a_bare_number_z_is_a_point_on_the_real_axis(capsys):
    code, out, err = _run(capsys, "check-casimir-disk", "--lambda", "2", "--z", "0.3")
    assert code == EXIT_PASS and err == ""
    bare = json.loads(out)
    assert bare["config"]["z"] == {"re": 0.3, "im": 0.0}
    code, out, _ = _run(capsys, "check-casimir-disk", "--lambda", "2", "--z", "0.3,0")
    pair = json.loads(out)
    for report in (bare, pair):
        del report["wall_time_s"]
    assert code == EXIT_PASS and bare == pair
