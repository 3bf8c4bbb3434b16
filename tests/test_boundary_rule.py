"""The boundary, not the family name, picks the Poisson-integral rule: every U(1) boundary (the
disk's and type I_{1,1}'s) gets the exact circle rule and draws no Haar block, and
``check-hua-integral`` gates both alike on the relative difference."""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np
import pytest

import tubekernels.cli as cli
import tubekernels.shilov as shilov
from tubekernels.domains import DomainSpec, LineBundleParams
from tubekernels.radial import _ONE


@pytest.fixture
def no_haar(monkeypatch):
    """Fail any run that draws a Haar block."""
    monkeypatch.setattr(shilov, "_haar_block", lambda *args: pytest.fail(f"a Haar block was drawn: {args}"))


def _report(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    assert err.getvalue() == "", err.getvalue()
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize("point", [
    ["--lambda", "0.8", "--nu", "1", "--t", "0.5"],
    ["--lambda", "0.9+0.3j", "--t", "0.3"],
    ["--lambda", "1.7", "--nu", "2", "--t", "0.8"],
])
def test_type_one_at_n_1_and_the_disk_give_the_same_report_bit_for_bit(no_haar, point):
    disk_code, disk = _report(["check-hua-integral", "--domain", "disk", *point])
    type_i_code, type_i = _report(["check-hua-integral", "--domain", "typeI", "--n", "1", *point])
    assert disk_code == type_i_code == cli.EXIT_PASS
    for key in ("lhs", "rhs", "rel_diff", "abs_diff", "pass"):
        assert type_i[key] == disk[key], key
    assert type_i["lhs"]["stderr"] == 0.0 and "z_score" not in type_i


def test_poisson_transform_on_type_one_at_n_1_is_exact_and_draws_no_block(no_haar):
    params, z = LineBundleParams(lam=0.8 + 0.1j, nu=1), np.array([[0.4]], dtype=complex)
    type_i = shilov.poisson_transform(DomainSpec.type_i(1), params, _ONE, z, 200_000, 5)
    disk = shilov.poisson_transform(DomainSpec.disk(), params, _ONE, z, 200_000, 5)
    assert type_i.stderr == 0.0 and type_i.samples == 512
    assert type_i.mean == disk.mean

