"""Every size key has an upper bound, stated once on its key: a value past it exits 3 with one
`error:` line before any command runs, allocates or starts a thread."""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

import pytest

import tubekernels.cli as cli
import tubekernels.shilov as shilov
from tubekernels.errors import InvalidArgumentError

HUA = ["check-hua-integral", "--domain", "typeI", "--n", "2", "--lambda", "0.7", "--t", "0.2,0.5", "--samples", "2000"]
SCHUR = ["check-schur-det", "--n", "2", "--sig", "1,0", "--lambda", "0.5", "--t", "0.4", "--samples", "2000"]
COVARIANCE = ["check-covariance", "--n", "2", "--lambda", "0.8"]


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


class _NoPool:
    """Stands in for ThreadPoolExecutor: records the pool asked for and starts no thread."""

    asked = []

    def __init__(self, max_workers):
        self.asked.append(max_workers)
        raise RuntimeError("no pool in this test")


@pytest.fixture
def no_pool(monkeypatch):
    monkeypatch.setattr(shilov, "ThreadPoolExecutor", _NoPool)
    monkeypatch.setattr(_NoPool, "asked", [])
    return _NoPool.asked


def _refuse(monkeypatch, *names):
    """Make the named cli functions fail if a run reaches them."""
    for name in names:
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("the run started"))


def test_each_bound_is_stated_once_on_its_key():
    assert cli._KEYS["workers"].bounds == (1, shilov.MAX_WORKERS)
    assert cli._KEYS["trials"].bounds[0] == 1 and cli._KEYS["n"].bounds[1] >= 8  # the config fuzz draws up to 8
    for command, schema in cli._SCHEMA.items():
        for name, key in schema.items():
            assert key.bounds is cli._KEYS[name].bounds, (command, name)


@pytest.mark.parametrize("argv,line", [
    (COVARIANCE[:2] + ["20000"] + COVARIANCE[3:] + ["--trials", "1"], "error: n must be <= 8, got 20000"),
    (COVARIANCE + ["--trials", "10001"], "error: trials must be <= 10000, got 10001"),
    (COVARIANCE + ["--trials", "0"], "error: trials must be >= 1, got 0"),
    (HUA[:4] + ["9"] + HUA[5:], "error: n must be <= 8, got 9"),
    (HUA + ["--workers", str(shilov.MAX_WORKERS + 1)],
     f"error: workers must be <= {shilov.MAX_WORKERS}, got {shilov.MAX_WORKERS + 1}"),
    (SCHUR + ["--workers", "1000000"], f"error: workers must be <= {shilov.MAX_WORKERS}, got 1000000"),
    (["table", "--n", "100"], "error: n must be <= 8, got 100"),
])
def test_a_size_past_its_bound_exits_3_before_the_run(monkeypatch, no_pool, argv, line):
    _refuse(monkeypatch, "random_group_element", "DomainSpec", "mc_integrate_vector", "poisson_transform",
            "families_at")
    assert _call(argv) == (cli.EXIT_BAD_ARGS, "", line + "\n")
    assert no_pool == []


def test_a_suite_entry_past_a_bound_stops_the_suite_before_anything_runs(monkeypatch, no_pool):
    ran = []
    monkeypatch.setitem(cli._RUNNERS, "table", lambda cfg: ran.append(cfg) or ({}, None, 0))
    doc = {"experiments": [{"command": "table", "n": 2},
                           {"command": "check-hua-integral", "domain": "typeI", "n": 2, "lambda": 0.7,
                            "t": [0.2, 0.5], "workers": 64}]}
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(doc, fh)
    try:
        code, out, err = _call(["suite", "--config", fh.name])
    finally:
        os.unlink(fh.name)
    assert (code, out, ran, no_pool) == (cli.EXIT_BAD_ARGS, "", [], [])
    assert err.count("\n") == 1 and err.startswith("error: suite experiment 1")
    assert f"workers must be <= {shilov.MAX_WORKERS}, got 64" in err


@pytest.mark.parametrize("workers", [0, shilov.MAX_WORKERS + 1, 1 << 15])
def test_the_library_asks_no_pool_past_the_workers_bound(no_pool, workers):
    with pytest.raises(InvalidArgumentError, match=f"^workers must be >= 1 and <= {shilov.MAX_WORKERS}, got"):
        shilov.mc_integrate_vector(lambda us: us[:, 0, 0], 2, shilov.MAX_SAMPLES, 1, workers=workers)
    assert no_pool == []


@pytest.mark.parametrize("workers", [1, shilov.MAX_WORKERS])
def test_a_pool_within_the_bound_is_asked_for_exactly_its_workers(no_pool, workers):
    with pytest.raises(RuntimeError, match="no pool in this test"):
        shilov.mc_integrate_vector(lambda us: us[:, 0, 0], 2, 4096, 1, workers=workers)
    assert no_pool == [workers]


def test_the_largest_sizes_are_accepted():
    cfg = cli._resolve("check-hua-integral", {"domain": "typeI", "n": 8, "lambda": 0.7, "t": [0.2] * 8,
                                              "workers": shilov.MAX_WORKERS})
    assert (cfg["n"], cfg["workers"]) == (8, shilov.MAX_WORKERS)
    assert cli._resolve("check-covariance", {"lambda": 0.8, "trials": 10_000})["trials"] == 10_000
    for argv in (COVARIANCE[:2] + ["8"] + COVARIANCE[3:] + ["--trials", "1"], ["table", "--n", "8"]):
        code, out, err = _call(argv)
        assert code == cli.EXIT_PASS and err == "" and json.loads(out).get("pass") is not False, argv
