"""A level's layout grows with kmax instead of being laid out again: a plan grown 20 -> 30 -> 40
equals, array by array and pass by pass, one laid out at 40 in a fresh process, and every pass
before the old last one keeps its (level, first kappa, end kappa) key."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tubekernels.partitions as partitions

SRC = Path(__file__).resolve().parents[1] / "src"
LEVELS = (2, 3, 4)
BUDGETS = (7, None)  # None: the default pass size

_FRESH = """
import json, sys
import numpy as np
import tubekernels.partitions as partitions
budget, out = int(sys.argv[1]), sys.argv[2]
partitions._PASS_ELEMENTS = budget or partitions._PASS_ELEMENTS
arrays, lists = {}, {}
for n in map(int, sys.argv[3:]):
    plan = partitions._plan(n, 40)
    arrays.update({f"{n}-{i}": v for i, v in enumerate(plan) if isinstance(v, np.ndarray)})
    lists[n] = [plan[4], plan[5]]
np.savez(out + ".npz", **arrays)
with open(out + ".json", "w") as fh:
    json.dump(lists, fh)
"""


@pytest.mark.parametrize("budget", BUDGETS)
def test_a_grown_plan_equals_one_laid_out_at_once_in_a_fresh_process(monkeypatch, tmp_path, budget):
    out = str(tmp_path / "fresh")
    subprocess.run([sys.executable, "-c", _FRESH, str(budget or 0), out, *map(str, LEVELS)], check=True,
                   env={"PYTHONPATH": str(SRC), "PATH": ""})
    arrays, lists = np.load(out + ".npz"), json.load(open(out + ".json"))
    monkeypatch.setattr(partitions, "_PLANS", {})
    if budget is not None:
        monkeypatch.setattr(partitions, "_PASS_ELEMENTS", budget)
    walked, lay_out = [], partitions._passes  # the kappas each _passes call lays out

    def spy(width, *rest):
        walked.append(len(width))
        return lay_out(width, *rest)

    monkeypatch.setattr(partitions, "_passes", spy)
    for n in LEVELS:
        old = None
        for kmax in (20, 30, 40):
            plan = partitions._plan(n, kmax)
            if old is not None:  # earlier passes stand; only the kappas from the old last pass are laid out
                assert plan[5][:len(old[5]) - 1] == old[5][:-1], (n, kmax)
                assert (plan[0][:, :old[0].shape[1]] == old[0]).all()
                assert walked[-1] == plan[0].shape[1] - old[5][-1][0], (n, kmax)
            old = plan
        assert len(plan) == 8 and partitions._plan(n, 40) is plan and partitions._plan(n, 25) is plan
        for i, value in enumerate(plan):
            if isinstance(value, np.ndarray):
                want = arrays[f"{n}-{i}"]
                assert value.dtype == want.dtype and value.shape == want.shape, (n, i)
                assert (value == want).all(), (n, i)
        first, passes = lists[str(n)]
        assert plan[4] == first and plan[5] == [tuple(p) for p in passes], n
