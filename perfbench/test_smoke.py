"""Smoke test of the benchmark itself: every workload at a tiny size, untraced and traced.

    python3 perfbench/test_smoke.py
    python3 -m pytest -q perfbench/test_smoke.py

Asserts that every end-to-end and per-layer metric is reported under its
name with its unit, that the tiny suite has fail_ratio 0, that the result
line has exactly the keys the benchmark contract names, and that tracing
puts back every attribute it wraps.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "wall_s": "s", "ops_per_s": "ops/s", "op_p50_s": "s", "op_tail_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB",
}

PER_LAYER = {
    "partitions.jack_table.calls": "count",
    "partitions.jack_table.self_s": "s",
    "partitions.jack_table.cache_hit_ratio": "1",
    "partitions.jack_table.entries_built": "count",
    "partitions.jack_table.used_ratio": "1",
    **{f"partitions.jack_table.self_s.{cell}": "s" for cell in tracing.JACK_CELLS},
    "hypergeom.series.calls": "count",
    "hypergeom.series.self_s": "s",
    "hypergeom.series.shells": "count",
    "hypergeom.series.unconverged": "count",
    "hypergeom.classical.calls": "count",
    "hypergeom.classical.self_s": "s",
    "radial.spherical_F.calls": "count",
    "radial.spherical_F.self_s": "s",
    "radial.fd_stencil.calls": "count",
    "radial.fd_stencil.self_s": "s",
    "radial.fd_stencil.series_per_residual": "1",
    "radial.quadrature.calls": "count",
    "radial.quadrature.self_s": "s",
    "shilov.haar_block.count": "count",
    "shilov.haar_block.busy_s": "s",
    "shilov.integrand.busy_s": "s",
    "shilov.merge.self_s": "s",
    "shilov.estimate.wall_s": "s",
    "shilov.samples": "count",
    "shilov.samples_per_s": "1/s",
    "shilov.busy_ratio": "1",
    "schur.phi_m_batch.calls": "count",
    "schur.phi_m_batch.busy_s": "s",
    "schur.eigvals.busy_s": "s",
    "schur.collision_fallbacks": "count",
    "schur.det_formula.self_s": "s",
    "domains.kernel_batch.calls": "count",
    "domains.kernel_batch.busy_s": "s",
    "domains.covariance.self_s": "s",
    **{f"cli.{c}.calls": "count" for c in tracing.COMMANDS},
    **{f"cli.{c}.wall_s": "s" for c in tracing.COMMANDS},
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def _metrics_of(line):
    doc = json.loads(line)
    assert sorted(doc) == ["attempted", "correct", "failed", "metrics"]
    assert isinstance(doc["attempted"], int) and doc["attempted"] >= 1
    return doc


def test_untraced_workloads():
    for name in workloads.WORKLOADS:
        rep = run.run_workload(name, 1, 0, trace=False, tiny=True)
        doc = _metrics_of(run.result_line([rep], trace=False))
        assert {k: v["unit"] for k, v in doc["metrics"].items()} == END_TO_END, name
        assert all(v["value"] > 0 for v in doc["metrics"].values()), name
        assert rep["provenance"]["inputs_sha256"] == workloads.build(name, 1, run.ROOT, tiny=True).digest()
        if name == "suite":
            assert rep["fail_ratio"] == 0, rep["failures"]


def test_traced_workloads():
    for name in workloads.WORKLOADS:
        rep = run.run_workload(name, 1, 0, trace=True, tiny=True)
        assert rep["restored"] is True, name
        doc = _metrics_of(run.result_line([rep], trace=True))
        units = {k: v["unit"] for k, v in doc["metrics"].items()}
        missing = {k: u for k, u in PER_LAYER.items() if units.get(k) != u}
        assert not missing, (name, missing)


def test_install_restores_in_process():
    import numpy.linalg

    import tubekernels.cli as cli
    import tubekernels.hypergeom as hypergeom
    import tubekernels.shilov as shilov

    watched = [(cli, "phi_m_batch"), (hypergeom, "jack_C_all"), (shilov, "_run_blocks"), (numpy.linalg, "eigvals")]
    before = [getattr(owner, key) for owner, key in watched]
    runners = dict(cli._RUNNERS)
    undo = tracing.install(tracing.Recorder())
    assert all(getattr(owner, key) is not orig for (owner, key), orig in zip(watched, before))
    assert undo() is True
    assert all(getattr(owner, key) is orig for (owner, key), orig in zip(watched, before))
    assert cli._RUNNERS == runners and all(cli._RUNNERS[k] is v for k, v in runners.items())


def test_tail_percentile():
    assert run.percentile(list(range(100)), 90) == 89  # 10 ops (90..99) beyond
    assert [run.tail_percentile(n) for n in (19, 20, 144)] == [73, 75, 96]
    for name in ("series-r3", "mc-single", "radial-fd"):
        n = len(workloads.build(name, 1, run.ROOT).ops) * run.MIN_PASSES
        p = run.tail_percentile(n // run.MIN_PASSES)
        assert p > 50 and n - run.percentile(list(range(n)), p) - 1 >= 10, name


if __name__ == "__main__":
    for test in (test_tail_percentile, test_install_restores_in_process, test_untraced_workloads, test_traced_workloads):
        test()
        print(f"ok  {test.__name__}")
