"""Tests of the benchmark itself: output contract, gates and tracing.

Run from the repository root with ``python -m pytest bench/tests -q``.
The smoke runs use tiny grids and short cycles, so they check names, units
and plumbing, not performance.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class TinyLineRecon(workloads.LineRecon):
    TARGETS = (1, 2)
    cycle = 2
    pool = 4


class TinyLsSolve(workloads.LsSolve):
    N = 10
    pool = 4


class TinyGklTable(workloads.GklTable):
    N = 8
    POINTS = (3, 4)
    cycle = 2
    pool = 4


TINY = {"line-recon": TinyLineRecon, "ls-solve": TinyLsSolve,
        "gkl-table": TinyGklTable}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _run(workload, trace):
    buf = io.StringIO()
    with redirect_stdout(buf):
        status = run.main(["--workload", workload, "--seed", "3",
                           "--seconds", "0.01", "--trace", str(trace)])
    lines = buf.getvalue().strip().splitlines()
    return status, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(tiny, workload, trace):
    status, lines, result = _run(workload, trace)
    assert status == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared
    for name, unit in declared.items():
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert any(line.split()[:1] == [name] and line.endswith(unit)
                   for line in lines[:-1]), name
    if not trace:
        assert all(result["metrics"][k]["value"] > 0 for k in declared)


def test_traced_spans_account_for_request_time(tiny):
    _, _, result = _run("line-recon", 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["cli.run_scenario.calls"] == m["trace.requests"] >= 2
    assert m["propagate.propagate_halfplane.calls"] >= 3
    assert 0 < m["specfun.hankel1.unique_ratio"] <= 1
    assert m["specfun.hankel1.points"] == (
        m["specfun.hankel1.points_series"] + m["specfun.hankel1.points_miller"]
        + m["specfun.hankel1.points_asym"])
    assert 0 <= m["trace.unattributed_s"] <= 0.01 * m["trace.request_wall_s"]


def test_ls_solve_counts_core_builds(tiny):
    _, _, result = _run("ls-solve", 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    # per request: one build for check_reciprocity's first solve, reused by
    # its second solve and by plane_wave_solution
    assert m["scatter.green_operator_matrix.calls"] == m["trace.requests"]
    assert m["scatter.core_hit_ratio"] == pytest.approx(2 / 3)
    assert m["scatter.dense_operator_bytes"] == 16 * (10 * 10) ** 2


def _snapshot():
    import imfield
    mods = [m for k, m in sorted(sys.modules.items())
            if k == "imfield" or k.startswith("imfield.")]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()
            if callable(v)}
    snap[("LineTrace", "psi")] = imfield.LineTrace.__dict__["psi"]
    return snap


def test_tracing_restores_the_library():
    import imfield.cli  # noqa: F401
    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _snapshot()
        changed = {k for k in before if during[k] is not before[k]}
        assert ("imfield.scatter", "hankel1") in changed
        assert ("imfield.propagate", "propagate_halfplane") in changed
        assert ("LineTrace", "psi") in changed
        with pytest.raises(ValueError):
            tracer.run_request(0, imfield.cli.load_scenario, "/nonexistent")
    finally:
        tracer.restore()
    after = _snapshot()
    assert all(after[k] is before[k] for k in before)
    assert set(after) == set(before)


def test_closed_loop_finishes_the_cost_cycle():
    class Fake:
        cycle = 3

        def check(self, i, out):
            return workloads.Verdict(failed=False)

    results = run.closed_loop(Fake(), lambda i: None, 0.0)
    assert [i for i, _, _ in results] == [0, 1, 2]


# ----------------------------------------------------------- the gates


def _perturb_csv(path, column, value):
    rows = list(csv.reader(path.open()))
    k = rows[0].index(column)
    rows[1][k] = repr(value(float(rows[1][k])))
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _rejected(verdict, wrong):
    return (verdict.failed and verdict.stage == "check"
            and verdict.wrong is wrong)


def test_line_recon_gate_rejects_a_perturbed_result(tmp_path):
    wl = TinyLineRecon(3, tmp_path)
    wl.setup()
    out = wl.run(0)
    assert not wl.check(0, out).failed
    results = out.out_dir / "results.csv"
    _perturb_csv(results, "re_psi", lambda v: 1.05 * v + 1e-3)
    assert _rejected(wl.check(0, out), wrong=False)
    _perturb_csv(results, "re_psi", lambda v: float("nan"))
    assert _rejected(wl.check(0, out), wrong=True)


def test_ls_solve_gate_rejects_a_perturbed_result(tmp_path):
    wl = TinyLsSolve(3, tmp_path)
    wl.setup()
    out = wl.run(0)
    assert not wl.check(0, out).failed
    report = out.out_dir / "report.json"
    doc = json.loads(report.read_text())
    doc["metrics"]["reciprocity_defect"] = 1e-4
    report.write_text(json.dumps(doc))
    assert _rejected(wl.check(0, out), wrong=False)
    _perturb_csv(out.out_dir / "results.csv", "re_a", lambda v: float("inf"))
    assert _rejected(wl.check(0, out), wrong=True)


def test_gkl_table_gate_rejects_a_perturbed_result(tmp_path):
    wl = TinyGklTable(3, tmp_path)
    wl.setup()
    out = wl.run(0)
    assert not wl.check(0, out).failed
    rec = out.report.recovered.copy()
    rec[0, 1] *= 1.05
    out.report = replace(out.report, recovered=rec)
    assert _rejected(wl.check(0, out), wrong=False)
    rec[0, 1] = np.nan
    assert _rejected(wl.check(0, out), wrong=True)


def test_pipeline_errors_count_as_failed_not_wrong(tmp_path):
    wl = TinyLineRecon(3, tmp_path)
    wl.setup()
    out = wl.run(0)
    out.status, out.stage = 3, "trace"
    verdict = wl.check(0, out)
    assert verdict.failed and not verdict.wrong and verdict.stage == "trace"


def test_without_sources_the_benchmark_refuses_to_run(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    buf = io.StringIO()
    with redirect_stdout(buf):
        status = run.main(["--workload", "ls-solve", "--seed", "1",
                           "--seconds", "1"])
    assert status == 2 and buf.getvalue() == ""
