import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import imfield
from imfield import PotentialGrid, farfield_oracle, field_from_dict, potential_to_dict
from imfield import cli as cli_mod
from imfield.cli import Scenario, ScenarioError, load_scenario, run_scenario
from imfield.farfield import schedule_abscissas, schedule_for
from imfield.propagate import _stage, _stage_timings

KAPPA = 5.0

PS_FIELD = {"terms": [{"type": "point_source", "y0": [0.3, 0.2], "c": [1.0, 0.0]}]}
MIX_FIELD = {"terms": [{"type": "multipole", "m": 0, "c": [1.0, 0.0]},
                       {"type": "multipole", "m": 1, "c": [0.0, 0.5]}]}
LINE = {"point": [0.0, -2.0], "direction": [1.0, 0.0]}
TARGETS = [[0.5, -4.0], [3.0, -6.0], [-5.0, -8.0], [10.0, -4.0], [0.0, -12.0]]


def write_scenario(tmp_path, entries, name="case"):
    data = {"name": name, "kappa": KAPPA}
    data.update(entries)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    return path


def gaussian_potential_dict(n=12, kappa=4.0, amp=4.0):
    idx = (np.arange(n) - (n - 1) / 2.0) / n
    gx, gy = np.meshgrid(idx, idx, indexing="ij")
    v = amp * np.exp(-(gx**2 + gy**2) / 0.18**2)
    grid = PotentialGrid(bbox=(-0.5, -0.5, 0.5, 0.5), n=n,
                         v=v.astype(complex), kappa=kappa)
    return potential_to_dict(grid)


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


def read_csv(out_dir):
    lines = (out_dir / "results.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


# ------------------------------------------------------------- scenarios


def test_load_scenario_types(tmp_path):
    path = write_scenario(tmp_path, {
        "field": MIX_FIELD, "line": LINE, "interval": [-3.0, 3.0],
        "order": 2, "tau": 0.2, "noise": {"sigma": 1e-5, "seed": 11},
        "targets": TARGETS[:2], "out": "arts"})
    sc = load_scenario(path)
    assert isinstance(sc, Scenario)
    assert sc.kappa == KAPPA and sc.order == 2 and sc.tau == 0.2
    assert sc.noise_sigma == 1e-5 and sc.noise_seed == 11
    assert sc.interval == (-3.0, 3.0) and sc.out == "arts"
    assert sc.targets.shape == (2, 2)
    assert sc.field.kappa == KAPPA and sc.potential is None
    # direction is normalized on load
    tilted = write_scenario(tmp_path, {
        "field": MIX_FIELD,
        "line": {"point": [0.0, -2.0], "direction": [2.0, 0.0]}}, name="tilt")
    assert load_scenario(tilted).line.theta == (1.0, 0.0)


def test_load_scenario_rejects_defects(tmp_path):
    cases = [
        ({"field": MIX_FIELD, "potential": gaussian_potential_dict(),
          "line": LINE}, "at most one"),
        ({"fielld": MIX_FIELD}, "unknown scenario fields"),
        ({"field": MIX_FIELD, "interval": [2.0, -2.0]}, "lo < hi"),
        ({"field": MIX_FIELD,
          "line": {"point": [0.0, -2.0], "direction": [0.0, 0.0]}}, "nonzero"),
        ({"field": MIX_FIELD, "line": {"point": [0.0, -2.0]}}, "direction"),
        ({"field": {"terms": [{"type": "point_source", "y0": [0.3, 0.2],
                               "c": [1.0, 0.0]}], "kappa": 3.0},
          "line": LINE}, "disagrees"),
        ({"field": MIX_FIELD, "order": -1}, "order"),
        ({"field": MIX_FIELD, "noise": {"sigma": -1.0}}, "sigma"),
        ({"field": MIX_FIELD, "targets": [[1.0]]}, "targets"),
        # line through the source disk
        ({"field": MIX_FIELD,
          "line": {"point": [0.0, 0.0], "direction": [1.0, 0.0]}},
         "source disk"),
        # line touching the potential support
        ({"kappa": 4.0, "potential": gaussian_potential_dict(),
          "line": {"point": [0.0, -0.55], "direction": [1.0, 0.0]}},
         "one side"),
    ]
    for i, (entries, needle) in enumerate(cases):
        path = write_scenario(tmp_path, entries, name=f"bad{i}")
        with pytest.raises(ScenarioError, match=needle):
            load_scenario(path)


def test_missing_name_and_kappa(tmp_path):
    p = tmp_path / "anon.json"
    p.write_text(json.dumps({"kappa": 2.0}))
    with pytest.raises(ScenarioError, match="name"):
        load_scenario(p)
    p.write_text(json.dumps({"name": "x"}))
    with pytest.raises(ScenarioError, match="kappa"):
        load_scenario(p)


# --------------------------------------------------------------- commands


def test_counterexample_report_values(tmp_path):
    path = write_scenario(tmp_path, {"kappa": 1.0}, name="ce")
    out = tmp_path / "out"
    assert run_scenario(path, "counterexample", out_dir=out, quiet=True) == 0
    rep = read_report(out)
    assert rep["status"] == "ok"
    assert rep["scenario"] == "ce" and rep["command"] == "counterexample"
    assert rep["metrics"]["radius"] == 2.404825557695773
    assert rep["metrics"]["max_abs_im"] <= 1e-11
    assert rep["metrics"]["max_abs_psi"] >= 0.05
    header, rows = read_csv(out)
    assert header == ["angle", "x", "y", "im_psi", "abs_psi"]
    assert len(rows) == 720


def test_counterexample_higher_root(tmp_path):
    path = write_scenario(tmp_path, {"kappa": 2.5, "order": 3}, name="ce3")
    out = tmp_path / "out"
    assert run_scenario(path, "counterexample", out_dir=out, quiet=True) == 0
    rep = read_report(out)
    # third positive root of J_0, scaled by 1/kappa
    assert rep["metrics"]["radius"] == pytest.approx(8.653727912911013 / 2.5,
                                                     rel=1e-12)
    assert rep["metrics"]["max_abs_im"] <= 1e-11


def test_synth_exact_values(tmp_path):
    path = write_scenario(tmp_path, {
        "kappa": 2.0, "field": MIX_FIELD, "line": LINE,
        "interval": [-5.0, 5.0]}, name="synth")
    out = tmp_path / "out"
    assert run_scenario(path, "synth", out_dir=out, quiet=True) == 0
    header, rows = read_csv(out)
    assert header == ["s", "x", "y", "value"]
    rep = read_report(out)
    assert rep["metrics"]["n_samples"] == len(rows)
    field = field_from_dict(dict(MIX_FIELD, kappa=2.0))
    from imfield import eval_field
    for s, x, y, value in rows[::7]:
        psi = eval_field(field, np.array([x, y]))
        assert abs(value - np.hypot(x, y) ** 0.5 * psi.imag) <= 1e-12
    # lattice spans the interval at >= 12 samples per wavelength
    assert rows[0][0] == -5.0 and rows[-1][0] == 5.0
    assert len(rows) - 1 >= 10.0 / (2 * np.pi / 2.0 / 12.0)


def test_extract_slope_and_coefficients(tmp_path):
    path = write_scenario(tmp_path, {
        "kappa": 2.0, "field": MIX_FIELD, "line": LINE, "order": 2},
        name="ex")
    out = tmp_path / "out"
    assert run_scenario(path, "extract", out_dir=out, quiet=True) == 0
    rep = read_report(out)
    assert -1.2 <= rep["metrics"]["f0_slope"] <= -0.8
    coeffs = json.loads((out / "coefficients.json").read_text())
    assert len(coeffs["f_plus"]) == 3 and len(coeffs["f_minus"]) == 3
    assert coeffs["q"] == [0.0, -2.0]
    # line point sits on the x axis ray, so the frame shift leaves f_0 alone
    field = field_from_dict(dict(MIX_FIELD, kappa=2.0))
    oracle = farfield_oracle(field, 0.0, 0)[0]
    got = complex(*coeffs["f_plus"][0])
    assert abs(got - oracle) <= 1e-6 * abs(oracle)
    header, rows = read_csv(out)
    assert header == ["r", "re_f0_raw", "im_f0_raw", "abs_dev"]
    assert len(rows) >= 8


def test_extract_explicit_radii(tmp_path):
    lam = 2 * np.pi / 2.0
    radii = [float(200 * lam * 2**k) for k in range(6)]
    path = write_scenario(tmp_path, {
        "kappa": 2.0, "field": MIX_FIELD, "line": LINE, "order": 1,
        "radii": radii}, name="exr")
    out = tmp_path / "out"
    assert run_scenario(path, "extract", out_dir=out, quiet=True) == 0
    header, rows = read_csv(out)
    assert [r[0] for r in rows] == radii


def test_karp_command(tmp_path):
    path = write_scenario(tmp_path, {
        "kappa": 2.0, "field": MIX_FIELD, "line": LINE, "order": 3},
        name="kp")
    out = tmp_path / "out"
    assert run_scenario(path, "karp", out_dir=out, quiet=True) == 0
    rep = read_report(out)
    assert rep["metrics"]["karp_order"] == 3
    assert rep["metrics"]["trusted_radius"] > 0
    assert rep["metrics"]["tail_max_rel_err"] <= 1e-2
    coeffs = json.loads((out / "coefficients.json").read_text())
    assert len(coeffs["F"]) == 4 and len(coeffs["G"]) == 4
    header, rows = read_csv(out)
    assert header == ["s", "re_karp", "im_karp", "re_ref", "im_ref", "abs_err"]
    s_col = [r[0] for r in rows]
    assert s_col == sorted(s_col) and s_col[0] < 0 < s_col[-1]


def test_propagate_exact_trace(tmp_path):
    path = write_scenario(tmp_path, {
        "field": PS_FIELD, "line": LINE, "targets": TARGETS}, name="pr")
    out = tmp_path / "out"
    assert run_scenario(path, "propagate", out_dir=out, quiet=True) == 0
    rep = read_report(out)
    assert rep["metrics"]["max_rel_err"] <= 1e-11
    header, rows = read_csv(out)
    assert header == ["x", "y", "re_psi", "im_psi", "re_ref", "im_ref",
                      "abs_err"]
    assert len(rows) == len(TARGETS)
    for row in rows:
        assert row[6] == pytest.approx(
            abs(complex(row[2], row[3]) - complex(row[4], row[5])), abs=1e-15)


def test_propagate_far_target_widens_trace(tmp_path):
    # 40 wavelengths along the line, outside the flat part of a
    # 50-wavelength window: the trace grows to keep the target accurate
    lam = 2.0 * np.pi / KAPPA
    path = write_scenario(tmp_path, {
        "field": PS_FIELD, "line": LINE,
        "targets": [[0.5, -4.0], [40.0 * lam, -4.0]]}, name="far")
    out = tmp_path / "out"
    assert run_scenario(path, "propagate", out_dir=out, quiet=True) == 0
    assert read_report(out)["metrics"]["max_rel_err"] <= 1e-11


def test_propagate_window_sits_at_the_foot_of_the_origin(tmp_path):
    # line.point slid along y = -2.25 names the same line: the trace and its
    # quadrature window are anchored at the foot of the origin, so the
    # result does not depend on the shift (a window centred on line.point
    # grows with the shift)
    errs = []
    for shift in (0.0, 20.0, 40.0):
        path = write_scenario(tmp_path, {
            "field": PS_FIELD, "targets": TARGETS[:4],
            "line": {"point": [shift, -2.25], "direction": [1.0, 0.0]}},
            name=f"shift{shift:g}")
        out = tmp_path / f"out{shift:g}"
        assert run_scenario(path, "propagate", out_dir=out, quiet=True) == 0
        errs.append(read_report(out)["metrics"]["max_rel_err"])
    assert errs[0] <= 1e-11
    assert errs == pytest.approx([errs[0]] * 3, rel=1e-10, abs=0.0)


def test_pipeline_point_source_demo(tmp_path):
    path = write_scenario(tmp_path, {
        "field": PS_FIELD, "line": LINE, "order": 3, "targets": TARGETS},
        name="pipe")
    out = tmp_path / "out"
    assert run_scenario(path, "pipeline", out_dir=out, quiet=True) == 0
    rep = read_report(out)
    assert rep["status"] == "ok"
    assert rep["metrics"]["max_rel_err"] <= 1e-2
    assert rep["metrics"]["karp_order"] == 3  # no retry needed
    header, rows = read_csv(out)
    assert len(rows) == len(TARGETS)
    assert not (out / "coefficients.json").exists()


@pytest.mark.parametrize("sigma", [0.0, 1e-12, 1e-9])
def test_pipeline_noise_sets_schedule(tmp_path, sigma):
    # a line-recon-like request at kappa 7.5: the default schedule follows
    # noise.sigma, so the r^3-amplified noise in f_3 stays small and the
    # Karp gap stays inside the 128 wavelengths of data. A schedule built
    # for exact data at every sigma fails here at sigma = 1e-9, at [trace].
    kappa = 7.5
    lam = 2.0 * np.pi / kappa
    path = write_scenario(tmp_path, {
        "kappa": kappa,
        "field": {"terms": [{"type": "multipole", "m": 1, "c": [0.98, -0.18]},
                            {"type": "multipole", "m": 0, "c": [0.015, -0.25]}],
                  "source_radius": 0.5},
        "line": {"point": [0.0, -2.25], "direction": [1.0, 0.0]},
        "order": 3, "interval": [-128.0 * lam, 128.0 * lam],
        "targets": [[1.0, -4.0], [-3.0, -6.0], [5.0, -3.0]],
        "noise": {"sigma": sigma, "seed": 7}}, name="noisy")
    out = tmp_path / "out"
    assert run_scenario(path, "pipeline", out_dir=out, quiet=True) == 0
    assert read_report(out)["metrics"]["max_rel_err"] <= 1e-2


def test_frame_sits_at_the_foot_of_the_origin(tmp_path):
    # line.point slid along y = -2.25 names the same line: the rays and the
    # Karp frame start at the foot of the origin, (0, -2.25), at every
    # shift. A frame at line.point has a trusted radius that grows with the
    # shift, past the data from a shift of 20 on.
    lam = 2.0 * np.pi / KAPPA
    base = {"field": {"terms": [{"type": "point_source", "y0": [0.3, 0.2],
                                 "c": [1.0, 0.0]},
                                {"type": "multipole", "m": 1,
                                 "c": [0.5, 0.0]}], "source_radius": 0.5},
            "order": 3, "interval": [-128.0 * lam, 128.0 * lam],
            "targets": TARGETS[:4]}
    errs = []
    for shift in (0.0, 5.0, 10.0, 20.0, 40.0):
        path = write_scenario(tmp_path, dict(base, line={
            "point": [shift, -2.25], "direction": [1.0, 0.0]}),
            name=f"shift{shift:g}")
        out = tmp_path / f"out{shift:g}"
        assert run_scenario(path, "pipeline", out_dir=out, quiet=True) == 0
        errs.append(read_report(out)["metrics"]["max_rel_err"])
    assert errs[0] <= 1e-3
    assert errs == pytest.approx([errs[0]] * len(errs), rel=1e-6)
    for command in ("extract", "karp"):  # at shift 40
        out = tmp_path / command
        assert run_scenario(path, command, out_dir=out, quiet=True) == 0
        coeffs = json.loads((out / "coefficients.json").read_text())
        assert coeffs["q"] == [0.0, -2.25]


def _m2_scenario(tmp_path, extent, name, order=3):
    """kappa 7.7 with an m = 2 multipole: at order 3 the Karp gap (121
    units) outruns 128 wavelengths of data (104.6 units); at order 4 it
    reaches 58.8 units."""
    lam = 2.0 * np.pi / 7.7
    return write_scenario(tmp_path, {
        "kappa": 7.7,
        "field": {"terms": [{"type": "multipole", "m": 2, "c": [1.0, 0.0]}],
                  "source_radius": 0.5},
        "line": {"point": [0.0, -2.25], "direction": [1.0, 0.0]},
        "order": order, "interval": [-extent * lam, extent * lam],
        "targets": [[1.0, -4.0], [-3.0, -6.0], [5.0, -3.0]]}, name=name)


def test_pipeline_retries_one_order_up_when_the_gap_outruns_the_data(
        tmp_path, monkeypatch):
    calls = []
    real = cli_mod.eval_field

    def counting(field, pts):
        calls.append(len(pts))
        return real(field, pts)

    monkeypatch.setattr(cli_mod, "eval_field", counting)
    out = tmp_path / "retry"
    path = _m2_scenario(tmp_path, 128.0, "retry")
    assert run_scenario(path, "pipeline", out_dir=out, quiet=True) == 0
    # the order-3 lattice is rejected before it is read: the order-3 pairs,
    # the order-4 pairs and lattice, then the targets
    assert len(calls) == 4
    metrics = read_report(out)["metrics"]
    assert metrics["karp_order"] == 4
    assert metrics["max_rel_err"] <= 1e-3
    # the retry is the order-4 run: same samples, same bits
    direct = tmp_path / "order4"
    assert run_scenario(_m2_scenario(tmp_path, 128.0, "order4", order=4),
                        "pipeline", out_dir=direct, quiet=True) == 0
    assert (direct / "results.csv").read_text() == \
        (out / "results.csv").read_text()
    # data too short for the order-4 gap as well: one retry, then the
    # coverage error
    short = tmp_path / "short"
    assert run_scenario(_m2_scenario(tmp_path, 64.0, "short"), "pipeline",
                        out_dir=short, quiet=True) == 3
    assert read_report(short)["error"].startswith(
        "[trace] imaginary-part data must cover |s - s_q| <= 58.8")


def test_pipeline_collapsed_window_is_an_extract_failure(tmp_path):
    # at kappa 5, order 3 and sigma 1e-4 the usable radius window of the
    # default schedule collapses; building it is part of the extract stage,
    # so the error carries its label and the report its timing
    path = write_scenario(tmp_path, {
        "kappa": 5.0,
        "field": {"terms": [{"type": "point_source", "y0": [0.3, 0.2],
                             "c": [1.0, 0.0]}], "source_radius": 0.5},
        "line": {"point": [0.0, -2.0], "direction": [1.0, 0.0]},
        "order": 3, "targets": [[1.0, -4.0]],
        "noise": {"sigma": 1e-4, "seed": 3}}, name="collapsed")
    out = tmp_path / "out"
    assert run_scenario(path, "pipeline", out_dir=out, quiet=True) == 3
    rep = read_report(out)
    assert rep["error"].startswith("[extract]")
    assert "extract_s" in rep["timings"]


def test_pipeline_reads_the_field_at_the_pairs_and_the_gap_lattice(
        tmp_path, monkeypatch):
    # without interval the field is read at the schedule pairs +-(r, r + tau)
    # and on the lambda/12 lattice over the Karp gap plus one wavelength,
    # both in the frame at the foot of the origin; then at the targets, for
    # the reference values of results.csv
    calls = []
    real = cli_mod.eval_field

    def counting(field, pts):
        calls.append(np.array(pts))
        return real(field, pts)

    monkeypatch.setattr(cli_mod, "eval_field", counting)
    entries = {"field": PS_FIELD, "line": LINE, "order": 3,
               "targets": TARGETS[:3]}
    path = write_scenario(tmp_path, entries, name="reads")
    assert run_scenario(path, "pipeline", out_dir=tmp_path / "p",
                        quiet=True) == 0
    assert len(calls) == 3
    lines, targets = calls[:2], calls[2]
    assert np.array_equal(targets, TARGETS[:3])
    for pts in lines:
        assert np.all(pts[:, 1] == -2.0)
    pairs = schedule_abscissas(schedule_for(KAPPA, 3, 0.0))
    assert np.allclose(lines[0][:, 0], np.concatenate([-pairs[::-1], pairs]),
                       rtol=0, atol=1e-12)
    # the Karp command reads the same pairs, and reports the gap
    assert run_scenario(path, "karp", out_dir=tmp_path / "k", quiet=True) == 0
    gap = read_report(tmp_path / "k")["metrics"]["trusted_radius"]
    lam = 2.0 * np.pi / KAPPA
    k = np.round(lines[1][:, 0] / (lam / 12.0) - 0.5)
    assert np.allclose(lines[1][:, 0], (k + 0.5) * lam / 12.0, rtol=0,
                       atol=1e-9)
    assert np.array_equal(k, np.arange(k[0], -k[0]))
    assert abs(np.max(lines[1][:, 0]) - (gap + lam)) <= lam / 12.0


# one scenario per cost-cycle position of the benchmark's line-recon
# workload: kappa from eighths of [3, 8], a main term of strength 1 (-1 a
# point source, else a multipole of order m) plus weaker terms, and a line
# 2.2-2.3 from the origin, half of them rotated about it
_CYCLE = list(zip((4, 1, 4, 16, 4, 2, 4, 8), (0, 3, 2, 1, 4, 7, 5, 6),
                  (-1, 0, -1, 1, -1, 2, -1, 1), (0, 1, 2, 0, 1, 2, 0, 1)))


def _cycle_term(rng, m, strength, radius):
    z = strength * np.exp(2j * np.pi * rng.random())
    if m < 0:
        a = 2.0 * np.pi * rng.random()
        return {"type": "point_source", "c": [z.real, z.imag],
                "y0": [radius * np.cos(a), radius * np.sin(a)]}
    return {"type": "multipole", "m": m, "c": [z.real, z.imag]}


def _cycle_scenario(p, sigma):
    rng = np.random.default_rng([3, p])
    n_t, band, main, extra = _CYCLE[p]
    kappa = 3.0 + 5.0 * (band + rng.uniform(0.4, 0.6)) / 8.0
    lam = 2.0 * np.pi / kappa
    terms = [_cycle_term(rng, main, 1.0, rng.uniform(0.25, 0.35))]
    terms += [_cycle_term(rng, int(rng.integers(-1, 3)), rng.uniform(0.1, 0.3),
                          0.5 * np.sqrt(rng.random())) for _ in range(extra)]
    phi = -0.5 * np.pi if p % 4 < 2 else rng.uniform(0, 2 * np.pi)
    nu = np.array([np.cos(phi), np.sin(phi)])
    p0 = rng.uniform(2.2, 2.3) * nu
    theta = np.array([-nu[1], nu[0]])
    targets = p0 + np.outer(rng.uniform(-8.0, 8.0, n_t), theta) \
        + np.outer(rng.uniform(0.3 * lam + 0.2, 6.0, n_t), nu)
    return {"kappa": kappa, "order": 3,
            "field": {"terms": terms, "source_radius": 0.5},
            "line": {"point": p0.tolist(), "direction": theta.tolist()},
            "targets": targets.tolist(),
            "noise": {"sigma": sigma, "seed": int(rng.integers(2 ** 31))}}


@pytest.mark.parametrize("sigma", [0.0, 1e-9, 1e-6, 1e-4])
def test_pipeline_sigma_and_kappa_sweep(tmp_path, sigma):
    # without interval the lattice covers any Karp gap: up to sigma = 1e-6
    # every cycle position returns an answer at order 3 within 1e-2 of
    # max|psi|; at 1e-4 each fails, at [extract] when the radius window
    # collapses or at [trace] when the gap fit disagrees with the flanks,
    # and none returns an answer
    for p in range(len(_CYCLE)):
        path = write_scenario(tmp_path, _cycle_scenario(p, sigma),
                              name=f"cycle{p}")
        out = tmp_path / f"out{p}"
        status = run_scenario(path, "pipeline", out_dir=out, quiet=True)
        if sigma >= 1e-4:
            assert status == 3
            error = read_report(out)["error"]
            assert error.startswith("[extract]") or error.startswith(
                "[trace] gap completion is inconsistent"), error
            continue
        assert status == 0
        assert read_report(out)["metrics"]["karp_order"] == 3
        header, rows = read_csv(out)
        rows = np.array(rows)
        col = {h: k for k, h in enumerate(header)}
        ref = np.hypot(rows[:, col["re_ref"]], rows[:, col["im_ref"]])
        assert np.max(rows[:, col["abs_err"]]) <= 1e-2 * np.max(ref)


def test_scatter_command(tmp_path):
    path = write_scenario(tmp_path, {
        "kappa": 4.0, "potential": gaussian_potential_dict()}, name="sc")
    out = tmp_path / "out"
    assert run_scenario(path, "scatter", out_dir=out, quiet=True) == 0
    rep = read_report(out)
    assert rep["metrics"]["reciprocity_defect"] <= 1e-6
    assert rep["metrics"]["max_abs_amplitude"] > 0
    header, rows = read_csv(out)
    assert header == ["theta", "dir_x", "dir_y", "re_a", "im_a", "abs_a"]
    assert len(rows) == 72


def test_report_stage_timings(tmp_path):
    pot = write_scenario(tmp_path, {
        "kappa": 4.0, "potential": gaussian_potential_dict()}, name="st")
    outs = [tmp_path / "s1", tmp_path / "s2"]
    for out in outs:
        assert run_scenario(pot, "scatter", out_dir=out, quiet=True) == 0
    timings = read_report(outs[0])["timings"]
    assert set(timings) == {"total_s", "solve_s", "amplitude_s"}
    assert 0.0 < timings["solve_s"] + timings["amplitude_s"] \
        <= timings["total_s"]
    # the wall times stay out of the tidy results
    assert (outs[0] / "results.csv").read_bytes() == \
        (outs[1] / "results.csv").read_bytes()
    pipe = write_scenario(tmp_path, {
        "field": PS_FIELD, "line": LINE, "order": 3, "targets": TARGETS[:2]},
        name="pt")
    out = tmp_path / "p"
    assert run_scenario(pipe, "pipeline", out_dir=out, quiet=True) == 0
    timings = read_report(out)["timings"]
    assert {"extract_s", "karp_s", "trace_s", "propagate_s"} <= set(timings)
    assert all(t >= 0.0 for t in timings.values())


def test_failed_report_keeps_stage_timings(tmp_path):
    path = write_scenario(tmp_path, {
        "kappa": 2.0, "field": MIX_FIELD, "line": LINE, "order": 2,
        "tau": float(np.pi)}, name="res")
    out = tmp_path / "out"
    assert run_scenario(path, "extract", out_dir=out, quiet=True) == 3
    timings = read_report(out)["timings"]
    # synthesis ran, extraction failed: both are timed, karp never started
    assert set(timings) == {"total_s", "synth_s", "extract_s"}


def test_stage_timings_sum_repeated_labels():
    with _stage_timings() as times:
        _stage("nap", time.sleep, 0.01)
        _stage("nap", time.sleep, 0.01)
        with pytest.raises(ValueError, match=r"^\[bad\] boom$"):
            _stage("bad", _raise_value_error, "boom")
    assert set(times) == {"nap", "bad"}
    assert times["nap"] >= 0.02
    # outside the block nothing is collected
    _stage("nap", time.sleep, 0.0)
    assert set(times) == {"nap", "bad"}


def _raise_value_error(msg):
    raise ValueError(msg)


def test_scatter_probe_validation(tmp_path):
    inside = write_scenario(tmp_path, {
        "kappa": 4.0, "potential": gaussian_potential_dict(),
        "targets": [[0.0, 0.0], [2.0, 2.0]]}, name="sin")
    out = tmp_path / "o1"
    assert run_scenario(inside, "scatter", out_dir=out, quiet=True) == 2
    assert not out.exists()
    single = write_scenario(tmp_path, {
        "kappa": 4.0, "potential": gaussian_potential_dict(),
        "targets": [[2.0, 2.0]]}, name="sone")
    assert run_scenario(single, "scatter", out_dir=tmp_path / "o2",
                        quiet=True) == 2


def test_gkl_command(tmp_path):
    path = write_scenario(tmp_path, {
        "kappa": 4.0, "potential": gaussian_potential_dict(),
        "line": LINE, "interval": [-1.0, 1.0], "order": 3}, name="gk")
    out = tmp_path / "out"
    assert run_scenario(path, "gkl", out_dir=out, quiet=True) == 0
    rep = read_report(out)
    assert rep["metrics"]["max_rel_err"] <= 1e-2
    assert rep["metrics"]["defect_direct"] <= 1e-8
    header, rows = read_csv(out)
    assert header == ["s_x", "s_y", "re_recovered", "im_recovered",
                      "re_direct", "im_direct", "abs_err"]
    assert len(rows) == 5 * 4  # off-diagonal entries only
    for row in rows:
        assert row[6] == pytest.approx(
            abs(complex(row[2], row[3]) - complex(row[4], row[5])), abs=1e-15)


# ----------------------------------------------------------- error paths


def test_malformed_json_exit_2_no_artifacts(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    out = tmp_path / "out"
    assert run_scenario(bad, "extract", out_dir=out, quiet=True) == 2
    assert not out.exists()


def test_missing_required_field_exit_2(tmp_path):
    path = write_scenario(tmp_path, {"field": MIX_FIELD, "line": LINE},
                          name="noorder")
    out = tmp_path / "out"
    assert run_scenario(path, "extract", out_dir=out, quiet=True) == 2
    assert not out.exists()
    # potential commands reject field scenarios and vice versa
    assert run_scenario(path, "gkl", out_dir=out, quiet=True) == 2
    pot = write_scenario(tmp_path, {
        "kappa": 4.0, "potential": gaussian_potential_dict()}, name="potonly")
    assert run_scenario(pot, "pipeline", out_dir=out, quiet=True) == 2


def test_target_on_wrong_side_exit_2(tmp_path):
    path = write_scenario(tmp_path, {
        "field": PS_FIELD, "line": LINE,
        "targets": [[0.5, -4.0], [0.0, 0.5]]}, name="side")
    out = tmp_path / "out"
    assert run_scenario(path, "propagate", out_dir=out, quiet=True) == 2
    assert not out.exists()


def test_numerical_failure_exit_3_error_report(tmp_path):
    # sin(kappa tau) = 0 makes the two-point system singular at extraction
    path = write_scenario(tmp_path, {
        "kappa": 2.0, "field": MIX_FIELD, "line": LINE, "order": 2,
        "tau": float(np.pi)}, name="res")
    out = tmp_path / "out"
    assert run_scenario(path, "extract", out_dir=out, quiet=True) == 3
    assert sorted(p.name for p in out.iterdir()) == ["report.json"]
    rep = read_report(out)
    assert rep["status"] == "error"
    assert rep["metrics"] == {}
    assert rep["error"].startswith("[extract]")


def test_unknown_command_exit_2(tmp_path):
    path = write_scenario(tmp_path, {"field": MIX_FIELD, "line": LINE})
    assert run_scenario(path, "plot", out_dir=tmp_path / "o", quiet=True) == 2


# ------------------------------------------------------- reproducibility


def test_rerun_byte_identical(tmp_path):
    path = write_scenario(tmp_path, {
        "kappa": 2.0, "field": MIX_FIELD, "line": LINE, "order": 2,
        "noise": {"sigma": 1e-5, "seed": 9}}, name="det")
    outs = [tmp_path / "o1", tmp_path / "o2"]
    for out in outs:
        assert run_scenario(path, "extract", out_dir=out, quiet=True) == 0
    assert (outs[0] / "results.csv").read_bytes() == \
           (outs[1] / "results.csv").read_bytes()
    assert (outs[0] / "coefficients.json").read_bytes() == \
           (outs[1] / "coefficients.json").read_bytes()
    # a different seed must change the noisy samples
    other = write_scenario(tmp_path, {
        "kappa": 2.0, "field": MIX_FIELD, "line": LINE, "order": 2,
        "noise": {"sigma": 1e-5, "seed": 10}}, name="det2")
    assert run_scenario(other, "extract", out_dir=tmp_path / "o3",
                        quiet=True) == 0
    assert (outs[0] / "results.csv").read_bytes() != \
           (tmp_path / "o3" / "results.csv").read_bytes()


def test_out_dir_from_scenario(tmp_path):
    path = write_scenario(tmp_path, {"kappa": 1.0, "out": "arts"}, name="ce")
    assert run_scenario(path, "counterexample", quiet=True) == 0
    assert (tmp_path / "arts" / "report.json").exists()
    assert (tmp_path / "arts" / "results.csv").exists()


def test_console_entry_and_order_override(tmp_path):
    path = write_scenario(tmp_path, {
        "kappa": 2.0, "field": MIX_FIELD, "line": LINE}, name="cli")
    out = tmp_path / "out"
    # the child interpreter imports the same package as this process
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(imfield.__file__).resolve().parents[1]),
        env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "imfield.cli", "extract",
         "--scenario", str(path), "--out", str(out), "--order", "2",
         "--quiet"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    coeffs = json.loads((out / "coefficients.json").read_text())
    assert len(coeffs["f_plus"]) == 3
    # without the override the scenario is missing its order
    proc2 = subprocess.run(
        [sys.executable, "-m", "imfield.cli", "extract",
         "--scenario", str(path), "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert proc2.returncode == 2
    assert "order" in proc2.stderr
