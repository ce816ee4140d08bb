"""Scenario-driven batch front end.

A scenario is a JSON file describing one experiment: a radiation field or
a potential, the measurement line, radii or an interval, the expansion
order, optional noise, and evaluation targets. Each command maps onto one
library pipeline and writes plot-ready artifacts into the output
directory:

    results.csv        tidy columnar numbers (headers listed in README)
    coefficients.json  expansion coefficients (extract and karp only)
    report.json        {scenario, command, metrics, status, timings}; timings
                       holds total_s and <stage>_s, the summed wall time
                       of each labelled stage that ran

Exit codes: 0 on success; 2 when the scenario fails validation, with a
diagnostic naming the offending field; 3 when a pipeline stage fails
numerically, with the stage label in the message. Artifacts are staged in
memory and written only once the run has finished, so a failed run never
leaves partial results (a numerical failure still writes report.json with
status "error" so batch drivers can triage it).

Determinism: every random draw is seeded from the scenario, so re-running
the same file reproduces results.csv byte for byte. Thread count follows
the BLAS conventions (OMP_NUM_THREADS and friends); no other environment
variable is consulted.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .farfield import (
    ExtractionSchedule,
    _lookup,
    _pair_abscissas,
    _raw_estimates,
    farfield_to_dict,
    schedule_for,
)
from .fields import (
    RadiationField,
    counterexample_report,
    eval_field,
    field_from_dict,
)
from .karp import _karp_sum, karp_from_farfield, karp_to_dict
from .propagate import (
    HalfPlaneSpec,
    LineSpec,
    LineTrace,
    _GapCoverageError,
    _foot,
    _propagate_targets,
    _read_pairs,
    _sampled_traces,
    _stage,
    _stage_timings,
    _trusted_radius,
    _window_half_length,
    propagate_halfplane,
)
from .scatter import (
    PotentialGrid,
    _line_clears_support,
    check_reciprocity,
    gkl_reduce,
    potential_from_dict,
    scattering_amplitude,
)
from .specfun import hankel1

__all__ = ["Scenario", "ScenarioError", "load_scenario", "run_scenario", "main"]


class ScenarioError(ValueError):
    """A scenario file failed validation; the message names the field."""


@dataclass(frozen=True)
class Scenario:
    """One validated experiment description, ready to run."""

    name: str
    kappa: float
    field: RadiationField = None
    potential: PotentialGrid = None
    line: LineSpec = None
    interval: tuple = None
    schedule: ExtractionSchedule = None
    order: int = None
    tau: float = None
    noise_sigma: float = 0.0
    noise_seed: int = 0
    targets: np.ndarray = None
    n_points: int = 5
    out: str = None


_TOP_KEYS = {"name", "kappa", "field", "potential", "line", "interval",
             "radii", "order", "tau", "noise", "targets", "n_points", "out"}


def _fail(field, msg):
    raise ScenarioError(f"scenario field '{field}': {msg}")


def _point2(obj, field):
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError):
        _fail(field, "must be a pair of numbers")
    if arr.shape != (2,) or not np.all(np.isfinite(arr)):
        _fail(field, "must be a pair of finite numbers")
    return arr


def _number(data, key, *, positive=False, nonnegative=False):
    v = data[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(key, "must be a number")
    v = float(v)
    if not np.isfinite(v):
        _fail(key, "must be finite")
    if positive and v <= 0:
        _fail(key, "must be positive")
    if nonnegative and v < 0:
        _fail(key, "must be >= 0")
    return v


def _integer(data, key, minimum):
    v = data[key]
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(key, "must be an integer")
    if v < minimum:
        _fail(key, f"must be >= {minimum}")
    return v


def _load_object(obj, kappa, name, from_dict):
    """The scenario's `name` object, decoded by from_dict with the scenario
    kappa filled in when the object leaves it out."""
    if not isinstance(obj, dict):
        _fail(name, "must be a JSON object")
    d = dict(obj)
    if "kappa" not in d:
        d["kappa"] = kappa
    elif not isinstance(d["kappa"], (int, float)) or \
            abs(float(d["kappa"]) - kappa) > 1e-12 * kappa:
        _fail(name, f"its kappa {d['kappa']!r} disagrees with the "
                    f"scenario kappa {kappa!r}")
    try:
        return from_dict(d)
    except KeyError as exc:
        _fail(name, f"missing key {exc}")
    except (ValueError, TypeError) as exc:
        _fail(name, str(exc))


def _load_line(obj):
    if not isinstance(obj, dict) or set(obj) != {"point", "direction"}:
        _fail("line", "must be an object with keys 'point' and 'direction'")
    p = _point2(obj["point"], "line.point")
    v = _point2(obj["direction"], "line.direction")
    norm = float(np.hypot(*v))
    if norm == 0.0:
        _fail("line.direction", "must be a nonzero vector")
    return LineSpec(point=tuple(p), theta=tuple(v / norm))


def _check_line_geometry(line, field, potential):
    """Sources must sit strictly on one side of the measurement line."""
    p0 = np.asarray(line.point)
    t = np.asarray(line.theta)
    if field is not None:
        # perpendicular distance from the global origin to the line
        d = abs(p0[1] * t[0] - p0[0] * t[1])
        if d <= field.source_radius:
            _fail("line", f"the line meets the source disk (offset {d:.6g} "
                          f"<= source radius {field.source_radius:.6g})")
    if potential is not None and not _line_clears_support(potential, line):
        _fail("line", "the line must keep the potential support strictly "
                      "on one side, at least a quarter wavelength away")


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario JSON file.

    Raises ScenarioError with a field-level diagnostic on any defect:
    malformed JSON, unknown keys, missing or ill-typed entries, both or
    neither of field/potential, or a measurement line that touches the
    sources.
    """
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {p}: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{p} is not valid JSON (line {exc.lineno}, "
                            f"column {exc.colno}): {exc.msg}")
    if not isinstance(data, dict):
        raise ScenarioError("the scenario must be a JSON object")
    unknown = sorted(set(data) - _TOP_KEYS)
    if unknown:
        raise ScenarioError(f"unknown scenario fields: {', '.join(unknown)}")

    if "name" not in data:
        _fail("name", "is required")
    if not isinstance(data["name"], str) or not data["name"].strip():
        _fail("name", "must be a nonempty string")
    name = data["name"].strip()
    if "kappa" not in data:
        _fail("kappa", "is required")
    kappa = _number(data, "kappa", positive=True)

    if "field" in data and "potential" in data:
        raise ScenarioError("provide at most one of 'field' and 'potential'")
    field = (_load_object(data["field"], kappa, "field", field_from_dict)
             if "field" in data else None)
    potential = (_load_object(data["potential"], kappa, "potential",
                              potential_from_dict)
                 if "potential" in data else None)

    line = _load_line(data["line"]) if "line" in data else None
    if line is not None:
        _check_line_geometry(line, field, potential)

    interval = None
    if "interval" in data:
        try:
            arr = np.asarray(data["interval"], dtype=float)
        except (TypeError, ValueError):
            _fail("interval", "must be a pair [lo, hi]")
        if arr.shape != (2,) or not np.all(np.isfinite(arr)):
            _fail("interval", "must be a pair of finite numbers")
        if arr[0] >= arr[1]:
            _fail("interval", "needs lo < hi")
        interval = (float(arr[0]), float(arr[1]))

    tau = _number(data, "tau", positive=True) if "tau" in data else None

    schedule = None
    if "radii" in data:
        try:
            radii = np.asarray(data["radii"], dtype=float)
        except (TypeError, ValueError):
            _fail("radii", "must be a list of numbers")
        tau_val = tau if tau is not None else np.pi / (2.0 * kappa)
        try:
            schedule = ExtractionSchedule(radii=radii, tau=tau_val,
                                          extrapolation_depth=3)
        except ValueError as exc:
            _fail("radii", str(exc))

    order = _integer(data, "order", 0) if "order" in data else None

    noise_sigma, noise_seed = 0.0, 0
    if "noise" in data:
        nd = data["noise"]
        if not isinstance(nd, dict) or not set(nd) <= {"sigma", "seed"}:
            _fail("noise", "must be an object with keys 'sigma' and 'seed'")
        if "sigma" in nd:
            noise_sigma = _number(nd, "sigma", nonnegative=True)
        if "seed" in nd:
            noise_seed = _integer(nd, "seed", 0)

    targets = None
    if "targets" in data:
        try:
            targets = np.asarray(data["targets"], dtype=float)
        except (TypeError, ValueError):
            _fail("targets", "must be a list of [x, y] points")
        if targets.ndim != 2 or targets.shape[1] != 2 or targets.shape[0] < 1 \
                or not np.all(np.isfinite(targets)):
            _fail("targets", "must be a nonempty list of finite [x, y] points")

    n_points = _integer(data, "n_points", 2) if "n_points" in data else 5

    out = None
    if "out" in data:
        if not isinstance(data["out"], str) or not data["out"]:
            _fail("out", "must be a nonempty string")
        out = data["out"]

    return Scenario(name=name, kappa=kappa, field=field, potential=potential,
                    line=line, interval=interval, schedule=schedule,
                    order=order, tau=tau, noise_sigma=noise_sigma,
                    noise_seed=noise_seed, targets=targets,
                    n_points=n_points, out=out)


# --------------------------------------------------------------- running


@dataclass
class _RunResult:
    metrics: dict
    header: tuple
    rows: list
    coefficients: dict = None


def _scenario_schedule(sc: Scenario) -> ExtractionSchedule:
    if sc.schedule is not None:
        return sc.schedule
    sched = schedule_for(sc.kappa, sc.order or 0, sc.noise_sigma)
    return sched if sc.tau is None else replace(sched, tau=sc.tau)


def _im_sampler(sc: Scenario, q):
    """im_at(xi) of the scenario field: Im psi, one column, at the signed
    abscissas xi from q along the line. noise.sigma is the sigma of
    sqrt(|x|) Im psi, drawn in call order from one generator seeded by
    noise.seed."""
    rng = np.random.default_rng(sc.noise_seed)

    def im_at(xi):
        pts = q + np.multiply.outer(xi, sc.line.theta)
        im = _stage("synth", eval_field, sc.field, pts).imag
        if sc.noise_sigma > 0:
            im = im + sc.noise_sigma * rng.standard_normal(im.shape) \
                / np.sqrt(np.hypot(pts[:, 0], pts[:, 1]))
        return im[:, None]

    return im_at


def _run_synth(sc: Scenario) -> _RunResult:
    lam = 2.0 * np.pi / sc.kappa
    lo, hi = sc.interval
    n_seg = max(1, int(np.ceil((hi - lo) / (lam / 12.0))))
    s = lo + (hi - lo) * np.arange(n_seg + 1) / n_seg
    pts = np.asarray(sc.line.point) + np.multiply.outer(s, sc.line.theta)
    vals = np.sqrt(np.hypot(pts[:, 0], pts[:, 1])) \
        * _im_sampler(sc, sc.line.point)(s)[:, 0]
    rows = [(s[i], pts[i, 0], pts[i, 1], vals[i]) for i in range(s.size)]
    metrics = {"n_samples": int(s.size),
               "max_abs_value": float(np.max(np.abs(vals)))}
    return _RunResult(metrics, ("s", "x", "y", "value"), rows)


def _extract_pair(sc: Scenario):
    """Schedule, the field read at its pairs in the Karp frame at the foot
    of the origin, and the far-field coefficients."""
    sched = _stage("extract", _scenario_schedule, sc)
    q = _foot(sc.line, (0.0, 0.0))
    xi, im, (ff,) = _read_pairs(_im_sampler(sc, q), sc.kappa, sc.order,
                                sched, q, sc.line.theta)
    return sched, xi, im, ff


def _run_extract(sc: Scenario) -> _RunResult:
    sched, xi, im, ff = _extract_pair(sc)
    # raw two-point estimates of f_0 on the plus ray, in the Karp frame; their
    # deviation from the extrapolated value decays like 1/r on exact data
    s = _pair_abscissas(sched.radii, sched.tau)
    raw = _raw_estimates(np.sqrt(s) * _lookup(xi, im[:, 0], s), s, (),
                         sc.kappa, sched.tau)
    f0 = ff.f_plus[0]
    devs = np.abs(raw - f0)
    rows = list(zip(sched.radii, raw.real, raw.imag, devs))
    metrics = {"f0_abs": float(abs(f0))}
    ok = devs > 0
    if np.count_nonzero(ok) >= 2:
        slope = np.polyfit(np.log(sched.radii[ok]), np.log(devs[ok]), 1)[0]
        metrics["f0_slope"] = float(slope)
    return _RunResult(metrics, ("r", "re_f0_raw", "im_f0_raw", "abs_dev"),
                      rows, coefficients=farfield_to_dict(ff))


def _run_karp(sc: Scenario) -> _RunResult:
    if sc.order < 1:
        _fail("order", "karp conversion needs order >= 1")
    *_, ff = _extract_pair(sc)
    kc = _stage("karp", karp_from_farfield, ff)
    r_trust = _trusted_radius(kc)
    lam = 2.0 * np.pi / sc.kappa
    rr = np.geomspace(0.25 * lam, max(100.0 * lam, 3.0 * r_trust), 48)
    xi = np.concatenate([-rr[::-1], rr])  # both sides, along the line
    u = np.array([np.cos(kc.phi), np.sin(kc.phi)])
    vals = _karp_sum([kc], xi)[:, 0]
    refs = eval_field(sc.field, np.asarray(kc.origin_shift)
                      + np.multiply.outer(xi, u))
    errs = np.abs(vals - refs)
    rows = list(zip(xi, vals.real, vals.imag, refs.real, refs.imag, errs))
    tail = np.abs(xi) >= r_trust
    metrics = {"karp_order": int(kc.order),
               "trusted_radius": float(r_trust),
               "tail_max_rel_err": float(np.max(
                   errs[tail] / np.maximum(np.abs(refs[tail]), 1e-300)))}
    return _RunResult(metrics,
                      ("s", "re_karp", "im_karp", "re_ref", "im_ref", "abs_err"),
                      rows, coefficients=karp_to_dict(kc))


def _target_rows(field, targets, values):
    rows = []
    max_abs = 0.0
    max_rel = 0.0
    refs = eval_field(field, targets)  # one call for every target
    for x, got, ref in zip(targets, values, refs):
        ref = complex(ref)
        err = abs(complex(got) - ref)
        rows.append((x[0], x[1], complex(got).real, complex(got).imag,
                     ref.real, ref.imag, err))
        max_abs = max(max_abs, err)
        max_rel = max(max_rel, err / max(abs(ref), 1e-300))
    header = ("x", "y", "re_psi", "im_psi", "re_ref", "im_ref", "abs_err")
    return rows, header, {"max_abs_err": float(max_abs),
                          "max_rel_err": float(max_rel)}


def _foot_halfplane(sc: Scenario) -> HalfPlaneSpec:
    """The scenario's half plane, its line anchored at the foot of the origin
    whatever line.point says and its outward normal pointing at the sources
    about the origin; the targets must lie in it."""
    line = replace(sc.line, point=tuple(_foot(sc.line, (0.0, 0.0))))
    n = np.array([-line.theta[1], line.theta[0]])
    if float(np.asarray(line.point) @ n) > 0.0:
        n = -n
    spec = HalfPlaneSpec(line=line, normal=tuple(n))
    lam = 2.0 * np.pi / sc.kappa
    for i, x in enumerate(sc.targets):
        if spec.signed_offset(x) > -0.25 * lam:
            _fail(f"targets[{i}]",
                  "must lie inside V_L, at least a quarter wavelength "
                  "beyond the measurement line")
    return spec


def _run_propagate(sc: Scenario) -> _RunResult:
    spec = _foot_halfplane(sc)
    p0 = np.asarray(spec.line.point)
    t = np.asarray(spec.line.theta)

    def on_line(s):
        s = np.asarray(s, dtype=float)
        return eval_field(sc.field, p0 + s[..., None] * t)

    trace = LineTrace(S=_window_half_length(spec.line, sc.targets, sc.kappa),
                      panels_per_wavelength=10, func=on_line)
    values = [_stage("propagate", propagate_halfplane, trace, spec, x, sc.kappa)
              for x in sc.targets]
    rows, header, metrics = _target_rows(sc.field, sc.targets, values)
    return _RunResult(metrics, header, rows)


def _run_counterexample(sc: Scenario) -> _RunResult:
    j = 1 if sc.order is None else sc.order
    if j < 1:
        _fail("order", "the root index must be >= 1")
    n_angles = 720
    rep = _stage("counterexample", counterexample_report, sc.kappa, j, n_angles)
    psi = 0.25j * hankel1(0, sc.kappa * rep.radius)
    ang = 2.0 * np.pi * np.arange(n_angles) / n_angles
    rows = [(a, rep.radius * np.cos(a), rep.radius * np.sin(a),
             psi.imag, abs(psi)) for a in ang]
    metrics = {"radius": float(rep.radius),
               "max_abs_im": float(rep.max_abs_im),
               "max_abs_psi": float(rep.max_abs_psi)}
    return _RunResult(metrics, ("angle", "x", "y", "im_psi", "abs_psi"), rows)


def _run_scatter(sc: Scenario) -> _RunResult:
    grid = sc.potential
    x0, y0, x1, y1 = grid.bbox
    if sc.targets is None:
        c = grid.center_point()
        w = max(x1 - x0, y1 - y0)
        probes = (c + np.array([1.5 * w, 0.5 * w]),
                  c + np.array([-0.75 * w, -1.25 * w]))
    else:
        if sc.targets.shape[0] < 2:
            _fail("targets", "scatter needs two probe points, or none "
                             "to use the defaults")
        for i in range(2):
            px, py = sc.targets[i]
            if x0 <= px <= x1 and y0 <= py <= y1:
                _fail(f"targets[{i}]",
                      "reciprocity probes must lie outside the support")
        probes = (sc.targets[0], sc.targets[1])
    defect = _stage("solve", check_reciprocity, grid, probes[0], probes[1])
    k_inc = np.array([sc.kappa, 0.0])
    n_dir = 72
    ths = 2.0 * np.pi * np.arange(n_dir) / n_dir
    dirs = np.stack([np.cos(ths), np.sin(ths)], axis=1)
    amps = _stage("amplitude", scattering_amplitude, grid, k_inc, dirs)
    rows = [(ths[i], dirs[i, 0], dirs[i, 1], amps[i].real, amps[i].imag,
             abs(amps[i])) for i in range(n_dir)]
    metrics = {"reciprocity_defect": float(defect),
               "max_abs_amplitude": float(np.max(np.abs(amps)))}
    return _RunResult(metrics,
                      ("theta", "dir_x", "dir_y", "re_a", "im_a", "abs_a"),
                      rows)


def _run_gkl(sc: Scenario) -> _RunResult:
    rep = _stage("gkl", gkl_reduce, sc.potential, sc.line, sc.interval,
                 sc.order, sc.n_points)
    s_pts = rep.s_points
    i, j = np.nonzero(~np.eye(s_pts.size, dtype=bool))  # row-major pairs
    rec, dirv = rep.recovered[i, j], rep.direct[i, j]
    rows = list(zip(s_pts[i], s_pts[j], rec.real, rec.imag, dirv.real,
                    dirv.imag, np.abs(rec - dirv)))
    metrics = {"max_rel_err": float(rep.max_rel_err),
               "defect_recovered": float(rep.defect_recovered),
               "defect_direct": float(rep.defect_direct)}
    return _RunResult(metrics,
                      ("s_x", "s_y", "re_recovered", "im_recovered",
                       "re_direct", "im_direct", "abs_err"),
                      rows)


def _run_pipeline(sc: Scenario) -> _RunResult:
    spec = _foot_halfplane(sc)
    q = spec.line.point
    # interval is the reach of the data along the line; without it, none
    reach = np.inf if sc.interval is None else max(map(abs, sc.interval))

    def traces(sc):
        return _sampled_traces(_im_sampler(sc, q), sc.kappa, sc.order,
                               _stage("extract", _scenario_schedule, sc),
                               spec, q, reach)

    try:
        (kc,), psi = traces(sc)
    except _GapCoverageError:
        # the Karp gap outran the data; one order up trusts the series
        # nearer its origin
        sc = replace(sc, order=sc.order + 1)
        (kc,), psi = traces(sc)
    values = _propagate_targets(kc, psi, spec, sc.targets)
    rows, header, metrics = _target_rows(sc.field, sc.targets, values)
    metrics["karp_order"] = sc.order
    return _RunResult(metrics, header, rows)


_COMMANDS = {
    "synth": _run_synth,
    "extract": _run_extract,
    "karp": _run_karp,
    "propagate": _run_propagate,
    "counterexample": _run_counterexample,
    "scatter": _run_scatter,
    "gkl": _run_gkl,
    "pipeline": _run_pipeline,
}

_REQUIRED = {
    "synth": ("field", "line", "interval"),
    "extract": ("field", "line", "order"),
    "karp": ("field", "line", "order"),
    "propagate": ("field", "line", "targets"),
    "counterexample": (),
    "scatter": ("potential",),
    "gkl": ("potential", "line", "interval", "order"),
    "pipeline": ("field", "line", "order", "targets"),
}


def _format_cell(v) -> str:
    return repr(float(v))


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_format_cell(v) for v in row])
    return buf.getvalue()


def _report_text(name, command, metrics, status, elapsed, stage_s,
                 error=None) -> str:
    timings = {"total_s": round(elapsed, 6)}
    timings.update({f"{label}_s": round(sec, 6)
                    for label, sec in stage_s.items()})
    doc = {
        "scenario": name,
        "command": command,
        "metrics": metrics,
        "status": status,
        "timings": timings,
    }
    if error is not None:
        doc["error"] = error
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def run_scenario(path, command, out_dir=None, order=None, quiet=False) -> int:
    """Run one command against a scenario file; returns the exit status.

    0 on success, 2 on validation failure, 3 on numerical failure, 1 when
    artifacts cannot be written. Artifacts land in out_dir, else in the
    scenario's own 'out' entry (resolved against the scenario file's
    directory), else next to the scenario file.
    """
    t0 = time.perf_counter()
    if command not in _COMMANDS:
        print(f"unknown command: {command!r}", file=sys.stderr)
        return 2
    try:
        sc = load_scenario(path)
        if order is not None:
            if order < 0:
                raise ScenarioError("--order must be >= 0")
            sc = replace(sc, order=int(order))
        for field in _REQUIRED[command]:
            if getattr(sc, field) is None:
                raise ScenarioError(
                    f"command '{command}' needs scenario field '{field}'")
    except ScenarioError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2

    scen_dir = Path(path).resolve().parent
    if out_dir is not None:
        outd = Path(out_dir)
    elif sc.out is not None:
        outd = scen_dir / sc.out
    else:
        outd = scen_dir

    try:
        with _stage_timings() as stage_s:
            res = _COMMANDS[command](sc)
    except ScenarioError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        elapsed = time.perf_counter() - t0
        text = _report_text(sc.name, command, {}, "error", elapsed, stage_s,
                            str(exc))
        try:
            outd.mkdir(parents=True, exist_ok=True)
            (outd / "report.json").write_text(text)
        except OSError as io_exc:
            print(f"cannot write {outd / 'report.json'}: {io_exc}",
                  file=sys.stderr)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    elapsed = time.perf_counter() - t0
    artifacts = [("results.csv", _csv_text(res.header, res.rows))]
    if res.coefficients is not None:
        artifacts.append(("coefficients.json",
                          json.dumps(res.coefficients, indent=2,
                                     sort_keys=True) + "\n"))
    artifacts.append(("report.json",
                      _report_text(sc.name, command, res.metrics, "ok",
                                   elapsed, stage_s)))
    try:
        outd.mkdir(parents=True, exist_ok=True)
        for fname, text in artifacts:
            (outd / fname).write_text(text)
    except OSError as exc:
        print(f"cannot write artifacts under {outd}: {exc}", file=sys.stderr)
        return 1
    if not quiet:
        print(f"{sc.name}: {command} ok")
        for key in sorted(res.metrics):
            print(f"  {key} = {res.metrics[key]:.9g}")
        for fname, _ in artifacts:
            print(f"  wrote {outd / fname}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="imfield",
        description="Run a reconstruction or scattering experiment described "
                    "by a JSON scenario file and write CSV/JSON artifacts.")
    parser.add_argument("command", choices=list(_COMMANDS),
                        help="which pipeline to run")
    parser.add_argument("--scenario", required=True,
                        help="path to the scenario JSON file")
    parser.add_argument("--out", default=None,
                        help="output directory (default: the scenario's own "
                             "'out' entry, else the scenario's directory)")
    parser.add_argument("--order", type=int, default=None,
                        help="override the scenario's expansion order")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the success summary on stdout")
    args = parser.parse_args(argv)
    return run_scenario(args.scenario, args.command, out_dir=args.out,
                        order=args.order, quiet=args.quiet)


if __name__ == "__main__":
    raise SystemExit(main())
