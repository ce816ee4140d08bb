"""The README's examples, run as written.

The library quick start is executed from its python block in README.md,
and the two scenarios of the command-line examples are read from their
heredocs and run through cli.run_scenario, so the README cannot drift from
what the code does.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from imfield import cli, eval_field

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _section(title):
    start = README.index(title)
    end = README.find("\n## ", start + len(title))
    return README[start:] if end < 0 else README[start:end]


def test_quick_start_matches_the_exact_field(capsys):
    code, = re.findall(r"```python\n(.*?)```",
                       _section("## Library quick start"), re.S)
    ns = {}
    exec(compile(code, "README.md", "exec"), ns)
    capsys.readouterr()
    target = np.array([0.5, -4.0])
    want = complex(eval_field(ns["field"], target))
    assert abs(ns["psi"][0] - want) <= 1e-2 * abs(want)


def _example_scenarios():
    """{file name: scenario} from the heredocs of the CLI examples."""
    block = _section("### Examples")
    return {name: json.loads(body) for name, body in
            re.findall(r"cat > (\S+) <<'EOF'\n(.*?)\nEOF", block, re.S)}


@pytest.mark.parametrize("command, scenario, metric, check", [
    ("counterexample", "ce.json", "radius",
     lambda v: abs(v - 2.404825557695773) <= 1e-12),
    ("pipeline", "demo.json", "max_rel_err", lambda v: v <= 1e-2),
])
def test_cli_example(tmp_path, command, scenario, metric, check):
    path = tmp_path / scenario
    path.write_text(json.dumps(_example_scenarios()[scenario]))
    assert f"imfield {command} --scenario {scenario}" in README
    status = cli.run_scenario(path, command, out_dir=tmp_path / "out",
                              quiet=True)
    assert status == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert check(report["metrics"][metric])


def _demo(tmp_path, **entries):
    """The README's demo.json, with entries replaced, written to tmp_path."""
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(dict(_example_scenarios()["demo.json"],
                                    **entries)))
    return path


def _metrics(out):
    return json.loads((out / "report.json").read_text())["metrics"]


def test_main_runs_the_demo(tmp_path, capsys):
    path = _demo(tmp_path)
    out = tmp_path / "out"
    argv = ["pipeline", "--scenario", str(path), "--out", str(out)]
    assert cli.main(argv + ["--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert sorted(p.name for p in out.iterdir()) == ["report.json",
                                                     "results.csv"]
    assert _metrics(out)["karp_order"] == 3
    # --order overrides the scenario's order, and must be >= 0
    assert cli.main(argv + ["--order", "4", "--quiet"]) == 0
    assert _metrics(out)["karp_order"] == 4
    assert cli.main(argv + ["--order", "-1"]) == 2
    assert "--order must be >= 0" in capsys.readouterr().err
    # without --quiet the run prints its metrics and artifacts
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "point-source-demo: pipeline ok"
    assert any(line.startswith("  max_rel_err = ") for line in printed)
    assert printed[-2:] == [f"  wrote {out / 'results.csv'}",
                            f"  wrote {out / 'report.json'}"]


def test_reversed_line_direction_keeps_the_pipeline_answers(tmp_path):
    # the half-plane's normal flips with the direction, so that it points
    # at the sources either way; line.point slid off the foot of the origin
    psi = []
    for d in ([1.0, 0.0], [-1.0, 0.0]):
        path = _demo(tmp_path, line={"point": [3.0, -2.0], "direction": d})
        out = tmp_path / f"out{d[0]:+.0f}"
        assert cli.run_scenario(path, "pipeline", out_dir=out,
                                quiet=True) == 0
        assert _metrics(out)["karp_order"] == 3
        rows = np.loadtxt(out / "results.csv", delimiter=",", skiprows=1)
        psi.append(rows[:, 2] + 1j * rows[:, 3])
    assert np.max(np.abs(psi[1] - psi[0])) <= 1e-12 * np.max(np.abs(psi[0]))
