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
