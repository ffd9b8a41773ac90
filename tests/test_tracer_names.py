"""The names the benchmark tracer (perfbench/tracer.py) wraps must exist.

A missing name otherwise shows up only when the benchmark's self-test runs.
"""

import importlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

from overpoly import bijections, polynomials
from overpoly.bijections import MAPS
from overpoly.enumeration import count_ops, forbid

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def test_every_traced_name_exists():
    tracer = runpy.run_path(str(TRACER))  # its names, without importing perfbench as a package
    for module_name, function in tracer["TRACED"]:
        module = importlib.import_module(f"overpoly.{module_name}")
        assert callable(getattr(module, function)), (module_name, function)
    for function in tracer["AUDIT_MAPS"]:
        assert callable(getattr(bijections, function)), function
    # audit applies exactly the maps the tracer counts
    assert {entry.apply for entry in MAPS.values()} == set(tracer["AUDIT_MAPS"])
    assert tracer["POLY_CALL"] == "polynomials.Poly.call" and callable(polynomials.Poly.__call__)


def test_traced_audit_counts_map_applications(tmp_path):
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(TRACER), str(spans), "0", "bijection", "g1", "--a", "3"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    counters = json.loads(spans.read_text())["counters"]
    # g1 at a = 3 is applied once to each overpartition of 4 without plain 1's
    assert counters["bijections.audit.map_applications"] == count_ops(4, 1, forbid((1, 1))) > 0
