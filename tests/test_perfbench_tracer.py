"""The benchmark's tracer wraps diffpi functions and methods by name
(perfbench/tracer.py, TIMED). A rename on the diffpi side breaks the
traced benchmark run, so this test runs the tracer, unchanged, around
two small CLI jobs and checks that the linear algebra layer was seen."""

import importlib.util
import json
from pathlib import Path

import diffpi.cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_linalg_through_cli(tmp_path):
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        for i, argv in enumerate((["codim", "UT2eps", "--max-n", "2"],
                                  ["exponent", "UTk(3)"])):
            out = tmp_path / f"job{i}.json"
            assert diffpi.cli.main(
                argv + ["--format", "json", "--out", str(out)]) == 0
            json.loads(out.read_text())
    finally:
        tracer.uninstall()
    layers = tracer.aggregate()
    assert layers["linalg.insert_calls"] > 0
    assert layers["linalg.express_calls"] > 0
    assert layers["linalg.insert_accepted"] > 0
    assert layers["cli.main_calls"] == 2
