"""The benchmark's traced names must exist in the package.

perfbench/spans.py wraps package functions by name for ``--trace 1``; a
function renamed or deleted there would break tracing without failing any
other test.  The file is loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans(monkeypatch):
    monkeypatch.setattr("sys.dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(monkeypatch):
    spans = _load_spans(monkeypatch)
    assert spans.TRACED
    for name, (module, attr) in spans.TRACED.items():
        owner = importlib.import_module(f"sparsebrdf.{module}")
        assert callable(getattr(owner, attr, None)), f"{name}: sparsebrdf.{module}.{attr}"
    report = importlib.import_module("sparsebrdf.evaluate").ExperimentReport
    for attr in spans.REPORT_METHODS:
        assert callable(report.__dict__.get(attr)), f"ExperimentReport.{attr}"
