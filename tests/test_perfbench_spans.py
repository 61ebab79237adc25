"""The benchmark's traced names must exist in the package.

perfbench/spans.py wraps package functions by name for ``--trace 1``; a
function renamed or deleted there would break tracing without failing any
other test.  The file is loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from sparsebrdf.dictionary import (
    DictionaryBundle,
    TrainingMatrix,
    load_bundle,
    save_bundle,
    train_pca,
)
from sparsebrdf.mapping import ReferenceBrdf

from conftest import toy_row_map

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


def test_pca_bytes_reads_trained_and_loaded_dictionaries(monkeypatch, rng, tmp_path):
    # --trace 1 counts the bytes of each train_pca result and of each loaded
    # bundle's dictionary, neither of which holds a formed inverse
    spans = _load_spans(monkeypatch)
    matrix = TrainingMatrix(rng.standard_normal((50, 12)), (), toy_row_map(50), "ref")
    pca = train_pca(matrix, 5)
    save_bundle(DictionaryBundle(pca, matrix.row_map, ReferenceBrdf(np.full(50, 0.25)), ()),
                tmp_path / "bundle")
    held = sum(a.nbytes for a in (pca.mean, pca.atoms, pca.coeffs, pca.sigma))
    for dictionary in (pca, load_bundle(tmp_path / "bundle").pca):
        assert spans._pca_bytes(dictionary) >= held
