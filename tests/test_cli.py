import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sparsebrdf
from sparsebrdf.cli import main
from sparsebrdf.dictionary import DictionaryBundle, load_bundle, train_bundle
from sparsebrdf.evaluate import load_corpus
from sparsebrdf.merl import BrdfResolution, corpus_mask, corpus_matrix, read_merl, write_merl
from sparsebrdf.somp import (
    ErrorThreshold,
    SampleBudget,
    SupportSet,
    read_support_record,
    select_support,
    support_record,
)

from conftest import duplicate_material_corpus, make_random_tensor
from oracles import (
    allocating_log_relative_map,
    full_copy_train_pca,
    stacked_reference,
    stacked_training_matrix,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    code = main(["gen-corpus", "--seed", "42", "--count", "10",
                 "--res", "8", "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def tiny_corpus_dir(tmp_path_factory):
    # 3 materials at 2^3: 9 training signals over 6 valid rows
    out = tmp_path_factory.mktemp("tiny-corpus")
    assert main(["gen-corpus", "--seed", "42", "--count", "3",
                 "--res", "2", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("bundle")
    code = main(["train-dict", "--corpus", str(corpus_dir), "--k", "5",
                 "--out", str(out)])
    assert code == 0
    return out


def test_gen_corpus_outputs(corpus_dir, capsys):
    files = sorted(corpus_dir.glob("*.binary"))
    assert len(files) == 10
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    assert manifest["seed"] == 42
    assert len(manifest["materials"]) == 10
    brdf = read_merl(files[0])
    assert brdf.resolution.grid_size == 512


def test_select_samples_record(bundle_dir, tmp_path, capsys):
    support_path = tmp_path / "support.json"
    code, out, err = run_cli(
        capsys, "select-samples", "--dict", str(bundle_dir), "--m", "5",
        "--out", str(support_path),
    )
    assert code == 0
    record = json.loads(out)
    assert record["m"] == 5
    assert len(record["rows"]) == 5
    assert len(record["directions_deg"]) == 5
    for th, td, pd in record["directions_deg"]:
        assert 0.0 <= th < 90.0 and 0.0 <= td < 90.0 and 0.0 <= pd < 180.0
    assert "theta_h" in err  # human-facing table goes to stderr
    assert re.search(r"^scan: scored \d+ of \d+ blocks over 5 picks$", err, re.M)
    assert json.loads(support_path.read_text()) == record


@pytest.mark.parametrize("flags, rule, normalize", [
    (["--m", "3", "--normalize-atoms"], SampleBudget(3), True),
    (["--threshold", "1.5"], ErrorThreshold(1.5), False),
], ids=["budget-normalized", "threshold"])
def test_select_samples_writes_the_support_record(flags, rule, normalize, bundle_dir,
                                                  tmp_path, capsys):
    support_path = tmp_path / "support.json"
    code, _, _ = run_cli(capsys, "select-samples", "--dict", str(bundle_dir), *flags,
                         "--out", str(support_path))
    assert code == 0
    bundle = load_bundle(bundle_dir)
    if isinstance(rule, SampleBudget):
        bundle = bundle.for_budget(rule.m)
    support = select_support(bundle.pca, rule, normalize)
    record = support_record(support, bundle, normalize)
    assert support_path.read_text() == json.dumps(record, indent=2)
    read, read_bundle = read_support_record(support_path, load_bundle(bundle_dir))
    assert read == SupportSet(indices=support.indices)
    assert read_bundle.pca.n_atoms == min(len(support), 5)
    assert read_bundle.digest == record["bundle_digest"] == bundle.for_budget(
        len(support)).digest


def test_reconstruct_roundtrip(bundle_dir, corpus_dir, tmp_path, capsys):
    support_path = tmp_path / "support.json"
    code, _, _ = run_cli(
        capsys, "select-samples", "--dict", str(bundle_dir), "--m", "5",
        "--out", str(support_path),
    )
    assert code == 0
    target = sorted(corpus_dir.glob("*.binary"))[0]
    out_path = tmp_path / "recon.binary"
    code, out, _ = run_cli(
        capsys, "reconstruct", "--dict", str(bundle_dir),
        "--support", str(support_path), "--brdf", str(target),
        "--out", str(out_path),
    )
    assert code == 0
    recon = read_merl(out_path)
    truth = read_merl(target)
    assert recon.resolution == truth.resolution
    sidecar = json.loads((tmp_path / "recon.binary.json").read_text())
    assert list(sidecar) == ["source", "bundle_digest", "support", "eta",
                             "ridge_residuals", "ridge_condition", "clamped_fraction"]
    assert len(sidecar["ridge_residuals"]) == 3
    rows = json.loads(support_path.read_text())["rows"]
    sampled = load_bundle(bundle_dir).pca.atoms[rows, :5]
    assert sidecar["ridge_condition"] == pytest.approx(np.linalg.cond(sampled), rel=1e-12)
    # clamped values read back as exact zeros, and no other value here is 0
    zeros = np.count_nonzero(recon.values[:, recon.mask] == 0.0)
    assert sidecar["clamped_fraction"] == zeros / (3 * recon.mask.sum())


def test_reconstruct_refuses_wrong_bundle(bundle_dir, corpus_dir, tmp_path, capsys):
    support_path = tmp_path / "support.json"
    run_cli(capsys, "select-samples", "--dict", str(bundle_dir), "--m", "4",
            "--out", str(support_path))
    record = json.loads(support_path.read_text())
    record["bundle_digest"] = "0" * 16
    support_path.write_text(json.dumps(record))
    target = sorted(corpus_dir.glob("*.binary"))[0]
    code, _, err = run_cli(
        capsys, "reconstruct", "--dict", str(bundle_dir),
        "--support", str(support_path), "--brdf", str(target),
        "--out", str(tmp_path / "r.binary"),
    )
    assert code == 3
    assert "bundle" in err


@pytest.mark.parametrize("case, message", [
    ("res-10", "measured BRDF has resolution BrdfResolution(n_theta_h=10, n_theta_d=10, "
               "n_phi_d=10), the bundle's row map has BrdfResolution(n_theta_h=8, "),
    ("res-4", "measured BRDF has resolution BrdfResolution(n_theta_h=4, "),
    ("invalid-cell", "InvalidSampleError: measured BRDF is invalid at grid cell "),
], ids=["res-10", "res-4", "invalid-cell"])
def test_reconstruct_bad_measurement_is_one_line_error(case, message, bundle_dir,
                                                       corpus_dir, tmp_path, capsys):
    support = tmp_path / "support.json"
    run_cli(capsys, "select-samples", "--dict", str(bundle_dir), "--m", "3",
            "--out", str(support))
    record = json.loads(support.read_text())
    brdf = tmp_path / "m.binary"
    if case == "invalid-cell":
        # one channel's sentinel invalidates the cell in all three; the
        # record's first cell is the one named
        data = bytearray(sorted(corpus_dir.glob("*.binary"))[0].read_bytes())
        struct.pack_into("<d", data, 12 + 8 * record["grid"][0], -1.0)
        brdf.write_bytes(data)
        message += f"{record['grid'][0]}, which support row {record['rows'][0]} samples"
    else:
        res = int(case.split("-")[1])
        write_merl(make_random_tensor(np.random.default_rng(0),
                                      res=BrdfResolution(res, res, res)), brdf)
    code, out, err = run_cli(capsys, "reconstruct", "--dict", str(bundle_dir),
                             "--support", str(support), "--brdf", str(brdf),
                             "--out", str(tmp_path / "r.binary"))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err, err
    assert not (tmp_path / "r.binary").exists()


def test_reconstruct_that_fails_its_tensor_check_writes_nothing(bundle_dir, corpus_dir,
                                                                 tmp_path, capsys,
                                                                 monkeypatch):
    # coefficients whose expansion overflows: the output pass refuses them
    # with the tensor's message, and no MERL file or sidecar is left
    import sparsebrdf.cli as cli

    support = tmp_path / "support.json"
    run_cli(capsys, "select-samples", "--dict", str(bundle_dir), "--m", "3",
            "--out", str(support))
    fit = cli.ridge_fit

    def overflowing(samples, bundle, eta):
        result = fit(samples, bundle, eta)
        return result._replace(coefficients=np.full_like(result.coefficients, 1e300))

    monkeypatch.setattr(cli, "ridge_fit", overflowing)
    out_path = tmp_path / "r.binary"
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run_cli(capsys, "reconstruct", "--dict", str(bundle_dir),
                                 "--support", str(support), "--brdf",
                                 str(sorted(corpus_dir.glob("*.binary"))[0]),
                                 "--out", str(out_path))
    assert code == 1 and out == ""
    assert err == "error: MerlFormatError: valid cells must hold finite nonnegative reflectance\n"
    assert not out_path.exists() and not Path(f"{out_path}.json").exists()


def test_train_dict_matches_train_bundle(bundle_dir, corpus_dir, capsys):
    manifest = json.loads((bundle_dir / "manifest.json").read_text())
    corpus, row_map = load_corpus(corpus_dir, None)
    bundle = train_bundle(*corpus_matrix(corpus, row_map), row_map, 5)
    assert bundle.digest == manifest["digest"]


@pytest.mark.parametrize("k", [12, 30])
def test_train_dict_checks_k_before_reading_the_corpus(k, tmp_path, capsys, monkeypatch):
    # 4 files give t = 12 training signals, so k >= 12 is refused before
    # the corpus matrix is read
    import sparsebrdf.cli as cli

    corpus = tmp_path / "corpus"
    assert main(["gen-corpus", "--seed", "42", "--count", "4", "--res", "8",
                 "--out", str(corpus)]) == 0
    capsys.readouterr()

    def unread(*args):
        raise AssertionError("the corpus matrix was read")

    monkeypatch.setattr(cli, "corpus_matrix", unread)
    code, out, err = run_cli(capsys, "train-dict", "--corpus", str(corpus), "--k", str(k),
                             "--out", str(tmp_path / "bundle"))
    assert (code, out) == (3, "")
    assert err == f"config error: k={k} must satisfy 1 <= k < t=12\n"
    assert not (tmp_path / "bundle").exists()


def test_truncated_bundle_array_is_runtime_error(bundle_dir, tmp_path, capsys):
    broken = tmp_path / "bundle"
    shutil.copytree(bundle_dir, broken)
    atoms = broken / "atoms.bin"
    atoms.write_bytes(atoms.read_bytes()[:-8])
    code, out, err = run_cli(capsys, "select-samples", "--dict", str(broken),
                             "--m", "3")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert "atoms.bin" in err and "Traceback" not in err


@pytest.mark.parametrize("case", ["not-json", "not-object", "two-int-resolution",
                                  "missing-arrays", "missing-epsilon"])
def test_bad_manifest_is_runtime_error(case, bundle_dir, tmp_path, capsys):
    broken = tmp_path / "bundle"
    shutil.copytree(bundle_dir, broken)
    manifest_path = broken / "manifest.json"
    if case == "not-json":
        manifest_path.write_text(manifest_path.read_text()[:-20])
    elif case == "not-object":
        manifest_path.write_text("[]")
    elif case == "two-int-resolution":
        manifest = json.loads(manifest_path.read_text())
        manifest_path.write_text(json.dumps({**manifest, "resolution": [8, 8]}))
    else:
        manifest = json.loads(manifest_path.read_text())
        del manifest[case.removeprefix("missing-")]
        manifest_path.write_text(json.dumps(manifest))
    code, out, err = run_cli(capsys, "select-samples", "--dict", str(broken),
                             "--m", "3")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert "BundleFormatError" in err and "manifest.json" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("version", [1, 3, "2"])
def test_other_bundle_version_is_config_error(version, bundle_dir, tmp_path, capsys):
    # a version-1 bundle stored its atoms (n, k); it must be trained again.
    # The string "2" is shown as a string, not as the supported version
    broken = tmp_path / "bundle"
    shutil.copytree(bundle_dir, broken)
    manifest = json.loads((broken / "manifest.json").read_text())
    (broken / "manifest.json").write_text(json.dumps({**manifest, "version": version}))
    code, out, err = run_cli(capsys, "select-samples", "--dict", str(broken), "--m", "3")
    assert code == 3 and out == ""
    assert err == f"config error: unsupported bundle version {version!r}\n"


@pytest.mark.parametrize("case", [
    "malformed-json", "wrong-version", "version-1", "version-2", "missing-digest",
    "duplicate-rows", "rows-not-m", "empty", "float-m", "bool-m",
])
def test_bad_support_record_is_config_error(case, bundle_dir, corpus_dir,
                                            tmp_path, capsys, monkeypatch):
    support_path = tmp_path / "support.json"
    run_cli(capsys, "select-samples", "--dict", str(bundle_dir), "--m", "4",
            "--out", str(support_path))
    record = json.loads(support_path.read_text())
    if case == "malformed-json":
        support_path.write_text(support_path.read_text()[:-20])
    else:
        if case == "wrong-version":
            record["version"] = 99
        elif case == "version-1":
            # a record of the single-level digest, which no bundle matches
            record["version"] = 1
        elif case == "version-2":
            # a record of the digest of (n, k) atoms in row chunks
            record["version"] = 2
        elif case == "missing-digest":
            del record["bundle_digest"]
        elif case == "duplicate-rows":
            record["rows"][1] = record["rows"][0]
        elif case == "empty":
            record["m"], record["rows"] = 0, []
        elif case == "float-m":
            record["m"] = float(record["m"])  # 4.0, with its four rows
        elif case == "bool-m":
            record["m"], record["rows"] = True, record["rows"][:1]
        else:
            record["rows"] = record["rows"][:-1]
        support_path.write_text(json.dumps(record))
    target = sorted(corpus_dir.glob("*.binary"))[0]
    # the record is refused before the bundle is hashed
    monkeypatch.setattr(DictionaryBundle, "digest", property(
        lambda self: pytest.fail("digest computed for a refused record")))
    code, _, err = run_cli(
        capsys, "reconstruct", "--dict", str(bundle_dir),
        "--support", str(support_path), "--brdf", str(target),
        "--out", str(tmp_path / "r.binary"),
    )
    assert code == 3
    assert err.count("\n") == 1
    assert "support record" in err and "Traceback" not in err
    if case in ("wrong-version", "version-1", "version-2"):
        assert "is not a version 3 record" in err
    if case in ("float-m", "bool-m"):
        assert "m must be an integer" in err
    assert not (tmp_path / "r.binary").exists()


def test_coherence_command(bundle_dir, capsys):
    code, out, _ = run_cli(capsys, "coherence", "--dict", str(bundle_dir),
                           "--m", "1,2")
    assert code == 0
    record = json.loads(out)
    assert set(record["mu1"].keys()) == {"1", "2"}
    assert all(v >= 0.0 for v in record["mu1"].values())


def test_coherence_refuses_before_forming_inverse(bundle_dir, capsys, monkeypatch):
    import sparsebrdf.dictionary as dictionary

    def refuse(*_):
        raise AssertionError("inverse formed before the --max-atoms check")

    monkeypatch.setattr(dictionary, "_derived_inverse", refuse)
    code, out, err = run_cli(capsys, "coherence", "--dict", str(bundle_dir),
                             "--max-atoms", "10")
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and "--max-atoms=10" in err


def test_select_samples_refuses_a_budget_above_k_before_forming_inverse(
        bundle_dir, tmp_path, capsys, monkeypatch):
    import sparsebrdf.dictionary as dictionary

    def refuse(*_):
        raise AssertionError("inverse formed before the budget check")

    monkeypatch.setattr(dictionary, "_derived_inverse", refuse)
    code, out, err = run_cli(capsys, "select-samples", "--dict", str(bundle_dir),
                             "--m", "6", "--out", str(tmp_path / "s.json"))
    assert code == 3 and out == ""
    assert err == "config error: sample budget 6 exceeds the dictionary's 5 atoms\n"
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("flags, message", [
    (["--m", "5", "--threshold", "2"],
     "m and threshold are two stop rules for one run; set one"),
    (["--max-iters", "3"], "max_iters needs threshold; a budget selection would ignore it"),
    (["--m", "0"], "sample budget must be >= 1, got 0"),
    (["--threshold", "nan"], "threshold must be >= 0, got nan"),
], ids=["m-threshold", "max-iters", "m-0", "threshold-nan"])
def test_select_samples_stop_rule_is_checked_before_the_bundle_is_read(
        flags, message, tmp_path, capsys):
    # no bundle exists: reading it would exit 1
    code, out, err = run_cli(capsys, "select-samples", "--dict", str(tmp_path / "none"),
                             *flags, "--out", str(tmp_path / "s.json"))
    assert code == 3 and out == ""
    assert err == f"config error: {message}\n"
    assert not (tmp_path / "s.json").exists()


@pytest.fixture
def negative_seed_ini(tmp_path):
    # the seed is checked before the corpus section is read, so none is needed
    cfg = tmp_path / "run.ini"
    cfg.write_text("[experiment]\nseed = -1\n")
    return cfg


@pytest.mark.parametrize("command, flags, message", [
    ("coherence", ["--m", "x"], "--m must be comma-separated integers"),
    ("coherence", ["--m", "0"], "m=0 must satisfy 1 <= m < n"),
    ("coherence", ["--m", "1,100000"], "m=100000 must satisfy 1 <= m < n"),
    ("select-samples", ["--threshold", "-1"], "threshold must be >= 0"),
    ("select-samples", ["--threshold", "nan"], "threshold must be >= 0, got nan"),
    ("select-samples", ["--threshold", "0.1", "--max-iters", "0"],
     "max_iters must be >= 1, got 0"),
    ("select-samples", ["--threshold", "0.1", "--max-iters", "-3"],
     "max_iters must be >= 1, got -3"),
    ("select-samples", ["--m", "0"], "sample budget must be >= 1, got 0"),
    ("select-samples", ["--m", "6"], "sample budget 6 exceeds the dictionary's 5 atoms"),
    ("reconstruct", ["--eta", "-1"], "eta must be >= 0"),
    ("reconstruct", ["--eta", "nan"], "eta must be >= 0, got nan"),
    ("reconstruct", ["--eta", "inf"], "eta must be finite, got inf"),
    ("train-dict", ["--k", "0"], "--k must be >= 1, got 0"),
    ("train-dict", ["--k", "-2"], "--k must be >= 1, got -2"),
    ("train-dict", ["--k", "30"], "k=30 must satisfy 1 <= k < t=30"),
    ("select-samples", ["--threshold", "3"],
     "threshold 3.0 is at or above the initial residual 2.236"),
    ("train-dict", ["--k", "3", "--epsilon", "0"],
     "epsilon must be positive and finite, got 0.0"),
    ("train-dict", ["--k", "3", "--epsilon", "-1"],
     "epsilon must be positive and finite, got -1.0"),
    ("train-dict", ["--k", "3", "--epsilon", "nan"],
     "epsilon must be positive and finite, got nan"),
    ("train-dict", ["--k", "3", "--statistic", "mode"], "unknown statistic 'mode'"),
    ("select-samples", ["--max-iters", "0"],
     "max_iters needs threshold; a budget selection would ignore it"),
    ("select-samples", ["--m", "3", "--max-iters", "5"],
     "max_iters needs threshold; a budget selection would ignore it"),
    ("select-samples", ["--m", "5", "--threshold", "2"],
     "m and threshold are two stop rules for one run; set one"),
    ("gen-corpus", ["--count", "0", "--res", "8"], "corpus count must be >= 1, got 0"),
    ("gen-corpus", ["--count", "2", "--res", "0"], "resolution counts must be >= 1, got '0'"),
    ("gen-corpus", ["--count", "2", "--res", "8,0,8"],
     "resolution counts must be >= 1, got '8,0,8'"),
    ("gen-corpus", ["--seed", "-1", "--count", "2", "--res", "8"],
     "corpus seed must be >= 0, got -1"),
    ("evaluate", ["--config", "<negative_seed_ini>"], "seed must be >= 0, got -1"),
    ("gen-corpus", ["--count", "2", "--res", "4,4"], "resolution must be N or N,N,N, got '4,4'"),
    ("train-dict", ["--corpus", "<tmp_path>", "--k", "3"], "no .binary MERL files under"),
    ("train-dict", ["--corpus", "<tiny_corpus_dir>", "--k", "2"],
     "more signals (9) than rows (6) is unsupported"),
], ids=["coherence-m-text", "coherence-m-0", "coherence-m-n", "select-threshold",
        "select-threshold-nan", "select-max-iters-0", "select-max-iters-neg",
        "select-m-0", "select-m-above-k", "reconstruct-eta", "reconstruct-eta-nan",
        "reconstruct-eta-inf", "train-k-0", "train-k-neg", "train-k-t",
        "select-threshold-empty", "train-epsilon-0", "train-epsilon-neg",
        "train-epsilon-nan", "train-statistic", "select-max-iters-no-threshold",
        "select-max-iters-budget", "select-m-threshold", "gen-count-0", "gen-res-0",
        "gen-res-axis-0", "gen-seed-neg", "evaluate-seed-neg", "gen-res-two",
        "train-empty-corpus", "train-signals-above-rows"])
def test_bad_argument_is_config_error(command, flags, message, bundle_dir, corpus_dir,
                                      tmp_path, capsys, request):
    # a flag "<name>" is the path of fixture name; tmp_path holds no corpus here
    flags = [str(request.getfixturevalue(f[1:-1])) if f.startswith("<") else f
             for f in flags]
    capsys.readouterr()  # what making the fixture printed
    argv = [command, "--dict", str(bundle_dir), *flags]
    if command == "reconstruct":
        support = tmp_path / "support.json"
        run_cli(capsys, "select-samples", "--dict", str(bundle_dir), "--m", "3",
                "--out", str(support))
        argv += ["--support", str(support), "--out", str(tmp_path / "out"),
                 "--brdf", str(sorted(corpus_dir.glob("*.binary"))[0])]
    elif command == "select-samples":
        argv += ["--out", str(tmp_path / "out")]
    elif command == "train-dict":
        argv = [command, "--corpus", str(corpus_dir), "--out", str(tmp_path / "out"),
                *flags]
    elif command in ("evaluate", "gen-corpus"):
        argv = [command, "--out", str(tmp_path / "out"), *flags]
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("selection, message", [
    ("threshold = 0.1\nmax_iters = 0", "max_iters must be >= 1, got 0"),
    ("m = 3\neta = -1", "eta must be >= 0, got -1.0"),
    ("m = 3\neta = nan", "eta must be >= 0, got nan"),
    ("m = 3\neta = inf", "eta must be finite, got inf"),
    ("threshold = nan", "threshold must be >= 0, got nan"),
    ("m = 3\nmax_iters = 3", "max_iters needs threshold; a budget selection would ignore it"),
    ("m = 3\nthreshold = 0.5", "m and threshold are two stop rules for one run; set one"),
    ("m = 5,20", "the greedy selector cannot pick more samples than atoms; "
                 "m_values must stay <= k_fixed=4"),
    ("m = 0", "sample budget must be >= 1, got 0"),
    ("m = 5,-1", "sample budget must be >= 1, got -1"),
], ids=["max-iters", "eta", "eta-nan", "eta-inf", "threshold-nan", "budget-max-iters",
        "m-threshold", "m-above-k-fixed", "m-0", "m-neg"])
def test_bad_ini_selection_is_config_error(selection, message, tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[corpus]\nsource = synthetic\ncount = 9\nres = 8\n\n"
                   "[dictionary]\nk_fixed = 4\n\n"
                   f"[selection]\n{selection}\n")
    code, out, err = run_cli(capsys, "evaluate", "--config", str(cfg),
                             "--out", str(tmp_path / "out"))
    assert code == 3 and out == ""
    assert err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sections, message", [
    ("[mapping]\nepsilon = 0", "epsilon must be positive and finite, got 0.0"),
    ("[mapping]\nepsilon = nan", "epsilon must be positive and finite, got nan"),
    ("[mapping]\nstatistic = mode", "unknown statistic 'mode'"),
    ("[corpus]\nsource = synthetic\ncount = 0\nres = 8",
     "corpus count must be >= 1, got 0"),
    ("[corpus]\nsource = synthetic\ncount = 9\nres = 0",
     "resolution counts must be >= 1, got '0'"),
    ("[corpus]\npath = /does/not/exist\ncount = 9\nres = 8",
     "[corpus] path needs source = directory; source = synthetic would ignore it"),
    ("[corpus]\nsource = directory\npath = /does/not/exist\ncount = 500\nseed = 99",
     "[corpus] count needs source = synthetic; source = directory would ignore it"),
    ("[corpus]\nsource = synthetic\nseed = -1\ncount = 9\nres = 8",
     "corpus seed must be >= 0, got -1"),
    ("[experiment]\nseed = -1", "seed must be >= 0, got -1"),
    ("[experiment]\nfolds = 1", "need folds >= 2 and random_trials >= 0"),
    ("[corpus]\nsource = synthetic\ncount = 50\nres = 8\n\n[experiment]\nfolds = 60",
     "fold count 60 outside [2, 50]"),
    ("[corpus]\nsource = tape", "unknown corpus source 'tape'"),
], ids=["epsilon-0", "epsilon-nan", "statistic", "count-0", "res-0",
        "synthetic-path", "directory-count", "corpus-seed-neg", "experiment-seed-neg",
        "experiment-folds-1", "experiment-folds", "corpus-source"])
def test_bad_ini_mapping_or_corpus_is_config_error(sections, message, tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    if "[corpus]" not in sections:
        sections += "\n\n[corpus]\nsource = synthetic\ncount = 9\nres = 8"
    cfg.write_text(f"{sections}\n\n[selection]\nm = 3\n")
    code, out, err = run_cli(capsys, "evaluate", "--config", str(cfg),
                             "--out", str(tmp_path / "out"))
    assert code == 3 and out == ""
    assert err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dictionary, message", [
    ("k_fixed = 0", "k_fixed must be >= 1, got 0"),
    ("k_fixed = -3", "k_fixed must be >= 1, got -3"),
], ids=["fixed-k-0", "fixed-k-neg"])
def test_bad_ini_dictionary_is_config_error(dictionary, message, tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[corpus]\nsource = synthetic\ncount = 9\nres = 8\n\n"
                   f"[dictionary]\n{dictionary}\n\n[selection]\nm = 3\n")
    code, out, err = run_cli(capsys, "evaluate", "--config", str(cfg),
                             "--out", str(tmp_path / "out"))
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert message in err
    assert not (tmp_path / "out").exists()


def test_evaluate_with_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[corpus]\nsource = synthetic\nseed = 5\ncount = 9\nres = 8\n\n"
        "[selection]\nm = 3,4\n\n"
        "[experiment]\nfolds = 3\nseed = 2\nrandom_trials = 2\n"
    )
    code, out, _ = run_cli(capsys, "evaluate", "--config", str(cfg),
                           "--out", str(tmp_path / "out"))
    assert code == 0
    summary = json.loads(out)["summary"]
    assert {(r["m"], r["method"]) for r in summary} == {
        (3, "somp"), (3, "random"), (4, "somp"), (4, "random")
    }
    assert (tmp_path / "out" / "report.jsonl").exists()
    assert (tmp_path / "out" / "series.csv").exists()
    assert (tmp_path / "out" / "summary.json").exists()


def test_readme_example_config_runs(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Experiment config", 1)[1]
    block = section.split("```ini\n", 1)[1].split("```", 1)[0]
    assert "; or:" in block  # the inline comments the parser must strip
    cfg = tmp_path / "run.ini"
    cfg.write_text(block)
    code, out, err = run_cli(capsys, "evaluate", "--config", str(cfg),
                             "--out", str(tmp_path / "results"))
    assert code == 0, err
    summary = json.loads(out)["summary"]
    assert {r["m"] for r in summary} == {5, 10, 20}


def test_evaluate_with_every_row_an_error_exits_1(tmp_path, capsys, monkeypatch):
    import sparsebrdf.evaluate as evaluate
    from sparsebrdf.errors import SingularMatrixError

    def fail(*_, **__):
        raise SingularMatrixError("planted failure")

    # the closed form falls back to the direct path, which then fails
    monkeypatch.setattr(evaluate, "ridge_solve", fail)
    monkeypatch.setattr(evaluate, "reconstruct_full", fail)
    cfg = tmp_path / "run.ini"
    cfg.write_text("[selection]\nm = 3\n[experiment]\nseed = 2\nfolds = 3\n"
                   "random_trials = 1\n")
    code, out, err = run_cli(capsys, "evaluate", "--config", str(cfg),
                             "--out", str(tmp_path / "out"))
    assert code == 1
    assert json.loads(out)["summary"] == []
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: all ")
    assert "SingularMatrixError: planted failure" in lines[0]
    rows = [json.loads(line) for line in
            (tmp_path / "out" / "report.jsonl").read_text().splitlines()]
    results = [r for r in rows if r["record"] == "result"]
    assert results and all(r["status"] == "error" for r in results)


def test_evaluate_scores_a_zero_signal_material(tmp_path, capsys, monkeypatch):
    # held-out copies of the fold's reference map to an all-zero signal: they
    # score -inf SNR, in closed form and on the direct path alike
    import sparsebrdf.evaluate as evaluate

    cfg = tmp_path / "dup.ini"
    cfg.write_text(
        "[corpus]\nsource = directory\npath = %s\n"
        "[dictionary]\nk_fixed = 3\n[selection]\nm = 2,3\n"
        "[experiment]\nfolds = 3\nrandom_trials = 1\n"
        % duplicate_material_corpus(tmp_path / "corpus"))
    reports = []
    for cancellation in (evaluate._CANCELLATION, math.inf):  # inf: every row direct
        monkeypatch.setattr(evaluate, "_CANCELLATION", cancellation)
        out = tmp_path / f"out-{len(reports)}"
        code, stdout, err = run_cli(capsys, "evaluate", "--config", str(cfg),
                                    "--out", str(out))
        assert code == 0 and err == "", err
        assert len(stdout.splitlines()) == 1
        records = [json.loads(line) for line in
                   (out / "report.jsonl").read_text().splitlines()]
        reports.append([r for r in records if r["record"] == "result"])
    closed, direct = reports
    assert all(r["status"] == "ok" for r in closed + direct)
    assert any(r["snr_db"] == "-inf" for r in closed)
    assert len(closed) == len(direct)
    for got, want in zip(closed, direct):
        assert got.keys() == want.keys()
        for key, value in want.items():
            if isinstance(value, float):
                assert got[key] == pytest.approx(value, rel=1e-9, abs=0.0), key
            else:
                assert got[key] == value, key


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_evaluate_overflow_rows_print_nothing_on_stderr(tmp_path, capsys):
    # ill-conditioned at eta = 0: some random-support reconstructions
    # overflow on unmap, which fails their rows and warns of nothing
    cfg = tmp_path / "eta0.ini"
    cfg.write_text("[corpus]\nsource = synthetic\nseed = 4\ncount = 15\nres = 8\n"
                   "[selection]\neta = 0\nm = 3,6\n"
                   "[experiment]\nfolds = 3\nseed = 2\nrandom_trials = 3\n")
    code, out, err = run_cli(capsys, "evaluate", "--config", str(cfg),
                             "--out", str(tmp_path / "out"))
    assert code == 0 and err == "", err
    assert len(out.splitlines()) == 1
    rows = [json.loads(line) for line in
            (tmp_path / "out" / "report.jsonl").read_text().splitlines()]
    assert any(r.get("error") == "MerlFormatError: valid cells must hold finite "
               "nonnegative reflectance" for r in rows)


def test_evaluate_missing_config_is_config_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "evaluate", "--config",
                           str(tmp_path / "nope.ini"))
    assert code == 3
    assert "config" in err.lower()


@pytest.mark.parametrize("section, key, value", [("experiment", "folds", "x"),
                                                ("selection", "m", "3,x"),
                                                ("selection", "eta", "much")])
def test_non_numeric_ini_value_is_config_error(section, key, value, tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    code, out, err = run_cli(capsys, "evaluate", "--config", str(cfg),
                             "--out", str(tmp_path / "out"))
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("config error:") and value in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    ("[experimnt]\nfolds = 3\n", "unknown section [experimnt]"),
    ("[selection]\netaa = 5\n", "unknown key 'etaa' in [selection]"),
    ("[DEFAULT]\nseed = 3\n", "unknown section [DEFAULT]"),
    ("[dictionary]\nk_policy = fixed\nk_fixed = 4\n",
     "unknown key 'k_policy' in [dictionary]"),
    ("[selection]\nstop = threshold\nthreshold = 0.5\n",
     "unknown key 'stop' in [selection]"),
    ("[output]\ndir = results\n", "unknown section [output]"),
], ids=["section", "key", "default-section", "k-policy", "stop", "output"])
def test_unknown_ini_entry_is_config_error(text, message, tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    code, out, err = run_cli(capsys, "evaluate", "--config", str(cfg),
                             "--out", str(tmp_path / "out"))
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert message in err
    assert not (tmp_path / "out").exists()


def test_evaluate_directory_corpus_from_config(corpus_dir, tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[corpus]\nsource = directory\npath = {corpus_dir}\n\n"
                   "[selection]\nm = 3\n\n[experiment]\nfolds = 2\nrandom_trials = 1\n")
    code, out, _ = run_cli(capsys, "evaluate", "--config", str(cfg),
                           "--out", str(tmp_path / "out"))
    assert code == 0
    records = [json.loads(line) for line in
               (tmp_path / "out" / "report.jsonl").read_text().splitlines()]
    assert records[0]["config"]["corpus_dir"] == str(corpus_dir)
    assert records[0]["config"]["synthetic"] is None
    materials = {r["material"] for r in records if r["record"] == "result"}
    assert materials == {p.stem for p in corpus_dir.glob("*.binary")}


def _evaluate_outputs(out):
    """summary.json and series.csv bytes, and the report records without
    their timing fields."""
    records = [json.loads(line)
               for line in (out / "report.jsonl").read_text().splitlines()]
    for record in records:
        record.pop("seconds", None)
    return ((out / "summary.json").read_bytes(), (out / "series.csv").read_bytes(),
            records)


def test_directory_corpus_evaluates_as_its_synthetic_spec(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "gen-corpus", "--seed", "42", "--count", "12",
                         "--res", "8", "--out", str(tmp_path / "corpus"))
    assert code == 0
    common = "[selection]\nm = 3,5\n\n[experiment]\nfolds = 3\nrandom_trials = 2\n"
    sources = {"dir": f"source = directory\npath = {tmp_path / 'corpus'}",
               "syn": "source = synthetic\nseed = 42\ncount = 12\nres = 8"}
    outputs = {}
    for name, corpus in sources.items():
        (tmp_path / f"{name}.ini").write_text(f"[corpus]\n{corpus}\n\n{common}")
        code, _, err = run_cli(capsys, "evaluate", "--config",
                               str(tmp_path / f"{name}.ini"), "--out", str(tmp_path / name))
        assert code == 0, err
        summary, series, records = _evaluate_outputs(tmp_path / name)
        assert records[0]["record"] == "config"
        outputs[name] = summary, series, records[1:]
    assert outputs["dir"] == outputs["syn"]


def test_evaluate_is_the_same_at_any_blas_thread_count(tmp_path, capsys):
    # the criterion-3 config read from files: its held-out products are
    # large enough that OpenBLAS splits them across threads
    code, _, _ = run_cli(capsys, "gen-corpus", "--seed", "42", "--count", "50",
                         "--res", "16", "--out", str(tmp_path / "corpus"))
    assert code == 0
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[corpus]\nsource = directory\npath = {tmp_path / 'corpus'}\n")
    src = str(Path(sparsebrdf.__file__).resolve().parents[1])
    outputs = []
    for threads in (1, 2):
        out = tmp_path / f"threads-{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-m", "sparsebrdf", "evaluate",
                              "--config", str(cfg), "--out", str(out)],
                             env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        outputs.append(_evaluate_outputs(out))
    assert outputs[0] == outputs[1]


def test_evaluate_empty_threshold_support_is_config_error(tmp_path, capsys):
    # the coefficients' rows are orthonormal: the initial residual is sqrt(k) = 2
    cfg = tmp_path / "run.ini"
    cfg.write_text("[corpus]\nsource = synthetic\ncount = 9\nres = 8\n\n"
                   "[dictionary]\nk_fixed = 4\n\n"
                   "[selection]\nthreshold = 2.5\n\n"
                   "[experiment]\nfolds = 3\n")
    code, out, err = run_cli(capsys, "evaluate", "--config", str(cfg),
                             "--out", str(tmp_path / "out"))
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    match = re.fullmatch(r"config error: threshold 2\.5 is at or above the initial "
                         r"residual (\S+): no sample was selected", lines[0])
    assert match and abs(float(match[1]) - 2.0) <= 1e-12
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def threshold_bundle(tmp_path_factory):
    """The 12-material, k = 10 bundle of the threshold round trip."""
    root = tmp_path_factory.mktemp("threshold")
    assert main(["gen-corpus", "--seed", "42", "--count", "12", "--res", "8",
                 "--out", str(root / "corpus")]) == 0
    assert main(["train-dict", "--corpus", str(root / "corpus"), "--k", "10",
                 "--out", str(root / "bundle")]) == 0
    return root


@pytest.mark.parametrize("threshold, m", [("2", 7), ("1", 10)])
def test_threshold_support_reconstructs(threshold, m, threshold_bundle, tmp_path,
                                        capsys):
    root = threshold_bundle
    support = tmp_path / "support.json"
    code, out, _ = run_cli(capsys, "select-samples", "--dict", str(root / "bundle"),
                           "--threshold", threshold, "--out", str(support))
    assert code == 0
    record = json.loads(out)
    assert record["m"] == m
    bundle = load_bundle(root / "bundle")
    assert record["bundle_digest"] == bundle.for_budget(m).digest
    if m == bundle.pca.n_atoms:  # the whole bundle, as a budget-mode record names it
        assert record["bundle_digest"] == bundle.digest
    target = sorted((root / "corpus").glob("*.binary"))[0]
    code, out, err = run_cli(capsys, "reconstruct", "--dict", str(root / "bundle"),
                             "--support", str(support), "--brdf", str(target),
                             "--out", str(tmp_path / "recon.binary"))
    assert code == 0, err
    sidecar = json.loads((tmp_path / "recon.binary.json").read_text())
    assert sidecar["bundle_digest"] == record["bundle_digest"]
    assert read_merl(tmp_path / "recon.binary").resolution == read_merl(target).resolution


def _rewrite_bundle(directory, arrays, manifest):
    """Write arrays, and manifest with their shapes, into directory."""
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        arr.astype(manifest["arrays"][name]["dtype"]).tofile(directory / f"{name}.bin")
        manifest["arrays"][name]["shape"] = list(arr.shape)
    (directory / "manifest.json").write_text(json.dumps(manifest))


def _set_shape(name, shape):
    def edit(manifest):
        manifest["arrays"][name]["shape"] = shape
    return edit


def _set_key(key, value):
    def edit(manifest):
        manifest[key] = value
    return edit


def _set_cell(name, index, value):
    def edit(arrays):
        arrays[name][index] = value
    return edit


def _resize(name, fn):
    def edit(arrays):
        arrays[name] = fn(arrays[name])
    return edit


@pytest.mark.parametrize("edit_arrays, edit_manifest, message", [
    (_resize("sigma", lambda a: np.append(a, 1.0)), None,
     "sigma has shape [6], expected (k) = [5]"),
    (_resize("mean", lambda a: a[:-1]), None, "mean has shape"),
    (_resize("reference", lambda a: a[:-1]), None, "reference has shape"),
    (_resize("rows", lambda a: a[:-1]), None, "rows has shape"),
    (_resize("coeffs", lambda a: a[:-1]), None, "coeffs has shape [4, 30], expected"),
    (_resize("atoms", lambda a: a[:0]), None, "atoms and coeffs must be nonempty"),
    (_resize("atoms", np.ravel), None, "atoms and coeffs must be nonempty"),
    (None, _set_shape("atoms", [388, 5]), "mean has shape [388], expected (n) = [5]"),
    (_set_cell("rows", -1, 10**9), None, "rows must be strictly increasing cells"),
    (_set_cell("rows", 0, -1), None, "rows must be strictly increasing cells"),
    (_resize("rows", lambda a: a[::-1]), None, "rows must be strictly increasing"),
    (None, _set_key("epsilon", -1), "epsilon must be positive and finite, got -1"),
    (None, _set_key("epsilon", float("nan")), "epsilon must be positive and finite"),
    (None, _set_key("epsilon", "x"), "epsilon must be a number"),
    (_set_cell("reference", 0, 0.0), None, "reference values must be finite and floored"),
    (_set_cell("reference", 0, np.nan), None, "reference values must be finite"),
    (_set_cell("reference", 0, np.inf), None, "reference values must be finite"),
    (None, _set_key("resolution", [0, 8, 8]), "resolution counts must be >= 1"),
    (None, _set_shape("mean", [-1, -388]), "shape of nonnegative integers"),
    (None, _set_shape("mean", [388.0]), "shape of nonnegative integers"),
    (None, _set_key("materials", 3), "materials must be a list"),
], ids=["sigma-long", "mean-short", "reference-short", "rows-short", "coeffs-k",
        "atoms-k-0", "atoms-1d", "atoms-transposed", "row-outside-grid", "row-negative",
        "rows-decreasing", "epsilon-negative", "epsilon-nan", "epsilon-text",
        "reference-zero", "reference-nan", "reference-inf", "resolution-zero", "shape-negative", "shape-float", "materials-int"])
def test_inconsistent_bundle_is_one_line_error(edit_arrays, edit_manifest, message,
                                              bundle_dir, tmp_path, capsys):
    broken = tmp_path / "bundle"
    shutil.copytree(bundle_dir, broken)
    manifest = json.loads((broken / "manifest.json").read_text())
    arrays = {name: np.fromfile(broken / f"{name}.bin", dtype=meta["dtype"])
              .reshape(meta["shape"]) for name, meta in manifest["arrays"].items()}
    assert arrays["atoms"].shape == (5, 388)  # the sizes the messages name
    if edit_arrays:
        edit_arrays(arrays)
    _rewrite_bundle(broken, arrays, manifest)
    if edit_manifest:
        edit_manifest(manifest)
        (broken / "manifest.json").write_text(json.dumps(manifest))
    code, out, err = run_cli(capsys, "select-samples", "--dict", str(broken),
                             "--m", "3")
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: BundleFormatError:") and message in err


_DIM = st.integers(0, 6)


@st.composite
def _bundle_shapes(draw):
    """Array shapes for a bundle over a 2 x 2 x 2 grid: each is either its
    consistent shape or an arbitrary one."""
    n, k, t = draw(_DIM), draw(_DIM), draw(_DIM)
    consistent = {"mean": [n], "atoms": [k, n], "coeffs": [k, t], "sigma": [k],
                  "reference": [n], "rows": [n]}
    return {name: draw(st.one_of(st.just(shape), st.lists(_DIM, max_size=3)))
            for name, shape in consistent.items()}


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(shapes=_bundle_shapes())
def test_bundle_shapes_exit_0_1_or_3(shapes, bundle_dir, capsys):
    fill = np.random.default_rng(0)
    res = BrdfResolution(2, 2, 2)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        manifest = json.loads((bundle_dir / "manifest.json").read_text())
        manifest["resolution"] = [2, 2, 2]
        arrays = {}
        for name, shape in shapes.items():
            size = int(np.prod(shape))
            if name == "rows":
                arrays[name] = np.arange(size).reshape(shape)
            elif name in ("reference", "sigma"):
                arrays[name] = np.full(shape, 0.5)
            else:
                arrays[name] = 0.1 * fill.standard_normal(shape)
        _rewrite_bundle(tmp, arrays, manifest)
        brdf = tmp / "m.binary"
        write_merl(make_random_tensor(fill, res=res, invalid_frac=0.0), brdf)
        runs = [("select-samples", "--dict", tmp, "--m", 1, "--out", tmp / "s.json"),
                ("reconstruct", "--dict", tmp, "--support", tmp / "s.json",
                 "--brdf", brdf, "--out", tmp / "r.binary")]
        for argv in runs:
            code, out, err = run_cli(capsys, *map(str, argv))
            assert code in (0, 1, 3), err
            if code:
                assert out == "" and err.count("\n") == 1, err
                assert err.startswith(("error:", "config error:")), err
                break


@pytest.fixture(scope="module")
def support_m3(tmp_path_factory, bundle_dir):
    path = tmp_path_factory.mktemp("support") / "support.json"
    assert main(["select-samples", "--dict", str(bundle_dir), "--m", "3",
                 "--out", str(path)]) == 0
    return json.loads(path.read_text())


_SPECIAL = st.sampled_from([np.nan, np.inf, -np.inf, -1.0, -0.5, -0.0, 0.0, 1e300])


@st.composite
def _reconstruct_inputs(draw, record):
    """A MERL file's bytes and a support record for reconstruct against the
    8^3, k = 5 bundle.  Each part is mostly the valid one, so that later
    checks are reached: header dims, payload length, special values (often
    at the support's cells) and the record's rows and m."""
    valid = st.integers(0, 3).map(bool)  # True three times in four
    dims = (8, 8, 8) if draw(valid) else draw(st.tuples(*[st.integers(-1, 10)] * 3))
    size = 3 * int(np.prod(np.maximum(dims, 0)))
    count = size if draw(valid) else draw(st.integers(0, size + 4))
    payload = np.random.default_rng(draw(st.integers(0, 3))).uniform(0.0, 1500.0, count)
    sampled = [c * 512 + g for g in record["grid"] for c in range(3)]
    for i, value in draw(st.lists(st.tuples(
            st.one_of(st.sampled_from(sampled), st.integers(0, 3 * 512)), _SPECIAL),
            max_size=3)):
        if i < count:
            payload[i] = value
    data = struct.pack("<3i", *dims) + payload.astype("<f8").tobytes()
    data += b"\0" * draw(st.sampled_from([0, 0, 3]))  # a trailing partial double
    record = dict(record)
    if not draw(valid):
        record["rows"] = draw(st.lists(
            st.one_of(st.integers(-2, 390), st.integers(-2**70, 2**70)),
            max_size=4, unique=True))
        record["m"] = draw(st.one_of(
            st.just(len(record["rows"])), st.integers(-1, 6),
            st.sampled_from([float(len(record["rows"])), True, False])))
    if not draw(valid):
        record["rows"] = [*record["rows"][:1], draw(st.integers(-2, 390)),
                          *record["rows"][2:]]
    return data, record


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_reconstruct_inputs_exit_0_1_or_3(data, bundle_dir, support_m3, capsys):
    merl_bytes, record = data.draw(_reconstruct_inputs(support_m3))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "m.binary").write_bytes(merl_bytes)
        (tmp / "s.json").write_text(json.dumps(record))
        # a numpy warning on stderr would be a second line: fail on it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "reconstruct", "--dict", str(bundle_dir),
                                     "--support", str(tmp / "s.json"), "--brdf",
                                     str(tmp / "m.binary"), "--out", str(tmp / "r.binary"))
        assert code in (0, 1, 3), err
        if code:
            assert out == "" and err.count("\n") == 1, err
            assert err.startswith(("error:", "config error:")), err
            assert not (tmp / "r.binary").exists()
        else:
            assert read_merl(tmp / "r.binary").resolution == BrdfResolution(8, 8, 8)


def test_reconstruct_overflow_is_one_line_error(bundle_dir, support_m3, tmp_path, capsys):
    # 1e300 at cell 1, which row 1 of the fixture's row map samples: the fit
    # through rows 343, 1 and 67 overflows the unmap, and the check of the
    # stored values reports it in one line, with no numpy warning
    payload = np.random.default_rng(0).uniform(0.0, 1500.0, 3 * 512)
    payload[1] = 1e300
    (tmp_path / "m.binary").write_bytes(struct.pack("<3i", 8, 8, 8)
                                        + payload.astype("<f8").tobytes())
    (tmp_path / "s.json").write_text(json.dumps({**support_m3, "rows": [343, 1, 67]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "reconstruct", "--dict", str(bundle_dir),
                                 "--support", str(tmp_path / "s.json"), "--brdf",
                                 str(tmp_path / "m.binary"), "--out", str(tmp_path / "r.binary"))
    assert (code, out) == (1, "")
    assert err == "error: MerlFormatError: valid cells must hold finite nonnegative reflectance\n"
    assert not (tmp_path / "r.binary").exists()


def test_unknown_flag_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["select-samples", "--bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["train-dict", "--k", "3"],
    ["train-dict", "--corpus", "c", "--k", "3", "--synthetic-count", "4"],
    ["evaluate", "--seed", "2"],
    ["evaluate", "--folds", "3"],
    ["evaluate", "--m", "3"],
    ["evaluate", "--random-trials", "1"],
], ids=["train-no-corpus", "train-synthetic-flag", "evaluate-seed-flag",
        "evaluate-folds-flag", "evaluate-m-flag", "evaluate-random-trials-flag"])
def test_usage_error_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["gen-corpus", "evaluate"])
def test_allocation_the_machine_cannot_make_is_one_line_error(command, tmp_path, capsys):
    # a 100000^3 grid asks numpy for petabytes, which it refuses at once
    if command == "gen-corpus":
        argv = ["gen-corpus", "--count", "1", "--res", "100000"]
    else:
        cfg = tmp_path / "run.ini"
        cfg.write_text("[corpus]\nsource = synthetic\ncount = 1\nres = 100000\n")
        argv = ["evaluate", "--config", str(cfg)]
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "allocate" in err
    assert not (tmp_path / "out").exists()


def test_unknown_command_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_file_runtime_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "reconstruct", "--dict",
                           str(tmp_path / "nodict"), "--support", "s",
                           "--brdf", "b", "--out", "o")
    assert code == 1


def test_out_env_var_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPARSEBRDF_OUT", str(tmp_path / "envout"))
    code, out, _ = run_cli(capsys, "gen-corpus", "--seed", "1",
                           "--count", "2", "--res", "4")
    assert code == 0
    assert json.loads(out)["dir"] == str(tmp_path / "envout" / "corpus")
    assert len(list((tmp_path / "envout" / "corpus").glob("*.binary"))) == 2


def _write_corpus(directory, rng, count, res, invalid_frac=0.1):
    """count random materials, each with its own invalid cells."""
    directory.mkdir()
    for i in range(count):
        tensor = make_random_tensor(rng, res=res, invalid_frac=invalid_frac)
        write_merl(tensor, directory / f"m{i:02d}.binary")
    return directory


@pytest.mark.parametrize("statistic", ["median", "mean"])
def test_streamed_train_dict_matches_oracle_pipeline(tmp_path, rng, monkeypatch,
                                                     capsys, statistic):
    from sparsebrdf import parallel

    monkeypatch.setattr(parallel, "_REFERENCE_BLOCK", 7)
    corpus = _write_corpus(tmp_path / "corpus", rng, 5, BrdfResolution(8, 8, 8))
    code, out, _ = run_cli(capsys, "train-dict", "--corpus", str(corpus), "--k", "6",
                           "--epsilon", "2e-3", "--statistic", statistic,
                           "--out", str(tmp_path / "bundle"))
    assert code == 0
    bundle = load_bundle(tmp_path / "bundle")

    paths = sorted(corpus.glob("*.binary"))
    tensors = [read_merl(p) for p in paths]
    ids = [p.stem for p in paths]
    rm = corpus_mask(tensors)
    assert rm.n_valid < min(int(b.mask.sum()) for b in tensors)  # masks differ
    ref = stacked_reference(tensors, rm, 2e-3, statistic)
    matrix = stacked_training_matrix(
        [allocating_log_relative_map(b, ref, rm) for b in tensors], ids, rm)
    pca = full_copy_train_pca(matrix, 6)
    for name in ("mean", "atoms", "coeffs", "sigma"):
        assert getattr(bundle.pca, name).tobytes() == getattr(pca, name).tobytes(), name
    assert bundle.reference.values.tobytes() == ref.values.tobytes()
    assert np.array_equal(bundle.row_map.grid_indices, rm.grid_indices)
    assert bundle.material_ids == tuple(ids)
    assert json.loads(out)["digest"] == DictionaryBundle(pca, rm, ref, tuple(ids)).digest


def _write_truncated(path, dims, doubles):
    with open(path, "wb") as fh:
        fh.write(struct.pack("<3i", *dims))
        np.zeros(doubles).tofile(fh)


_CORPUS_FAULTS = ["truncated", "mixed", "mixed-then-truncated", "posinf"]


def _faulty_corpus(tmp_path, rng, fault):
    """A corpus directory holding the fault, and the one line it must give."""
    corpus = _write_corpus(tmp_path / "corpus", rng, 3, BrdfResolution(8, 8, 8))
    if fault == "posinf":
        # +inf at a cell valid in m01 but outside the corpus intersection
        path = corpus / "m01.binary"
        stored = np.fromfile(path, dtype="<f8", offset=12).reshape(3, -1)
        cell = np.flatnonzero((stored >= 0.0).all(axis=0)
                              & ~read_merl(corpus / "m00.binary").mask)[0]
        stored[1, cell] = np.inf
        with open(path, "wb") as fh:
            fh.write(struct.pack("<3i", 8, 8, 8))
            stored.tofile(fh)
        return corpus, (f"error: MerlFormatError: {path}: "
                        "valid cells must hold finite nonnegative reflectance\n")
    if fault != "truncated":
        write_merl(make_random_tensor(rng, res=BrdfResolution(4, 4, 4)),
                   corpus / "m01.binary")
    if fault != "mixed":
        # sorted last, so it is read after the file of another resolution
        _write_truncated(corpus / "m99.binary", (8, 8, 8), 10)
    if fault == "mixed":
        return corpus, "error: MerlFormatError: corpus mixes resolutions\n"
    return corpus, (f"error: MerlFormatError: {corpus / 'm99.binary'}: "
                    "payload holds 10 doubles, expected 1536\n")


@pytest.mark.parametrize("fault", _CORPUS_FAULTS)
def test_train_dict_corpus_faults_exit_1_with_one_line(tmp_path, rng, capsys, fault):
    corpus, message = _faulty_corpus(tmp_path, rng, fault)
    code, out, err = run_cli(capsys, "train-dict", "--corpus", str(corpus), "--k", "2",
                             "--out", str(tmp_path / "bundle"))
    assert code == 1
    assert out == ""
    assert err == message


@pytest.mark.parametrize("fault", _CORPUS_FAULTS)
def test_evaluate_corpus_faults_exit_1_with_one_line(tmp_path, rng, capsys, fault):
    corpus, message = _faulty_corpus(tmp_path, rng, fault)
    ini = tmp_path / "run.ini"
    ini.write_text(f"[corpus]\nsource = directory\npath = {corpus}\n"
                   "[selection]\nm = 1\n[experiment]\nfolds = 2\nrandom_trials = 1\n")
    code, out, err = run_cli(capsys, "evaluate", "--config", str(ini),
                             "--out", str(tmp_path / "eval"))
    assert (code, out, err) == (1, "", message)
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("command", ["reconstruct", "train-dict"])
def test_huge_merl_header_exit_1_with_one_line(command, bundle_dir, tmp_path, rng, capsys):
    corpus = _write_corpus(tmp_path / "corpus", rng, 3, BrdfResolution(8, 8, 8))
    huge = corpus / "m99.binary"
    _write_truncated(huge, (2000, 2000, 2000), 0)
    if command == "reconstruct":
        support = tmp_path / "support.json"
        run_cli(capsys, "select-samples", "--dict", str(bundle_dir), "--m", "3",
                "--out", str(support))
        argv = ["reconstruct", "--dict", str(bundle_dir), "--support", str(support),
                "--brdf", str(huge)]
    else:
        argv = ["train-dict", "--corpus", str(corpus), "--k", "2"]
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == 1 and out == ""
    assert err == (f"error: MerlFormatError: {huge}: "
                   "payload holds 0 doubles, expected 24000000000\n")


def test_streamed_train_dict_peak_memory_bounded(tmp_path, rng, monkeypatch, capsys):
    from sparsebrdf import parallel

    # a 65536-row reference block would be the whole of this matrix; at the
    # full grid it is a sixteenth of it, and 1024 rows keeps that proportion
    monkeypatch.setattr(parallel, "_REFERENCE_BLOCK", 1024)
    count = 12
    corpus = _write_corpus(tmp_path / "corpus", rng, count, BrdfResolution(32, 32, 32),
                           invalid_frac=0.05)
    n_valid = corpus_mask(read_merl(p) for p in corpus.glob("*.binary")).n_valid
    matrix_bytes = n_valid * 3 * count * 8
    tracemalloc.start()
    try:
        code = main(["train-dict", "--corpus", str(corpus), "--k", "5",
                     "--out", str(tmp_path / "bundle")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    # the matrix, plus the n x k projection U_k at the end of training
    assert peak < 2 * matrix_bytes, peak / matrix_bytes
