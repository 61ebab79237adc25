import json
import shutil

import pytest

from sparsebrdf.cli import main
from sparsebrdf.dictionary import train_bundle
from sparsebrdf.evaluate import load_corpus
from sparsebrdf.merl import corpus_mask, read_merl


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
    assert json.loads(support_path.read_text()) == record


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
    assert len(sidecar["ridge_residuals"]) == 3


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


def test_train_dict_matches_train_bundle(bundle_dir, corpus_dir, capsys):
    manifest = json.loads((bundle_dir / "manifest.json").read_text())
    corpus = load_corpus(corpus_dir, None)
    bundle = train_bundle(corpus, corpus_mask(b for _, b in corpus), 5)
    assert bundle.digest == manifest["digest"]


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


@pytest.mark.parametrize("case", ["not-json", "missing-arrays", "missing-epsilon"])
def test_bad_manifest_is_runtime_error(case, bundle_dir, tmp_path, capsys):
    broken = tmp_path / "bundle"
    shutil.copytree(bundle_dir, broken)
    manifest_path = broken / "manifest.json"
    if case == "not-json":
        manifest_path.write_text(manifest_path.read_text()[:-20])
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


@pytest.mark.parametrize("case", [
    "malformed-json", "wrong-version", "missing-digest", "duplicate-rows",
    "rows-not-m",
])
def test_bad_support_record_is_config_error(case, bundle_dir, corpus_dir,
                                            tmp_path, capsys):
    support_path = tmp_path / "support.json"
    run_cli(capsys, "select-samples", "--dict", str(bundle_dir), "--m", "4",
            "--out", str(support_path))
    record = json.loads(support_path.read_text())
    if case == "malformed-json":
        support_path.write_text(support_path.read_text()[:-20])
    else:
        if case == "wrong-version":
            record["version"] = 99
        elif case == "missing-digest":
            del record["bundle_digest"]
        elif case == "duplicate-rows":
            record["rows"][1] = record["rows"][0]
        else:
            record["rows"] = record["rows"][:-1]
        support_path.write_text(json.dumps(record))
    target = sorted(corpus_dir.glob("*.binary"))[0]
    code, _, err = run_cli(
        capsys, "reconstruct", "--dict", str(bundle_dir),
        "--support", str(support_path), "--brdf", str(target),
        "--out", str(tmp_path / "r.binary"),
    )
    assert code == 3
    assert err.count("\n") == 1
    assert "support record" in err and "Traceback" not in err
    assert not (tmp_path / "r.binary").exists()


def test_coherence_command(bundle_dir, capsys):
    code, out, _ = run_cli(capsys, "coherence", "--dict", str(bundle_dir),
                           "--m", "1,2")
    assert code == 0
    record = json.loads(out)
    assert set(record["mu1"].keys()) == {"1", "2"}
    assert all(v >= 0.0 for v in record["mu1"].values())


def test_evaluate_with_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[corpus]\nsource = synthetic\nseed = 5\ncount = 9\nres = 8\n\n"
        "[selection]\nm = 3,4\n\n"
        "[experiment]\nfolds = 3\nseed = 2\nrandom_trials = 2\n\n"
        "[output]\ndir = %s\n" % (tmp_path / "out")
    )
    code, out, _ = run_cli(capsys, "evaluate", "--config", str(cfg))
    assert code == 0
    summary = json.loads(out)["summary"]
    assert {(r["m"], r["method"]) for r in summary} == {
        (3, "somp"), (3, "random"), (4, "somp"), (4, "random")
    }
    assert (tmp_path / "out" / "report.jsonl").exists()
    assert (tmp_path / "out" / "series.csv").exists()
    assert (tmp_path / "out" / "summary.json").exists()


def test_evaluate_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[corpus]\nsource = synthetic\nseed = 5\ncount = 9\nres = 8\n\n"
        "[selection]\nm = 3,4\n\n"
        "[experiment]\nfolds = 3\nseed = 2\nrandom_trials = 2\n"
    )
    code, out, _ = run_cli(capsys, "evaluate", "--config", str(cfg),
                           "--m", "3", "--out", str(tmp_path / "o2"))
    assert code == 0
    summary = json.loads(out)["summary"]
    assert {r["m"] for r in summary} == {3}


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


def test_unknown_flag_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["select-samples", "--bogus"])
    assert exc.value.code == 2


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
