"""Command-line interface wiring the pipeline stages together.

One verb per stage so each stage is individually runnable and cacheable:

    gen-corpus      write a synthetic corpus as MERL binaries + manifest
    train-dict      train a dictionary bundle from a corpus
    select-samples  compute optimal sample directions from a bundle
    reconstruct     recover a full BRDF from samples of a measured one
    evaluate        cross-validated experiment with baselines
    coherence       cumulative-coherence diagnostic of a bundle

stdout carries machine-readable summaries (JSON); logs go to stderr.
Exit codes: 0 success, 1 runtime failure, 2 usage, 3 bad configuration.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import evaluate as ev
from .dictionary import check_k, load_bundle, save_bundle, train_bundle
from .errors import ConfigError, SparseBrdfError
from .mapping import DEFAULT_EPSILON, check_mapping, map_cells
from .merl import BrdfResolution, corpus_matrix, open_merl, write_merl
from .reconstruct import DEFAULT_ETA, check_eta, ridge_fit, write_reconstruction
from .somp import (
    SampleBudget,
    cumulative_coherence,
    direction_table,
    read_support_record,
    select_support,
    stop_rules,
    support_record,
    support_to_directions,
)
from .synthetic import gen_corpus

# default parent directory for artifacts when --out is omitted
OUT_ENV = "SPARSEBRDF_OUT"


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _resolve_out(value, default_name: str) -> Path:
    if value:
        return Path(value)
    return Path(os.environ.get(OUT_ENV, "out")) / default_name


def _int_list(text: str, what: str) -> list:
    try:
        return [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{what} must be comma-separated integers, got {text!r}") from exc


def _parse_res(text: str) -> BrdfResolution:
    parts = _int_list(text, "resolution")
    if len(parts) == 1:
        parts = parts * 3
    if len(parts) != 3:
        raise ConfigError(f"resolution must be N or N,N,N, got {text!r}")
    if min(parts) < 1:
        raise ConfigError(f"resolution counts must be >= 1, got {text!r}")
    return BrdfResolution(*parts)


def cmd_gen_corpus(args) -> int:
    res = _parse_res(args.res)
    ev.SyntheticCorpusSpec(args.seed, args.count, res)  # rejects count < 1 and seed < 0
    corpus = gen_corpus(args.seed, args.count, res)
    out = _resolve_out(args.out, "corpus")
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"seed": args.seed, "count": args.count,
                "resolution": [res.n_theta_h, res.n_theta_d, res.n_phi_d],
                "materials": []}
    for spec, tensor in corpus:
        write_merl(tensor, out / f"{spec.material_id}.binary")
        manifest["materials"].append({
            "id": spec.material_id, "model": spec.model,
            "albedo": list(spec.albedo), "specular": list(spec.specular),
            "shininess": spec.shininess, "roughness": spec.roughness,
            "f0": spec.f0,
        })
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    _log(f"wrote {len(corpus)} materials to {out}")
    print(json.dumps({"materials": len(corpus), "dir": str(out)}))
    return 0


def cmd_train_dict(args) -> int:
    if args.k < 1:
        raise ConfigError(f"--k must be >= 1, got {args.k}")
    check_mapping(args.epsilon, args.statistic)
    corpus, row_map = ev.load_corpus(args.corpus, None)
    check_k(args.k, 3 * len(corpus))
    entries, ids = corpus_matrix(corpus, row_map)
    del corpus
    bundle = train_bundle(entries, ids, row_map, args.k,
                          epsilon=args.epsilon, statistic=args.statistic)
    snapshot = {"k": args.k, "epsilon": args.epsilon, "statistic": args.statistic,
                "materials": list(bundle.material_ids)}
    bundle = replace(bundle, config_hash=ev.snapshot_hash(snapshot))
    pca = bundle.pca
    _log(f"training matrix: {pca.n_rows} x {pca.n_signals}")
    out = _resolve_out(args.out, "bundle")
    save_bundle(bundle, out)
    print(json.dumps({"bundle": str(out), "digest": bundle.digest,
                      "atoms": pca.n_atoms, "rows": pca.n_rows}))
    return 0


def cmd_select_samples(args) -> int:
    (stop,) = stop_rules(None if args.m is None else (args.m,), args.threshold,
                         args.max_iters, default=(20,))
    bundle = load_bundle(args.dict)
    if isinstance(stop, SampleBudget):
        bundle = bundle.for_budget(stop.m)
    support = select_support(bundle.pca, stop, args.normalize_atoms)
    _log(f"scan: scored {support.blocks_scored} of {support.blocks_total} blocks "
         f"over {len(support)} picks")
    record = support_record(support, bundle, args.normalize_atoms)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=2))
        _log(f"support written to {args.out}")
    _log(direction_table(support_to_directions(support, bundle.row_map)))
    print(json.dumps(record))
    return 0


def cmd_reconstruct(args) -> int:
    check_eta(args.eta)
    support, bundle = read_support_record(args.support, load_bundle(args.dict))
    # the whole file is checked, but only the support's cells are read
    values = map_cells(open_merl(args.brdf), bundle.reference, bundle.row_map,
                       support.indices)
    fit = ridge_fit(values, support, bundle, eta=args.eta)
    out = _resolve_out(args.out, f"{Path(args.brdf).stem}-recon.binary")
    out.parent.mkdir(parents=True, exist_ok=True)
    # the bundle is the support's truncation, so its atoms are the fit's
    clamped_fraction = write_reconstruction(bundle, fit.coefficients, out)
    sidecar = {
        "source": str(args.brdf), "bundle_digest": bundle.digest,
        "support": str(args.support), "eta": args.eta,
        "ridge_residuals": [float(r) for r in fit.residuals],
        "ridge_condition": fit.condition,
        "clamped_fraction": clamped_fraction,
    }
    Path(str(out) + ".json").write_text(json.dumps(sidecar, indent=2))
    print(json.dumps({"out": str(out),
                      "ridge_residuals": sidecar["ridge_residuals"]}))
    return 0


# INI (section, key) -> (ExperimentConfig field, ConfigParser getter)
_INI_OPTIONS = {
    ("mapping", "epsilon"): ("epsilon", "getfloat"),
    ("mapping", "statistic"): ("reference_statistic", "get"),
    ("dictionary", "k_fixed"): ("k_fixed", "getint"),
    ("selection", "eta"): ("eta", "getfloat"),
    ("selection", "threshold"): ("stop_threshold", "getfloat"),
    ("selection", "max_iters"): ("stop_max_iters", "getint"),
    ("selection", "normalize_atoms"): ("normalize_atoms", "getboolean"),
    ("experiment", "folds"): ("folds", "getint"),
    ("experiment", "seed"): ("seed", "getint"),
    ("experiment", "random_trials"): ("random_trials", "getint"),
}
# the [corpus] keys each source reads, beside source itself
_CORPUS_KEYS = {"directory": ("path",), "synthetic": ("seed", "count", "res")}
# every (section, key) an INI file may hold
_INI_KEYS = {
    *_INI_OPTIONS,
    ("corpus", "source"),
    *(("corpus", key) for keys in _CORPUS_KEYS.values() for key in keys),
    ("selection", "m"),
}


def _config_from_ini(path: Path) -> dict:
    if not path.exists():
        raise ConfigError(f"config file {path} not found")
    try:
        return _read_ini(path)
    except (configparser.Error, ValueError) as exc:
        # configparser's parse errors run over several lines; the first says it
        raise ConfigError(f"{path}: {str(exc).splitlines()[0]}") from exc


def _read_ini(path: Path) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    parser.read(path)
    if parser.defaults():
        raise ConfigError(f"{path}: unknown section [{parser.default_section}]")
    for section in parser.sections():
        if not any(section == known for known, _ in _INI_KEYS):
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if (section, key) not in _INI_KEYS:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
    raw: dict = {}
    get = parser.get

    if parser.has_section("corpus"):
        source = get("corpus", "source", fallback="synthetic")
        if source not in _CORPUS_KEYS:
            raise ConfigError(f"unknown corpus source {source!r}")
        for key in parser["corpus"]:
            if key != "source" and key not in _CORPUS_KEYS[source]:
                other = next(name for name, keys in _CORPUS_KEYS.items() if key in keys)
                raise ConfigError(f"[corpus] {key} needs source = {other}; "
                                  f"source = {source} would ignore it")
        if source == "directory":
            raw["corpus_dir"] = get("corpus", "path")
            raw["synthetic"] = None
        else:
            raw["synthetic"] = ev.SyntheticCorpusSpec(
                seed=parser.getint("corpus", "seed", fallback=42),
                count=parser.getint("corpus", "count", fallback=50),
                resolution=_parse_res(get("corpus", "res", fallback="16")),
            )
    for (section, key), (name, getter) in _INI_OPTIONS.items():
        if parser.has_option(section, key):
            raw[name] = getattr(parser, getter)(section, key)
    if parser.has_option("selection", "m"):
        raw["m_values"] = tuple(_int_list(get("selection", "m"), "m"))
    return raw


def cmd_evaluate(args) -> int:
    raw = _config_from_ini(Path(args.config)) if args.config else {}
    out_dir = Path(args.out or os.environ.get(OUT_ENV, "out"))
    report = ev.run_experiment(ev.ExperimentConfig(**raw))
    out_dir.mkdir(parents=True, exist_ok=True)
    report.to_jsonl(out_dir / "report.jsonl")
    report.series_csv(out_dir / "series.csv")
    summary = report.summary()
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2))
    print(json.dumps({"hash": report.config_hash, "rows": len(report.rows),
                      "summary": summary}))
    if not summary:
        _log(f"error: all {len(report.rows)} reconstructions failed, the first with "
             f"{report.rows[0]['error']}; report written to {out_dir}")
        return 1
    return 0


def cmd_coherence(args) -> int:
    bundle = load_bundle(args.dict)
    n = bundle.pca.n_rows
    if n > args.max_atoms:
        raise ConfigError(
            f"coherence scan over {n} columns exceeds --max-atoms={args.max_atoms}; "
            "raise the cap if you really want the O(n^2) scan"
        )
    dinv = bundle.pca.inverse
    values = {m: cumulative_coherence(dinv, m) for m in
              sorted(set(_int_list(args.m, "--m")))}
    print(json.dumps({"bundle_digest": bundle.digest,
                      "mu1": {str(m): v for m, v in values.items()}}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsebrdf",
        description="Optimal sparse sampling and reconstruction of measured BRDFs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    out_help = f"output path (default: ${OUT_ENV} or ./out)"

    p = sub.add_parser("gen-corpus", help="write a synthetic corpus of MERL files")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--res", default="16")
    p.add_argument("--out", help=out_help)
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("train-dict", help="train a dictionary bundle")
    p.add_argument("--corpus", required=True, help="directory of MERL .binary files")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--statistic", default="median", help="median or mean")
    p.add_argument("--out", help=out_help)
    p.set_defaults(func=cmd_train_dict)

    p = sub.add_parser("select-samples", help="compute optimal sample directions")
    p.add_argument("--dict", required=True)
    p.add_argument("--m", type=int, default=None, help="sample budget (default: 20)")
    p.add_argument("--threshold", type=float, default=None,
                   help="stop at this residual instead of a fixed budget")
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--normalize-atoms", action="store_true")
    p.add_argument("--out", help="also write the support record to this path")
    p.set_defaults(func=cmd_select_samples)

    p = sub.add_parser("reconstruct", help="reconstruct a full BRDF from samples")
    p.add_argument("--dict", required=True)
    p.add_argument("--support", required=True)
    p.add_argument("--brdf", required=True, help="measured BRDF to sample")
    p.add_argument("--eta", type=float, default=DEFAULT_ETA)
    p.add_argument("--out", help=out_help)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("evaluate", help="cross-validated experiment")
    p.add_argument("--config", help="INI config file")
    p.add_argument("--out", help=out_help)
    p.add_argument("--threads", type=int, default=None,
                   help="accepted and ignored: evaluation runs in one thread")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("coherence", help="cumulative coherence diagnostic")
    p.add_argument("--dict", required=True)
    p.add_argument("--m", default="1,2,3")
    p.add_argument("--max-atoms", type=int, default=4096, help="cap on the dictionary's "
                   "rows n, the inverse columns the O(n^2) scan pairs; not on its atoms")
    p.set_defaults(func=cmd_coherence)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _log(f"config error: {exc}")
        return 3
    except (SparseBrdfError, OSError, MemoryError) as exc:
        _log(f"error: {type(exc).__name__}: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
