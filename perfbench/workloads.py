"""The benchmark's workloads, driven through ``sparsebrdf.cli.main``.

Each workload has a set-up that writes its inputs (MERL files, an INI config,
and for ``grid-recon`` a trained bundle and supports) through the package's
public functions and verbs, and a pass: a fixed list of CLI invocations run
one after another from one process (a closed loop with one client).  After
each pass the outputs are checked: invariants on every seed, golden values on
the seed they were recorded for.

Paths are relative to the checkout root, where the benchmark runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import sparsebrdf.cli
from sparsebrdf import merl, synthetic
from sparsebrdf.dictionary import load_bundle
from sparsebrdf.evaluate import mse_mapped
from sparsebrdf.mapping import log_relative_map
from sparsebrdf.merl import read_merl

GRID_MODELS = ("ggx", "blinn-phong", "lambertian")

# a residual may exceed its predecessor by this much relative roundoff
RESIDUAL_RTOL = 1e-12
# relative tolerance of float golden values (MSEs, singular values)
GOLDEN_RTOL = 1e-6


@dataclass
class Op:
    """One CLI invocation of a pass and what happened to it."""

    label: str
    argv: list
    code: int | None = None
    seconds: float = 0.0
    stdout: str = ""
    problems: list = field(default_factory=list)


def run_cli(argv) -> tuple:
    """Call the CLI in-process; returns (exit code, stdout, stderr, seconds).

    Output is captured so that only the benchmark's own lines reach stdout.
    An uncaught exception is a failure of the invocation, as a traceback
    would be for a user.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = sparsebrdf.cli.main([str(a) for a in argv])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # noqa: BLE001 - any escape is an operation failure
        code = 1
        err.write(f"uncaught {type(exc).__name__}: {exc}\n")
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def run_pass(wl, ops, golden, observations) -> float:
    """Run one pass of ``ops``, check their outputs, and return its wall time.

    Checks run after the pass, outside its wall time.  Each op collects its
    problems; ``observations`` gathers the checked values of every op.
    """
    start = time.perf_counter()
    for op in ops:
        op.code, op.stdout, err, op.seconds = run_cli(op.argv)
        if op.code != 0:
            op.problems.append(f"exit {op.code}: {err.strip()[-300:]}")
    wall = time.perf_counter() - start
    for op in ops:
        if op.code != 0:
            continue
        try:
            json.loads(op.stdout.strip().splitlines()[-1])  # the CLI's JSON summary
            obs = wl.observe(op)
        except Exception as exc:  # noqa: BLE001 - a check that cannot run fails
            op.problems.append(f"check failed: {type(exc).__name__}: {exc}")
            continue
        observations.update(obs)
        if golden is not None:
            op.problems.extend(golden_problems(obs, golden))
    return wall


def golden_problems(obs: dict, golden: dict) -> list:
    """Differences of checked values from their golden values.

    Integers (support rows) must match exactly, floats within GOLDEN_RTOL.
    """
    if "__error__" in golden:
        return [golden["__error__"]]
    problems = []
    for key, value in obs.items():
        if key not in golden:
            problems.append(f"{key}: no golden value")
            continue
        got, want = _as_list(value), _as_list(golden[key])
        if all(isinstance(v, int) for v in got):
            good = got == want
        else:
            good = len(got) == len(want) and all(
                abs(x - y) <= GOLDEN_RTOL * abs(y) for x, y in zip(got, want))
        if not good:
            problems.append(f"{key}: {value} differs from golden {golden[key]}")
    return problems


def _as_list(value) -> list:
    return value if isinstance(value, list) else [value]


def setup_cli(argv) -> None:
    code, _, err, _ = run_cli(argv)
    if code != 0:
        raise RuntimeError(f"set-up step {argv[0]} exited {code}: {err.strip()[-300:]}")


def write_grid_corpus(out: Path, seed: int, count: int) -> None:
    """Write ``count`` full-grid (90x90x180) synthetic MERL files to ``out``.

    Parameters are drawn from ``seed`` over the ranges ``gen-corpus`` uses, but
    the models cycle through GRID_MODELS instead of being drawn at random.  All
    Lambertian materials share two directions of the mapped domain, so a
    random draw with few glossy materials gives a training matrix of rank
    below k = 20, and select-samples at m = 20 then stops with the documented
    RankCollapseError.  Cycling keeps two glossy materials in every three on
    every seed.  gen_brdf and write_merl are looked up on their modules at call
    time, so a traced set-up records them.
    """
    res = merl.BrdfResolution(90, 90, 180)
    rng = np.random.default_rng(seed)
    out.mkdir(parents=True)
    for i in range(count):
        model = GRID_MODELS[i % len(GRID_MODELS)]
        spec = synthetic.MaterialSpec(
            material_id=f"mat{i:03d}-{model}",
            model=model,
            albedo=tuple(rng.uniform(0.05, 0.95, size=3).round(6)),
            specular=tuple(rng.uniform(0.05, 1.0, size=3).round(6)),
            shininess=float(np.exp(rng.uniform(np.log(8.0), np.log(256.0)))),
            roughness=float(rng.uniform(0.08, 1.0)),
            f0=float(rng.uniform(0.02, 1.0)),
        )
        merl.write_merl(synthetic.gen_brdf(spec, res), out / f"{spec.material_id}.binary")


def non_increasing(history) -> bool:
    return all(b <= a * (1.0 + RESIDUAL_RTOL) for a, b in zip(history, history[1:]))


class DeskCv:
    """``evaluate`` on the criterion-3 config, corpus read from MERL files."""

    name = "desk-cv"
    setup_repeats = 9  # a 0.1 s set-up; the grid set-ups take 10-25 s and run once
    materials = 50
    m_values = (5, 10, 20)
    folds = 5
    random_trials = 20
    # held-out reconstructions per evaluate: materials x m x (SOMP + random trials)
    reconstructions = materials * len(m_values) * (1 + random_trials)

    def __init__(self, work: Path):
        self.work = work

    def setup(self, seed: int) -> None:
        corpus = self.work / "corpus"
        setup_cli(["gen-corpus", "--seed", seed, "--count", self.materials,
                   "--res", 16, "--out", corpus])
        (self.work / "run.ini").write_text(
            "[corpus]\nsource = directory\n"
            f"path = {corpus}\n"
            "[selection]\nm = " + ",".join(map(str, self.m_values)) + "\n"
            f"[experiment]\nfolds = {self.folds}\nseed = 7\n"
            f"random_trials = {self.random_trials}\n"
        )

    def ops(self, threads=None) -> list:
        argv = ["evaluate", "--config", self.work / "run.ini", "--out", self.work / "results"]
        if threads is not None:
            argv += ["--threads", threads]
        return [Op("evaluate", argv)]

    def observe(self, op: Op) -> dict:
        records = [json.loads(line) for line in
                   (self.work / "results" / "report.jsonl").read_text().splitlines()]
        results = [r for r in records if r["record"] == "result"]
        ok = sum(r["status"] == "ok" for r in results)
        if ok != self.reconstructions or len(results) != ok:
            op.problems.append(f"{ok} ok rows of {len(results)}, "
                               f"expected {self.reconstructions}")
        obs = {}
        for sup in (r for r in records if r["record"] == "support"):
            obs[f"supports/{sup['fold']}/{sup['m']}"] = sup["rows"]
            if not non_increasing(sup["residual_history"]):
                op.problems.append(f"residual rose in fold {sup['fold']} m={sup['m']}")
        summary = json.loads((self.work / "results" / "summary.json").read_text())
        mean = {(s["m"], s["method"]): s["mean_mse"] for s in summary}
        # On every seed SOMP must beat random placement at the smallest m, where
        # its mean MSE is 0.22-0.47x random over corpus seeds 0-39.  At m = 20
        # the two are close and SOMP loses on 9 of those 40 seeds, so larger m
        # are compared with random only through the golden values.
        m = self.m_values[0]
        if not mean[(m, "somp")] < mean[(m, "random")]:
            op.problems.append(f"m={m}: SOMP mean MSE not below random")
        obs.update({f"mean_mse/{m}/{method}": v for (m, method), v in mean.items()})
        return obs

    def extra_metrics(self, passes) -> dict:
        evaluate_s = [op.seconds for p in passes for op in p]
        return {"recon_per_s": (self.reconstructions / float(np.median(evaluate_s)),
                                "1/s", f"n={len(evaluate_s)} evaluate calls")}


class GridTrain:
    """``train-dict`` over full-grid MERL files, then ``select-samples`` per m."""

    name = "grid-train"
    setup_repeats = 1
    materials = 16
    k = 20
    m_values = (5, 10, 20)

    def __init__(self, work: Path):
        self.work = work

    def setup(self, seed: int) -> None:
        write_grid_corpus(self.work / "corpus", seed, self.materials)

    def ops(self) -> list:
        bundle = self.work / "bundle"
        ops = [Op("train-dict", ["train-dict", "--corpus", self.work / "corpus",
                                 "--k", self.k, "--out", bundle])]
        for m in self.m_values:
            ops.append(Op(f"select-samples/{m}",
                          ["select-samples", "--dict", bundle, "--m", m,
                           "--out", self.work / f"support-m{m}.json"]))
        return ops

    def observe(self, op: Op) -> dict:
        if op.label == "train-dict":
            sigma = np.fromfile(self.work / "bundle" / "sigma.bin", dtype="<f8")
            if sigma.size != self.k or np.any(np.diff(sigma) > 0.0) or sigma[-1] <= 0.0:
                op.problems.append("singular values not k positive decreasing values")
            return {"sigma": sigma.tolist()}
        m = int(op.label.split("/")[1])
        record = json.loads((self.work / f"support-m{m}.json").read_text())
        if len(set(record["rows"])) != m:
            op.problems.append(f"support of m={m} has {len(set(record['rows']))} rows")
        if not non_increasing(record["residual_history"]):
            op.problems.append(f"residual rose at m={m}")
        return {f"supports/{m}": record["rows"]}

    def extra_metrics(self, passes) -> dict:
        train = [op.seconds for p in passes for op in p if op.label == "train-dict"]
        select = [sum(op.seconds for op in p if op.label != "train-dict") for p in passes]
        return {"train_s": (float(np.median(train)), "s", f"n={len(train)}"),
                "select_s": (float(np.median(select)), "s", f"n={len(select)}")}


class GridRecon:
    """``reconstruct`` of held-out full-grid materials from trained supports."""

    name = "grid-recon"
    setup_repeats = 1
    train_materials = 10  # 7 glossy materials: rank above k = 20
    heldout_materials = 5
    k = 20
    m_values = (5, 20)

    def __init__(self, work: Path):
        self.work = work
        self._bundle = None

    def setup(self, seed: int) -> None:
        w = self.work
        write_grid_corpus(w / "train", seed, self.train_materials)
        write_grid_corpus(w / "heldout", seed + 1, self.heldout_materials)
        setup_cli(["train-dict", "--corpus", w / "train", "--k", self.k,
                   "--out", w / "bundle"])
        for m in self.m_values:
            setup_cli(["select-samples", "--dict", w / "bundle", "--m", m,
                       "--out", w / f"support-m{m}.json"])

    def ops(self) -> list:
        w = self.work
        ops = []
        for brdf in sorted((w / "heldout").glob("*.binary")):
            for m in self.m_values:
                ops.append(Op(f"{brdf.stem}/{m}", [
                    "reconstruct", "--dict", w / "bundle",
                    "--support", w / f"support-m{m}.json", "--brdf", brdf,
                    "--out", w / "recon" / f"{brdf.stem}-m{m}.binary"]))
        return ops

    def observe(self, op: Op) -> dict:
        if self._bundle is None:
            self._bundle = load_bundle(self.work / "bundle")
        bundle = self._bundle
        stem, m = op.label.split("/")
        out = self.work / "recon" / f"{stem}-m{m}.binary"
        recon = read_merl(out)
        if not np.array_equal(recon.mask, bundle.row_map.mask()):
            op.problems.append(f"{out.name} does not read back with the corpus mask")
            return {}
        if not Path(str(out) + ".json").is_file():
            op.problems.append(f"{out.name} has no sidecar")
        truth = read_merl(self.work / "heldout" / f"{stem}.binary")
        mse = mse_mapped(
            log_relative_map(truth, bundle.reference, bundle.row_map),
            log_relative_map(recon, bundle.reference, bundle.row_map),
        )
        return {f"mse/{op.label}": mse}

    def extra_metrics(self, passes) -> dict:
        lat = [op.seconds for p in passes for op in p]
        return {"recon_p50_s": (float(np.median(lat)), "s", f"n={len(lat)}"),
                "recon_per_s": (len(lat) / sum(lat), "1/s", f"n={len(lat)}")}


WORKLOADS = {w.name: w for w in (DeskCv, GridTrain, GridRecon)}
