"""Benchmark of the sparsebrdf pipeline, run from the root of a checkout.

    python3 perfbench/run.py --workload desk-cv --seed 42 --seconds 20 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):

    desk-cv     evaluate on the criterion-3 config (16^3, 50 materials)
    grid-train  train-dict over 16 full-grid materials, select-samples m=5,10,20
    grid-recon  reconstruct 5 held-out full-grid materials at m=5 and m=20

The inputs are generated from --seed and written to disk by a set-up that
runs in a child process, so set-up time and memory stay out of the timed
process; a workload with a short set-up repeats it there and reports the
median.  This process then runs passes of the workload's CLI invocations
(``sparsebrdf.cli.main``, in-process) until the next pass would end after
--seconds; at least one pass runs.  Outputs are checked after every pass.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes, prints per-layer metrics (medians over the traced passes) and
writes the spans of the last traced pass to .bench_out/trace-<workload>.jsonl.
Human-readable lines come first; the last line of stdout is one JSON object.
The exit code is 0 only when every operation and check passed.

--record-golden stores the checked values of the default seed in
perfbench/golden.json instead of comparing against it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
WORK = Path(".bench_work")
OUT = Path(".bench_out")
DEFAULT_SEED = 42
CHILD_TIMEOUT_S = 150


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_package():
    if not (SRC / "sparsebrdf" / "__init__.py").is_file():
        fail(f"no sparsebrdf sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import sparsebrdf

    if SRC.resolve() not in Path(sparsebrdf.__file__).resolve().parents:
        fail(f"imported sparsebrdf from {sparsebrdf.__file__}, not from {SRC}")


def env_info() -> dict:
    """Versions and thread counts that a result depends on."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        # ExperimentConfig.threads = 0, the default, uses os.cpu_count() workers
        "evaluate_workers": os.cpu_count(),
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if var in os.environ:
            info[var] = os.environ[var]
    return info


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if it is one."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                return getter()
    return None


# -- set-up (child process) -------------------------------------------------


def setup_child(workload: str, seed: int, work: Path, trace: bool) -> None:
    """Write the workload's inputs into ``work``, from scratch each time, once
    when traced and ``setup_repeats`` times otherwise; print the set-up times
    and the set-up spans as one JSON line."""
    from spans import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](work)
    tracer = Tracer()
    if trace:
        tracer.install()
    times = []
    for _ in range(1 if trace else wl.setup_repeats):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        start = time.perf_counter()
        wl.setup(seed)
        times.append(time.perf_counter() - start)
    print(json.dumps({"setup_s": times, "trace": tracer.summary()}))


def run_setup(workload: str, seed: int, work: Path, trace: bool) -> dict:
    argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
            "--trace", str(int(trace)), "--setup-into", str(work)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_golden(workload: str, seed: int):
    """Golden values of this workload, or None on seeds that have none."""
    if seed != DEFAULT_SEED:
        return None
    try:
        return json.loads(GOLDEN.read_text())[workload]
    except (OSError, ValueError, KeyError) as exc:
        return {"__error__": f"golden values unreadable: {exc!r}"}


def median(values) -> float:
    return float(statistics.median(values))


# -- the run ----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("desk-cv", "grid-train", "grid-recon"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    parser.add_argument("--setup-into", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_package()
    if args.setup_into:
        setup_child(args.workload, args.seed, args.setup_into, bool(args.trace))
        return 0
    work = WORK / args.workload
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path) -> int:
    from spans import COMPUTED, Tracer, layer_metrics, layer_unit, rss_mb
    from workloads import WORKLOADS, run_pass

    wl = WORKLOADS[args.workload](work)
    trace = bool(args.trace)
    env = env_info()
    print("env " + json.dumps(env))
    golden = None if args.record_golden else load_golden(wl.name, args.seed)

    try:
        setup = run_setup(wl.name, args.seed, work, trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    observations = {}
    passes, walls, traced_walls, layer_runs = [], [], [], []
    tracer = Tracer()
    # wall time of each round (one pass, or an untraced and a traced pass);
    # another round starts only while it is expected to end within --seconds
    rounds = []
    while not rounds or sum(rounds) + rounds[-1] <= args.seconds:
        passes.append(wl.ops())
        walls.append(run_pass(wl, passes[-1], golden, observations))
        rounds.append(walls[-1])
        if trace:
            passes.append(wl.ops())
            tracer.reset()
            tracer.install()
            try:
                traced_walls.append(run_pass(wl, passes[-1], golden, observations))
            finally:
                tracer.uninstall()
            layer_runs.append(layer_metrics(tracer.summary(), setup["trace"]))
            rounds[-1] += traced_walls[-1]
    peak_rss_mb = rss_mb()

    if trace:
        wall_1thread = 0.0
        if wl.name == "desk-cv":
            passes.append(wl.ops(threads=1))
            wall_1thread = run_pass(wl, passes[-1], golden, observations)
        metrics = {key: {"value": median([r[key] for r in layer_runs]),
                         "unit": layer_unit(key)} for key in layer_runs[0]}
        metrics["evaluate.run_experiment.wall_1thread_s"] = {"value": wall_1thread,
                                                             "unit": "s"}
        metrics["trace.overhead_s"] = {"value": median(traced_walls) - median(walls),
                                       "unit": "s"}
        path = OUT / f"trace-{wl.name}.jsonl"
        tracer.dump(path, {"workload": wl.name, "seed": args.seed, "env": env})
        print(f"spans of the last traced pass written to {path}")
    else:
        metrics = {
            "setup_s": {"value": median(setup["setup_s"]), "unit": "s"},
            "wall_s": {"value": median(walls), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    if args.record_golden:
        recorded = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        recorded[wl.name] = observations
        GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")

    ops = [op for p in passes for op in p]
    failed = [op for op in ops if op.problems]
    for op in failed:
        for problem in op.problems:
            print(f"FAILED {op.label}: {problem}", file=sys.stderr)

    print(f"{wl.name} seed={args.seed} set-ups={len(setup['setup_s'])} pass walls (s): "
          + " ".join(f"{w:.3f}" for w in walls)
          + (" traced: " + " ".join(f"{w:.3f}" for w in traced_walls) if trace else ""))
    for key, m in metrics.items():
        note = " (computed)" if key in COMPUTED else ""
        print(f"  {key:45s} {m['value']:.6g} {m['unit']}{note}")
    if not trace:
        for key, (value, unit, note) in wl.extra_metrics(passes).items():
            print(f"  {key:45s} {value:.6g} {unit} {note}")
    print(f"  {'failed_frac':45s} {len(failed) / len(ops):.6g} ({len(failed)}/{len(ops)})")
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
