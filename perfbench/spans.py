"""Span tracing around the public functions of the sparsebrdf modules.

The package's modules import each other's functions with ``from .x import y``,
so a function is looked up in the namespace of its caller, not only in the
module that defines it.  ``Tracer.install`` therefore replaces every binding of
a traced function in every loaded ``sparsebrdf`` module (and traced methods on
their classes) with a wrapper that records one span per call:
``(id, name, start, end, parent, thread)``.  Nothing inside ``src/`` changes.

Spans nest through a per-thread stack, so calls made on the evaluate worker
threads start new roots (parent ``None``) on those threads.
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

# span name -> (module, attribute path) of the traced callable
TRACED = {
    "synthetic.gen_brdf": ("synthetic", "gen_brdf"),
    "merl.read_merl": ("merl", "read_merl"),
    "merl.write_merl": ("merl", "write_merl"),
    "mapping.compute_reference": ("mapping", "compute_reference"),
    "mapping.log_relative_map": ("mapping", "log_relative_map"),
    "mapping.log_relative_unmap": ("mapping", "log_relative_unmap"),
    "dictionary.assemble_training_matrix": ("dictionary", "assemble_training_matrix"),
    "dictionary.train_pca": ("dictionary", "train_pca"),
    "dictionary.save_bundle": ("dictionary", "save_bundle"),
    "dictionary.load_bundle": ("dictionary", "load_bundle"),
    "somp.somp_select": ("somp", "somp_select"),
    "reconstruct.measure": ("reconstruct", "measure"),
    "reconstruct.ridge_solve": ("reconstruct", "ridge_solve"),
    "reconstruct.synthesize": ("reconstruct", "synthesize"),
    "reconstruct.reconstruct_full": ("reconstruct", "reconstruct_full"),
    "evaluate.run_experiment": ("evaluate", "run_experiment"),
    "evaluate.mse_mapped": ("evaluate", "mse_mapped"),
    "evaluate.snr_db": ("evaluate", "snr_db"),
    "cli.train-dict": ("cli", "cmd_train_dict"),
    "cli.select-samples": ("cli", "cmd_select_samples"),
    "cli.reconstruct": ("cli", "cmd_reconstruct"),
    "cli.evaluate": ("cli", "cmd_evaluate"),
}
# ExperimentReport methods traced together as "evaluate.report_write"
REPORT_METHODS = ("to_jsonl", "series_csv", "summary")


def rss_mb() -> float:
    """High-water resident set size of this process in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pca_bytes(pca) -> int:
    return sum(a.nbytes for a in (pca.mean, pca.atoms, pca.coeffs, pca.sigma, pca.inverse))


class Tracer:
    """Records spans and counts while installed; ``uninstall`` restores the package."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []  # (owner, attribute, original)

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(float)

    # -- recording ---------------------------------------------------------

    def _after(self, name, args, result) -> None:
        """Counts measured where the work happens; each repeats exactly."""
        c = self.counts
        if name == "merl.read_merl":
            c["merl.bytes_read"] += os.path.getsize(args[0])
        elif name == "merl.write_merl":
            c["merl.bytes_written"] += os.path.getsize(args[1])
        elif name == "somp.somp_select":
            k, n = args[0].shape
            c["somp.picks"] += len(result.indices)
            c["somp.scan_bytes"] += len(result.indices) * k * n * 8
        elif name == "dictionary.train_pca":
            c["dictionary.train_pca.peak_rss_mb"] = max(
                c["dictionary.train_pca.peak_rss_mb"], rss_mb())
            c["dictionary.bundle_bytes"] = max(c["dictionary.bundle_bytes"],
                                               _pca_bytes(result))
        elif name == "dictionary.load_bundle":
            c["dictionary.bundle_bytes"] = max(c["dictionary.bundle_bytes"],
                                               _pca_bytes(result.pca))

    def wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent,
                                     threading.get_ident()))
            with tracer._lock:
                tracer._after(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = {k: m for k, m in sys.modules.items()
                   if k == "sparsebrdf" or k.startswith("sparsebrdf.")}
        for name, (module, attr) in TRACED.items():
            original = getattr(modules[f"sparsebrdf.{module}"], attr)
            wrapper = self.wrap(name, original)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        report_cls = modules["sparsebrdf.evaluate"].ExperimentReport
        for attr in REPORT_METHODS:
            original = report_cls.__dict__[attr]
            self._patches.append((report_cls, attr, original))
            setattr(report_cls, attr, self.wrap("evaluate.report_write", original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    # -- summaries ---------------------------------------------------------

    def summary(self) -> dict:
        """Per-name busy time (summed span durations), calls and self time.

        A span directly inside a span of the same name (``series_csv`` calling
        ``summary``) adds to neither busy time nor calls.
        """
        names = {span[0]: span[1] for span in self.spans}
        child_time = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        busy = defaultdict(float)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for sid, name, start, end, parent, _ in self.spans:
            self_s[name] += end - start - child_time[sid]
            if names.get(parent) != name:
                busy[name] += end - start
                calls[name] += 1
        return {"busy_s": dict(busy), "calls": dict(calls), "self_s": dict(self_s),
                "counts": dict(self.counts)}

    def dump(self, path: Path, header: dict) -> None:
        """Write the header, then one JSON array per span, to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# counts derived from array and file sizes or call counts, not timed; each
# repeats exactly from run to run
COMPUTED = ("somp.picks", "somp.scan_bytes", "dictionary.bundle_bytes",
            "reconstruct.ridge_solve.calls", "merl.bytes_read", "merl.bytes_written")


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name == "somp.picks":
        return "count"
    if "bytes" in name:
        return "bytes"
    return "MB" if name.endswith("_mb") else "s"


def layer_metrics(timed: dict, setup: dict) -> dict:
    """Per-layer metrics of one traced pass (``timed``) and the traced set-up.

    Layers a workload never calls read 0.
    """
    busy, calls, self_s, counts = (timed[k] for k in ("busy_s", "calls", "self_s", "counts"))
    out = {}
    for name in ("reconstruct.reconstruct_full", "reconstruct.synthesize",
                 "reconstruct.measure", "mapping.log_relative_unmap",
                 "dictionary.train_pca", "dictionary.assemble_training_matrix",
                 "mapping.compute_reference", "mapping.log_relative_map",
                 "somp.somp_select", "dictionary.load_bundle",
                 "dictionary.save_bundle", "merl.read_merl", "merl.write_merl",
                 "evaluate.run_experiment", "evaluate.report_write"):
        out[f"{name}.busy_s"] = busy.get(name, 0.0)
    for name in ("reconstruct.reconstruct_full", "reconstruct.ridge_solve",
                 "mapping.log_relative_map", "somp.somp_select",
                 "dictionary.load_bundle", "merl.read_merl"):
        out[f"{name}.calls"] = calls.get(name, 0)
    out["evaluate.metrics.busy_s"] = (busy.get("evaluate.mse_mapped", 0.0)
                                      + busy.get("evaluate.snr_db", 0.0))
    for key in ("dictionary.train_pca.peak_rss_mb", "somp.picks", "somp.scan_bytes",
                "dictionary.bundle_bytes", "merl.bytes_read", "merl.bytes_written"):
        out[key] = counts.get(key, 0)
    for verb in ("train-dict", "select-samples", "reconstruct", "evaluate"):
        out[f"cli.{verb}.self_s"] = self_s.get(f"cli.{verb}", 0.0)
    out["synthetic.gen_brdf.busy_s"] = setup["busy_s"].get("synthetic.gen_brdf", 0.0)
    out["setup.merl.write_merl.busy_s"] = setup["busy_s"].get("merl.write_merl", 0.0)
    return out
