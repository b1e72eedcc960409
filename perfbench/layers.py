"""Layer tracing from outside the program.

Every traced function of `stftlab` is replaced, in each module that bound
it, by a wrapper that opens a span. `from .x import y` copies the function
into the importing module's globals, and calls inside one module go through
that module's globals, so a wrapper has to be installed under every name
that refers to the original. Methods are patched on the class that defines
them.

A span records self time (its duration minus the time its traced children
took) under a layer key such as `geometry.marching_squares`, plus work counts
computed from the call's arguments and result.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import defaultdict


def _size(path) -> int:
    return os.stat(path).st_size


def _cdft_counts(tr, args, kwargs, result):
    tr.add("grids.cdft.samples", args[0].size)


def _stft_counts(tr, args, kwargs, result):
    tr.add("transforms.stft.cells", result.values.size)
    if tr.active("forge.stft_instability_family"):
        tr.add("forge.stft_instability_family.stft_calls", 1)


def _distance_counts(tr, args, kwargs, result):
    tr.add("norms.phase_inf_distance.evaluations", result.evaluations)


def _cheeger_counts(tr, args, kwargs, result):
    tr.add("geometry.cheeger_estimate.candidates", len(result.table))
    tr.add("geometry.cheeger_estimate.feasible",
           sum(1 for row in result.table if row["feasible"]))


def _marching_counts(tr, args, kwargs, result):
    nx, ny = args[2].shape
    tr.add("geometry.marching_squares.cells", (nx - 1) * (ny - 1))
    tr.add("geometry.marching_squares.segments", len(result))


def _poincare_counts(tr, args, kwargs, result):
    tr.add("geometry.poincare_constant.vertices",
           int(args[0].inside.sum()))


def _write_counts(tr, args, kwargs, result):
    # the CSV tables only: summary.json carries the run's wall-clock time,
    # so its length changes from run to run
    tr.add("experiments.write_result.bytes",
           sum(_size(p) for p in result if p.suffix == ".csv"))


def _dump_counts(tr, args, kwargs, result):
    tr.add("io.bytes", _size(args[-1] if len(args) > 1 else kwargs["path"]))


def _load_counts(tr, args, kwargs, result):
    tr.add("io.bytes", _size(args[0] if args else kwargs["path"]))


# (module, function or Class.method, layer key, counter)
TARGETS = (
    ("grids", "cdft", "grids.cdft", _cdft_counts),
    ("grids", "icdft", "grids.cdft", _cdft_counts),
    ("transforms", "stft", "transforms.stft", _stft_counts),
    ("transforms", "ambiguity", "transforms.ambiguity", None),
    ("transforms", "recover", "transforms.recover", None),
    ("norms", "Norm.__call__", "norms.norm", None),
    ("norms", "IntersectionNorm.__call__", "norms.norm", None),
    ("norms", "frac_sobolev_norm", "norms.frac_sobolev_norm", None),
    ("norms", "phase_inf_distance", "norms.phase_inf_distance",
     _distance_counts),
    ("forge", "stft_instability_family", "forge.stft_instability_family",
     None),
    ("forge", "lp_reduction_rows", "forge.lp_reduction_rows", None),
    ("forge", "instability_ratio", "forge.instability_ratio", None),
    ("forge", "field_instability_ratio", "forge.instability_ratio", None),
    ("forge", "normalize_seed", "forge.schedule", None),
    ("forge", "select_annulus_schedule", "forge.schedule", None),
    ("forge", "build_bumps", "forge.schedule", None),
    ("geometry", "cheeger_estimate", "geometry.cheeger_estimate",
     _cheeger_counts),
    ("geometry", "marching_squares", "geometry.marching_squares",
     _marching_counts),
    ("geometry", "poincare_constant", "geometry.poincare_constant",
     _poincare_counts),
    ("geometry", "stability_certificate", "geometry.stability_certificate",
     None),
    ("experiments", "run", "experiments.run", None),
    ("experiments", "write_result", "experiments.write_result",
     _write_counts),
    ("experiments", "verify_run", "experiments.verify_run", None),
    ("io", "dump_signal", "io.dump", _dump_counts),
    ("io", "dump_field", "io.dump", _dump_counts),
    ("io", "dump_mask", "io.dump", _dump_counts),
    ("io", "load", "io.load", _load_counts),
    ("cli", "main", "cli.main", None),
)

LAYERS = tuple(dict.fromkeys(key for _, _, key, _ in TARGETS))

# the per-layer metrics the benchmark reports, in BENCHMARK.json order
PER_LAYER = (
    ("grids.cdft.calls", "count"),
    ("grids.cdft.samples", "count"),
    ("grids.cdft.s", "s"),
    ("transforms.stft.calls", "count"),
    ("transforms.stft.cells", "count"),
    ("transforms.stft.s", "s"),
    ("transforms.ambiguity.calls", "count"),
    ("transforms.ambiguity.s", "s"),
    ("transforms.recover.calls", "count"),
    ("transforms.recover.s", "s"),
    ("norms.norm.calls", "count"),
    ("norms.norm.s", "s"),
    ("norms.frac_sobolev_norm.calls", "count"),
    ("norms.frac_sobolev_norm.s", "s"),
    ("norms.phase_inf_distance.calls", "count"),
    ("norms.phase_inf_distance.evaluations", "count"),
    ("norms.phase_inf_distance.s", "s"),
    ("forge.stft_instability_family.calls", "count"),
    ("forge.stft_instability_family.stft_calls", "count"),
    ("forge.stft_instability_family.s", "s"),
    ("forge.lp_reduction_rows.s", "s"),
    ("forge.instability_ratio.s", "s"),
    ("forge.schedule.s", "s"),
    ("geometry.cheeger_estimate.calls", "count"),
    ("geometry.cheeger_estimate.candidates", "count"),
    ("geometry.cheeger_estimate.feasible_share", "ratio"),
    ("geometry.cheeger_estimate.s", "s"),
    ("geometry.marching_squares.calls", "count"),
    ("geometry.marching_squares.cells", "count"),
    ("geometry.marching_squares.segments", "count"),
    ("geometry.marching_squares.s", "s"),
    ("geometry.poincare_constant.calls", "count"),
    ("geometry.poincare_constant.vertices", "count"),
    ("geometry.poincare_constant.s", "s"),
    ("geometry.stability_certificate.s", "s"),
    ("experiments.run.s", "s"),
    ("experiments.write_result.s", "s"),
    ("experiments.write_result.bytes", "B"),
    ("experiments.verify_run.s", "s"),
    ("io.dump.s", "s"),
    ("io.load.s", "s"),
    ("io.bytes", "B"),
    ("cli.main.s", "s"),
)


class Tracer:
    """Span stack with per-layer self time, call counts and work counts."""

    def __init__(self):
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []  # [key, start_ns, child_ns]
        self.on = True

    def add(self, name: str, n: int) -> None:
        self.counts[name] += int(n)

    def active(self, key: str) -> bool:
        return any(frame[0] == key for frame in self._stack)

    def wrap(self, fn, key, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            frame = [key, time.perf_counter_ns(), 0]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                total = time.perf_counter_ns() - frame[1]
                tracer._stack.pop()
                tracer.self_ns[key] += total - frame[2]
                tracer.calls[key] += 1
                if tracer._stack:
                    tracer._stack[-1][2] += total
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside are not recorded (the benchmark's own checks)."""
        self.on = False
        try:
            yield
        finally:
            self.on = True

    def install(self, lab) -> None:
        """Replace every traced function of the modules in `lab` (a
        namespace of `stftlab` modules) under every name bound to it."""
        modules = list(vars(lab).values())
        for modname, attr, key, counter in TARGETS:
            home = getattr(lab, modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, self.wrap(cls.__dict__[meth], key, counter))
                continue
            original = getattr(home, attr)
            wrapper = self.wrap(original, key, counter)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)

    def metrics(self, rounds: int) -> dict:
        """PER_LAYER values for one round: self seconds and work counts,
        each a per-round mean over `rounds` identical rounds."""
        values = dict(self.counts)
        for key in LAYERS:
            values[f"{key}.calls"] = self.calls[key]
            values[f"{key}.s"] = self.self_ns[key] / 1e9
        out = {name: values.get(name, 0) / rounds for name, _ in PER_LAYER}
        cands = values.get("geometry.cheeger_estimate.candidates", 0)
        out["geometry.cheeger_estimate.feasible_share"] = (
            values.get("geometry.cheeger_estimate.feasible", 0) / cands
            if cands else 0.0)
        return out
