"""Span tracer that wraps rotquant's public functions from the outside.

No source file of rotquant is edited.  On entry the tracer replaces each
traced function in the module that defines it and in every other rotquant
module (the package namespace included) that imported it by name;
``Xoshiro256pp.words`` and ``EmpiricalSample.from_values`` are replaced on
their classes.  On exit every replaced attribute is put back.

Spans are recorded only while ``active`` is set, which the benchmark does
around its timed regions.  Each span keeps its name, start, end, parent span
and the benchmark op that caused it; spans stay in memory until the run ends.
Work that a runner hands to worker threads is parented to the main thread's
innermost open span, since the benchmark has a single caller.

Self time of a span is its duration minus the part of its interval that its
child spans cover (children in worker threads may overlap each other).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "rotquant"

# The runners a harness pass calls; each is traced as experiments.<name>.
RUNNERS = (
    "run_drive_biased",
    "run_drive_unbiased",
    "run_dme",
    "run_bsq_outliers",
    "run_bsq_transfer",
    "run_vq_decorrelation",
    "run_vq_universality",
    "run_scalar_convergence",
    "run_adaptive_soundness",
)

# (module, attribute path, span name)
TARGETS = (
    ("rng", "Xoshiro256pp.words", "rng.words"),
    ("core", "layer_signs", "core.layer_signs"),
    ("core", "fwht", "core.fwht"),
    ("core", "rotate_many", "core.rotate_many"),
    ("drive", "drive_encode", "drive.drive_encode"),
    ("drive", "drive_decode", "drive.drive_decode"),
    ("drive", "measure_drive_error", "drive.measure_drive_error"),
    ("drive", "dme_simulate", "drive.dme_simulate"),
    ("bsq", "bsq_encode", "bsq.bsq_encode"),
    ("bsq", "bsq_decode", "bsq.bsq_decode"),
    ("bsq", "verify_tv_transfer", "bsq.verify_tv_transfer"),
    ("vq", "vq_encode", "vq.vq_encode"),
    ("vq", "vq_decode", "vq.vq_decode"),
    ("vq", "train_gaussian_codebook", "vq.train_gaussian_codebook"),
    ("vq", "conditional_cov_trials", "vq.conditional_cov_trials"),
    ("vq", "verify_codebook_universality", "vq.verify_codebook_universality"),
    ("adaptive", "decide_layers", "adaptive.decide_layers"),
    ("codec", "serialize", "codec.serialize"),
    ("codec", "deserialize", "codec.deserialize"),
    ("metrics", "empirical_kolmogorov", "metrics.empirical_kolmogorov"),
    ("metrics", "empirical_w1", "metrics.empirical_w1"),
    ("metrics", "EmpiricalSample.from_values", "metrics.EmpiricalSample.from_values"),
) + tuple(("experiments", r, f"experiments.{r}") for r in RUNNERS)

MODULES = ("rng", "core", "drive", "bsq", "vq", "adaptive", "codec", "metrics",
           "experiments")

# Worst-case layer counts of the scalar and vector paths.
WORST_SCALAR_LAYERS = 2
WORST_VQ_LAYERS = 3


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_words(c, args, kwargs, result, error):
    c["rng.words.count"] += args[0].n_streams * _arg(args, kwargs, 1, "count")


def _count_fwht(c, args, kwargs, result, error):
    if result is None:
        return
    d = result.shape[-1]
    log2d = d.bit_length() - 1
    c["core.fwht.coords"] += result.size
    c["core.fwht.adds"] += result.size * log2d
    # model: every butterfly stage reads and writes each float64 once, plus
    # the copy of the input
    c["core.fwht.bytes_computed"] += 16 * result.size * (log2d + 1)


def _count_signs(c, args, kwargs, result, error):
    seeds = np.atleast_1d(np.asarray(_arg(args, kwargs, 0, "seeds"), dtype=np.uint64))
    key = (int(_arg(args, kwargs, 1, "layer")), int(_arg(args, kwargs, 2, "dim")))
    c.sign_requests[key].append(seeds.copy())


def _count_bsq(c, args, kwargs, result, error):
    if result is not None:
        c["bsq.escapes"] += result.outlier_idx.size
        c["bsq.coords"] += result.spec.dim


def _count_decision(c, args, kwargs, result, error):
    if result is not None:
        c["adaptive.layers"] += result.scalar_layers + result.vq_layers
        c["adaptive.worst_layers"] += WORST_SCALAR_LAYERS + WORST_VQ_LAYERS


def _count_serialize(c, args, kwargs, result, error):
    if result is not None:
        c["codec.bytes_out"] += len(result)
        spec = getattr(args[0], "spec", None)
        if spec is not None:
            c["codec.payload_bytes_out"] += len(result)
            c["codec.payload_coords"] += spec.dim


def _count_deserialize(c, args, kwargs, result, error):
    c["codec.bytes_in"] += len(_arg(args, kwargs, 0, "data"))
    if error is not None and type(error).__name__ == "FormatError":
        c["codec.deserialize.rejected"] += 1


HOOKS = {
    "rng.words": _count_words,
    "core.fwht": _count_fwht,
    "core.layer_signs": _count_signs,
    "bsq.bsq_encode": _count_bsq,
    "adaptive.decide_layers": _count_decision,
    "codec.serialize": _count_serialize,
    "codec.deserialize": _count_deserialize,
}


class Counters(defaultdict):
    """Counts taken at the traced boundaries, plus the sign-plane requests."""

    def __init__(self):
        super().__init__(float)
        self.sign_requests = defaultdict(list)

    def repeat_ratio(self) -> float:
        """Share of (seed, layer, dim) requests already made earlier in the run."""
        total = repeats = 0
        for chunks in self.sign_requests.values():
            seeds = np.concatenate(chunks)
            total += seeds.size
            repeats += seeds.size - np.unique(seeds).size
        return repeats / total if total else 0.0


class Tracer:
    """Context manager that patches the traced functions and records spans."""

    def __init__(self):
        self.active = False
        self.op = None
        self.spans = []  # (span id, name, start, end, parent id, op)
        self.counters = Counters()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._restore = []  # (owner, attribute, original value)

    # -- patching -----------------------------------------------------------

    def __enter__(self):
        try:
            for module, path, name in TARGETS:
                self._patch(module, path, name)
        except BaseException:
            self._unpatch()
            raise
        return self

    def __exit__(self, *exc):
        self.active = False
        self._unpatch()
        return False

    def _patch(self, module: str, path: str, name: str):
        mod = importlib.import_module(f"{PACKAGE}.{module}")
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            else:
                new = self._wrap(name, raw)
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, new)
            return
        original = getattr(mod, path)
        wrapped = self._wrap(name, original)
        for mod_name, other in list(sys.modules.items()):
            if other is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(other).items()):
                if value is original:
                    self._restore.append((other, attr, original))
                    setattr(other, attr, wrapped)

    def _unpatch(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main and stack is not main else None
            sid = next(tracer._ids)
            stack.append(sid)
            result = error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent, tracer.op))
                if hook is not None:
                    with tracer._lock:
                        hook(tracer.counters, args, kwargs, result, error)

        return traced

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-function calls and self time, per-module self time, and the
        derived ratios; every traced name is reported, unused ones as 0."""
        return layer_metrics(self.spans, self.counters)


def self_times(spans) -> dict:
    """Self seconds per span id: duration minus the union of its children's
    intervals, each clipped to the parent's interval."""
    bounds = {s[0]: (s[2], s[3]) for s in spans}
    children = defaultdict(list)
    for sid, _, start, end, parent, _ in spans:
        if parent is not None and parent in bounds:
            children[parent].append((start, end))
    out = {}
    for sid, (start, end) in bounds.items():
        covered = 0.0
        cursor = start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out[sid] = (end - start) - covered
    return out


def _ratio(num: float, den: float) -> float:
    """A ratio whose base is 0 in a workload is reported as 0."""
    return num / den if den else 0.0


def layer_metrics(spans, counters: Counters) -> dict:
    """Aggregate spans and counters into the benchmark's per-layer metrics."""
    own = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    inclusive = defaultdict(float)
    for sid, name, start, end, _, _ in spans:
        calls[name] += 1
        self_s[name] += own[sid]
        inclusive[name] += end - start
    out = {}
    for _, _, name in TARGETS:
        if name.startswith("experiments."):
            out[f"{name}.s"] = (inclusive[name], "s")
        else:
            out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    for module in MODULES:
        out[f"{module}.self_s"] = (
            sum(v for k, v in self_s.items() if k.split(".")[0] == module), "s")
    c = counters
    words = c["rng.words.count"]
    out["rng.words.count"] = (words, "count")
    out["rng.ns_per_word"] = (_ratio(self_s["rng.words"] * 1e9, words), "ns")
    out["core.fwht.coords"] = (c["core.fwht.coords"], "count")
    out["core.fwht.gflops"] = (_ratio(c["core.fwht.adds"] / 1e9, self_s["core.fwht"]), "GFLOP/s")
    out["core.fwht.bytes_computed"] = (c["core.fwht.bytes_computed"], "bytes")
    out["core.layer_signs.repeat_ratio"] = (c.repeat_ratio(), "ratio")
    out["adaptive.layers_ratio"] = (_ratio(c["adaptive.layers"], c["adaptive.worst_layers"]), "ratio")
    out["bsq.escape_ratio"] = (_ratio(c["bsq.escapes"], c["bsq.coords"]), "ratio")
    out["codec.bytes_out"] = (c["codec.bytes_out"], "bytes")
    out["codec.bytes_in"] = (c["codec.bytes_in"], "bytes")
    out["codec.deserialize.rejected"] = (c["codec.deserialize.rejected"], "count")
    out["codec.wire_bits_per_coord"] = (
        _ratio(8 * c["codec.payload_bytes_out"], c["codec.payload_coords"]), "bits")
    return out


def span_records(spans):
    """Spans as JSON-ready dicts, in start order."""
    return [{"id": sid, "name": name, "start": start, "end": end,
             "parent": parent, "op": op}
            for sid, name, start, end, parent, op in sorted(spans, key=lambda s: s[2])]
