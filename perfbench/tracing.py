"""Spans around the calls into each compoplab layer, recorded from outside.

The tracer replaces public functions where their callers bind them (the
`compoplab.experiments` and `compoplab.cli` module namespaces, and the
benchmark's own namespace for its direct `spectra` calls) with timing
wrappers, and replaces the classes the experiments construct with
subclasses that time only the methods named here.  Nothing under `src/` is
edited.  A hook whose target name no longer exists is recorded as missing;
the metrics that depend only on missing hooks are then reported as absent.

A span is (id, parent id, layer, name, start, end, pass id).  Spans stay
in memory and are written out when the run ends.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

# (namespace key, attribute, layer).  Namespace keys are resolved by the
# caller: "experiments" -> compoplab.experiments, "cli" -> compoplab.cli,
# "pairs" -> the benchmark's binding of compoplab.spectra functions.
FUNCTION_HOOKS = [
    ("cli", "run", "experiments.run"),
    ("experiments", "build_matrix", "operators.build"),
    ("experiments", "build_diagonal_polydisk_matrix", "operators.build"),
    ("experiments", "reweight_diagonal_matrix", "operators.build"),
    ("experiments", "hs_norm_sq", "operators.hs"),
    ("experiments", "singular_values", "spectra.svd"),
    ("experiments", "decay_fit", "spectra.fit"),
    ("experiments", "beta_estimate", "spectra.fit"),
    ("experiments", "nu_count_bruteforce", "spectra.oracle"),
    ("experiments", "nu_count", "spectra.nu_count"),
    ("experiments", "tensor_lemma_report", "spectra.pair_count"),
    ("experiments", "find_M", "spectra.find_m"),
    ("experiments", "tensor_merge", "spectra.merge"),
    ("experiments", "rho_profile", "carleson.profile"),
    ("experiments", "wos_harmonic_measures", "harmonic.wos"),
    ("experiments", "wos_harmonic_measure", "harmonic.wos"),
    ("experiments", "covering_count", "harmonic.covering"),
    ("pairs", "find_M", "spectra.find_m"),
    ("pairs", "nu_count", "spectra.nu_count"),
    ("pairs", "nu_count_bruteforce", "spectra.oracle"),
    ("pairs", "extremal_pair_count", "spectra.pair_count"),
    ("pairs", "tensor_merge", "spectra.merge"),
]

# (namespace key, class name, {method: layer}).  Subclasses override only
# these methods; everything else is inherited unchanged.
SYMBOL_METHODS = {"evaluate": "symbols.eval", "boundary": "symbols.eval", "__call__": "symbols.eval"}
CLASS_HOOKS = [
    ("experiments", "Cusp", SYMBOL_METHODS),
    ("experiments", "Lens", SYMBOL_METHODS),
    ("experiments", "ShapiroTaylor", SYMBOL_METHODS),
    ("experiments", "BlaschkeSquare", SYMBOL_METHODS),
    (
        "experiments",
        "GraphChannel",
        {"distance_vector": "harmonic.distance", "far_mask": "harmonic.far", "far_scores": "harmonic.far"},
    ),
]

# Per-layer metric -> (unit, kind, layers it needs).  A metric is missing
# when one of its layers has no installed hook.  Kinds:
#   "time"  - summed duration of the outermost spans of its one layer;
#   "count" - the counter of the same name, recorded by the hooks;
#   "rate", "self" - computed from the others in `pass_metrics`;
#   "pass"  - computed by the caller from the pass (checks, untraced passes).
METRICS = {
    "operators.build_s": ("s", "time", ["operators.build"]),
    "operators.hs_s": ("s", "time", ["operators.hs"]),
    "operators.columns": ("count", "count", ["operators.build", "operators.hs"]),
    "operators.fft_bytes_computed": ("B", "count", ["operators.build", "operators.hs"]),
    "symbols.eval_s": ("s", "time", ["symbols.eval"]),
    "symbols.eval_points": ("count", "count", ["symbols.eval"]),
    "spectra.svd_s": ("s", "time", ["spectra.svd"]),
    "spectra.svd_calls": ("count", "count", ["spectra.svd"]),
    "spectra.svd_flops_computed": ("flop", "count", ["spectra.svd"]),
    "spectra.fit_s": ("s", "time", ["spectra.fit"]),
    "spectra.oracle_s": ("s", "time", ["spectra.oracle"]),
    "spectra.oracle_pairs": ("count", "count", ["spectra.oracle"]),
    "spectra.oracle_pairs_per_s": ("1/s", "rate", ["spectra.oracle"]),
    "spectra.nu_count_s": ("s", "time", ["spectra.nu_count"]),
    "spectra.pair_count_s": ("s", "time", ["spectra.pair_count"]),
    "spectra.find_m_s": ("s", "time", ["spectra.find_m"]),
    "spectra.merge_s": ("s", "time", ["spectra.merge"]),
    "spectra.merge_values": ("count", "count", ["spectra.merge"]),
    "carleson.profile_s": ("s", "time", ["carleson.profile"]),
    "carleson.boundary_samples": ("count", "count", ["carleson.profile"]),
    "harmonic.wos_s": ("s", "time", ["harmonic.wos"]),
    "harmonic.walks": ("count", "count", ["harmonic.wos"]),
    "harmonic.walk_steps": ("count", "count", ["harmonic.distance"]),
    "harmonic.walk_steps_per_s": ("1/s", "rate", ["harmonic.distance", "harmonic.wos"]),
    "harmonic.iterations": ("count", "count", ["harmonic.distance"]),
    "harmonic.distance_s": ("s", "time", ["harmonic.distance"]),
    "harmonic.far_s": ("s", "time", ["harmonic.far"]),
    "harmonic.engine_self_s": ("s", "self", ["harmonic.wos", "harmonic.distance", "harmonic.far"]),
    "harmonic.zero_hit_targets": ("count", "count", ["harmonic.wos"]),
    "harmonic.covering_s": ("s", "time", ["harmonic.covering"]),
    "harmonic.covering_calls": ("count", "count", ["harmonic.covering"]),
    "experiments.self_s": ("s", "self", ["experiments.run"]),
    "experiments.table_bytes": ("B", "pass", []),
    "experiments.tables_identical": ("count", "pass", []),
    "trace.overhead_s": ("s", "pass", []),
}

# Counts recorded by the hooks but reported in the detail line only: they
# are 0 on a correct run at the seed, so as metrics they could show no change.
DETAIL_COUNTS = ("harmonic.far_field", "harmonic.step_capped")


def svd_flops(rows: int, cols: int, is_complex: bool) -> float:
    """Textbook count for singular values only (Golub & Van Loan, Golub-Kahan
    bidiagonalization): 4*m*n^2 - 4*n^3/3 real flops for m >= n, times 4
    for complex arithmetic."""
    m, n = max(rows, cols), min(rows, cols)
    return (4.0 * m * n * n - 4.0 * n**3 / 3.0) * (4.0 if is_complex else 1.0)


class Tracer:
    """Records spans and per-pass counters while installed."""

    def __init__(self, sample_count=None):
        # sample_count(order) -> FFT length used for a column of that order;
        # None leaves operators.fft_bytes_computed at zero
        self.sample_count = sample_count
        self.spans = []
        self.counters = defaultdict(lambda: defaultdict(float))
        self.pass_id = -1
        self.enabled = False
        self._stack = []
        self._open = defaultdict(int)  # layer -> open spans of that layer
        self._patches = []
        self.installed = defaultdict(list)  # layer -> installed hook names
        self.missing = []  # hook names whose target does not exist

    # -- recording --------------------------------------------------------
    def count(self, name: str, value: float = 1.0):
        self.counters[self.pass_id][name] += value

    def _call(self, layer, name, fn, args, kwargs, after=None):
        if not self.enabled:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        outermost = self._open[layer] == 0
        self.spans.append(None)
        self._stack.append(sid)
        self._open[layer] += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open[layer] -= 1
            self._stack.pop()
            self.spans[sid] = (sid, parent, layer, name, start, end, self.pass_id)
        if after is not None and outermost:
            after(self, args, kwargs, result, end - start)
        return result

    def wrap_function(self, fn, layer: str, name: str):
        counter = COUNTERS.get(name)
        after = None
        if counter is not None:
            signature = inspect.signature(fn)

            def after(tr, args, kwargs, result, dt):
                counter(tr, signature.bind(*args, **kwargs).arguments, result, dt)

        def wrapper(*args, **kwargs):
            return self._call(layer, name, fn, args, kwargs, after)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__wrapped__ = fn
        return wrapper

    def timed_subclass(self, cls, methods: dict):
        namespace = {}
        for method, layer in methods.items():
            base = getattr(cls, method, None)
            if base is None:
                self.missing.append(f"{cls.__name__}.{method}")
                continue
            namespace[method] = self._method_wrapper(base, layer, cls.__name__, method)
            self.installed[layer].append(f"{cls.__name__}.{method}")
        return type(f"Timed{cls.__name__}", (cls,), namespace)

    def _method_wrapper(self, base, layer, class_name, method_name):
        counter = METHOD_COUNTERS.get(method_name)
        after = None
        if counter is not None:

            def after(tr, args, kwargs, result, dt):
                counter(tr, args, result)

        name = f"{class_name}.{method_name}"

        def method(obj, *args, **kwargs):
            return self._call(layer, name, base, (obj,) + args, kwargs, after)

        method.__name__ = base.__name__
        return method

    # -- installation -----------------------------------------------------
    def install(self, namespaces: dict):
        """Patch every hook; `namespaces` maps namespace keys to objects."""
        for key, attr, layer in FUNCTION_HOOKS:
            target = namespaces.get(key)
            fn = getattr(target, attr, None) if target is not None else None
            if fn is None:
                self.missing.append(f"{key}.{attr}")
                continue
            self._patch(target, attr, self.wrap_function(fn, layer, attr))
            self.installed[layer].append(f"{key}.{attr}")
        for key, attr, methods in CLASS_HOOKS:
            target = namespaces.get(key)
            cls = getattr(target, attr, None) if target is not None else None
            if not isinstance(cls, type):
                self.missing.append(f"{key}.{attr}")
                continue
            self._patch(target, attr, self.timed_subclass(cls, methods))
        return self

    def _patch(self, target, attr, value):
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def uninstall(self):
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def available(self, metric: str) -> bool:
        return all(self.installed.get(layer) for layer in METRICS[metric][2])

    def dump(self, path: Path, extra: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    "span_fields": ["id", "parent", "layer", "name", "start", "end", "pass"],
                    "spans": self.spans,
                    "counters": {str(k): dict(v) for k, v in self.counters.items()},
                    "missing_hooks": self.missing,
                    **extra,
                },
                fh,
            )


# -- counters taken at the outermost span of a layer ---------------------
def _columns(tr, arguments, result, dt):
    k = arguments.get("truncation")
    if k is None:
        return
    tr.count("operators.columns", k)
    if tr.sample_count is not None:
        tr.count("operators.fft_bytes_computed", 16.0 * k * tr.sample_count(k - 1))


def _svd(tr, arguments, result, dt):
    import numpy as np

    matrix = arguments.get("matrix")
    entries = np.asarray(getattr(matrix, "entries", matrix))
    tr.count("spectra.svd_calls")
    if entries.ndim == 2:
        tr.count("spectra.svd_flops_computed", svd_flops(*entries.shape, np.iscomplexobj(entries)))


def _oracle(tr, arguments, result, dt):
    tr.count("spectra.oracle_pairs", len(arguments["s"]) * len(arguments["t"]))


def _merge(tr, arguments, result, dt):
    tr.count("spectra.merge_values", len(result))


def _profile(tr, arguments, result, dt):
    samples = arguments.get("samples")
    if samples is None:
        samples = getattr(result, "samples", 0)
    tr.count("carleson.boundary_samples", samples)


def _wos(tr, arguments, result, dt):
    estimates = result if isinstance(result, list) else [result]
    tr.count("harmonic.walks", arguments.get("samples", 0))
    tr.count("harmonic.zero_hit_targets", sum(1 for e in estimates if e.probability == 0.0))
    if estimates:
        tr.count("harmonic.far_field", estimates[0].n_far_field)
        tr.count("harmonic.step_capped", estimates[0].n_step_capped)
    if type(arguments.get("region")).__name__.startswith("Timed"):
        tr.count("harmonic.channel_wos_s", dt)


def _covering(tr, arguments, result, dt):
    tr.count("harmonic.covering_calls")


COUNTERS = {
    "build_matrix": _columns,
    "build_diagonal_polydisk_matrix": _columns,
    "hs_norm_sq": _columns,
    "singular_values": _svd,
    "nu_count_bruteforce": _oracle,
    "tensor_merge": _merge,
    "rho_profile": _profile,
    "wos_harmonic_measures": _wos,
    "wos_harmonic_measure": _wos,
    "covering_count": _covering,
}


def _eval_points(tr, args, result):
    import numpy as np

    tr.count("symbols.eval_points", np.size(args[1]) if len(args) > 1 else 0)


def _distance(tr, args, result):
    tr.count("harmonic.walk_steps", len(args[1]))
    tr.count("harmonic.iterations")


METHOD_COUNTERS = {
    "evaluate": _eval_points,
    "boundary": _eval_points,
    "__call__": _eval_points,
    "distance_vector": _distance,
}


# -- span arithmetic ------------------------------------------------------
def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for sid, parent, _layer, _name, start, end, _pass in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = {}
    for sid, _parent, _layer, _name, start, end, _pass in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sid] = (end - start) - covered
    return out


def layer_times(spans) -> dict:
    """(pass id, layer) -> summed duration of the layer's outermost spans.

    A span nested in another span of the same layer is already included in
    its ancestor and is not counted again.
    """
    by_id = {s[0]: s for s in spans}
    out = defaultdict(float)
    for sid, parent, layer, _name, start, end, pass_id in spans:
        p = parent
        nested = False
        while p >= 0:
            if by_id[p][2] == layer:
                nested = True
                break
            p = by_id[p][1]
        if not nested:
            out[(pass_id, layer)] += end - start
    return out


def pass_metrics(tracer: Tracer, pass_id: int, times: dict, selfs: dict) -> dict:
    """Per-layer metrics of one traced pass, except those of kind "pass"."""
    c = tracer.counters.get(pass_id, {})
    m = {}
    for name, (_unit, kind, layers) in METRICS.items():
        if kind == "time":
            m[name] = times.get((pass_id, layers[0]), 0.0)
        elif kind == "count":
            m[name] = c.get(name, 0.0)
    m["spectra.oracle_pairs_per_s"] = _rate(m["spectra.oracle_pairs"], m["spectra.oracle_s"])
    m["harmonic.walk_steps_per_s"] = _rate(m["harmonic.walk_steps"], c.get("harmonic.channel_wos_s", 0.0))
    m["harmonic.engine_self_s"] = m["harmonic.wos_s"] - m["harmonic.distance_s"] - m["harmonic.far_s"]
    m["experiments.self_s"] = sum(
        selfs[s[0]] for s in tracer.spans if s[6] == pass_id and s[2] == "experiments.run"
    )
    for name in DETAIL_COUNTS:
        m[name] = c.get(name, 0.0)
    return m


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0
