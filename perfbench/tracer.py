"""Per-layer tracing for the rbpa benchmark, installed from outside the package.

Layers are the rbpa modules. Every plain function a layer module
defines is wrapped in a span, and the wrapper is installed in every
rbpa namespace that binds the same object (so `identities.p_egf`, which
is imported from `counts`, is traced as `counts.p_egf`). `Egf`
arithmetic is patched on the class. `combinat` functions get call
counters only: their calls take well under a microsecond, so a span
would mostly time itself. Spans are aggregated in memory and read once,
when the run ends.

A layer's self time is the time inside its spans minus the time of the
traced spans they called. Time in combinat primitives and in untraced
generators counts toward the calling layer.

A function, method or cache named below that the package no longer has
is reported as absent, never as zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import defaultdict

SPAN_LAYERS = ("cli", "identities", "counts", "egf", "bernoulli", "oracle")
COUNT_LAYERS = ("combinat",)

FUNC_METRICS = {
    "counts": ("p_egf", "p_recurrence", "p_binomial_shift", "p_double_sum",
               "p_series_certified"),
    "bernoulli": ("multi_poly_bernoulli", "poly_bernoulli", "u_stirling_sum",
                  "u_number", "u_via_shift", "u_from_mu",
                  "multi_poly_bernoulli_li_sequence", "reciprocal_coefficient"),
}
# metric prefix -> (module, lru_cache attribute)
CACHE_METRICS = {
    "counts.p_row": ("counts", "_p_row"),
    "counts.p_recurrence": ("counts", "p_recurrence"),
    "bernoulli.mu_table": ("bernoulli", "mu_table"),
    "bernoulli.z_power_rows": ("bernoulli", "_z_power_rows"),
    "bernoulli.chain_power_rows": ("bernoulli", "_chain_power_rows"),
    "combinat.stirling2_row": ("combinat", "stirling2_row"),
}
EGF_METHODS = ("__mul__", "__rmul__", "__pow__", "reciprocal", "__add__",
               "__sub__", "__neg__")


def _is_traceable(obj, module_name: str) -> bool:
    if getattr(obj, "__module__", None) != module_name:
        return False
    if isinstance(obj, functools._lru_cache_wrapper):
        return True
    return inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)


class Tracer:
    """Spans and counters for one traced process; `install` patches rbpa in place."""

    def __init__(self) -> None:
        self._stack = [0.0]  # traced child time of each open span
        # key "layer.func" -> [calls, self seconds]
        self.spans = defaultdict(lambda: [0, 0.0])
        self.counts = defaultdict(int)  # "combinat.binomial" -> calls
        self.identity_s = defaultdict(float)
        self.identity_calls = []  # (ident, overrides, profile, reports)
        self.cert_terms = 0
        self.conv_terms = 0
        self.max_order = 0
        self.originals = {}  # "module.attr" -> object before wrapping
        self.absent = []
        self.egf_patched = set()

    # wrappers

    def _span(self, key: str, fn, on_exit=None):
        stat = self.spans[key]
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                stack[-1] += dt
                stat[0] += 1
                stat[1] += dt - child
            if on_exit is not None:
                on_exit(args, kwargs, result, dt)
            return result

        return wrapper

    def _counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_cert(self, args, kwargs, cert, dt):
        self.cert_terms += cert.truncation_index

    def _on_mul(self, args, kwargs, result, dt):
        other = args[1]
        if type(other) is type(args[0]):
            n = result.order
            self.conv_terms += (n + 1) * (n + 2) // 2
            self.counts["egf.mul"] += 1
            self.max_order = max(self.max_order, n)

    def _on_reciprocal(self, args, kwargs, result, dt):
        n = result.order
        self.conv_terms += n * (n + 1) // 2
        self.counts["egf.reciprocal"] += 1
        self.max_order = max(self.max_order, n)

    def _on_pow(self, args, kwargs, result, dt):
        self.counts["egf.pow"] += 1

    def _on_identity(self, args, kwargs, reports, dt):
        try:
            bound = inspect.signature(self.originals["identities.run_identity"]).bind(
                *args, **kwargs
            )
            bound.apply_defaults()
            params = bound.arguments
            ident = params["ident"]
            self.identity_calls.append(
                (ident, params.get("overrides"), params.get("profile"), len(reports))
            )
        except (TypeError, KeyError):
            ident = args[0] if args else kwargs.get("ident", "?")
        self.identity_s[ident] += dt

    # installation

    def install(self) -> None:
        """Import every layer module of rbpa and wrap it."""
        for layer in SPAN_LAYERS + COUNT_LAYERS:
            try:
                importlib.import_module(f"rbpa.{layer}")
            except ImportError:
                self.absent.append(f"rbpa.{layer}")
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == "rbpa" or name.startswith("rbpa.")
        }
        hooks = {
            "counts._certify_truncation": self._on_cert,
            "identities.run_identity": self._on_identity,
        }
        replace = {}  # id(original) -> wrapper
        for layer in SPAN_LAYERS + COUNT_LAYERS:
            mod = modules.get(f"rbpa.{layer}")
            if mod is None:
                continue
            for name, obj in list(vars(mod).items()):
                if not _is_traceable(obj, mod.__name__):
                    continue
                key = f"{layer}.{name}"
                self.originals[key] = obj
                if layer in COUNT_LAYERS:
                    replace[id(obj)] = self._counter(key, obj)
                else:
                    replace[id(obj)] = self._span(key, obj, hooks.get(key))
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None:
                    setattr(mod, name, wrapper)
        egf = modules.get("rbpa.egf")
        cls = getattr(egf, "Egf", None)
        hooks = {"__mul__": self._on_mul, "__pow__": self._on_pow,
                 "reciprocal": self._on_reciprocal}
        for name in EGF_METHODS:
            method = getattr(cls, name, None) if cls is not None else None
            if method is None:
                continue
            self.egf_patched.add(name)
            setattr(cls, name, self._span(f"egf.{name}", method, hooks.get(name)))

    # metrics

    def metrics(self) -> tuple[dict, list]:
        """(per-layer metric values, names of metrics that are absent)."""
        out, absent = {}, list(self.absent)

        def put(name: str, present: bool, value) -> None:
            if present:
                out[name] = value
            else:
                absent.append(name)

        layer_self = defaultdict(float)
        for key, (_, self_s) in self.spans.items():
            layer_self[key.split(".", 1)[0]] += self_s
        for layer in SPAN_LAYERS:
            put(f"{layer}.self_s", f"rbpa.{layer}" not in self.absent, layer_self[layer])
        for layer, funcs in FUNC_METRICS.items():
            for func in funcs:
                key = f"{layer}.{func}"
                calls, self_s = self.spans[key] if key in self.spans else (0, 0.0)
                put(f"{key}.calls", key in self.originals, calls)
                put(f"{key}.self_s", key in self.originals, self_s)
        for prefix, (layer, attr) in CACHE_METRICS.items():
            info = getattr(self.originals.get(f"{layer}.{attr}"), "cache_info", None)
            info = info() if info is not None else None
            put(f"{prefix}.hits", info is not None, info and info.hits)
            put(f"{prefix}.misses", info is not None, info and info.misses)
            if prefix == "counts.p_row":
                put("counts.p_row.currsize", info is not None, info and info.currsize)
        put("counts.cert.terms", "counts._certify_truncation" in self.originals,
            self.cert_terms)
        for name, method in (("mul", "__mul__"), ("pow", "__pow__"),
                             ("reciprocal", "reciprocal")):
            put(f"egf.{name}.calls", method in self.egf_patched, self.counts[f"egf.{name}"])
        put("egf.max_order", "__mul__" in self.egf_patched, self.max_order)
        put("egf.conv_terms", "__mul__" in self.egf_patched, self.conv_terms)
        for func in ("binomial", "int_pow"):
            key = f"combinat.{func}"
            put(f"{key}.calls", key in self.originals, self.counts[key])
        put("oracle.calls", "rbpa.oracle" not in self.absent, sum(
            calls for key, (calls, _) in self.spans.items() if key.startswith("oracle.")
        ))
        traced_identities = "identities.run_identity" in self.originals
        put("identities.checks", traced_identities,
            sum(call[3] for call in self.identity_calls))
        registry = getattr(sys.modules.get("rbpa.identities"), "REGISTRY", None)
        for ident in registry.ids() if registry is not None else ():
            out[f"identities.{ident}.s"] = self.identity_s.get(ident, 0.0)
        skipped = self._skipped_bindings() if traced_identities else None
        put("identities.skipped_bindings", skipped is not None, skipped)
        return out, absent

    def _skipped_bindings(self):
        """Bindings each run_identity call enumerated but its constraint dropped."""
        identities = sys.modules.get("rbpa.identities")
        try:
            skipped = 0
            for ident, overrides, profile, reports in self.identity_calls:
                domain = dict(identities.REGISTRY.get(ident).domain(profile))
                for key, value in (overrides or {}).items():
                    domain[key] = value if isinstance(value, (list, tuple, range)) else [value]
                skipped += math.prod(len(v) for v in domain.values()) - reports
            return skipped
        except (AttributeError, KeyError, TypeError):
            return None
