"""Per-layer spans for the benchmark, recorded from outside the package.

`Tracer.install()` replaces each traced function of hurwitz_tau, in every
module that holds a reference to it, by a wrapper that records one span:
function, parent span, start and end.  Spans stay in flat arrays until the
pass ends.  A layer's self time is the duration of its spans minus the part
their child spans cover, so the self times of all layers, the benchmark's
own code ("bench") and the tracer's result probes ("trace") add up to the
root span.

`characters._character` is wrapped where other modules imported it, not in
its own module, where it recurses through its own cache.
"""

from __future__ import annotations

import array
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction

# layer (a module of the package) -> functions wrapped at every binding
LAYER_FUNCTIONS = {
    "algebra": ("parse_rational", "format_rational"),
    "partitions": ("as_partition", "colength", "contents", "enumerate_partitions",
                   "format_partition", "hook_product", "identity_cycle_type",
                   "parse_partition", "weight", "z_of"),
    "characters": ("_character", "_perm_sign", "character", "character_oracle",
                   "character_table", "schur_in_powersums"),
    "hurwitz": ("conjugacy_classes", "hurwitz_number", "hurwitz_oracle",
                "riemann_hurwitz"),
    "weights": ("eval_weight_gen", "g_coeffs", "profile_multisets",
                "quantum_weight_factor", "rational_weight_factor", "weight_factor",
                "weight_factor_tilde", "weighted_hurwitz", "weighted_hurwitz_terms"),
    "tau_series": ("extract_H", "r_lambda", "rho", "rho_formal", "tau_double_table",
                   "tau_eval_at_matrix", "tau_single_table"),
    "analytic": ("calibrate_det_exponent", "check_recursion", "check_spectral",
                 "euler_apply", "exact_det", "max_regular_order", "ode_residuals",
                 "phi_k", "recursion_residuals", "spectral_residuals",
                 "tau_det_polynomial", "tau_det_rep", "tau_direct_polynomial",
                 "tau_wronskian", "vandermonde"),
    "cli": ("run",),
}
# BetaSeries arithmetic, wrapped on the class; __rmul__ is __mul__
BETASERIES_METHODS = ("__add__", "__sub__", "__neg__", "__mul__", "inv", "eval",
                      "truncate")
SERIES_MUL = "algebra.BetaSeries.__mul__"
FACTORS = ("weights.weight_factor", "weights.weight_factor_tilde",
           "weights.quantum_weight_factor", "weights.rational_weight_factor")

# the per-layer metrics a traced run prints, in order
PER_LAYER_UNITS = {
    "characters.calls": "count", "characters.self_s": "s",
    "characters.cache_hits": "count", "characters.cache_misses": "count",
    "characters.cache_entries": "count",
    "tau_series.calls": "count", "tau_series.self_s": "s",
    "tau_series.entries": "count", "tau_series.rho_cache_hit_frac": "ratio",
    "algebra.series_mul_calls": "count", "algebra.self_s": "s",
    "algebra.max_bits": "bits",
    "weights.calls": "count", "weights.self_s": "s", "weights.configs": "count",
    "weights.useful_frac": "ratio", "weights.factor_calls": "count",
    "weights.factor_s": "s",
    "hurwitz.calls": "count", "hurwitz.self_s": "s", "hurwitz.oracle_calls": "count",
    "hurwitz.oracle_s": "s", "hurwitz.class_cache_entries": "count",
    "analytic.calls": "count", "analytic.self_s": "s", "analytic.det_poly_s": "s",
    "analytic.direct_poly_s": "s", "analytic.poly_terms": "count",
    "analytic.checked_order_frac": "ratio",
    "partitions.calls": "count", "partitions.self_s": "s",
    "partitions.cache_hit_frac": "ratio",
    "cli.calls": "count", "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}
# Times that read exactly 0 on every run of a workload that never calls
# them (analytic on tables, cli on determinants, ...).  They are printed,
# but the JSON result and BENCHMARK.json keep only times that are measured
# on every workload.
PRINTED_ONLY = {"algebra.self_s", "weights.factor_s", "hurwitz.self_s",
                "hurwitz.oracle_s", "analytic.self_s", "analytic.det_poly_s",
                "analytic.direct_poly_s", "cli.self_s"}
LAYERS = tuple(LAYER_FUNCTIONS)


def _rationals(result):
    """The rationals a traced call hands back, for the bit-size gauge."""
    if isinstance(result, Fraction):
        return (result,)
    if isinstance(result, dict):  # tau_single_table
        return result.values()
    if isinstance(result, tuple):  # g_coeffs
        return result
    # BetaSeries, PhiSeries, TauTable; DetRepValue; ContentProduct
    for attr in ("coeffs", "value", "series"):
        inner = getattr(result, attr, None)
        if inner is not None:
            return _rationals(inner)
    return ()


def _max_bits(values) -> int:
    return max((max(x.numerator.bit_length(), x.denominator.bit_length())
                for x in values if isinstance(x, Fraction)), default=0)


class Tracer:
    """Spans and counters for one workload pass."""

    def __init__(self):
        self.names: list[str] = []        # function id -> "layer.name"
        self.layer_of: list[str] = []
        self.fid = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self.max_bits = 0
        self.originals: dict[str, object] = {}
        self._saved: list[tuple[object, str, object]] = []
        self._probe_fid = self._register("trace", "probe")

    def _register(self, layer: str, name: str) -> int:
        self.names.append(f"{layer}.{name}")
        self.layer_of.append(layer)
        return len(self.names) - 1

    def _open(self, fid: int) -> int:
        idx = len(self.fid)
        self.fid.append(fid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, layer: str, name: str):
        """A span for the benchmark's own code (a pass, a request)."""
        idx = self._open(self._register(layer, name))
        try:
            yield idx
        finally:
            self._close(idx)

    def _wrap(self, fn, layer: str, name: str):
        key = f"{layer}.{name}"
        fid = self._register(layer, name)
        probe = self._probe_for(key)
        fids, parents, starts, ends, stack = (self.fid, self.parent, self.start,
                                              self.end, self.stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if probe is not None:
                p = self._open(self._probe_fid)
                probe(result, args)
                self._close(p)
            return result

        traced.__wrapped__ = fn
        self.originals[key] = fn
        return traced

    def _probe_for(self, key: str):
        """Counter update run on a call's result, timed as layer "trace"."""
        def bits(result, args):
            self.max_bits = max(self.max_bits, _max_bits(_rationals(result)))

        def format_bits(result, args):
            self.max_bits = max(self.max_bits, _max_bits(args[:1]))

        def table(result, args):
            bits(result, args)
            self.counts["tau_series.entries"] += len(getattr(result, "coeffs", result))

        def useful(result, args):
            self.counts["weights.useful"] += sum(
                1 for t in result if (t.mu_block or t.nu_block) and t.value)

        def poly(result, args):
            bits(result, args)
            self.counts["analytic.poly_terms"] += len(result)

        def report(result, args):
            self.counts["analytic.checked_order"] += result.checked_order
            self.counts["analytic.requested_order"] += result.requested_order

        if key in ("tau_series.tau_double_table", "tau_series.tau_single_table"):
            return table
        if key == "weights.weighted_hurwitz_terms":
            return useful
        if key in ("analytic.tau_det_polynomial", "analytic.tau_direct_polynomial"):
            return poly
        if key in ("analytic.check_recursion", "analytic.check_spectral"):
            return report
        if key == "algebra.format_rational":
            return format_bits
        if key.startswith("algebra.") or key in (
                "weights.weighted_hurwitz", "weights.g_coeffs", "hurwitz.hurwitz_number",
                "tau_series.rho", "tau_series.r_lambda", "analytic.phi_k",
                "analytic.tau_det_rep", "analytic.tau_wronskian", "analytic.exact_det"):
            return bits
        return None

    def install(self):
        """Swap every traced function for its wrapper, in every module."""
        pkg = importlib.import_module("hurwitz_tau")
        mods = [pkg] + [importlib.import_module(f"hurwitz_tau.{m}") for m in LAYERS]
        for layer, names in LAYER_FUNCTIONS.items():
            home = importlib.import_module(f"hurwitz_tau.{layer}")
            for name in names:
                orig = getattr(home, name)
                wrapper = self._wrap(orig, layer, name)
                for mod in mods:
                    if mod is home and name == "_character":
                        continue
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._saved.append((mod, attr, val))
                            setattr(mod, attr, wrapper)
        series = importlib.import_module("hurwitz_tau.algebra").BetaSeries
        for name in BETASERIES_METHODS:
            orig = series.__dict__[name]
            wrapper = self._wrap(orig, "algebra", f"BetaSeries.{name}")
            for attr in ("__mul__", "__rmul__") if name == "__mul__" else (name,):
                self._saved.append((series, attr, orig))
                setattr(series, attr, wrapper)

    def uninstall(self):
        for obj, attr, val in reversed(self._saved):
            setattr(obj, attr, val)
        self._saved.clear()

    def metrics(self, root: int) -> tuple[dict, dict]:
        """Per-layer metrics and self times of the spans under ``root``.

        Raises if the self times do not add up to the root span.
        """
        n = len(self.fid)
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        key = {name: i for i, name in enumerate(self.names)}
        factor_ids = {key[f] for f in FACTORS}
        terms_id = key["weights.weighted_hurwitz_terms"]
        inclusive_ids = {key[f]: f for f in (
            "hurwitz.hurwitz_oracle", "analytic.tau_det_polynomial",
            "analytic.tau_direct_polynomial")}
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        inclusive: dict[str, float] = defaultdict(float)
        configs, factor_s = 0, 0.0
        fn_calls: dict[int, int] = defaultdict(int)
        for i in range(n):
            f = fids[i]
            dur = ends[i] - starts[i]
            layer = self.layer_of[f]
            self_s[layer] += dur - child[i]
            calls[layer] += 1
            fn_calls[f] += 1
            if f in inclusive_ids:
                inclusive[inclusive_ids[f]] += dur
            elif f in factor_ids:
                pf = fids[parents[i]] if parents[i] >= 0 else -1
                if pf not in factor_ids:
                    factor_s += dur
                if pf == terms_id:
                    configs += 1
        wall = ends[root] - starts[root]
        total = sum(self_s.values())
        if abs(total - wall) > 1e-6 * max(wall, 1.0):
            raise AssertionError(f"self times sum to {total} s, traced wall is {wall} s")

        ht = importlib.import_module("hurwitz_tau")
        chars = ht.characters._character.cache_info()
        rho = self.originals["tau_series.rho"].cache_info()
        parts = ht.partitions._partitions.cache_info()
        classes = self.originals["hurwitz.conjugacy_classes"].cache_info()

        def frac(a, b):
            return a / b if b else 0.0

        out = {
            "characters.cache_hits": chars.hits,
            "characters.cache_misses": chars.misses,
            "characters.cache_entries": chars.currsize,
            "tau_series.entries": self.counts["tau_series.entries"],
            "tau_series.rho_cache_hit_frac": frac(rho.hits, rho.hits + rho.misses),
            "algebra.series_mul_calls": fn_calls[key[SERIES_MUL]],
            "algebra.max_bits": self.max_bits,
            "weights.configs": configs,
            "weights.useful_frac": frac(self.counts["weights.useful"], configs),
            "weights.factor_calls": sum(fn_calls[f] for f in factor_ids),
            "weights.factor_s": factor_s,
            "hurwitz.oracle_calls": fn_calls[key["hurwitz.hurwitz_oracle"]],
            "hurwitz.oracle_s": inclusive["hurwitz.hurwitz_oracle"],
            "hurwitz.class_cache_entries": classes.currsize,
            "analytic.det_poly_s": inclusive["analytic.tau_det_polynomial"],
            "analytic.direct_poly_s": inclusive["analytic.tau_direct_polynomial"],
            "analytic.poly_terms": self.counts["analytic.poly_terms"],
            "analytic.checked_order_frac": frac(self.counts["analytic.checked_order"],
                                                self.counts["analytic.requested_order"]),
            "partitions.cache_hit_frac": frac(parts.hits, parts.hits + parts.misses),
        }
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        layers_self = {layer: self_s[layer] for layer in (*LAYERS, "bench", "trace")}
        return out, {"wall_s": wall, "self_s": layers_self, "spans": n}

    def dump(self, path):
        """Write every span as JSON: names, then one [fid, parent, start, end] each."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.fid)):
                fh.write(f"[{self.fid[i]},{self.parent[i]},{self.start[i]!r},"
                         f"{self.end[i]!r}]\n")
