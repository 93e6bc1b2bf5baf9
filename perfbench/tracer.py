"""Outside-in tracing of beamsim's layers, installed from the benchmark's files.

A layer is a module of the package. ``Tracer.install`` wraps every public
function of each layer module, ``ConvexProgram`` construction, and the
feasibility phase of ``convex.solve``. It then rebinds every name in the
package that refers to a wrapped function, so calls made through a
``from .modem import ...`` binding or a global lookup are seen too.

Every wrapped call is counted. A call opens a span only at a layer
boundary, that is when no span is open or the innermost open span belongs
to another layer; a call inside the same layer adds to its caller's span.
The feasibility phase is the one stage inside a layer with a span of its
own. A span is ``[name, start, end, parent, realization]``; each
``channel.sample_channel`` call starts a new realization. Spans stay in
memory and are written out by ``dump`` when the traced command ends.

A span's self time is its duration minus the time its child spans cover.
"""

import functools
import inspect
import json
import math
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "sim", "channel", "modem", "beamformers", "analysis", "convex",
          "checks")
STAGES = {("convex", "_maximize_margin")}
SOLVER_KINDS = ("MPE_FULL", "MPE_REDUCED", "SMINR_AMP")
SOLVER_STATUSES = ("OPTIMAL", "MAX_ITER", "INFEASIBLE")
CLOSED_FORM = {"zf": "zf", "mmse": "mmse", "sminr": "sminr_closed_form"}


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _count_tuples(tracer, args, kwargs, result, span):
    tracer.sizes["modem.enumerate.tuples"] += result.count


def _count_symbols(tracer, args, kwargs, result, span):
    tracer.sizes["modem.detect.symbols"] += _size(_first_arg(args, kwargs))


def _count_q_evals(tracer, args, kwargs, result, span):
    tracer.sizes["analysis.q_evals"] += _size(_first_arg(args, kwargs))


def _record_solve(tracer, args, kwargs, result, span):
    kkt = result.kkt_residual
    tracer.solves.append([
        _first_arg(args, kwargs).kind, result.status, int(result.iterations),
        kkt if math.isfinite(kkt) else None,
        span[2] - span[1] if span is not None else None,
    ])


def _size(x) -> int:
    return int(getattr(x, "size", 1))


AFTER = {
    ("modem", "enumerate_interferers"): _count_tuples,
    ("modem", "decide_block"): _count_symbols,
    ("analysis", "q_function"): _count_q_evals,
    ("convex", "solve"): _record_solve,
}


class Tracer:
    """Spans, call counts and solver reports of one traced process."""

    def __init__(self):
        self.spans = []
        self.calls = Counter()
        self.sizes = Counter()
        self.solves = []
        self.realization = -1
        self._stack = []
        self._layers = []

    def wrap(self, layer: str, name: str, fn):
        """A wrapper of ``fn`` that counts calls and records boundary spans."""
        key = f"{layer}.{name}"
        stage = (layer, name) in STAGES
        after = AFTER.get((layer, name))
        new_realization = key == "channel.sample_channel"
        spans, stack, layers, calls = self.spans, self._stack, self._layers, self.calls

        def wrapper(*args, **kwargs):
            calls[key] += 1
            if new_realization:
                self.realization += 1
            if layers and layers[-1] == layer and not stage:
                span = None
                result = fn(*args, **kwargs)
            else:
                span = [key, perf_counter(), None, stack[-1] if stack else -1,
                        self.realization]
                stack.append(len(spans))
                spans.append(span)
                layers.append(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = perf_counter()
                    stack.pop()
                    layers.pop()
            if after is not None:
                after(self, args, kwargs, result, span)
            return result

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Wrap the layers and rebind every package name that refers to them."""
        import beamsim  # noqa: F401  (imports every layer module)
        import beamsim.cli  # noqa: F401

        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"beamsim.{layer}"]
            for name, fn in list(vars(module).items()):
                public = not name.startswith("_") or (layer, name) in STAGES
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and public:
                    wrapped[id(fn)] = (fn, self.wrap(layer, name, fn))
        program = sys.modules["beamsim.convex"].ConvexProgram
        program.__post_init__ = self.wrap("convex", "program", program.__post_init__)

        for module_name, module in list(sys.modules.items()):
            if module_name != "beamsim" and not module_name.startswith("beamsim."):
                continue
            for name, value in list(vars(module).items()):
                entry = wrapped.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, name, entry[1])

    def dump(self, path: str) -> None:
        open_spans = [s for s in self.spans if s[2] is None]
        if open_spans:
            raise RuntimeError(f"{len(open_spans)} spans never closed")
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "calls": dict(self.calls),
                       "sizes": dict(self.sizes), "solves": self.solves}, fh)


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _per_call(total: float, calls: int, scale: float) -> float:
    return scale * total / calls if calls else 0.0


def per_layer_metrics(dump: dict) -> dict:
    """Per-layer counts and times of one traced invocation (see PER_LAYER)."""
    spans, calls, sizes, solves = dump["spans"], dump["calls"], dump["sizes"], dump["solves"]
    own, inclusive, layer_own = defaultdict(float), defaultdict(float), defaultdict(float)
    for span, t in zip(spans, self_times(spans)):
        own[span[0]] += t
        inclusive[span[0]] += span[2] - span[1]
        layer_own[span[0].split(".")[0]] += t

    m = {"convex.solve.calls": len(solves)}
    for kind in SOLVER_KINDS:
        m[f"convex.solve.calls.{kind}"] = sum(s[0] == kind for s in solves)
        times = [s[4] for s in solves if s[0] == kind and s[4] is not None]
        m[f"convex.solve.ms_per_call.{kind}"] = 1000.0 * statistics.fmean(times) if times else 0.0
    m["convex.solve.self_s"] = own["convex.solve"]
    m["convex.solve.iterations"] = sum(s[2] for s in solves)
    for status in SOLVER_STATUSES:
        m[f"convex.solve.status.{status}"] = sum(s[1] == status for s in solves)
    m["convex.solve.optimal_ratio"] = _per_call(m["convex.solve.status.OPTIMAL"], len(solves), 1.0)
    m["convex.solve.kkt_max"] = max((s[3] for s in solves if s[3] is not None), default=0.0)
    m["convex.objective.calls"] = calls.get("convex.objective_and_gradient", 0)
    m["convex.program.calls"] = calls.get("convex.program", 0)
    m["convex.program.self_s"] = own["convex.program"]
    m["convex.feasibility.calls"] = calls.get("convex._maximize_margin", 0)
    m["convex.feasibility.self_s"] = own["convex._maximize_margin"]
    m["convex.self_s"] = layer_own["convex"]

    for metric, fn in (("exact_pe", "exact_pe"), ("bound", "pe_upper_bound")):
        m[f"analysis.{metric}.calls"] = calls.get(f"analysis.{fn}", 0)
        m[f"analysis.{metric}.self_s"] = own[f"analysis.{fn}"]
    m["analysis.q_evals"] = sizes.get("analysis.q_evals", 0)
    m["analysis.self_s"] = layer_own["analysis"]

    m["modem.enumerate.calls"] = calls.get("modem.enumerate_interferers", 0)
    m["modem.enumerate.tuples"] = sizes.get("modem.enumerate.tuples", 0)
    m["modem.enumerate.self_s"] = own["modem.enumerate_interferers"]
    m["modem.draw.calls"] = calls.get("modem.draw_symbols", 0)
    m["modem.draw.self_s"] = own["modem.draw_symbols"]
    m["modem.detect.calls"] = calls.get("modem.decide_block", 0)
    m["modem.detect.symbols"] = sizes.get("modem.detect.symbols", 0)
    m["modem.detect.self_s"] = own["modem.decide_block"]
    m["modem.self_s"] = layer_own["modem"]

    for metric, fn in CLOSED_FORM.items():
        n = calls.get(f"beamformers.{fn}", 0)
        m[f"beamformers.{metric}.calls"] = n
        m[f"beamformers.{metric}.us_per_call"] = _per_call(inclusive[f"beamformers.{fn}"], n, 1e6)
    m["beamformers.self_s"] = layer_own["beamformers"]

    m["channel.calls"] = calls.get("channel.sample_channel", 0)
    m["channel.self_s"] = layer_own["channel"]
    m["sim.self_s"] = layer_own["sim"]
    m["cli.self_s"] = layer_own["cli"]
    return m


UNIT_EXCEPTIONS = {
    "convex.solve.optimal_ratio": ("frac", "higher"),
    "convex.solve.status.OPTIMAL": ("count", "higher"),
    "convex.solve.kkt_max": ("1", "lower"),
    "cli.bytes_written": ("B", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}


def _units(name: str):
    """(unit, better) of a per-layer metric."""
    if name in UNIT_EXCEPTIONS:
        return UNIT_EXCEPTIONS[name]
    for suffix, unit in ((".self_s", "s"), (".us_per_call", "us")):
        if name.endswith(suffix):
            return unit, "lower"
    return ("ms" if ".ms_per_call." in name else "count"), "lower"


_EMPTY = {"spans": [], "calls": {}, "sizes": {}, "solves": []}
PER_LAYER = {name: _units(name) for name in
             [*per_layer_metrics(_EMPTY), "cli.bytes_written", "trace.overhead_frac"]}


def expected_counts(payload: dict, dump: dict) -> dict:
    """Call counts that follow from the scenario of one sweep.json payload.

    K users, R realizations, S SNR points, M methods of which C are convex
    programs, and one sweep per CSI error variance. Per sweep, ``run_sweep``
    enumerates each user's tuples once; each (realization, SNR, method,
    user) cell calls exact_pe and the bound once, and the bound enumerates
    the tuples again; each convex cell builds one ConvexProgram, which
    enumerates them too, and solves it once.
    """
    sc = payload["scenario"]
    orders = [u["order"] for u in sc["users"]]
    K, R, S = len(orders), sc["n_realizations"], len(sc["snr_grid_db"])
    methods = sc["methods"]
    M = len(methods)
    C = sum(m in SOLVER_KINDS for m in methods)
    sweeps = len({row.get("csi_var") for row in payload["rows"]})
    tuples = sum(math.prod(orders[:k] + orders[k + 1:]) for k in range(K))
    cells = sweeps * R * S * M * K
    convex_cells = sweeps * R * S * C * K
    detect = cells if sc["n_symbols"] > 0 else 0
    infeasible = sum(s[1] == "INFEASIBLE" for s in dump["solves"])
    per_user = sweeps * R * S * K
    return {
        "channel.calls": sweeps * R,
        "modem.enumerate.calls": sweeps * K + cells + convex_cells,
        "modem.enumerate.tuples": (sweeps + (cells + convex_cells) // K) * tuples,
        "analysis.exact_pe.calls": cells,
        "analysis.bound.calls": cells,
        "analysis.q_evals": cells // K * tuples + cells,
        "convex.solve.calls": convex_cells,
        "convex.program.calls": convex_cells,
        "modem.draw.calls": sweeps * R if sc["n_symbols"] > 0 else 0,
        "modem.detect.calls": detect,
        "modem.detect.symbols": detect * sc["n_symbols"],
        "beamformers.zf.calls": per_user * ("ZF" in methods),
        "beamformers.sminr.calls": per_user * ("SMINR" in methods),
        "beamformers.mmse.calls": per_user * ("MMSE" in methods) + infeasible,
    }
