"""Spans around the public entry points of each poleplace layer.

The tracer wraps functions where their callers bound them (a module
attribute or a class attribute), records one span per call in memory and
restores every original in ``finally``.  Nothing inside the library is
changed; self time is derived afterwards from the span tree.
"""

import inspect
import json
import statistics
import time
from contextlib import contextmanager

# (owner path, attribute, span name).  Owners are resolved on the imported
# package, so a wrapper sits exactly where the calling module looks the name
# up at call time.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "run_bench", "bench.run_bench"),
    ("bench", "load_system", "sysfile.load"),
    ("bench", "check_admissible", "structure.check_admissible"),
    ("structure", "check_admissible", "structure.check_admissible"),
    ("bench", "minimize", "optimize.minimize"),
    ("optimize", "minimize", "optimize.minimize"),
    ("optimize", "departure_from_normality", "metrics.departure_from_normality"),
    ("optimize", "kappa_fro", "metrics.kappa"),
    ("optimize", "kappa_2", "metrics.kappa"),
    ("placement.Placer", "__init__", "placement.build"),
    ("placement.Placer", "place", "placement.place"),
    ("placement.Placer", "build_chains", "placement.build_chains"),
    ("placement.Placer", "recover_parameters", "placement.recover"),
    ("placement", "kernel_basis", "linalg.kernel_basis"),
    ("placement", "pseudo_inverse", "linalg.pseudo_inverse"),
)

CORPUS_ENTRIES = (
    "bn01_reactor",
    "bn02_distillation",
    "chain_3x2",
    "double_integrator",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "label", "error", "result")

    def __init__(self, name, start, parent, label):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.label = label
        self.error = None
        self.result = None


class Tracer:
    """In-memory span recorder; one instance per traced scope."""

    def __init__(self):
        self.spans = []
        self._stack = []
        # id(System) -> corpus entry name, learned from sysfile.load results
        self._entry_of = {}

    def _wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            label = tracer._label(name, args)
            span = Span(name, time.perf_counter(), parent, label)
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if name == "optimize.minimize":
                call = inspect.signature(fn).bind(*args, **kwargs)
                call.apply_defaults()
                span.result = (result, call.arguments["opts"].max_iters)
            elif name == "sysfile.load":
                tracer._entry_of[id(result.system)] = result.name
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _label(self, name, args):
        # corpus entries reach minimize / check_admissible as System objects
        if name in ("optimize.minimize", "structure.check_admissible"):
            return self._entry_of.get(id(args[1])) if len(args) > 1 else None
        return None

    @contextmanager
    def installed(self, package):
        """Install every wrapper on ``package`` and restore on exit."""
        saved = []
        try:
            for owner_path, attr, name in TARGETS:
                owner = package
                for part in owner_path.split("."):
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for idx, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "label": s.label, "error": s.error,
                }) + "\n")


def layer_figures(spans):
    """Per-layer counts and times of one traced scope (a set-up or a pass)."""
    dur = [s.end - s.start for s in spans]
    child_time = [0.0] * len(spans)
    inside_minimize = [False] * len(spans)
    for idx, s in enumerate(spans):
        if s.parent >= 0:
            child_time[s.parent] += dur[idx]
            parent = spans[s.parent]
            inside_minimize[idx] = (
                inside_minimize[s.parent] or parent.name == "optimize.minimize"
            )

    def total(name):
        return sum(d for s, d in zip(spans, dur) if s.name == name)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    def self_time(name):
        return sum(dur[i] - child_time[i] for i, s in enumerate(spans)
                   if s.name == name)

    place = [(i, s) for i, s in enumerate(spans) if s.name == "placement.place"]
    place_us = [dur[i] * 1e6 for i, _ in place]
    singular = sum(1 for _, s in place if s.error == "SingularMatrixError")

    solves = [s for s in spans if s.name == "optimize.minimize" and s.result]
    steps, max_hits, zero_hits = 0, 0, 0
    restarts = 0
    for s in solves:
        result, max_iters = s.result
        for trace in result.traces:
            k = len(trace) - 1
            restarts += 1
            steps += k
            max_hits += k == max_iters
            zero_hits += k == 0
    evals = sum(1 for i, _ in place if inside_minimize[i])

    fig = {
        "structure.check_admissible_s": total("structure.check_admissible"),
        "sysfile.load_s": total("sysfile.load"),
        "linalg.kernel_basis_s": total("linalg.kernel_basis"),
        "linalg.pseudo_inverse_s": total("linalg.pseudo_inverse"),
        "placement.build_calls": calls("placement.build"),
        "placement.build_s": total("placement.build"),
        "placement.place_calls": len(place),
        "placement.place_self_s": self_time("placement.place"),
        "placement.place_us_p50": statistics.median(place_us) if place_us else 0.0,
        "placement.singular_share": singular / len(place) if place else 0.0,
        "placement.recover_s": total("placement.recover"),
        "metrics.departure_from_normality_calls":
            calls("metrics.departure_from_normality"),
        "metrics.departure_from_normality_s":
            total("metrics.departure_from_normality"),
        "metrics.kappa_s": total("metrics.kappa"),
        "optimize.minimize_calls": len(solves),
        "optimize.self_s": self_time("optimize.minimize"),
        "optimize.evals_per_solve": evals / len(solves) if solves else 0.0,
        "optimize.evals_per_step": evals / steps if steps else 0.0,
        "optimize.steps_per_restart": steps / restarts if restarts else 0.0,
        "optimize.max_iters_share": max_hits / restarts if restarts else 0.0,
        "optimize.zero_step_share": zero_hits / restarts if restarts else 0.0,
        "cli.self_s": self_time("cli.main"),
    }
    for entry in CORPUS_ENTRIES:
        fig[f"bench.entry_s.{entry}"] = sum(
            d for s, d in zip(spans, dur)
            if s.label == entry and s.parent >= 0
            and spans[s.parent].name == "bench.run_bench"
        )
    return fig


# Counts and ratios of one scope are exact; they are taken from the first
# traced pass.  Times are medians over the traced passes.
EXACT = {
    "placement.build_calls",
    "placement.place_calls",
    "placement.singular_share",
    "metrics.departure_from_normality_calls",
    "optimize.minimize_calls",
    "optimize.evals_per_solve",
    "optimize.evals_per_step",
    "optimize.steps_per_restart",
    "optimize.max_iters_share",
    "optimize.zero_step_share",
}

# Figures that sum over set-up and pass (layers that work in both scopes).
ADDITIVE = {
    "structure.check_admissible_s",
    "sysfile.load_s",
    "linalg.kernel_basis_s",
    "linalg.pseudo_inverse_s",
    "placement.build_calls",
    "placement.build_s",
}


def scaled(fig, factor):
    """Times of one figure set converted to reference seconds."""
    return {k: v * factor if k.endswith(("_s", "_us_p50")) else v
            for k, v in fig.items()}


def combine(setup_fig, pass_figs):
    """One figure per layer metric: set-up scope plus the per-pass value."""
    out = {}
    for key in pass_figs[0]:
        if key in EXACT:
            value = pass_figs[0][key]
        else:
            value = statistics.median(f[key] for f in pass_figs)
        if key in ADDITIVE:
            value += setup_fig[key]
        out[key] = value
    return out
