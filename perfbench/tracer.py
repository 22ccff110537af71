"""In-memory span tracing around the calls between the package's modules.

The tracer wraps, from outside the package, every function that one package
module (or the package's public namespace) reaches in another, under every
name it is bound to: `from .channel import spectrum` in `regions` creates a
binding separate from `channel.spectrum`, and both are replaced. Calls
inside a module reach the same module-global names, so they are recorded
too; they stay inside their layer and leave its self time unchanged.

Each call becomes a span (id, parent id, op id, layer.function, start, end,
ok). Spans stay in memory and are written out by `write_spans` at the end of
a run. Counters are read from the wrapped calls' arguments and return
values. The program runs single-threaded here (its thread fan-out stays at
its serial default), so one span stack suffices.
"""
from __future__ import annotations

import inspect
import itertools
import re
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "secrecy_region"
LAYERS = ("linalg", "channel", "regions", "geometry", "sato", "sdpc", "output", "cli")

#: wrapped although no other package module reaches them: the CLI entry
#: point the benchmark calls, and an intra-module function read for a counter
EXTRA = {("cli", "main"), ("sato", "_rank_one_bounds")}


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _len(value) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


def _pairs(args: tuple, kwargs: dict) -> int:
    points = _len(_arg(args, kwargs, 0, "points"))
    segments = max(_len(_arg(args, kwargs, 1, "poly")) - 1, 1)
    return points * segments


def _boundary_counts(counts: Counter, result) -> None:
    counts["regions.swept_points"] += _len(getattr(result, "points", ()))
    counts["regions.hull_vertices"] += _len(getattr(result, "hull", ()))


def _outer_counts(counts: Counter, result) -> None:
    counts["sato.outer_candidates"] += _len(getattr(result, "points", ()))
    counts["sato.outer_corners"] += _len(getattr(result, "hull", ()))


#: (layer, function) -> hook(counts, args, kwargs, result)
HOOKS = {
    ("linalg", "largest_gen_eig"): lambda c, a, k, r: c.update(("linalg.gen_eig_calls",)),
    ("linalg", "hermitian_eigh"): lambda c, a, k, r: c.update(("linalg.eigh_calls",)),
    ("linalg", "quadratic_form"): lambda c, a, k, r: c.update(
        ("linalg.quadratic_form_calls",)
    ),
    ("channel", "spectrum"): lambda c, a, k, r: c.update(("channel.spectrum_calls",)),
    ("regions", "gamma2"): lambda c, a, k, r: c.update(("regions.corner_evals",)),
    ("regions", "xi1"): lambda c, a, k, r: c.update(("regions.corner_evals",)),
    ("regions", "capacity_region"): lambda c, a, k, r: _boundary_counts(c, r),
    ("regions", "capacity_region_beta"): lambda c, a, k, r: _boundary_counts(c, r),
    ("geometry", "min_distances"): lambda c, a, k, r: c.update(
        {"geometry.min_distance_pairs": _pairs(a, k)}
    ),
    ("geometry", "point_polyline_distance"): lambda c, a, k, r: c.update(
        ("geometry.sagitta_calls",)
    ),
    ("geometry", "pareto_corners"): lambda c, a, k, r: c.update(
        {"geometry.pareto_points_in": _len(_arg(a, k, 0, "points"))}
    ),
    ("sato", "_rank_one_bounds"): lambda c, a, k, r: c.update(
        {"sato.outer_candidates": _len(r[0])}
    ),
    ("sato", "outer_region"): lambda c, a, k, r: _outer_counts(c, r),
    ("sato", "audit_inner_outer"): lambda c, a, k, r: c.update(
        {"sato.rho_grid_size": getattr(r, "rho_grid_size", 0)}
    ),
    ("sdpc", "verify_identity_eq9"): lambda c, a, k, r: c.update(("sdpc.identity_checks",)),
    ("output", "atomic_write_text"): lambda c, a, k, r: c.update(
        {"output.bytes_written": len(str(_arg(a, k, 1, "text")).encode("utf-8"))}
    ),
}


def _package_modules() -> dict:
    return {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    }


def boundary_functions(modules: dict) -> dict:
    """{function: (layer, name)} for every function another module reaches.

    A function defined in a layer module is at a boundary when another
    package module binds it by name (a from-import or the package's
    re-exports) or spells `<module>.<name>` in its source.
    """
    found = {}
    for layer in LAYERS:
        mod = modules.get(f"{PACKAGE}.{layer}")
        if mod is None:
            continue
        own = {
            name: obj
            for name, obj in vars(mod).items()
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__
        }
        own_ids = {id(obj): name for name, obj in own.items()}
        reached = {name for name in own if (layer, name) in EXTRA}
        pattern = re.compile(rf"\b{layer}\.(\w+)")
        for other in modules.values():
            if other is mod:
                continue
            reached.update(own_ids[id(o)] for o in vars(other).values() if id(o) in own_ids)
            try:
                source = inspect.getsource(other)
            except (OSError, TypeError):
                continue
            reached.update(n for n in pattern.findall(source) if n in own)
        for name in reached:
            found[own[name]] = (layer, name)
    return found


class Tracer:
    """Spans, per-layer self time, escaped exceptions and work counters."""

    def __init__(self):
        self._ids = itertools.count()
        self.spans: list[tuple] = []
        self.stack: list[list] = []
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.counts: Counter = Counter()
        self.op = 0
        self._escaped: dict[str, int] = {}

    def _wrap(self, fn, layer: str, name: str):
        label = f"{layer}.{name}"
        hook = HOOKS.get((layer, name))
        tracer = self

        def traced(*args, **kwargs):
            frame = [next(tracer._ids), 0.0]
            parent = tracer.stack[-1][0] if tracer.stack else None
            tracer.stack.append(frame)
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            except BaseException as exc:
                # count each exception once per layer it escapes from
                if tracer._escaped.get(layer) != id(exc):
                    tracer._escaped[layer] = id(exc)
                    tracer.errors[layer] += 1
                raise
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                duration = t1 - t0
                tracer.self_s[layer] += duration - frame[1]
                if tracer.stack:
                    tracer.stack[-1][1] += duration
                tracer.spans.append((frame[0], parent, tracer.op, label, t0, t1, ok))
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> int:
        """Replace every binding of every boundary function; returns the
        number of bindings replaced."""
        modules = _package_modules()
        wrappers = {
            fn: self._wrap(fn, layer, name)
            for fn, (layer, name) in boundary_functions(modules).items()
        }
        replaced = 0
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])
                    replaced += 1
        return replaced

    def metrics(self) -> dict:
        """Per-layer metrics of everything recorded so far."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.errors"] = self.errors[layer]
        c = self.counts
        for key in (
            "linalg.gen_eig_calls",
            "linalg.eigh_calls",
            "linalg.quadratic_form_calls",
            "channel.spectrum_calls",
            "regions.corner_evals",
            "regions.swept_points",
            "regions.hull_vertices",
            "geometry.min_distance_pairs",
            "geometry.sagitta_calls",
            "geometry.pareto_points_in",
            "sato.outer_candidates",
            "sato.rho_grid_size",
            "sdpc.identity_checks",
            "output.bytes_written",
        ):
            out[key] = c[key]
        out["regions.hull_yield"] = (
            c["regions.hull_vertices"] / c["regions.corner_evals"]
            if c["regions.corner_evals"]
            else 0.0
        )
        out["sato.outer_yield"] = (
            c["sato.outer_corners"] / c["sato.outer_candidates"]
            if c["sato.outer_candidates"]
            else 0.0
        )
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\top\tspan\tstart\tend\tok\n")
            for sid, parent, op, label, t0, t1, ok in self.spans:
                fh.write(
                    f"{sid}\t{'' if parent is None else parent}\t{op}\t{label}"
                    f"\t{t0:.9f}\t{t1:.9f}\t{int(ok)}\n"
                )
