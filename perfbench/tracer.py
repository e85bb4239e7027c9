"""Outside-in tracer for the per-layer metrics.

The tracer wraps public functions of the ``anisotl`` modules from the
benchmark's own files; the library is not changed.  Because several
modules import kernels by name (``from .peetre import weighted_sup_multi``),
each wrapper is rebound in every ``anisotl`` module namespace, and in every
module-level dict, that holds the original.  Methods are wrapped on their
classes.  ``install`` fails if any original is still reachable afterwards.

Each wrapped call is a span.  A span's self time is its duration minus the
durations of the wrapped calls made inside it.  Each process reports its
span totals with ``Tracer.raw``; ``merge`` sums them over the processes of
a repetition and ``metrics`` turns the sum into the PER_LAYER values.  Counts labelled "computed"
are derived from call arguments and results, so they repeat exactly.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time

import numpy as np

RUNNERS = (
    "run_quasinorm_axioms",
    "run_calderon",
    "run_admissibility",
    "run_wavelet_repro",
    "run_norm_equivalence",
    "run_embedding",
    "run_translation_bounds",
    "run_control_weight",
    "run_coorbit",
    "run_frames",
)

LAYERS = (
    "linalg_expansive",
    "field_engine",
    "peetre",
    "norms",
    "group_analysis",
    "frames",
    "suite",
    "experiments",
)

# (span name, module, class or None, attribute)
TARGETS = (
    ("linalg_expansive.gauge_t", "linalg_expansive", "ScaleGauge", "t"),
    ("linalg_expansive.flow", "linalg_expansive", "ScaleGauge", "flow"),
    ("linalg_expansive.shell_index", "linalg_expansive", "QuasiNormStructure", "shell_index"),
    ("linalg_expansive.sample_points", "linalg_expansive", None, "sample_points"),
    ("field_engine.evaluate_spectrum", "field_engine", None, "evaluate_spectrum"),
    ("field_engine.convolve_scale", "field_engine", None, "convolve_scale"),
    ("field_engine.spec_to_values", "field_engine", None, "spec_to_values"),
    ("peetre.weighted_sup_multi", "peetre", None, "weighted_sup_multi"),
    ("peetre.offset_shells", "peetre", None, "offset_shells"),
    ("norms.sup_over_windows", "norms", None, "sup_over_windows"),
    ("norms.cube_windows", "norms", None, "cube_windows"),
    ("norms.ball_windows", "norms", None, "ball_windows"),
    ("norms.peetre_arrays", "norms", None, "peetre_arrays"),
    ("group_analysis.wavelet_transform", "group_analysis", None, "wavelet_transform"),
    ("group_analysis.group_convolve", "group_analysis", None, "group_convolve"),
    ("group_analysis.pti_norm", "group_analysis", None, "pti_norm"),
    ("group_analysis.weight_v_many", "group_analysis", None, "weight_v_many"),
    ("frames.analysis", "frames", "FrameSystem", "analysis"),
    ("frames.synthesis", "frames", "FrameSystem", "synthesis"),
    ("frames.centered_coefficients", "frames", None, "centered_coefficients"),
    ("frames.dual_reconstruct", "frames", None, "dual_reconstruct"),
    ("suite.suite_generate", "suite", None, "suite_generate"),
) + tuple(("experiments." + r, "experiments", None, r) for r in RUNNERS)

# (metric, unit, better, computed from arguments or results)
PER_LAYER = (
    ("peetre.weighted_sup_multi.calls", "count", "lower", False),
    ("peetre.weighted_sup_multi.self_s", "s", "lower", False),
    ("peetre.weighted_sup_multi.betas_per_call", "count", "higher", True),
    ("peetre.weighted_sup_multi.gather_bytes", "B", "lower", True),
    ("peetre.offset_shells.calls", "count", "lower", False),
    ("peetre.offset_shells.hit_ratio", "ratio", "higher", False),
    ("peetre.errors", "count", "lower", False),
    ("norms.sup_over_windows.calls", "count", "lower", False),
    ("norms.sup_over_windows.self_s", "s", "lower", False),
    ("norms.window_tables.hit_ratio", "ratio", "higher", False),
    ("norms.peetre_arrays.calls", "count", "lower", False),
    ("norms.errors", "count", "lower", False),
    ("field_engine.evaluate_spectrum.calls", "count", "lower", False),
    ("field_engine.evaluate_spectrum.self_s", "s", "lower", False),
    ("field_engine.evaluate_spectrum.ops", "count", "lower", True),
    ("field_engine.convolve_scale.calls", "count", "lower", False),
    ("field_engine.convolve_scale.self_s", "s", "lower", False),
    ("field_engine.spec_to_values.calls", "count", "lower", False),
    ("field_engine.spec_to_values.self_s", "s", "lower", False),
    ("field_engine.errors", "count", "lower", False),
    ("group_analysis.wavelet_transform.calls", "count", "lower", False),
    ("group_analysis.wavelet_transform.self_s", "s", "lower", False),
    ("group_analysis.group_convolve.calls", "count", "lower", False),
    ("group_analysis.group_convolve.self_s", "s", "lower", False),
    ("group_analysis.group_convolve.phase_bytes", "B", "lower", True),
    ("group_analysis.pti_norm.self_s", "s", "lower", False),
    ("group_analysis.weight_v_many.self_s", "s", "lower", False),
    ("group_analysis.errors", "count", "lower", False),
    ("frames.analysis.calls", "count", "lower", False),
    ("frames.analysis.self_s", "s", "lower", False),
    ("frames.synthesis.self_s", "s", "lower", False),
    ("frames.centered_coefficients.calls", "count", "lower", False),
    ("frames.centered_coefficients.self_s", "s", "lower", False),
    ("frames.reconstruct_iters", "count", "lower", True),
    ("frames.errors", "count", "lower", False),
    ("linalg_expansive.gauge_t.calls", "count", "lower", False),
    ("linalg_expansive.gauge_t.points", "count", "lower", False),
    ("linalg_expansive.gauge_t.solve_s", "s", "lower", False),
    ("linalg_expansive.newton_iters_per_solve", "count", "lower", True),
    ("linalg_expansive.shell_index.calls", "count", "lower", False),
    ("linalg_expansive.shell_index.points", "count", "lower", False),
    ("linalg_expansive.shell_index.self_s", "s", "lower", False),
    ("linalg_expansive.sample_points.self_s", "s", "lower", False),
    ("linalg_expansive.errors", "count", "lower", False),
    ("suite.suite_generate.self_s", "s", "lower", False),
    ("suite.errors", "count", "lower", False),
) + tuple((f"experiments.{r}.s", "s", "lower", False) for r in RUNNERS) + (
    ("experiments.errors", "count", "lower", False),
    ("trace.overhead_ratio", "ratio", "lower", False),
)


class _Span:
    __slots__ = ("calls", "self_s", "total_s", "errors", "active", "count")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.errors = 0
        self.active = 0   # calls of this span currently on the stack
        self.count = {}   # extra counters filled by hooks


def _add(span: _Span, key: str, value) -> None:
    span.count[key] = span.count.get(key, 0) + value


class Tracer:
    """Wraps the targets, keeps per-span totals, reports PER_LAYER."""

    def __init__(self):
        self.spans = {name: _Span() for name, *_ in TARGETS}
        self._stack: list[float] = []  # per open span: time of its wrapped children
        self._hooks = self._make_hooks()

    # -- counters derived from arguments and results -----------------------

    def _make_hooks(self) -> dict:
        import anisotl.norms as norms
        import anisotl.peetre as peetre

        spans = self.spans

        def cache_probe(cache):
            def pre(args):
                return {id(v) for v in cache.values()}

            def post(span, args, result, before):
                _add(span, "hits", int(id(result) in before))

            return pre, post

        def gauge_t(span, args, result, _):
            _add(span, "points", len(np.atleast_2d(args[1])))

        def flow(span, args, result, _):
            if spans["linalg_expansive.gauge_t"].active:
                _add(spans["linalg_expansive.gauge_t"], "newton_iters", 1)

        def shell_index(span, args, result, _):
            _add(span, "points", len(np.atleast_2d(args[1])))

        def evaluate_spectrum(span, args, result, _):
            spec, points = args[1], args[2]
            active = int(np.count_nonzero(np.abs(np.ravel(spec)) > 0.0))
            _add(span, "ops", len(np.atleast_2d(points)) * active)

        def weighted_sup_multi(span, args, result, _):
            struct = args[1]
            offsets = sum(len(g) for g in struct.groups)
            _add(span, "betas", len(result))
            _add(span, "gather_bytes", offsets * struct.grid.size * 8)

        def group_convolve(span, args, result, _):
            F = args[0]
            f_abs = np.abs(F.spec.reshape(len(F.ggrid.s_values), -1))
            k_active = int(np.count_nonzero(np.max(f_abs, axis=0) > 0))
            u_active = int(np.count_nonzero(np.max(f_abs, axis=1) > 0))
            _add(span, "phase_bytes", u_active * F.ggrid.grid.size * k_active * 16)

        def dual_reconstruct(span, args, result, _):
            _add(span, "iterations", len(result[1]) - 1)

        return {
            "linalg_expansive.gauge_t": (None, gauge_t),
            "linalg_expansive.flow": (None, flow),
            "linalg_expansive.shell_index": (None, shell_index),
            "field_engine.evaluate_spectrum": (None, evaluate_spectrum),
            "peetre.weighted_sup_multi": (None, weighted_sup_multi),
            "peetre.offset_shells": cache_probe(peetre._SHELL_CACHE),
            "norms.cube_windows": cache_probe(norms._WINDOW_CACHE),
            "norms.ball_windows": cache_probe(norms._WINDOW_CACHE),
            "group_analysis.group_convolve": (None, group_convolve),
            "frames.dual_reconstruct": (None, dual_reconstruct),
        }

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        span = self.spans[name]
        stack = self._stack
        pre, post = self._hooks.get(name, (None, None))
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            h0 = clock()
            before = pre(args) if pre else None
            stack.append(0.0)
            span.active += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.errors += 1
                raise
            finally:
                t1 = clock()
                span.active -= 1
                inner = stack.pop()
                span.self_s += (t1 - t0) - inner
                span.total_s += t1 - t0
                if stack:
                    stack[-1] += t1 - h0
            span.calls += 1
            if post:
                post(span, args, result, before)
                if stack:
                    stack[-1] += clock() - t1
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target everywhere it is held; raise if one escapes."""
        import anisotl

        for info in pkgutil.iter_modules(anisotl.__path__):
            importlib.import_module(f"anisotl.{info.name}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "anisotl" or n.startswith("anisotl.")]
        originals = {}
        for name, mod_name, cls_name, attr in TARGETS:
            module = sys.modules[f"anisotl.{mod_name}"]
            if cls_name is None:
                fn = getattr(module, attr)
                originals[id(fn)] = (name, fn, self._wrap(name, fn))
            else:
                cls = getattr(module, cls_name)
                fn = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(name, fn))
                originals[id(fn)] = (name, fn, None)
        for module in modules:
            for holder in _holders(module):
                for key, value in list(holder.items()):
                    hit = originals.get(id(value))
                    if hit and hit[2] is not None and value is hit[1]:
                        holder[key] = hit[2]
        escaped = [
            f"{module.__name__}:{key} ({originals[id(value)][0]})"
            for module in modules
            for holder in _holders(module)
            for key, value in holder.items()
            if id(value) in originals and value is originals[id(value)][1]
        ]
        if escaped:
            raise RuntimeError("unwrapped originals still reachable: " + ", ".join(escaped))

    # -- report ----------------------------------------------------------------

    def raw(self) -> dict[str, dict]:
        """Span totals as plain data, to be summed across processes."""
        return {
            name: {"calls": sp.calls, "self_s": sp.self_s, "total_s": sp.total_s,
                   "errors": sp.errors, "count": dict(sp.count)}
            for name, sp in self.spans.items()
        }


def merge(raws: list[dict[str, dict]]) -> dict[str, dict]:
    """Sum the ``Tracer.raw`` totals of several processes."""
    out: dict[str, dict] = {}
    for raw in raws:
        for name, sp in raw.items():
            acc = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                        "errors": 0, "count": {}})
            for field in ("calls", "self_s", "total_s", "errors"):
                acc[field] += sp[field]
            for key, value in sp["count"].items():
                acc["count"][key] = acc["count"].get(key, 0) + value
    return out


def metrics(s: dict[str, dict]) -> dict[str, float]:
    """PER_LAYER values of merged span totals, except the ones run.py adds."""
    out: dict[str, float] = {}
    for metric, *_ in PER_LAYER:
        head, _, field = metric.rpartition(".")
        if field in ("calls", "self_s") and head in s:
            out[metric] = float(s[head][field])

    def count(span: str, key: str) -> float:
        return float(s[span]["count"].get(key, 0))

    wsm = "peetre.weighted_sup_multi"
    out[wsm + ".betas_per_call"] = _ratio(count(wsm, "betas"), s[wsm]["calls"])
    out[wsm + ".gather_bytes"] = count(wsm, "gather_bytes")
    osh = "peetre.offset_shells"
    out[osh + ".hit_ratio"] = _ratio(count(osh, "hits"), s[osh]["calls"])
    cube, ball = "norms.cube_windows", "norms.ball_windows"
    out["norms.window_tables.hit_ratio"] = _ratio(
        count(cube, "hits") + count(ball, "hits"), s[cube]["calls"] + s[ball]["calls"]
    )
    out["field_engine.evaluate_spectrum.ops"] = count("field_engine.evaluate_spectrum", "ops")
    out["group_analysis.group_convolve.phase_bytes"] = count(
        "group_analysis.group_convolve", "phase_bytes"
    )
    out["frames.reconstruct_iters"] = count("frames.dual_reconstruct", "iterations")
    gauge = "linalg_expansive.gauge_t"
    out[gauge + ".points"] = count(gauge, "points")
    out[gauge + ".solve_s"] = s[gauge]["total_s"]
    out["linalg_expansive.newton_iters_per_solve"] = _ratio(
        count(gauge, "newton_iters"), s[gauge]["calls"]
    )
    out["linalg_expansive.shell_index.points"] = count("linalg_expansive.shell_index", "points")
    for layer in LAYERS:
        out[f"{layer}.errors"] = float(
            sum(v["errors"] for k, v in s.items() if k.startswith(layer + "."))
        )
    for r in RUNNERS:
        out[f"experiments.{r}.s"] = s[f"experiments.{r}"]["total_s"]
    return out


def _holders(module) -> list[dict]:
    """The module namespace and the dicts held at its top level."""
    ns = vars(module)
    return [ns] + [v for v in ns.values() if isinstance(v, dict) and v is not ns]


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0
