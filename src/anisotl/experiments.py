"""Experiment orchestration shared by the CLI and the acceptance suite.

Each experiment takes a JSON-able config (defaults below), runs
deterministically from its seed, and returns a result dict with
pass/fail per criterion, CSV rows, and a manifest of tolerances and
truncation flags.  Experiments are independent and can run in a worker
pool; all randomness flows through seeded generators.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .analyzers import (
    admissibility_integral,
    make_admissible,
    make_analyzing_pair,
    make_covering_profile,
)
from .field_engine import field_from_closure
from .frames import (
    FrameSystem,
    check_atom_band,
    dual_envelope,
    dual_reconstruct,
    frame_bounds,
    molecule_check,
    moment_problem,
    sample_index_set,
    sequence_norm,
)
from .grids import GridSpec
from .group_analysis import (
    ControlWeight,
    GroupGrid,
    envelope_compare,
    group_point,
    pti_arrays,
    pti_norm,
    reproducing_check,
    reproducing_kernel,
    translation_bound_check,
    wavelet_transform,
    weight_v_many,
    wiener_amalgam_norm,
)
from .linalg_expansive import (
    WeightNu,
    build_ellipsoid,
    matrix_from_json,
    measure_constants,
    sample_pair,
)
from .norms import (
    NormParams,
    band_arrays,
    besov_norm,
    embedding_check,
    peetre_arrays,
    tl_norm_inf,
    tl_norm_q,
    tl_peetre_norm,
)
from .suite import SuiteSpec, suite_generate

LINE_MATRIX = {"dim": 1, "entries": [2.0]}
PLANE_MATRICES = {
    "isotropic": {"dim": 2, "entries": [2.0, 0.0, 0.0, 2.0]},
    "diagonal": {"dim": 2, "entries": [2.0, 0.0, 0.0, 4.0]},
    "shear": {"dim": 2, "entries": [2.0, 1.0, 0.0, 2.0]},
}

DEFAULTS: dict = {
    "quasinorm-axioms": {
        "label": "quasinorm-axioms",
        "seed": 42,
        "points": 10_000,
        "matrices": [LINE_MATRIX] + list(PLANE_MATRICES.values()),
        "stability_tolerance": 0.10,
    },
    "calderon": {
        "label": "calderon",
        "seed": 42,
        "tolerance": 1e-10,
        "cases": [
            {"matrix": LINE_MATRIX, "grid": {"extent": 8.0, "n": 1024}},
            {"matrix": PLANE_MATRICES["isotropic"], "grid": {"extent": 2.0, "n": 64}},
            {"matrix": PLANE_MATRICES["diagonal"], "grid": {"extent": 2.0, "n": 64}},
            {"matrix": PLANE_MATRICES["shear"], "grid": {"extent": 2.0, "n": 64}},
        ],
    },
    "admissibility": {
        "label": "admissibility",
        "seed": 42,
        "tolerance": 1e-6,
        "stability_tolerance": 1e-8,
        "n_frequencies": 100,
        "cases": [
            {"matrix": LINE_MATRIX, "grid": {"extent": 8.0, "n": 1024}},
            {"matrix": PLANE_MATRICES["diagonal"], "grid": {"extent": 2.0, "n": 64}},
        ],
    },
    "wavelet-repro": {
        "label": "wavelet-repro",
        "seed": 42,
        "matrix": LINE_MATRIX,
        "grid": {"extent": 8.0, "n": 512},
        "suite": {"count": 8, "seed": 11, "t_range": [1.9, 3.1]},
        "s_range": [-3.5, 0.5],
        "ds": 0.25,
        "isometry_tolerance": 0.01,
        "repro_tolerance": 0.05,
        "refine_factor": 0.6,
    },
    "norm-equivalence": {
        "label": "norm-equivalence",
        "seed": 42,
        "matrix": LINE_MATRIX,
        "grid": {"extent": 8.0, "n": 1024},
        "suite": {"count": 32, "seed": 5, "t_range": [1.6, 3.4]},
        "qs": [0.5, 1.0, 2.0, "inf"],
        "alphas": [-1.0, 0.0, 1.0],
        "scale_max": 5,
        "ell_range": [-2, 2],
        "ds": 0.125,
        "search_shells": 2,
        "stability_tolerance": 0.20,
        "refine": True,
    },
    "embedding": {
        "label": "embedding",
        "seed": 42,
        "matrix": LINE_MATRIX,
        "grid": {"extent": 8.0, "n": 1024},
        "suite": {"count": 16, "seed": 9, "t_range": [1.6, 3.4]},
        "alpha": 0.0,
        "qs": [1.0, 2.0],
        "scale_max": 5,
        "ell_range": [-2, 2],
        "stability_tolerance": 0.25,
    },
    "translation-bounds": {
        "label": "translation-bounds",
        "seed": 42,
        "matrix": LINE_MATRIX,
        "grid": {"extent": 8.0, "n": 512},
        "suite": {"count": 4, "seed": 3, "t_range": [1.9, 3.1]},
        "s_range": [-3.5, 0.5],
        "ds": 0.25,
        "pairs_per_branch": 16,
        "alpha": 0.5,
        "q": 2.0,
        "beta": 1.0,
        "slack": 0.01,
    },
    "control-weight": {
        "label": "control-weight",
        "seed": 42,
        "matrix": LINE_MATRIX,
        "samples": 10_000,
        "symmetry_tolerance": 1e-9,
        "stability_tolerance": 0.20,
        "branches": [
            {"alpha": 0.5, "beta": 1.0, "q": 2.0},
            {"alpha": -3.0, "beta": 1.0, "q": 2.0},
        ],
    },
    "coorbit": {
        "label": "coorbit",
        "seed": 42,
        "matrix": LINE_MATRIX,
        "grid": {"extent": 8.0, "n": 512},
        "suite": {"count": 8, "seed": 13, "t_range": [1.9, 3.1]},
        "qs": [1.0, 2.0, "inf"],
        "alpha": 0.0,
        "beta": 2.0,
        "ds": 0.125,
        "ell_range": [-2, 2],
        "scale_max": 4,
        "search_shells": 2,
        "stability_tolerance": 0.25,
    },
    "frames": {
        "label": "frames",
        "seed": 42,
        "matrix": LINE_MATRIX,
        "grid": {"extent": 8.0, "n": 1024},
        "suite": {"count": 6, "seed": 21, "t_range": [1.8, 2.6]},
        "s_range": [-3.0, 0.5],
        "ds": 0.25,
        "covering": {"U": [0.25, 0.25], "density": 0.5},
        "separated": {"U": [0.25, 0.125], "density": 4.0, "core": 0.75},
        "iterations": 50,
        "reconstruction_tolerance": 1e-3,
        "moment_tolerance": 1e-6,
    },
    # not a runner: the fields the `suite` subcommand stores
    "suite": {
        "matrix": LINE_MATRIX,
        "grid": {"extent": 8.0, "n": 1024},
        "suite": {"count": 8, "seed": 7, "t_range": [1.8, 3.2]},
    },
}


# Keys a config may set although no default names them: the kind a `run`
# config file selects.  Adding it to DEFAULTS would change every resolved
# config.
_OPTIONAL_KEYS = {"experiment"}

# Last path components of the [lo, hi] pairs a runner unpacks.
_RANGE_KEYS = {"ell_range", "s_range", "t_range", "U"}


def merged_config(kind: str, config: dict | None) -> dict:
    """The kind's defaults overridden by config; nested dicts merge key by
    key at every depth, any other value (lists included) replaces.  A key
    the defaults do not have (outside ``_OPTIONAL_KEYS``), an override
    that puts an object where the default has none or the other way
    round, or one that breaks the default's integer, boolean or number
    type (see _check_type), a range that is not a pair, or a scale step ds
    that is not positive, raises ValueError."""
    config = {} if config is None else config
    if not isinstance(config, dict):
        raise ValueError(f"{kind} must be an object, got {config!r}")
    cfg = _deep_merge(DEFAULTS[kind], config, "")
    if cfg.get("ds", 1) <= 0:
        raise ValueError(f"ds = {cfg['ds']} must be positive")
    return cfg


def _deep_merge(base: dict, over: dict, path: str) -> dict:
    out = dict(base)
    for key, value in over.items():
        if key not in out and f"{path}{key}" not in _OPTIONAL_KEYS:
            raise ValueError(f"unknown key {path}{key}")
        if key in out and isinstance(out[key], dict) != isinstance(value, dict):
            must = "must" if isinstance(out[key], dict) else "must not"
            raise ValueError(f"{path}{key} {must} be an object, got {value!r}")
        if isinstance(value, dict) and key in out:
            value = _deep_merge(out[key], value, f"{path}{key}.")
        elif key in out:
            _check_type(f"{path}{key}", out[key], value)
        out[key] = value
    return out


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """An integer or a finite float (json reads NaN and Infinity too)."""
    return _is_int(value) or (isinstance(value, float) and math.isfinite(value))


def _check_type(key: str, default, value) -> None:
    """value keeps the type of a boolean, integer (not boolean), number,
    string, integer-list or number-list default: runners call int() and
    float() and test truth on these.  A number must be finite; an exponent
    (q, qs) may also be "inf".  In a list of objects every item must be an
    object with only the keys of the default's first item, of their types."""
    inf = ' or "inf"' if key.rsplit(".", 1)[-1] in ("q", "qs") else ""

    def number(v) -> bool:
        return _is_number(v) or (bool(inf) and v == "inf")

    if isinstance(default, bool) and not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, got {value!r}")
    if _is_int(default) and not _is_int(value):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    if isinstance(default, float) and not number(value):
        raise ValueError(f"{key} must be a number{inf}, got {value!r}")
    if isinstance(default, str) and not isinstance(value, str):
        raise ValueError(f"{key} must be a string, got {value!r}")
    if not (isinstance(default, list) and default):
        return
    if all(map(_is_int, default)):
        if not (isinstance(value, list) and all(map(_is_int, value))):
            raise ValueError(f"{key} must be a list of integers, got {value!r}")
    elif all(map(number, default)):
        if not (isinstance(value, list) and all(map(number, value))):
            raise ValueError(f"{key} must be a list of numbers{inf}, got {value!r}")
    elif isinstance(default[0], dict):
        if not isinstance(value, list):
            raise ValueError(f"{key} must be a list of objects, got {value!r}")
        for i, item in enumerate(value):
            if not isinstance(item, dict):
                raise ValueError(f"{key}[{i}] must be an object, got {item!r}")
            _deep_merge(default[0], item, f"{key}[{i}].")  # validates; the item stays as given
    if key.rsplit(".", 1)[-1] in _RANGE_KEYS and len(value) != 2:
        raise ValueError(f"{key} must have two items, got {value!r}")


def _setup(matrix_json: dict, grid_json: dict):
    E = matrix_from_json(matrix_json)
    grid = GridSpec(d=E.d, extent=float(grid_json["extent"]), n=int(grid_json["n"]))
    phi = make_covering_profile(E, grid)
    return E, grid, phi


def _suite(cfg_suite: dict, grid, gauge):
    spec = SuiteSpec(
        count=int(cfg_suite["count"]),
        seed=int(cfg_suite["seed"]),
        t_range=tuple(cfg_suite["t_range"]),
    )
    return suite_generate(spec, grid, gauge)


def _group_grid(cfg: dict, grid) -> GroupGrid:
    """The group grid of a runner's s_range and ds over grid."""
    s_min, s_max = cfg["s_range"]
    return GroupGrid(grid=grid, s_min=float(s_min), s_max=float(s_max), ds=float(cfg["ds"]))


def _q_value(q) -> float:
    return math.inf if q in ("inf", math.inf) else float(q)


def _table(name: str, rows: list[dict]) -> tuple[list[str], list[dict]]:
    if not rows:
        raise ValueError(f"the config yields no {name} rows")
    return list(rows[0]), rows


def _result(kind: str, rows: list[dict], manifest: dict, holds=True, extra_tables=None) -> dict:
    """A runner's result.  Each table's columns are the keys of its first
    row, in order; the verdict is every row's pass and-ed with holds, the
    runner-level condition.  A table without rows raises ValueError."""
    columns, rows = _table(kind, rows)
    result = {
        "kind": kind,
        "pass": bool(holds) and all(r["pass"] for r in rows),
        "rows": rows,
        "columns": columns,
        "manifest": manifest,
    }
    if extra_tables:
        result["extra_tables"] = {n: _table(n, r) for n, r in extra_tables.items()}
    return result


def _count_flags(counts: dict, *flag_dicts: dict) -> None:
    """Add one to counts[key] for every flag that is True."""
    for flags in flag_dicts:
        for key, val in flags.items():
            if val is True:
                counts[key] = counts.get(key, 0) + 1


def _resampled(fields: list, grid, gauge) -> list:
    """The fields rebuilt on another grid from their spectral closures."""
    return [field_from_closure(grid, gauge, f.spectrum_fn) for f in fields]


def _pair_drift(rows: list[dict], key: str, drift_key: str, holds) -> None:
    """rows are the base-grid rows followed by the refined-grid rows in the
    same order.  Both rows of a pair get drift_key, the relative change of
    key under refinement, then "pass" = holds(base row, drift)."""
    half = len(rows) // 2
    for b, f in zip(rows[:half], rows[half:]):
        drift = abs(f[key] - b[key]) / b[key]
        passed = holds(b, drift)
        for r in (b, f):
            r[drift_key] = drift
            r["pass"] = passed


# ---------------------------------------------------------------------------
# 1. quasi-norm axioms
# ---------------------------------------------------------------------------


def run_quasinorm_axioms(config: dict | None = None) -> dict:
    cfg = merged_config("quasinorm-axioms", config)
    n, seed = int(cfg["points"]), int(cfg["seed"])
    rows = []
    for mat in cfg["matrices"]:
        E = matrix_from_json(mat)
        S = build_ellipsoid(E)
        # the main check's points are the first of the constants' pair
        pts, other = sample_pair(S, n, seed)
        shell, sat = S.shell_index(pts)
        shell_a, sat_a = S.shell_index(pts @ E.A.T)
        usable = ~(sat | sat_a)
        hom_exact = bool(np.array_equal(shell_a[usable], shell[usable] + 1))
        # rho read off the shells found above (sampled points are never 0)
        vals = S.shell_rho(shell[usable])
        hom_float = bool(np.array_equal(S.shell_rho(shell_a[usable]), E.absdet * vals))
        sym_exact = bool(np.array_equal(S.rho(-pts[usable]), vals))
        positive = bool(np.all(vals > 0))
        nu = WeightNu(S, beta=1.0)
        c1, k1 = measure_constants(nu, pts, other)
        c2, k2 = measure_constants(nu, *sample_pair(S, 4 * n, seed))
        stable = abs(c2 - c1) <= cfg["stability_tolerance"] * c1
        nu_stable = np.isfinite(k1) and abs(k2 - k1) <= 0.5 * k1
        passed = hom_exact and hom_float and sym_exact and positive and stable and nu_stable
        rows.append(
            {
                "matrix": mat["entries"],
                "homogeneity_exact": hom_exact,
                "symmetry_exact": sym_exact,
                "quasi_triangle_c": c1,
                "quasi_triangle_c_4x": c2,
                "nu_constant": k1,
                "usable_fraction": float(np.mean(usable)),
                "pass": passed,
            }
        )
    return _result(
        "quasinorm-axioms", rows, {"stability_tolerance": cfg["stability_tolerance"]}
    )


# ---------------------------------------------------------------------------
# 2. Calderon identity
# ---------------------------------------------------------------------------


def run_calderon(config: dict | None = None) -> dict:
    cfg = merged_config("calderon", config)
    rows = []
    for case in cfg["cases"]:
        E, grid, phi = _setup(case["matrix"], case["grid"])
        pair = make_analyzing_pair(phi, check_grid=grid)
        t = phi.t_grid(grid)
        t = t[np.isfinite(t)]
        err = float(np.max(np.abs(pair.calderon_sum(t) - 1.0)))
        win = pair.window_shape(np.linspace(*phi.t_support, 2001))
        phi_line = phi.shape(np.linspace(*phi.t_support, 2001))
        win_err = float(np.max(np.abs(phi_line * win - phi_line)))
        passed = err <= cfg["tolerance"] and win_err <= cfg["tolerance"]
        rows.append(
            {
                "matrix": case["matrix"]["entries"],
                "dim": E.d,
                "grid_n": grid.n,
                "calderon_error": err,
                "window_error": win_err,
                "overlap_n": pair.overlap_n,
                "pass": passed,
            }
        )
    return _result("calderon", rows, {"tolerance": cfg["tolerance"]})


# ---------------------------------------------------------------------------
# 3. admissibility
# ---------------------------------------------------------------------------


def run_admissibility(config: dict | None = None) -> dict:
    cfg = merged_config("admissibility", config)
    rows = []
    rng = np.random.default_rng(int(cfg["seed"]))
    for case in cfg["cases"]:
        E, grid, phi = _setup(case["matrix"], case["grid"])
        vec = make_admissible(phi)
        span = 0.4 * grid.nyquist
        xi = rng.uniform(-span, span, size=(int(cfg["n_frequencies"]) + 20, E.d))
        xi = xi[np.linalg.norm(xi, axis=1) > 1e-2][: int(cfg["n_frequencies"])]
        vals = admissibility_integral(vec, xi, s_step=1.0 / 32.0, independent=True)
        err = float(np.max(np.abs(vals - 1.0)))
        fine = admissibility_integral(vec, xi[:16], s_step=1.0 / 64.0, independent=True)
        coarse = admissibility_integral(vec, xi[:16], s_step=1.0 / 32.0, independent=True)
        drift = float(np.max(np.abs(fine - coarse)))
        passed = err <= cfg["tolerance"] and drift < cfg["stability_tolerance"]
        rows.append(
            {
                "matrix": case["matrix"]["entries"],
                "dim": E.d,
                "max_error": err,
                "halving_drift": drift,
                "n_frequencies": len(xi),
                "pass": passed,
            }
        )
    return _result(
        "admissibility",
        rows,
        {
            "tolerance": cfg["tolerance"],
            "stability_tolerance": cfg["stability_tolerance"],
        },
    )


# ---------------------------------------------------------------------------
# 4. wavelet isometry and reproducing formula
# ---------------------------------------------------------------------------


def run_wavelet_repro(config: dict | None = None) -> dict:
    cfg = merged_config("wavelet-repro", config)
    E, grid, phi = _setup(cfg["matrix"], cfg["grid"])
    vec = make_admissible(phi)
    # a genuinely different receiving analyzer exercises the general identity
    phi_vec = make_admissible(make_covering_profile(E, grid, t_halfwidth=0.9))
    ggrid = _group_grid(cfg, grid)
    fields = _suite(cfg["suite"], grid, phi.gauge)
    rows = []
    # the refined group grid: twice the box at the same step, half the ds
    fine = GroupGrid(ggrid.grid.widened(), ggrid.s_min, ggrid.s_max, ggrid.ds / 2.0)
    kernel, kernel2 = (reproducing_kernel(phi_vec, vec, g) for g in (ggrid, fine))
    for i, (f, f2) in enumerate(zip(fields, _resampled(fields, fine.grid, phi.gauge))):
        W = wavelet_transform(f, vec, ggrid)
        iso = abs(W.l2_norm(E.absdet) - f.l2_norm()) / f.l2_norm()
        rep = reproducing_check(f, phi_vec, W, kernel)
        rep2 = reproducing_check(f2, phi_vec, wavelet_transform(f2, vec, fine), kernel2)
        improved = rep2["rel_l2"] <= cfg["refine_factor"] * max(rep["rel_l2"], 1e-12)
        passed = (
            iso <= cfg["isometry_tolerance"]
            and rep["rel_l2"] <= cfg["repro_tolerance"]
            and improved
        )
        rows.append(
            {
                "field": i,
                "isometry_error": iso,
                "repro_rel_l2": rep["rel_l2"],
                "repro_rel_l2_refined": rep2["rel_l2"],
                "pass": passed,
            }
        )
    return _result(
        "wavelet-repro",
        rows,
        {
            "isometry_tolerance": cfg["isometry_tolerance"],
            "repro_tolerance": cfg["repro_tolerance"],
            "refine_factor": cfg["refine_factor"],
        },
    )


# ---------------------------------------------------------------------------
# 5. maximal characterization
# ---------------------------------------------------------------------------


def _norm_params(cfg, alpha: float, q: float) -> NormParams:
    """The characterization's parameters at (alpha, q), with beta 1/q + 1/2
    (2 at q = inf)."""
    return NormParams(
        alpha=alpha,
        q=q,
        beta=2.0 if math.isinf(q) else 1.0 / q + 0.5,
        scale_max=int(cfg["scale_max"]),
        ell_min=int(cfg["ell_range"][0]),
        ell_max=int(cfg["ell_range"][1]),
        window="cube",
        s_step=float(cfg["ds"]),
        search_shells=int(cfg["search_shells"]),
    )


def _characterization_table(cfg, grid, profile, S, fields, flag_counts) -> list[dict]:
    """Per (q, alpha): suite extremes of the characterization ratios.

    Each field's bands come from one band_arrays call over the union of
    the scales the norms read, and its Peetre fields for every beta from
    one sweep of those bands; both are shared by all (q, alpha) and
    dropped before the next field.  flag_counts
    accumulates saturation/tail flags from every windowed supremum, and
    under "peetre_boundary" the (field, beta) sweeps whose boundary flag
    fired, so the manifest can report them.
    """
    cases = [
        _norm_params(cfg, float(alpha), _q_value(q)) for q in cfg["qs"] for alpha in cfg["alphas"]
    ]
    scales = sorted({float(s) for p in cases for s in (*p.discrete_scales, *p.continuous_scales)})
    betas = sorted({p.beta for p in cases})
    ratios = [([], [], []) for _ in cases]  # per case: discrete, continuous, factors

    for f in fields:
        bands = band_arrays(f, profile, scales)
        sweeps = peetre_arrays(grid, S, bands, betas, int(cfg["search_shells"]))
        for _, flag in sweeps.values():
            _count_flags(flag_counts, {"peetre_boundary": flag})
        for params, (ratios_d, ratios_c, factors) in zip(cases, ratios):
            maximal = sweeps[params.beta]
            plain = _tracked(tl_norm_q(grid, S, bands, params), flag_counts)
            disc = _tracked(tl_peetre_norm(grid, S, maximal, params), flag_counts)
            cont = _tracked(
                tl_peetre_norm(grid, S, maximal, params, discrete=False), flag_counts
            )
            if plain > 0:
                ratios_d.append(disc / plain)
                ratios_c.append(cont / plain)
            if disc > 0:
                factors.append(cont / disc)

    return [
        {
            "q": "inf" if math.isinf(p.q) else p.q,
            "alpha": p.alpha,
            "beta": p.beta,
            "min_ratio_discrete": min(ratios_d),
            "c_emp_discrete": max(ratios_d),
            "c_emp_continuous": max(ratios_c),
            "factor_cont_over_disc": max(factors),
        }
        for p, (ratios_d, ratios_c, factors) in zip(cases, ratios)
    ]


def _tracked(rep, flag_counts) -> float:
    """rep's value, with its window flags added to flag_counts;
    peetre_boundary is counted once per sweep, not once per norm."""
    _count_flags(flag_counts, {k: v for k, v in rep.flags.items() if k != "peetre_boundary"})
    return rep.value


def run_norm_equivalence(config: dict | None = None) -> dict:
    cfg = merged_config("norm-equivalence", config)
    E, grid, phi = _setup(cfg["matrix"], cfg["grid"])
    pair = make_analyzing_pair(phi, check_grid=grid)
    S = build_ellipsoid(E)
    fields = _suite(cfg["suite"], grid, phi.gauge)
    flag_counts: dict = {}
    base_rows = _characterization_table(cfg, grid, pair.phi, S, fields, flag_counts)

    rows = []
    if cfg["refine"]:
        fine_grid = grid.refined()
        fine_rows = _characterization_table(
            cfg, fine_grid, pair.phi, S, _resampled(fields, fine_grid, phi.gauge), flag_counts
        )
    else:
        fine_rows = base_rows
    tol = float(cfg["stability_tolerance"])
    for b, f in zip(base_rows, fine_rows):
        lower_ok = b["min_ratio_discrete"] >= 1.0 - 1e-9
        drift_c = abs(f["c_emp_discrete"] - b["c_emp_discrete"]) / b["c_emp_discrete"]
        drift_f = (
            abs(f["factor_cont_over_disc"] - b["factor_cont_over_disc"])
            / b["factor_cont_over_disc"]
        )
        passed = lower_ok and drift_c < tol and drift_f < tol
        rows.append(
            {
                **b,
                "c_emp_refined": f["c_emp_discrete"],
                "c_emp_drift": drift_c,
                "factor_drift": drift_f,
                "pass": passed,
            }
        )
    return _result(
        "norm-equivalence", rows, {"stability_tolerance": tol, "flag_counts": flag_counts}
    )


# ---------------------------------------------------------------------------
# 6. Besov identification and embeddings
# ---------------------------------------------------------------------------


def run_embedding(config: dict | None = None) -> dict:
    cfg = merged_config("embedding", config)
    E, grid, phi = _setup(cfg["matrix"], cfg["grid"])
    pair = make_analyzing_pair(phi, check_grid=grid)
    S = build_ellipsoid(E)
    fields = _suite(cfg["suite"], grid, phi.gauge)
    base = NormParams(
        alpha=float(cfg["alpha"]),
        q=math.inf,
        scale_max=int(cfg["scale_max"]),
        ell_min=int(cfg["ell_range"][0]),
        ell_max=int(cfg["ell_range"][1]),
    )
    qs = [_q_value(q) for q in cfg["qs"]]
    rows = []
    flag_counts: dict = {}
    for grid_now, tag in ((grid, "base"), (grid.refined(), "refined")):
        flds = fields if tag == "base" else _resampled(fields, grid_now, phi.gauge)
        ratios = [([], []) for _ in qs]  # per q: besov over tl_inf, tl_inf over tl_q
        for f in flds:
            # every q reads the same bands, tl_inf and besov
            bands = band_arrays(f, pair.phi, base.discrete_scales)
            tl_inf = tl_norm_inf(grid_now, S, bands, base)
            besov = besov_norm(S, bands, base)
            for q, (besov_over_inf, inf_over_q) in zip(qs, ratios):
                tl_q = tl_norm_q(grid_now, S, bands, replace(base, q=q))
                rep = embedding_check(tl_q, tl_inf, besov)
                _count_flags(flag_counts, tl_q.flags, tl_inf.flags, besov.flags)
                if not rep["skipped"]:
                    besov_over_inf.append(rep["besov_over_inf"])
                    inf_over_q.append(rep["inf_over_q"])
        for q, (besov_over_inf, inf_over_q) in zip(qs, ratios):
            rows.append(
                {
                    "grid": tag,
                    "q": q,
                    "besov_over_inf_min": min(besov_over_inf),
                    "besov_over_inf_max": max(besov_over_inf),
                    "inf_over_q_max": max(inf_over_q),
                }
            )
    tol = float(cfg["stability_tolerance"])
    _pair_drift(
        rows,
        "besov_over_inf_max",
        "stability_drift",
        lambda b, drift: b["besov_over_inf_min"] >= 1.0 - 1e-9
        and b["inf_over_q_max"] <= 1.0 + 1e-9
        and drift <= tol,
    )
    return _result(
        "embedding", rows, {"stability_tolerance": tol, "flag_counts": flag_counts}
    )


# ---------------------------------------------------------------------------
# 7. translation bounds
# ---------------------------------------------------------------------------


def run_translation_bounds(config: dict | None = None) -> dict:
    cfg = merged_config("translation-bounds", config)
    E, grid, phi = _setup(cfg["matrix"], cfg["grid"])
    vec = make_admissible(phi)
    S = build_ellipsoid(E)
    ggrid = _group_grid(cfg, grid)
    fields = _suite(cfg["suite"], grid, phi.gauge)
    params = NormParams(
        alpha=float(cfg["alpha"]),
        q=_q_value(cfg["q"]),
        beta=float(cfg["beta"]),
        ell_min=-2,
        ell_max=2,
        window="ball",
    )
    if not fields:
        raise ValueError(f"suite.count = {cfg['suite']['count']} leaves no field to translate")
    transforms = [wavelet_transform(f, vec, ggrid) for f in fields]
    rng = np.random.default_rng(int(cfg["seed"]))
    rows = []
    flag_counts: dict = {}
    per_branch = int(cfg["pairs_per_branch"])
    ds = float(cfg["ds"])
    for branch, t_choices in (
        ("positive", np.array([ds, 2 * ds, 4 * ds, 1.0])),
        ("nonpositive", np.array([0.0, -ds, -2 * ds, -1.0])),
    ):
        for k in range(per_branch):
            W = transforms[k % len(transforms)]
            t = float(rng.choice(t_choices))
            y = rng.uniform(-1.5, 1.5, size=E.d)
            rep = translation_bound_check(
                W, group_point(y, t), S, params, slack=float(cfg["slack"])
            )
            _count_flags(flag_counts, *rep["flags"], {"v_saturated": rep["v_saturated"]})
            passed = rep["left_ok"] and rep["right_ok"]
            # one column "y" on the line, "y0", "y1", ... in d >= 2
            coords = (
                {"y": float(y[0])} if E.d == 1 else {f"y{i}": float(c) for i, c in enumerate(y)}
            )
            rows.append(
                {
                    "branch": branch,
                    "t": t,
                    **coords,
                    "left_ratio": rep["left_ratio"],
                    "left_bound": rep["left_bound"],
                    "right_ratio": rep["right_ratio"],
                    "right_bound": rep["right_bound"],
                    "v": rep["v"],
                    "pass": passed,
                }
            )
    return _result(
        "translation-bounds", rows, {"slack": cfg["slack"], "flag_counts": flag_counts}
    )


# ---------------------------------------------------------------------------
# 8. control weights and envelopes
# ---------------------------------------------------------------------------


def run_control_weight(config: dict | None = None) -> dict:
    cfg = merged_config("control-weight", config)
    E = matrix_from_json(cfg["matrix"])
    S = build_ellipsoid(E)
    n = int(cfg["samples"])
    rng = np.random.default_rng(int(cfg["seed"]))
    rows = []
    for branch_cfg in cfg["branches"]:
        w = ControlWeight(
            S,
            alpha=float(branch_cfg["alpha"]),
            beta=float(branch_cfg["beta"]),
            q=_q_value(branch_cfg["q"]),
        )
        ys = rng.normal(size=(n, E.d)) * 3.0
        ts = np.round(rng.uniform(-3, 3, size=n) * 8) / 8
        inv_y, inv_t = w.inverse(ys, ts)
        v_inv = weight_v_many(S, inv_y, inv_t)
        lhs = w.from_v(ts, weight_v_many(S, ys, ts), v_inv)
        # w at the inverses takes v there, which lhs has, and at their inverses
        v_back = weight_v_many(S, *w.inverse(inv_y, inv_t))
        rhs = E.absdet ** (ts / w.r) * w.from_v(inv_t, v_inv, v_back)
        sym_err = float(np.max(np.abs(lhs - rhs) / lhs))

        half = n // 2
        # w is per sample, so the half sample's values are a prefix of lhs
        rep_half = envelope_compare(w, ys[:half], ts[:half], lhs[:half])
        rep_full = envelope_compare(w, ys, ts, lhs)
        drift_max = abs(rep_full["max_ratio"] - rep_half["max_ratio"]) / rep_half[
            "max_ratio"
        ]
        drift_min = abs(rep_full["min_ratio"] - rep_half["min_ratio"]) / rep_half[
            "min_ratio"
        ]
        passed = (
            sym_err <= float(cfg["symmetry_tolerance"])
            and rep_full["min_ratio"] > 0
            and drift_max <= float(cfg["stability_tolerance"])
            and drift_min <= float(cfg["stability_tolerance"])
        )
        rows.append(
            {
                "alpha": branch_cfg["alpha"],
                "beta": branch_cfg["beta"],
                "q": branch_cfg["q"],
                "upper_branch": rep_full["upper_branch"],
                "symmetry_error": sym_err,
                "envelope_min_ratio": rep_full["min_ratio"],
                "envelope_max_ratio": rep_full["max_ratio"],
                "min_ratio_drift": drift_min,
                "max_ratio_drift": drift_max,
                "pass": passed,
            }
        )
    branches = {bool(r["upper_branch"]) for r in rows}
    return _result(
        "control-weight",
        rows,
        {
            "symmetry_tolerance": cfg["symmetry_tolerance"],
            "stability_tolerance": cfg["stability_tolerance"],
        },
        holds=branches == {True, False},
    )


# ---------------------------------------------------------------------------
# 9. coorbit identification
# ---------------------------------------------------------------------------


def _alpha_prime(alpha: float, q: float) -> float:
    """The coefficient-space smoothness matching F^alpha_(inf, q)."""
    return alpha + 0.5 if math.isinf(q) else alpha + 0.5 - 1.0 / q


def _coorbit_field(f, vec, S, ggrid, base: NormParams, qs, flag_counts) -> list[tuple]:
    """Per q: f's coefficient-space norm, its plain norm and its continuous
    Peetre norm; flag_counts gains the coefficient norms' flags, and under
    "reference_scale_tail" the plain and Peetre norms whose scale_tail
    flag fired.

    The sweeps of f's wavelet transform, the bands (over the union of the
    discrete scales and the qs' quadrature scales) and the continuous
    sweep of the quadrature bands depend on beta and the scale grids
    only, so each is built once here and dropped on return.
    """
    beta, shells = base.beta, base.search_shells
    coeff_max = pti_arrays(wavelet_transform(f, vec, ggrid), S, beta, shells)
    per_q = [replace(base, q=q) for q in qs]
    scales = sorted({float(s) for params in per_q for s in params.continuous_scales})
    bands = band_arrays(f, vec.psi, sorted({*scales, *map(float, base.discrete_scales)}))
    cont = peetre_arrays(ggrid.grid, S, {s: bands[s] for s in scales}, [beta], shells)[beta]
    out = []
    for params in per_q:
        coeff_params = replace(params, alpha=-_alpha_prime(base.alpha, params.q))
        coeff_rep = pti_norm(ggrid, S, coeff_max, coeff_params)
        _count_flags(flag_counts, coeff_rep.flags)
        plain = tl_norm_q(ggrid.grid, S, bands, replace(params, window="cube"))
        peetre = tl_peetre_norm(ggrid.grid, S, cont, params, discrete=False)
        for rep in (plain, peetre):
            _count_flags(flag_counts, {"reference_scale_tail": rep.flags["scale_tail"]})
        out.append((coeff_rep.value, plain.value, peetre.value))
    return out


def run_coorbit(config: dict | None = None) -> dict:
    cfg = merged_config("coorbit", config)
    E, grid, phi = _setup(cfg["matrix"], cfg["grid"])
    vec = make_admissible(phi)
    S = build_ellipsoid(E)
    ds = float(cfg["ds"])
    fields = _suite(cfg["suite"], grid, phi.gauge)
    # the function-side parameters; q is set per row
    base = NormParams(
        alpha=float(cfg["alpha"]),
        q=math.inf,
        beta=float(cfg["beta"]),
        scale_max=int(cfg["scale_max"]),
        ell_min=int(cfg["ell_range"][0]),
        ell_max=int(cfg["ell_range"][1]),
        window="ball",
        s_step=ds,
        search_shells=int(cfg["search_shells"]),
    )
    qs = [_q_value(q) for q in cfg["qs"]]

    lo, hi = vec.psi.t_support
    t_lo, t_hi = cfg["suite"]["t_range"]
    s_min = math.floor((lo - t_hi) / ds) * ds - ds
    s_max = math.ceil((hi - t_lo) / ds) * ds + ds

    rows = []
    flag_counts: dict = {}
    for grid_now, tag in ((grid, "base"), (grid.widened(), "refined")):
        flds = fields if tag == "base" else _resampled(fields, grid_now, phi.gauge)
        ggrid = GroupGrid(grid=grid_now, s_min=s_min, s_max=s_max, ds=ds)
        per_field = [_coorbit_field(f, vec, S, ggrid, base, qs, flag_counts) for f in flds]
        for i, q in enumerate(qs):
            values = [per_q[i] for per_q in per_field]
            ratios = [coeff / plain for coeff, plain, _ in values if plain > 0]
            exactness = [coeff / peetre for coeff, _, peetre in values if peetre > 0]
            rows.append(
                {
                    "grid": tag,
                    "q": "inf" if math.isinf(q) else q,
                    "alpha_prime": _alpha_prime(base.alpha, q),
                    "ratio_min": min(ratios),
                    "ratio_max": max(ratios),
                    "exactness_min": min(exactness),
                    "exactness_max": max(exactness),
                }
            )
    tol = float(cfg["stability_tolerance"])
    _pair_drift(
        rows,
        "ratio_max",
        "ratio_drift",
        lambda b, drift: b["ratio_min"] > 0
        and drift <= tol
        and 0.8 <= b["exactness_min"] <= b["exactness_max"] <= 1.25,
    )
    return _result("coorbit", rows, {"stability_tolerance": tol, "flag_counts": flag_counts})


# ---------------------------------------------------------------------------
# 10. frames
# ---------------------------------------------------------------------------


def run_frames(config: dict | None = None) -> dict:
    """Criterion 10: reconstruction on a covering lattice, the moment
    problem on a separated one, and its dual molecules.

    The molecules envelope is the max of the dual molecules' own centered
    coefficients, so its molecule check holds by construction: the
    molecules row checks the envelope's expansion and its Wiener amalgam
    norm, not an independent decay bound.
    """
    cfg = merged_config("frames", config)
    E, grid, phi = _setup(cfg["matrix"], cfg["grid"])
    vec = make_admissible(phi)
    S = build_ellipsoid(E)
    ggrid = _group_grid(cfg, grid)
    # both lattices start at s_min; fail on aliasing before any covering work
    check_atom_band(vec, ggrid.s_min, grid)
    fields = _suite(cfg["suite"], grid, phi.gauge)

    rows = []
    manifest: dict = {}
    cov = sample_index_set(
        ggrid, E, U=tuple(cfg["covering"]["U"]), kind="covering",
        density_factor=float(cfg["covering"]["density"]),
    )
    system = FrameSystem.build(vec, cov, grid)
    a_lo, b_hi = frame_bounds(system, fields)
    manifest["frame_bounds"] = [a_lo, b_hi]
    manifest["covering_stats"] = cov.stats
    # frame_bounds gives (0, 0) when no field has energy, e.g. an empty suite
    rate = (b_hi - a_lo) / (b_hi + a_lo) + 0.05 if b_hi > 0 else 0.0
    curve_rows = []
    for i, f in enumerate(fields):
        rec, errors = dual_reconstruct(
            f, system, iterations=int(cfg["iterations"]), bounds=(a_lo, b_hi)
        )
        curve_rows.extend(
            {"field": i, "iteration": k, "error": e} for k, e in enumerate(errors)
        )
        floor = max(100.0 * errors[-1], 1e-9)
        seg = [e for e in errors if e > floor]
        mean_ratio = (
            (seg[-1] / seg[0]) ** (1.0 / (len(seg) - 1)) if len(seg) >= 2 else 0.0
        )
        passed = errors[-1] <= float(cfg["reconstruction_tolerance"]) and (
            mean_ratio <= rate
        )
        rows.append(
            {
                "stage": "reconstruction",
                "field": i,
                "value": errors[-1],
                "detail": mean_ratio,
                "pass": passed,
            }
        )

    sep = sample_index_set(
        ggrid, E, U=tuple(cfg["separated"]["U"]), kind="separated",
        density_factor=float(cfg["separated"]["density"]),
        core_fraction=float(cfg["separated"]["core"]),
    )
    sep_system = FrameSystem.build(vec, sep, grid)
    manifest["separated_stats"] = sep.stats
    rng = np.random.default_rng(int(cfg["seed"]))
    c = rng.normal(size=len(sep)) + 1j * rng.normal(size=len(sep))
    c *= np.exp(-0.1 * np.abs(sep.ss))
    f_sol, residuals, D = moment_problem(c, sep_system)
    res = float(np.max(residuals) / max(np.max(np.abs(c)), 1e-300))
    res_ok = res <= float(cfg["moment_tolerance"])
    rows.append(
        {"stage": "moments", "field": -1, "value": res, "detail": len(sep), "pass": res_ok}
    )

    hgrid = GroupGrid(grid=grid, s_min=-2.0, s_max=2.0, ds=float(cfg["ds"]))
    mol = dual_envelope(sep_system, D, hgrid)
    rep = molecule_check(mol)
    w = ControlWeight(S, alpha=0.0, beta=1.0, q=2.0)
    wnorm = wiener_amalgam_norm(mol.envelope, w, r=1.0)
    mol_ok = rep["violations"] == [] and np.isfinite(wnorm) and wnorm > 0
    rows.append(
        {"stage": "molecules", "field": -1, "value": wnorm, "detail": len(rep["violations"]), "pass": mol_ok}
    )
    manifest["molecule_floor"] = rep["floor"]

    seq = sequence_norm(
        np.abs(c),
        sep,
        ggrid,
        S,
        NormParams(alpha=0.0, q=2.0, beta=1.0, ell_min=-2, ell_max=1, window="ball"),
    )
    manifest["flag_counts"] = {}
    _count_flags(manifest["flag_counts"], seq.flags)
    rows.append(
        {"stage": "sequence-norm", "field": -1, "value": seq.value, "detail": 0, "pass": seq.value > 0}
    )
    return _result(
        "frames", rows, manifest, holds=a_lo > 0, extra_tables={"error-curves": curve_rows}
    )


RUNNERS = {
    "quasinorm-axioms": run_quasinorm_axioms,
    "calderon": run_calderon,
    "admissibility": run_admissibility,
    "wavelet-repro": run_wavelet_repro,
    "norm-equivalence": run_norm_equivalence,
    "embedding": run_embedding,
    "translation-bounds": run_translation_bounds,
    "control-weight": run_control_weight,
    "coorbit": run_coorbit,
    "frames": run_frames,
}
