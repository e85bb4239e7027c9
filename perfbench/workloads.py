"""The benchmark's workloads: fixed lists of calls to the public
``anisotl.experiments.run_*`` runners, plus the layer each one is
predicted to spend its time in.

A workload seed picks one of ``VARIANTS`` input sets (``seed % VARIANTS``).
Variant 0 is the runners' own default seeds; variant v adds v to every
suite seed and runner seed.  ``geometry`` has only variant 0.
``reference.json`` holds the CSV digests of every variant, so any seed
can be checked for correctness.
"""

from __future__ import annotations

VARIANTS = 8

SHEAR = {"dim": 2, "entries": [2.0, 1.0, 0.0, 2.0]}
DIAGONAL = {"dim": 2, "entries": [2.0, 0.0, 0.0, 4.0]}


def _suite(count: int, seed: int, t_range: list[float]) -> dict:
    return {"count": count, "seed": seed, "t_range": t_range}


def _line_maximal(v: int) -> list[tuple[str, dict]]:
    return [
        ("norm-equivalence", {
            "seed": 42 + v,
            "grid": {"extent": 8.0, "n": 1024},
            "qs": [1.0],
            "suite": _suite(1, 5 + v, [1.6, 3.4]),
        }),
        ("coorbit", {"seed": 42 + v, "suite": _suite(1, 13 + v, [1.9, 3.1])}),
        ("embedding", {"seed": 42 + v, "suite": _suite(8, 9 + v, [1.6, 3.4])}),
    ]


def _plane_maximal(v: int) -> list[tuple[str, dict]]:
    plane = {"grid": {"extent": 2.0, "n": 32}, "refine": False, "scale_max": 3}
    return [
        ("norm-equivalence", {
            **plane, "seed": 42 + v, "matrix": SHEAR, "qs": [2.0],
            "suite": _suite(1, 5 + v, [0.4, 2.0]),
        }),
        ("norm-equivalence", {
            **plane, "seed": 42 + v, "matrix": DIAGONAL, "qs": ["inf"],
            "suite": _suite(1, 5 + v, [0.2, 1.3]),
        }),
    ]


def _line_group(v: int) -> list[tuple[str, dict]]:
    return [
        ("frames", {
            "seed": 42 + v,
            "s_range": [-2.5, 0.5],
            "suite": _suite(1, 21 + v, [1.8, 2.6]),
        }),
        ("wavelet-repro", {"seed": 42 + v, "suite": _suite(2, 11 + v, [1.9, 3.1])}),
        ("translation-bounds", {
            "seed": 42 + v, "pairs_per_branch": 4, "suite": _suite(4, 3 + v, [1.9, 3.1]),
        }),
    ]


def _geometry(_v: int) -> list[tuple[str, dict]]:
    # The inputs do not follow the seed.  At these sizes the stability
    # checks of control-weight (1000 samples) and quasinorm-axioms (2000
    # points) are statistical, and other draws failed them (variants 4 and
    # 5); the admissibility work follows its random frequencies, whose
    # extreme gauge values set the number of scale nodes.  So every runner
    # keeps the acceptance suite's seed, and the workload has one variant.
    return [
        ("admissibility", {
            "n_frequencies": 40,
            "cases": [{"matrix": DIAGONAL, "grid": {"extent": 2.0, "n": 16}}],
        }),
        ("quasinorm-axioms", {"points": 2000}),
        ("control-weight", {"samples": 1000}),
        ("calderon", {}),
    ]


WORKLOADS = {
    "line-maximal": _line_maximal,
    "plane-maximal": _plane_maximal,
    "line-group": _line_group,
    "geometry": _geometry,
}

# The wrapped function each workload must reach; a traced run in which it
# records no call fails, because its per-layer numbers would be meaningless.
DOMINANT = {
    "line-maximal": "peetre.weighted_sup_multi",
    "plane-maximal": "peetre.weighted_sup_multi",
    "line-group": "field_engine.evaluate_spectrum",
    "geometry": "linalg_expansive.gauge_t",
}


# Workloads whose inputs do not follow the seed.
SEEDLESS = {"geometry"}


def variants(workload: str) -> range:
    """The workload's input variants, as recorded in reference.json."""
    return range(1 if workload in SEEDLESS else VARIANTS)


def variant(workload: str, seed: int) -> int:
    """The input variant a workload seed selects."""
    return seed % len(variants(workload))


def calls(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The workload's runner calls for a workload seed."""
    return WORKLOADS[workload](variant(workload, seed))
