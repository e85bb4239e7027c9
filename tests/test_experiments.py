"""Runner results: columns and verdicts come from the rows, and the runners
that evaluate norms count their truncation flags in the manifest."""

import math

import numpy as np
import pytest

from anisotl import experiments, frames, group_analysis, norms
from anisotl.experiments import (
    run_coorbit,
    run_embedding,
    run_frames,
    run_norm_equivalence,
    run_translation_bounds,
)
from anisotl.group_analysis import wavelet_transform
from anisotl.norms import NormParams, NormReport

SMALL_FRAMES = {
    "grid": {"extent": 8.0, "n": 512},
    "suite": {"count": 2, "seed": 21, "t_range": [1.8, 2.6]},
    "s_range": [-2.5, 0.5],
    "iterations": 20,
}


class TestResultBuilder:
    def test_columns_follow_the_first_row(self):
        rows = [{"b": 1, "a": 2, "pass": True}, {"b": 3, "a": 4, "pass": True}]
        result = experiments._result("k", rows, {}, extra_tables={"t": [{"y": 0, "x": 1}]})
        assert result["columns"] == ["b", "a", "pass"]
        assert result["extra_tables"] == {"t": (["y", "x"], [{"y": 0, "x": 1}])}
        assert result["pass"] is True

    def test_verdict_needs_every_row_and_the_runner_condition(self):
        rows = [{"pass": True}, {"pass": False}]
        assert experiments._result("k", rows, {})["pass"] is False
        assert experiments._result("k", rows[:1], {}, holds=False)["pass"] is False

    @pytest.mark.parametrize("extra", [None, {"t": []}])
    def test_empty_table_raises(self, extra):
        rows = [] if extra is None else [{"pass": True}]
        with pytest.raises(ValueError, match="the config yields no"):
            experiments._result("k", rows, {}, extra_tables=extra)


def test_frames_verdict_includes_sequence_norm(monkeypatch):
    zero = NormReport(value=0.0, arg_ell=None, arg_window=None, flags={})
    monkeypatch.setattr(experiments, "sequence_norm", lambda *args: zero)
    result = run_frames(SMALL_FRAMES)
    rows = {r["stage"]: r for r in result["rows"]}
    assert rows["sequence-norm"]["pass"] is False
    assert all(r["pass"] for r in result["rows"] if r["stage"] != "sequence-norm")
    assert result["pass"] is False


def test_frames_evaluates_each_dual_molecule_once(monkeypatch):
    # the envelope and the molecule check share one centered-coefficient
    # pass per member of the separated set
    calls = []
    real = frames.centered_coefficients

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(frames, "centered_coefficients", counting)
    result = run_frames(SMALL_FRAMES)
    members = next(r["detail"] for r in result["rows"] if r["stage"] == "moments")
    assert members > 0
    assert len(calls) == members


def test_frames_exponentiates_about_half_the_phase_entries(monkeypatch):
    # the frames call of the line-group benchmark workload: 64 members x
    # 256 probes x 338 frequencies = 5,402,624 phase entries, of which the
    # carry computes 2,824,644 and copies the rest
    seen = {"entries": 0, "computed": 0}
    real = frames.evaluate_spectrum

    def counting(grid, spec, points, carry=None):
        before = carry.exponentials
        out = real(grid, spec, points, carry=carry)
        seen["entries"] += carry.phase.size
        seen["computed"] += carry.exponentials - before
        return out

    monkeypatch.setattr(frames, "evaluate_spectrum", counting)
    config = {
        "seed": 42,
        "s_range": [-2.5, 0.5],
        "suite": {"count": 1, "seed": 21, "t_range": [1.8, 2.6]},
    }
    assert run_frames(experiments.merged_config("frames", config))["pass"]
    assert seen["entries"] == 5_402_624
    assert seen["computed"] <= 2_900_000


def test_translation_bounds_transforms_each_field_once(monkeypatch):
    # the pairs cycle through the suite and share each field's transform
    calls = []
    real = experiments.wavelet_transform

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(experiments, "wavelet_transform", counting)
    run_translation_bounds()
    assert len(calls) == experiments.DEFAULTS["translation-bounds"]["suite"]["count"] == 4


@pytest.mark.parametrize(
    "runner, config",
    [
        (run_embedding, {"grid": {"n": 256}, "suite": {"count": 2}, "qs": [2.0]}),
        (run_translation_bounds, {"grid": {"n": 256}, "suite": {"count": 1}, "pairs_per_branch": 2}),
        (run_frames, SMALL_FRAMES),
    ],
)
def test_manifest_counts_flags(runner, config):
    counts = runner(config)["manifest"]["flag_counts"]
    assert isinstance(counts, dict) and counts
    assert all(isinstance(n, int) and n > 0 for n in counts.values())


def test_coorbit_search_shells_reaches_the_norms(monkeypatch):
    # search_shells reaches the coefficient-side sweeps (pti_arrays, matrices
    # A^-s over the wavelet transform's scales) and the function-side sweeps
    # (matrices A^s over the continuous scales); both run in
    # norms.peetre_arrays, and a sweep inside pti_arrays is coefficient-side
    seen = {"group_analysis": [], "norms": []}
    side = ["norms"]
    ggrids = []
    real_shells, real_pti = norms.offset_shells, experiments.pti_arrays

    def recording(grid, S, matrix, search_shells):
        exponent = math.log2(float(np.asarray(matrix)[0, 0]))
        seen[side[0]].append((round(16 * exponent) / 16, search_shells))
        return real_shells(grid, S, matrix, search_shells)

    def tagging(*args):
        side[0] = "group_analysis"
        try:
            return real_pti(*args)
        finally:
            side[0] = "norms"

    def transform(f, vec, ggrid):
        ggrids.append(ggrid)
        return wavelet_transform(f, vec, ggrid)

    monkeypatch.setattr(norms, "offset_shells", recording)
    monkeypatch.setattr(experiments, "pti_arrays", tagging)
    monkeypatch.setattr(experiments, "wavelet_transform", transform)
    assert experiments.merged_config("coorbit", None)["search_shells"] == 2
    config = {"grid": {"n": 256}, "suite": {"count": 1}, "qs": [1.0], "search_shells": 5}
    experiments.run_coorbit(config)
    coefficient_side = {-float(s) for g in ggrids for s in g.s_values}
    function_side = NormParams(alpha=0.0, q=1.0, scale_max=4, ell_min=-2, ell_max=2)
    assert seen["group_analysis"]
    assert {m for m, _ in seen["group_analysis"]} <= coefficient_side
    assert {m for m, _ in seen["norms"]} == set(function_side.continuous_scales.tolist())
    assert {k for _, k in seen["group_analysis"] + seen["norms"]} == {5}


def test_coorbit_counts_comparison_norm_tails():
    # at scale_max 0 the finest scale of the plain and continuous Peetre
    # norms still weighs at the optimum in 8 of the 12 comparison norms
    # (3 qs, 2 grids, 2 norms); at the default scale_max 4 it never does
    result = experiments.run_coorbit({"scale_max": 0, "suite": {"count": 1}})
    assert result["manifest"]["flag_counts"]["reference_scale_tail"] == 8


QS = [0.5, 1.0, "inf"]  # q = 0.5 tightens the continuous step to 1/16
COORBIT = {"grid": {"n": 256}, "suite": {"count": 2}, "beta": 2.5, "qs": QS}
EMBEDDING = {"grid": {"n": 256}, "suite": {"count": 2}, "qs": QS}
NORM_EQUIVALENCE = {"grid": {"n": 256}, "suite": {"count": 2}, "alphas": [0.0, 1.0], "qs": QS}


@pytest.mark.parametrize(
    "runner, config, rows_per_q",
    [
        (run_coorbit, COORBIT, 2),  # base and refined grid
        (run_embedding, EMBEDDING, 2),
        (run_norm_equivalence, NORM_EQUIVALENCE, 2),  # one per alpha
        # the 1/10 grid shares only its integer scales with the 1/16 grid
        (run_norm_equivalence, {**NORM_EQUIVALENCE, "ds": 0.1}, 2),
    ],
    ids=["coorbit", "embedding", "norm-equivalence", "norm-equivalence-ds0.1"],
)
def test_rows_do_not_depend_on_the_other_qs(runner, config, rows_per_q):
    rows = runner(config)["rows"]
    for q in QS:
        alone = runner({**config, "qs": [q]})["rows"]
        assert len(alone) == rows_per_q
        assert [r for r in rows if r["q"] == alone[0]["q"]] == alone


def test_each_fields_arrays_are_built_once(monkeypatch):
    # per grid and field: one wavelet transform with one sweep of its
    # slices, one set of bands, and one continuous sweep of the bands over
    # the union of the qs' scales (the 1/16 grid of q = 0.5 holds the ds
    # grid of q >= 1); no (field, grid, scale) is convolved twice
    calls = {"wavelet_transform": [], "pti_arrays": [], "band_arrays": [], "peetre_arrays": []}
    convolved = []
    real_convolve = norms.convolve_scale

    def counting(name):
        real = getattr(experiments, name)

        def wrapper(*args):
            calls[name].append(args)
            return real(*args)

        return wrapper

    def convolving(f, profile, s):
        convolved.append((f, float(s)))  # holds f, so its id is not reused
        return real_convolve(f, profile, s)

    def convolved_once():
        keys = [(id(f), f.grid, s) for f, s in convolved]
        return len(keys) > 0 and len(set(keys)) == len(keys)

    for name in calls:
        monkeypatch.setattr(experiments, name, counting(name))
    monkeypatch.setattr(norms, "convolve_scale", convolving)
    experiments.run_coorbit(COORBIT)
    fields = 2 * COORBIT["suite"]["count"]
    for name in calls:
        assert len(calls[name]) == fields
    fine = NormParams(alpha=0.0, q=0.5, scale_max=4, ell_min=-2, ell_max=2)
    assert all(list(args[2]) == fine.continuous_scales.tolist() for args in calls["peetre_arrays"])
    assert convolved_once()
    for name in calls:
        calls[name].clear()
    # embedding: tl_inf and besov once per field and grid, tl_q once per q
    windowed = []
    real_sup = norms.sup_over_windows
    monkeypatch.setattr(
        norms, "sup_over_windows", lambda *args, **kw: windowed.append(1) or real_sup(*args, **kw)
    )
    experiments.run_embedding(EMBEDDING)
    assert len(calls["band_arrays"]) == 2 * EMBEDDING["suite"]["count"]
    assert len(windowed) == 2 * EMBEDDING["suite"]["count"] * (len(EMBEDDING["qs"]) + 1)
    for name in calls:
        calls[name].clear()
    convolved.clear()
    # norm-equivalence without q < 1 sweeps the ds grid, for both betas at once
    run_norm_equivalence({**NORM_EQUIVALENCE, "qs": [1.0, "inf"]})
    assert len(calls["band_arrays"]) == len(calls["peetre_arrays"]) == fields
    coarse = NormParams(alpha=0.0, q=1.0, scale_max=5, ell_min=-2, ell_max=2)
    for args in calls["peetre_arrays"]:
        assert list(args[2]) == coarse.continuous_scales.tolist()
        assert args[3] == [1.5, 2.0]
    assert convolved_once()
