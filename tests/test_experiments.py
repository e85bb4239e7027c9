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
    # (peetre_arrays, matrices A^s over the continuous scales)
    seen = {"group_analysis": [], "norms": []}
    ggrids = []

    def recording(module, side):
        real = module.offset_shells

        def wrapper(grid, S, matrix, search_shells):
            exponent = math.log2(float(np.asarray(matrix)[0, 0]))
            seen[side].append((round(16 * exponent) / 16, search_shells))
            return real(grid, S, matrix, search_shells)

        return wrapper

    def transform(f, vec, ggrid):
        ggrids.append(ggrid)
        return wavelet_transform(f, vec, ggrid)

    for module in (group_analysis, norms):
        side = module.__name__.rsplit(".", 1)[-1]
        monkeypatch.setattr(module, "offset_shells", recording(module, side))
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
    # slices, one set of bands, and one continuous sweep over the union of
    # the qs' scales (the 1/16 grid of q = 0.5 holds the ds grid of q >= 1)
    calls = {"wavelet_transform": [], "pti_arrays": [], "band_arrays": [], "peetre_arrays": []}

    def counting(name):
        real = getattr(experiments, name)

        def wrapper(*args):
            calls[name].append(args)
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(experiments, name, counting(name))
    experiments.run_coorbit(COORBIT)
    fields = 2 * COORBIT["suite"]["count"]
    for name in calls:
        assert len(calls[name]) == fields
    fine = NormParams(alpha=0.0, q=0.5, scale_max=4, ell_min=-2, ell_max=2)
    assert all(args[3] == fine.continuous_scales.tolist() for args in calls["peetre_arrays"])
    for name in calls:
        calls[name].clear()
    experiments.run_embedding(EMBEDDING)
    assert len(calls["band_arrays"]) == 2 * EMBEDDING["suite"]["count"]
    for name in calls:
        calls[name].clear()
    # norm-equivalence without q < 1 sweeps the ds grid, for both betas at once
    run_norm_equivalence({**NORM_EQUIVALENCE, "qs": [1.0, "inf"]})
    assert len(calls["band_arrays"]) == len(calls["peetre_arrays"]) == fields
    coarse = NormParams(alpha=0.0, q=1.0, scale_max=5, ell_min=-2, ell_max=2)
    for args in calls["peetre_arrays"]:
        assert args[3] == coarse.continuous_scales.tolist()
        assert args[4] == [1.5, 2.0]
