"""Runner results: columns and verdicts come from the rows, and the runners
that evaluate norms count their truncation flags in the manifest."""

import pytest

from anisotl import experiments, frames
from anisotl.experiments import run_embedding, run_frames, run_translation_bounds
from anisotl.norms import NormReport

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
    seen = {"pti_norm": set(), "tl_peetre_norm": set()}

    def recording(name):
        real = getattr(experiments, name)

        def wrapper(*args, **kwargs):
            seen[name].add(args[-1].search_shells)
            return real(*args, **kwargs)

        return wrapper

    for name in seen:
        monkeypatch.setattr(experiments, name, recording(name))
    assert experiments.merged_config("coorbit", None)["search_shells"] == 2
    config = {"grid": {"n": 256}, "suite": {"count": 1}, "qs": [1.0], "search_shells": 5}
    experiments.run_coorbit(config)
    assert seen == {"pti_norm": {5}, "tl_peetre_norm": {5}}
