"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its runtime against the stated budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import json
import time
from pathlib import Path

import pytest

from anisotl.cli import main as cli_main
from anisotl.experiments import (
    PLANE_MATRICES,
    run_admissibility,
    run_calderon,
    run_control_weight,
    run_coorbit,
    run_embedding,
    run_frames,
    run_norm_equivalence,
    run_quasinorm_axioms,
    run_translation_bounds,
    run_wavelet_repro,
)

ROOT = Path(__file__).resolve().parents[1]


def _report(name: str, result: dict, elapsed: float, budget: float) -> None:
    status = "PASS" if result["pass"] else "FAIL"
    print(f"criterion {name}: {status} ({elapsed:.1f}s, budget {budget:.0f}s)")


def _run(name: str, runner, budget: float, config=None) -> dict:
    t0 = time.time()
    result = runner(config)
    elapsed = time.time() - t0
    _report(name, result, elapsed, budget)
    assert elapsed < budget, f"{name} exceeded its runtime budget"
    assert result["pass"], f"{name} failed: {result['rows']}"
    return result


def test_criterion_01_quasinorm_axioms():
    _run("1 quasi-norm axioms", run_quasinorm_axioms, budget=2.0)


def test_criterion_02_calderon_identity():
    _run("2 Calderon identity", run_calderon, budget=2.0)


def test_criterion_03_admissibility():
    _run("3 admissibility", run_admissibility, budget=2.0)


def test_criterion_04_isometry_and_reproducing():
    _run("4 isometry/reproducing", run_wavelet_repro, budget=30.0)


def test_criterion_05_maximal_characterization():
    result = _run("5 maximal characterization", run_norm_equivalence, budget=30.0)
    for row in result["rows"]:
        assert row["min_ratio_discrete"] >= 1.0 - 1e-9
        assert row["c_emp_drift"] < 0.20
        assert row["factor_drift"] < 0.20


def test_criterion_06_besov_identification():
    result = _run("6 p=q=inf identification", run_embedding, budget=5.0)
    for row in result["rows"]:
        if row["grid"] == "base":
            assert row["inf_over_q_max"] <= 1.0 + 1e-9


def test_criterion_07_translation_bounds():
    result = _run("7 translation bounds", run_translation_bounds, budget=5.0)
    branches = {row["branch"] for row in result["rows"]}
    assert branches == {"positive", "nonpositive"}


def test_criterion_08_control_weight():
    result = _run("8 control weight", run_control_weight, budget=2.0)
    for row in result["rows"]:
        assert row["symmetry_error"] <= 1e-9
    assert {bool(r["upper_branch"]) for r in result["rows"]} == {True, False}


def test_criterion_09_coorbit_identification():
    result = _run("9 coorbit identification", run_coorbit, budget=5.0)
    for row in result["rows"]:
        assert 0 < row["ratio_min"] <= row["ratio_max"]
    assert "reference_scale_tail" not in result["manifest"]["flag_counts"]


# On this box every configured window level has a window, so a pass is
# not bought by dropping levels; configs/embedding_shear.json and
# configs/norm_equivalence_shear.json ship it.
EMBEDDING_2D = {
    "grid": {"extent": 2.0, "n": 64},
    "suite": {"t_range": [0.0, 1.0]},
    "scale_max": 1,
    "ell_range": [-2, 0],
}


@pytest.mark.parametrize("matrix", ["shear", "diagonal"])
def test_criterion_12_anisotropic_besov_identification(matrix):
    config = {"matrix": PLANE_MATRICES[matrix], **EMBEDDING_2D}
    name = f"12 p=q=inf identification, {matrix}"
    result = _run(name, run_embedding, budget=2.0, config=config)
    flags = result["manifest"]["flag_counts"]
    assert "window_level_missing" not in flags and "scale_tail" not in flags
    if matrix == "shear":
        _assert_shipped("embedding", config)


def _assert_shipped(kind: str, config: dict) -> None:
    """configs/<kind>_shear.json is config, run as kind."""
    path = ROOT / "configs" / f"{kind.replace('-', '_')}_shear.json"
    shipped = json.loads(path.read_text())
    assert {k: shipped.pop(k) for k in ("experiment", "label")} == {
        "experiment": kind,
        "label": f"{kind}-shear",
    }
    assert shipped == config


@pytest.mark.parametrize("matrix", ["shear", "diagonal"])
def test_criterion_13_anisotropic_coorbit_identification(matrix):
    config = {"matrix": PLANE_MATRICES[matrix], **EMBEDDING_2D}
    name = f"13 coorbit identification, {matrix}"
    result = _run(name, run_coorbit, budget=10.0, config=config)
    flags = result["manifest"]["flag_counts"]
    for flag in ("window_level_missing", "scale_tail", "reference_scale_tail"):
        assert flag not in flags


@pytest.mark.parametrize("matrix", ["shear", "diagonal"])
def test_criterion_14_anisotropic_maximal_characterization(matrix):
    config = {"matrix": PLANE_MATRICES[matrix], **EMBEDDING_2D}
    name = f"14 maximal characterization, {matrix}"
    result = _run(name, run_norm_equivalence, budget=20.0, config=config)
    flags = result["manifest"]["flag_counts"]
    assert "window_level_missing" not in flags and "scale_tail" not in flags
    if matrix == "shear":
        _assert_shipped("norm-equivalence", config)


def test_criterion_10_frames():
    result = _run("10 frames", run_frames, budget=10.0)
    stages = {row["stage"] for row in result["rows"]}
    assert {"reconstruction", "moments", "molecules"} <= stages


def test_criterion_11_determinism(tmp_path):
    t0 = time.time()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "experiment": "calderon",
                "label": "det",
                "cases": [
                    {
                        "matrix": {"dim": 1, "entries": [2.0]},
                        "grid": {"extent": 8.0, "n": 512},
                    }
                ],
            }
        )
    )
    for out in ("r1", "r2"):
        code = cli_main(["--out", str(tmp_path / out), "run", "--config", str(cfg)])
        assert code == 0
    a = (tmp_path / "r1" / "det" / "calderon.csv").read_bytes()
    b = (tmp_path / "r2" / "det" / "calderon.csv").read_bytes()
    ok = a == b
    elapsed = time.time() - t0
    print(f"criterion 11 determinism: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s, budget 5s)")
    assert ok
    assert elapsed < 5.0, "11 determinism exceeded its runtime budget"
