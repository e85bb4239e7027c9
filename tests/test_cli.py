import json
from pathlib import Path

import numpy as np
import pytest

from anisotl.analyzers import make_covering_profile
from anisotl.cli import main
from anisotl.experiments import DEFAULTS, RUNNERS, merged_config
from anisotl.grids import GridSpec
from anisotl.linalg_expansive import validate_expansive
from anisotl.storage import load_array, load_field, save_field, write_csv
from anisotl.suite import SuiteSpec, suite_generate


def small_calderon_config(tmp_path, label="cal-a"):
    cfg = {
        "calderon": {
            "label": label,
            "cases": [
                {"matrix": {"dim": 1, "entries": [2.0]}, "grid": {"extent": 8.0, "n": 512}}
            ],
        },
        "quasinorm-axioms": {
            "label": label + "-axioms",
            "points": 500,
            "matrices": [{"dim": 1, "entries": [2.0]}],
        },
        "admissibility": {
            "label": label + "-adm",
            "n_frequencies": 10,
            "cases": [
                {"matrix": {"dim": 1, "entries": [2.0]}, "grid": {"extent": 8.0, "n": 512}}
            ],
        },
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


class TestStorage:
    def test_field_round_trip(self, tmp_path):
        E = validate_expansive([[2.0]])
        grid = GridSpec(d=1, extent=8.0, n=512)
        phi = make_covering_profile(E, grid)
        fields = suite_generate(SuiteSpec(count=1, seed=3), grid, phi.gauge)
        path = tmp_path / "f.bin"
        save_field(path, fields[0])
        back = load_field(path, phi.gauge)
        assert np.allclose(back.spec, fields[0].spec)
        assert back.band_t == pytest.approx(fields[0].band_t)

    def test_header_is_json_line(self, tmp_path):
        E = validate_expansive([[2.0]])
        grid = GridSpec(d=1, extent=8.0, n=512)
        phi = make_covering_profile(E, grid)
        fields = suite_generate(SuiteSpec(count=1, seed=3), grid, phi.gauge)
        path = tmp_path / "f.bin"
        save_field(path, fields[0])
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
        assert header["kind"] == "field"
        assert header["byte_order"] == "little"

    def test_csv_formatting_is_deterministic(self, tmp_path):
        rows = [{"a": 0.1 + 0.2, "b": True, "c": "x"}]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(p1, ["a", "b", "c"], rows)
        write_csv(p2, ["a", "b", "c"], rows)
        assert p1.read_bytes() == p2.read_bytes()
        assert b"0.30000000000000004" in p1.read_bytes()


class TestCli:
    def test_validate_exit_zero(self, tmp_path):
        cfg = small_calderon_config(tmp_path)
        code = main(["--out", str(tmp_path / "res"), "validate", "--config", str(cfg)])
        assert code == 0
        assert (tmp_path / "res" / "cal-a" / "calderon.csv").exists()

    def test_malformed_config_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["run", "--kind", "calderon", "--config", str(bad)])
        assert code == 2

    def test_non_object_config_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        assert main(["run", "--kind", "calderon", "--config", str(cfg)]) == 2
        assert "is not a JSON object" in capsys.readouterr().err

    def test_missing_kind_exit_two(self, tmp_path):
        cfg = tmp_path / "empty.json"
        cfg.write_text("{}")
        code = main(["--out", str(tmp_path / "r"), "run", "--config", str(cfg)])
        assert code == 2

    def test_determinism_byte_identical(self, tmp_path):
        # `run` reads the whole file as the kind's config, not a section of it
        sections = json.loads(small_calderon_config(tmp_path).read_text())
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(sections["calderon"]))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["--out", str(out1), "run", "--kind", "calderon", "--config", str(cfg), "--set", "label=det"]) in (0,)
        assert main(["--out", str(out2), "run", "--kind", "calderon", "--config", str(cfg), "--set", "label=det"]) in (0,)
        f1 = (out1 / "det" / "calderon.csv").read_bytes()
        f2 = (out2 / "det" / "calderon.csv").read_bytes()
        assert f1 == f2
        s1 = (out1 / "det" / "summary.json").read_bytes()
        s2 = (out2 / "det" / "summary.json").read_bytes()
        assert s1 == s2

    def test_set_override_changes_config(self, tmp_path):
        out = tmp_path / "res"
        code = main(
            [
                "--out", str(out),
                "run", "--kind", "quasinorm-axioms",
                "--set", "points=400",
                "--set", "label=fast",
                "--set", 'matrices=[{"dim": 1, "entries": [2.0]}]',
            ]
        )
        assert code == 0
        manifest = json.loads((out / "fast" / "manifest.json").read_text())
        assert manifest["config"]["points"] == 400

    def test_nested_set_keeps_sibling_defaults(self, tmp_path):
        # --set suite.seed / grid.n override one key of a nested default
        out = tmp_path / "res"
        code = main(
            [
                "--out", str(out),
                "run", "--kind", "translation-bounds",
                "--set", "suite.seed=4",
                "--set", "grid.n=256",
                "--set", "pairs_per_branch=2",
            ]
        )
        assert code == 0
        cfg = json.loads((out / "translation-bounds" / "manifest.json").read_text())["config"]
        assert cfg["suite"] == {"count": 4, "seed": 4, "t_range": [1.9, 3.1]}
        assert cfg["grid"] == {"extent": 8.0, "n": 256}

    def test_merged_config_replaces_lists(self):
        cfg = merged_config("frames", {"s_range": [-1.0, 0.0], "covering": {"density": 0.25}})
        assert cfg["s_range"] == [-1.0, 0.0]
        assert cfg["covering"] == {"U": [0.25, 0.25], "density": 0.25}
        assert DEFAULTS["frames"]["covering"]["density"] == 0.5

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"covering": 0.5}, "covering must be an object, got 0.5"),
            ({"covering": {"U": {"a": 1}}}, "covering.U must not be an object, got {'a': 1}"),
            ({"seed": {"x": 1}}, "seed must not be an object, got {'x': 1}"),
        ],
    )
    def test_merged_config_rejects_shape_change(self, override, message):
        with pytest.raises(ValueError) as exc:
            merged_config("frames", override)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "kind, override, message",
        [
            ("frames", {"iteratons": 5}, "unknown key iteratons"),
            ("frames", {"covering": {"densty": 0.25}}, "unknown key covering.densty"),
            ("calderon", {"suite": {"count": 1}}, "unknown key suite"),
            ("calderon", {"suite": {"kind": "mixed"}}, "unknown key suite"),
            ("suite", {"suite": {"kind": "mixed"}}, "unknown key suite.kind"),
        ],
    )
    def test_merged_config_rejects_unknown_keys(self, kind, override, message):
        with pytest.raises(ValueError) as exc:
            merged_config(kind, override)
        assert str(exc.value) == message

    def test_merged_config_keeps_optional_keys(self):
        assert merged_config("calderon", {"experiment": "calderon"})["experiment"] == "calderon"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["run", "--kind", "calderon", "--set", 'cases=[{"matrix": {"dim": 1, "entries": [2.0]}}]'],
                "config error: calderon: missing key 'grid'",
            ),
            (
                ["frames", "moments", "--set", "frames.grid.n=abc"],
                "config error: frames: grid.n must be an integer, got 'abc'",
            ),
            (
                ["run", "--kind", "translation-bounds", "--set", "suite=3"],
                "config error: translation-bounds: suite must be an object, got 3",
            ),
            (
                ["run", "--kind", "translation-bounds", "--set", "seed=3", "--set", "seed.x=1"],
                "config error: --set seed.x=1: seed is not an object",
            ),
            (
                ["group", "translations", "--set", "translation-bounds=3"],
                "config error: translation-bounds: translation-bounds must be an object, got 3",
            ),
            (
                ["suite", "--set", "suite=3"],
                "config error: suite: suite must be an object, got 3",
            ),
            (
                ["suite", "--set", "grid.n=abc"],
                "config error: suite: grid.n must be an integer, got 'abc'",
            ),
            (
                ["norm", "--field", "/nonexistent"],
                "config error: norm: [Errno 2] No such file or directory: '/nonexistent'",
            ),
            # a config that yields an empty table fails instead of passing vacuously
            (
                ["run", "--kind", "quasinorm-axioms", "--set", "matrices=[]"],
                "config error: quasinorm-axioms: the config yields no quasinorm-axioms rows",
            ),
            (
                ["run", "--kind", "calderon", "--set", "cases=[]"],
                "config error: calderon: the config yields no calderon rows",
            ),
            (
                ["frames", "--set", "frames.suite.count=0", "--set", "frames.grid.n=512",
                 "--set", "frames.s_range=[-2.5, 0.5]"],
                "config error: frames: the config yields no error-curves rows",
            ),
            # a key no runner reads is a config failure, not silently unused
            (
                ["frames", "--set", "frames.iteratons=5"],
                "config error: frames: unknown key iteratons",
            ),
            (
                ["frames", "--set", "suite.count=0"],
                "config error: --set suite.count=0: suite is not read here, only frames",
            ),
            (
                ["validate", "--set", "frames.iterations=5"],
                "config error: --set frames.iterations=5: frames is not read here, only "
                "quasinorm-axioms, calderon, admissibility, matrix",
            ),
            (
                ["group", "weights", "--set", "samples=10"],
                "config error: --set samples=10: samples is not read here, only control-weight",
            ),
            (
                ["norm", "--field", "f.bin", "--set", "embedding.alpha=1"],
                "config error: --set embedding.alpha=1: embedding is not read here, only "
                "norm-equivalence",
            ),
            (
                ["run", "--kind", "calderon", "--set", "tolerence=1e-9"],
                "config error: calderon: unknown key tolerence",
            ),
            # validate --diagnostics builds its matrix before any experiment runs
            (
                ["validate", "--diagnostics", "--set", "matrix.dim=abc"],
                "config error: matrix: invalid literal for int() with base 10: 'abc'",
            ),
            (
                ["validate", "--diagnostics", "--set", "matrix=3"],
                "config error: matrix: expected a matrix {dim, entries}, got 3: "
                "'int' object is not subscriptable",
            ),
            (
                ["validate", "--diagnostics", "--set", "matrix.entries=[0.5]"],
                "config error: matrix: missing key 'dim'",
            ),
            (
                ["validate", "--diagnostics", "--set", "matrix.dim=1", "--set", "matrix.entries=[0.5]"],
                "experiment failed to run: eigenvalue modulus 0.5 <= 1; not expansive",
            ),
            # a value of the wrong type is a config failure, not a traceback
            (
                ["run", "--kind", "embedding", "--set", "grid.n=null"],
                "config error: embedding: grid.n must be an integer, got None",
            ),
            (
                ["run", "--kind", "embedding", "--set", "qs=[null]"],
                'config error: embedding: qs must be a list of numbers or "inf", got [None]',
            ),
            # a scale step must be positive (ds = 0 used to divide by zero)
            (
                ["run", "--kind", "norm-equivalence", "--set", "ds=0"],
                "config error: norm-equivalence: ds = 0 must be positive",
            ),
            # an integer or boolean setting is not coerced into one
            (
                ["run", "--kind", "quasinorm-axioms", "--set", "points=100.7"],
                "config error: quasinorm-axioms: points must be an integer, got 100.7",
            ),
            (
                ["run", "--kind", "quasinorm-axioms", "--set", "seed=true"],
                "config error: quasinorm-axioms: seed must be an integer, got True",
            ),
            (
                ["run", "--kind", "quasinorm-axioms", "--set", 'points="100"'],
                "config error: quasinorm-axioms: points must be an integer, got '100'",
            ),
            (
                ["run", "--kind", "norm-equivalence", "--set", "refine=no"],
                "config error: norm-equivalence: refine must be true or false, got 'no'",
            ),
            (
                ["run", "--kind", "embedding", "--set", "ell_range=[-2, 2.5]"],
                "config error: embedding: ell_range must be a list of integers, got [-2, 2.5]",
            ),
            # a number or a list of numbers is not coerced either
            (
                ["run", "--kind", "embedding", "--set", "alpha=[1]"],
                "config error: embedding: alpha must be a number, got [1]",
            ),
            (
                ["run", "--kind", "embedding", "--set", "grid.extent=[8]"],
                "config error: embedding: grid.extent must be a number, got [8]",
            ),
            (
                ["run", "--kind", "coorbit", "--set", "qs=[[1]]"],
                'config error: coorbit: qs must be a list of numbers or "inf", got [[1]]',
            ),
            (
                ["run", "--kind", "embedding", "--set", 'suite.t_range=[1, "a"]'],
                "config error: embedding: suite.t_range must be a list of numbers, got [1, 'a']",
            ),
            # nor a string, nor a value inside a list of objects
            (
                ["run", "--kind", "calderon", "--set", "label=3"],
                "config error: calderon: label must be a string, got 3",
            ),
            (
                ["run", "--kind", "calderon", "--set",
                 'cases=[{"matrix": {"dim": 1, "entries": [2.0]}, "grid": {"extent": 8, "n": null}}]'],
                "config error: calderon: cases[0].grid.n must be an integer, got None",
            ),
            (
                ["run", "--kind", "control-weight", "--set", "branches=[3]"],
                "config error: control-weight: branches[0] must be an object, got 3",
            ),
            (
                ["run", "--kind", "calderon", "--set",
                 'cases=[{"matrix": {"dim": 1, "entries": [2.0]}, "grid": {"extent": 8, "nn": 64}}]'],
                "config error: calderon: unknown key cases[0].grid.nn",
            ),
            # json reads NaN and Infinity; a number must be finite, and "inf"
            # is the one way to write an infinite exponent
            (
                ["run", "--kind", "coorbit", "--set", "suite.t_range=[NaN, 3]"],
                "config error: coorbit: suite.t_range must be a list of numbers, got [nan, 3]",
            ),
            (
                ["run", "--kind", "translation-bounds", "--set", "q=NaN"],
                'config error: translation-bounds: q must be a number or "inf", got nan',
            ),
            (
                ["run", "--kind", "translation-bounds", "--set", "beta=Infinity"],
                "config error: translation-bounds: beta must be a number, got inf",
            ),
            (
                ["norm", "--field", "f.bin", "--q", "nan"],
                "config error: norm: q = nan must lie in (0, inf]",
            ),
            (
                ["norm", "--field", "f.bin", "--alpha", "nan"],
                "config error: norm: alpha = nan must be finite",
            ),
            # a finite alpha may still overflow the scale weight |det A|^(alpha s)
            (
                ["run", "--kind", "embedding", "--set", "alpha=1e308"],
                "config error: embedding: |det A|^(alpha s) overflows at alpha = 1e+308, s = 1",
            ),
            # every Peetre sweep searches at least one shell
            (
                ["run", "--kind", "norm-equivalence", "--set", "search_shells=0"],
                "config error: norm-equivalence: search_shells = 0 must be at least 1",
            ),
            (
                ["run", "--kind", "norm-equivalence", "--set", "search_shells=-100"],
                "config error: norm-equivalence: search_shells = -100 must be at least 1",
            ),
            (
                ["run", "--kind", "coorbit", "--set", "search_shells=0"],
                "config error: coorbit: search_shells = 0 must be at least 1",
            ),
            # a range is a pair, a scale range is not empty, a lattice
            # spacing is positive and a translated suite has a field
            (
                ["run", "--kind", "norm-equivalence", "--set", "ell_range=[1]"],
                "config error: norm-equivalence: ell_range must have two items, got [1]",
            ),
            (
                ["run", "--kind", "embedding", "--set", "ell_range=[2]"],
                "config error: embedding: ell_range must have two items, got [2]",
            ),
            (
                ["run", "--kind", "coorbit", "--set", "ell_range=[2,-2,0]"],
                "config error: coorbit: ell_range must have two items, got [2, -2, 0]",
            ),
            (
                ["run", "--kind", "wavelet-repro", "--set", "s_range=[0.5,-3.5]"],
                "config error: wavelet-repro: s_max = -3.5 lies below s_min = 0.5",
            ),
            (
                ["run", "--kind", "translation-bounds", "--set", "s_range=[0.5,-3.5]"],
                "config error: translation-bounds: s_max = -3.5 lies below s_min = 0.5",
            ),
            (
                ["run", "--kind", "frames", "--set", "covering.density=0"],
                "config error: frames: covering lattice spacing 2 U[0] density = 0 must be positive",
            ),
            (
                ["run", "--kind", "frames", "--set", "covering.U=[0,0]"],
                "config error: frames: covering lattice spacing 2 U[0] density = 0 must be positive",
            ),
            (
                ["run", "--kind", "frames", "--set", "separated.U=[0,0]"],
                "config error: frames: separated lattice spacing 2 U[0] density = 0 must be positive",
            ),
            (
                ["run", "--kind", "translation-bounds", "--set", "suite.count=0"],
                "config error: translation-bounds: suite.count = 0 leaves no field to translate",
            ),
            (
                ["run", "--kind", "calderon", "--set", "experiment=[1]"],
                "config error: unknown experiment kind [1]",
            ),
        ],
    )
    def test_bad_config_value_exit_two(self, tmp_path, capsys, argv, message):
        code = main(["--out", str(tmp_path / "r")] + argv)
        assert code == 2
        assert capsys.readouterr().err.strip() == message
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "header, payload, message",
        [
            ([1], b"", "not an array container"),
            (
                {"magic": "anisotl-array-v1", "dtype": "complex128", "shape": [0],
                 "kind": "field", "grid": [1, 2]},
                b"",
                "field grid needs d, extent and n, got [1, 2]",
            ),
            (
                {"magic": "anisotl-array-v1", "dtype": "complex128", "shape": [2],
                 "kind": "field", "grid": {"d": 1, "extent": 8.0, "n": 4}},
                np.ones(2, dtype="<c16").tobytes(),
                "payload shape (2,) does not match grid (4,)",
            ),
            (
                {"magic": "anisotl-array-v1", "dtype": "complex128", "shape": "ab",
                 "kind": "field", "grid": {"d": 1, "extent": 8.0, "n": 4}},
                b"",
                "shape must be a list of sizes, got 'ab'",
            ),
            (
                {"magic": "anisotl-array-v1", "dtype": "float32", "shape": [4],
                 "byte_order": "little", "kind": "field",
                 "grid": {"d": 1, "extent": 8.0, "n": 4}},
                np.ones(16, dtype="<f4").tobytes(),
                "dtype must be complex64 or complex128, got 'float32'",
            ),
            (
                {"magic": "anisotl-array-v1", "dtype": "complex128", "shape": [4],
                 "byte_order": "big", "kind": "field",
                 "grid": {"d": 1, "extent": 8.0, "n": 4}},
                np.ones(4, dtype=">c16").tobytes(),
                "byte_order must be little, got 'big'",
            ),
        ],
        ids=["header-not-an-object", "grid-not-an-object", "payload-off-the-grid",
             "shape-not-a-list", "float32-payload", "big-endian-payload"],
    )
    def test_malformed_field_container_exit_two(self, tmp_path, capsys, header, payload, message):
        path = tmp_path / "f.bin"
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        code = main(["--out", str(tmp_path / "r"), "norm", "--field", str(path)])
        assert code == 2
        assert capsys.readouterr().err.strip() == f"config error: norm: {path}: {message}"
        assert not (tmp_path / "r").exists()

    def test_overflowing_alpha_on_a_stored_field_exit_two(self, tmp_path, capsys):
        out = tmp_path / "res"
        assert main(["--out", str(out), "suite", "--set", "suite.count=1"]) == 0
        field_path = out / "suite" / "field_000.bin"
        code = main(["--out", str(tmp_path / "r"), "norm", "--field", str(field_path),
                     "--alpha", "1e308"])
        assert code == 2
        assert capsys.readouterr().err.strip() == (
            "config error: norm: |det A|^(alpha s) overflows at alpha = 1e+308, s = 1"
        )
        assert not (tmp_path / "r").exists()

    def test_ds_off_the_sixteenth_grid_runs(self, tmp_path):
        # the sweep covers the union of the 1/16 grid of q < 1 and the ds grid
        argv = ["run", "--kind", "norm-equivalence", "--set", "ds=0.1", "--set", "grid.n=256",
                "--set", "suite.count=2"]
        assert main(["--out", str(tmp_path / "r")] + argv) == 0
        assert (tmp_path / "r" / "norm-equivalence" / "norm-equivalence.csv").exists()

    def test_type_error_in_a_runner_is_not_a_config_error(self, tmp_path, monkeypatch):
        # merged_config rejects wrongly typed values, so a TypeError left
        # inside a runner is a defect and ends in a traceback, not exit 2
        def broken(config):
            raise TypeError("defect inside the runner")

        monkeypatch.setitem(RUNNERS, "calderon", broken)
        with pytest.raises(TypeError, match="defect inside the runner"):
            main(["--out", str(tmp_path / "r"), "run", "--kind", "calderon"])

    def test_suite_emission(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suite": {"count": 2, "seed": 5}, "grid": {"extent": 8.0, "n": 512}}))
        out = tmp_path / "res"
        code = main(["--out", str(out), "suite", "--config", str(cfg)])
        assert code == 0
        files = sorted((out / "suite").glob("field_*.bin"))
        assert len(files) == 2
        arr, header = load_array(files[0])
        assert header["kind"] == "field"

    def test_zero_field_suite_empty_tables(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suite": {"count": 0, "seed": 5}, "grid": {"extent": 8.0, "n": 512}}))
        out = tmp_path / "res"
        code = main(["--out", str(out), "suite", "--config", str(cfg)])
        assert code == 0
        lines = (out / "suite" / "suite.csv").read_text().strip().splitlines()
        assert len(lines) == 1  # header only

    def test_frames_stage_subcommand(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "frames": {
                        "label": "frames-fast",
                        "grid": {"extent": 8.0, "n": 512},
                        "suite": {"count": 2, "seed": 21, "t_range": [1.8, 2.6]},
                        "s_range": [-2.5, 0.5],
                        "iterations": 20,
                    }
                }
            )
        )
        out = tmp_path / "res"
        code = main(["--out", str(out), "frames", "moments", "--config", str(cfg)])
        assert code == 0
        csv_text = (out / "frames-fast" / "frames-moments.csv").read_text()
        assert "moments" in csv_text and "reconstruction" not in csv_text

    def test_norm_single_field_report(self, tmp_path):
        # store one suite field, then ask for its norm reports
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suite": {"count": 1, "seed": 5}, "grid": {"extent": 8.0, "n": 1024}}))
        out = tmp_path / "res"
        assert main(["--out", str(out), "suite", "--config", str(cfg)]) == 0
        field_path = next((out / "suite").glob("field_*.bin"))
        code = main(
            [
                "--out", str(out),
                "norm", "--field", str(field_path),
                "--alpha", "0.0", "--q", "2", "--J", "5", "--L", "2",
            ]
        )
        assert code == 0
        report = json.loads((out / "norm" / "norm_report.json").read_text())
        assert report["tl_q"]["value"] > 0
        assert report["besov"]["value"] >= report["tl_inf"]["value"] * (1 - 1e-9)
