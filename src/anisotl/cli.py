"""Command-line front end: experiment orchestration and artifact emission.

Results land in results/<label>/ as summary.json, one CSV per experiment
kind, and manifest.json listing every tolerance and truncation flag.
Outputs contain no timestamps, so identical configs and seeds yield
byte-identical files.  Exit codes: 0 all pass, 1 criterion failure,
2 config/validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .analyzers import make_analyzing_pair
from .errors import AnisoError
from .experiments import LINE_MATRIX, RUNNERS, _setup, _suite, merged_config
from .linalg_expansive import build_ellipsoid, matrix_from_json, measure_quasi_triangle
from .norms import NormParams, band_arrays, besov_norm, tl_norm_inf, tl_norm_q
from .storage import ensure_dir, load_field, save_field, write_csv, write_json

_GROUP_KINDS = {
    "wavelet": "wavelet-repro",
    "reproduce": "wavelet-repro",
    "ptinorm": "coorbit",
    "weights": "control-weight",
    "translations": "translation-bounds",
}

def _load_config(
    path: str | None, overrides: list[str], sections: tuple[str, ...] | None = None
) -> dict:
    """The config file with the --set overrides applied.  A subcommand that
    reads only some top-level sections passes them, and an override of any
    other key is a config failure rather than silently unused."""
    cfg: dict = {}
    if path:
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(_fail_config(f"cannot read config {path}: {exc}"))
        if not isinstance(cfg, dict):
            raise SystemExit(_fail_config(f"config {path} is not a JSON object"))
    for item in overrides or []:
        if "=" not in item:
            raise SystemExit(_fail_config(f"--set needs key=value, got {item!r}"))
        key, _, value = item.partition("=")
        node = cfg
        parts = key.split(".")
        if sections is not None and parts[0] not in sections:
            raise SystemExit(_fail_config(
                f"--set {item}: {parts[0]} is not read here, only {', '.join(sections)}"
            ))
        for i, p in enumerate(parts[:-1]):
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                where = ".".join(parts[: i + 1])
                raise SystemExit(_fail_config(f"--set {item}: {where} is not an object"))
        try:
            node[parts[-1]] = json.loads(value)
        except json.JSONDecodeError:
            node[parts[-1]] = value
    return cfg


def _fail_config(msg: str) -> int:
    print(f"config error: {msg}", file=sys.stderr)
    return 2


def _execute(what: str, build, *args):
    """build(*args), or exit code 2 if it could not run: a toolkit error, a
    missing input file, or a config with a missing key, a bad value or a
    value of the wrong type (merged_config turns those into ValueError).
    Any other exception, a TypeError included, is a defect and propagates."""
    try:
        return build(*args)
    except AnisoError as exc:
        print(f"experiment failed to run: {exc}", file=sys.stderr)
        return 2
    except (KeyError, ValueError, OSError) as exc:
        msg = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        return _fail_config(f"{what}: " + " ".join(msg.split()))


def _run_kind(kind: str, config: dict) -> tuple[dict, dict]:
    cfg = merged_config(kind, config)
    return cfg, RUNNERS[kind](cfg)


def _write_artifacts(out_dir: str, cfg: dict, result: dict, tables: dict, summary: dict) -> Path:
    """Write each (columns, rows) table as <name>.csv, then summary.json and
    manifest.json, into out_dir/<label>/; returns that directory."""
    kind = result["kind"]
    dest = ensure_dir(Path(out_dir) / cfg.get("label", kind))
    for name, (columns, rows) in tables.items():
        write_csv(dest / f"{name}.csv", columns, rows)
    write_json(dest / "summary.json", {"kind": kind, **summary})
    write_json(
        dest / "manifest.json",
        {"kind": kind, "config": cfg, "manifest": result["manifest"]},
    )
    return dest


def run(kind: str, config: dict, out_dir: str = "results") -> int:
    """Run one experiment kind and write its artifact directory."""
    if kind not in RUNNERS:
        return _fail_config(f"unknown experiment kind {kind!r}")
    outcome = _execute(kind, _run_kind, kind, config)
    if isinstance(outcome, int):
        return outcome
    cfg, result = outcome
    tables = {kind: (result["columns"], result["rows"])}
    for name, table in result.get("extra_tables", {}).items():
        tables[f"{kind}-{name}"] = table
    summary = {"label": cfg.get("label", kind), "pass": result["pass"]}
    dest = _write_artifacts(out_dir, cfg, result, tables, summary)
    status = "PASS" if result["pass"] else "FAIL"
    print(f"{kind}: {status} ({len(result['rows'])} rows) -> {dest}")
    return 0 if result["pass"] else 1


_VALIDATE_KINDS = ("quasinorm-axioms", "calderon", "admissibility")


def _cmd_validate(args) -> int:
    cfg = _load_config(args.config, args.set, _VALIDATE_KINDS + ("matrix",))
    rec = None
    if args.diagnostics:
        # a bad matrix is a config failure before any experiment runs
        rec = _execute("matrix", _ellipsoid_record, cfg.get("matrix", LINE_MATRIX))
        if isinstance(rec, int):
            return rec
    worst = 0
    for kind in _VALIDATE_KINDS:
        code = run(kind, cfg.get(kind, {}), args.out)
        worst = max(worst, code)
    if rec is not None:
        print(json.dumps(rec, sort_keys=True))
    return worst


def _ellipsoid_record(matrix: dict) -> dict:
    E = matrix_from_json(matrix)
    S = build_ellipsoid(E)
    c_emp = measure_quasi_triangle(S, n=4096, seed=7)
    return {
        "op": "build_ellipsoid",
        "input": E.to_json(),
        "output": {"c": S.c, "r": S.r, "quasi_triangle_c": c_emp},
        "tolerance": 1e-14,
    }


def _cmd_norm(args) -> int:
    kinds = ("norm-equivalence",) if args.field else ("norm-equivalence", "embedding")
    cfg = _load_config(args.config, args.set, kinds)
    if not args.field:
        worst = 0
        for kind in kinds:
            worst = max(worst, run(kind, cfg.get(kind, {}), args.out))
        return worst
    reports = _execute("norm", _field_reports, args, cfg)
    if isinstance(reports, int):
        return reports
    dest = ensure_dir(Path(args.out) / "norm")
    write_json(dest / "norm_report.json", reports)
    rows = [
        {"field": args.field, "norm": name, "value": rep["value"]}
        for name, rep in reports.items()
    ]
    write_csv(dest / "norms.csv", ["field", "norm", "value"], rows)
    print(json.dumps(reports, sort_keys=True))
    return 0


def _field_reports(args, cfg: dict) -> dict:
    params = NormParams(
        alpha=args.alpha,
        q=math.inf if args.q == "inf" else float(args.q),
        scale_max=args.J,
        ell_min=-args.L,
        ell_max=args.L,
        window=args.window,
    )
    base = merged_config("norm-equivalence", cfg.get("norm-equivalence", {}))
    E, grid, phi = _setup(base["matrix"], base["grid"])
    S = build_ellipsoid(E)
    pair = make_analyzing_pair(phi, check_grid=grid)
    f = load_field(args.field, phi.gauge)
    bands = band_arrays(f, pair.phi, params.discrete_scales)
    return {
        "tl_q": tl_norm_q(f.grid, S, bands, params).to_json(),
        "tl_inf": tl_norm_inf(f.grid, S, bands, params).to_json(),
        "besov": besov_norm(S, bands, params).to_json(),
    }


def _cmd_group(args) -> int:
    kind = _GROUP_KINDS[args.what]
    cfg = _load_config(args.config, args.set, (kind,))
    return run(kind, cfg.get(kind, {}), args.out)


_FRAME_STAGES = {
    "sample-gamma": None,       # stats live in the manifest
    "bounds": None,
    "reconstruct": "reconstruction",
    "moments": "moments",
    "molecule-check": "molecules",
}


def _cmd_frames(args) -> int:
    cfg = _load_config(args.config, args.set, ("frames",))
    outcome = _execute("frames", _run_kind, "frames", cfg.get("frames", {}))
    if isinstance(outcome, int):
        return outcome
    merged, result = outcome
    stage = _FRAME_STAGES[args.what]
    rows = [r for r in result["rows"] if stage in (None, r["stage"])]
    passed = all(r["pass"] for r in rows)
    tables = {f"frames-{args.what}": (result["columns"], rows)}
    dest = _write_artifacts(
        args.out, merged, result, tables, {"stage": args.what, "pass": passed}
    )
    print(f"frames/{args.what}: {'PASS' if passed else 'FAIL'} -> {dest}")
    return 0 if passed else 1


def _suite_fields(config: dict) -> list:
    cfg = merged_config("suite", config)
    E, grid, phi = _setup(cfg["matrix"], cfg["grid"])
    return _suite(cfg["suite"], grid, phi.gauge)


def _cmd_suite(args) -> int:
    cfg = _load_config(args.config, args.set)
    fields = _execute("suite", _suite_fields, cfg)
    if isinstance(fields, int):
        return fields
    dest = ensure_dir(Path(args.out) / "suite")
    rows = []
    for i, f in enumerate(fields):
        path = dest / f"field_{i:03d}.bin"
        save_field(path, f)
        rows.append({"field": str(path), "l2": f.l2_norm(), "band_lo": f.band_t[0], "band_hi": f.band_t[1]})
    write_csv(dest / "suite.csv", ["field", "l2", "band_lo", "band_hi"], rows)
    print(f"suite: wrote {len(fields)} fields -> {dest}")
    return 0


def _cmd_run(args) -> int:
    cfg = _load_config(args.config, args.set)
    kind = cfg.get("experiment", args.kind)
    if kind is None:
        return _fail_config("config needs an 'experiment' kind (or pass --kind)")
    return run(kind, cfg, args.out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="anisotl",
        description="Anisotropic endpoint smoothness-space experiments",
    )
    parser.add_argument("--out", default="results", help="results directory")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="JSON config path")
    common.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")

    p = sub.add_parser("validate", parents=[common], help="matrix/analyzer validation experiments")
    p.add_argument("--diagnostics", action="store_true")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("norm", parents=[common], help="norm experiments or single-field reports")
    p.add_argument("--field", default=None, help="stored field container")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--q", default="2")
    p.add_argument("--J", type=int, default=5)
    p.add_argument("--L", type=int, default=2)
    p.add_argument("--window", choices=["cube", "ball"], default="cube")
    p.set_defaults(fn=_cmd_norm)

    p = sub.add_parser("group", parents=[common], help="group-side experiments")
    p.add_argument("what", choices=sorted(_GROUP_KINDS))
    p.set_defaults(fn=_cmd_group)

    p = sub.add_parser("frames", parents=[common], help="frame decomposition experiments")
    p.add_argument(
        "what",
        choices=sorted(_FRAME_STAGES),
        nargs="?",
        default="reconstruct",
    )
    p.set_defaults(fn=_cmd_frames)

    p = sub.add_parser("suite", parents=[common], help="generate and store a field suite")
    p.set_defaults(fn=_cmd_suite)

    p = sub.add_parser("run", parents=[common], help="run one experiment kind")
    p.add_argument("--kind", choices=sorted(RUNNERS), default=None)
    p.set_defaults(fn=_cmd_run)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2


if __name__ == "__main__":
    sys.exit(main())
