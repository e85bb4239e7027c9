"""One process of a workload repetition: the set-up, or one runner call.

``--phase setup`` times the import of ``anisotl`` plus building the
workload's inputs with the public constructors.  ``--phase run --call i``
times the workload's i-th runner call, writes its result with
``anisotl.storage.write_csv`` and hashes it.  Every phase and every call
runs in its own process, as one ``anisotl run --kind <kind>`` command
would: each runner call starts from cold module caches, and the tracer
sees only runner work.  Each process prints one JSON line on standard
output.  ``run.py`` starts this script; it is not meant to be run by
hand.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import calls  # noqa: E402


def _build_inputs(kind: str, cfg: dict, anisotl, experiments) -> list:
    """Build a runner's inputs with the public constructors."""
    full = experiments.merged_config(kind, cfg)
    cases = full.get("cases") or [{"matrix": m} for m in full.get("matrices", [])]
    if not cases:
        cases = [{"matrix": full["matrix"], "grid": full.get("grid")}]
    built = []
    for case in cases:
        E = anisotl.matrix_from_json(case["matrix"])
        S = anisotl.build_ellipsoid(E)
        built.append((E, S))
        if not case.get("grid"):
            continue
        grid = anisotl.GridSpec(d=E.d, extent=float(case["grid"]["extent"]), n=int(case["grid"]["n"]))
        phi = anisotl.make_covering_profile(E, grid)
        pair = anisotl.make_analyzing_pair(phi, check_grid=grid)
        built.append(pair)
        if "suite" in full:
            spec = anisotl.SuiteSpec(
                count=int(full["suite"]["count"]),
                seed=int(full["suite"]["seed"]),
                t_range=tuple(full["suite"]["t_range"]),
            )
            built.append(anisotl.suite_generate(spec, grid, phi.gauge, phi))
    return built


def _digests(result: dict, kind: str, out: Path, storage) -> dict:
    tables = {f"{kind}.csv": (result["columns"], result["rows"])}
    for name, table in result.get("extra_tables", {}).items():
        tables[f"{kind}-{name}.csv"] = table
    digests = {}
    for fname, (columns, rows) in tables.items():
        path = out / fname
        storage.write_csv(path, columns, rows)
        digests[fname] = hashlib.sha256(path.read_bytes()).hexdigest()
        path.unlink()
    return digests


def _environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _setup(anisotl, workload_calls: list) -> dict:
    from anisotl import experiments

    inputs = [_build_inputs(kind, cfg, anisotl, experiments) for kind, cfg in workload_calls]
    return {"setup_s": time.perf_counter() - T_START, "inputs": len(inputs)}


def _run(call: tuple[str, dict], traced: bool, scratch: str) -> dict:
    from anisotl import experiments, storage

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    kind, cfg = call
    runner = getattr(experiments, "run_" + kind.replace("-", "_"))
    cfg = json.loads(json.dumps(cfg))
    record = {"kind": kind, "error": None, "pass": False, "digests": None}
    t0 = time.perf_counter()
    try:
        result = runner(cfg)
    except Exception:
        record["s"] = time.perf_counter() - t0
        record["error"] = traceback.format_exc()
    else:
        record["s"] = time.perf_counter() - t0
        record["pass"] = result["pass"]
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            record["digests"] = _digests(result, kind, Path(tmp), storage)

    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["environment"] = _environment()
    if tracer is not None:
        record["spans"] = tracer.raw()
    return record


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--phase", required=True, choices=("setup", "run"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--call", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--src", required=True)
    args = ap.parse_args()

    import anisotl

    where = Path(anisotl.__file__).resolve()
    if Path(args.src).resolve() not in where.parents:
        print(f"anisotl imported from {where}, not from {args.src}", file=sys.stderr)
        return 2
    workload_calls = calls(args.workload, args.seed)
    if args.phase == "setup":
        report = _setup(anisotl, workload_calls)
    else:
        report = _run(workload_calls[args.call], bool(args.trace), args.scratch)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
