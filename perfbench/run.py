"""Benchmark of the anisotl acceptance runners.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload line-maximal --seed 0 --seconds 28 --trace 0

Runs the workload's fixed list of ``anisotl.experiments.run_*`` calls
(``workloads.py``) again and again, one repetition at a time, until
``--seconds`` have passed.  A repetition is a fresh interpreter
(``child.py``) that times the set-up, then one fresh interpreter per runner
call, as ``anisotl run --kind <kind>`` would run it.  Every result's CSV
digest is checked against ``reference.json``.  With ``--trace 0`` it
reports the end-to-end metrics as medians over the repetitions; with
``--trace 1`` it alternates untraced and traced repetitions and reports
the per-layer metrics of ``tracer.py``.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER, merge, metrics  # noqa: E402
from workloads import DOMINANT, WORKLOADS, calls, variant  # noqa: E402

MIN_UNTRACED = 3      # repetitions for an end-to-end median
HARD_LIMIT_S = 170.0  # a run must end within 180 s
BLAS_THREADS = "1"    # steadier than nproc on a shared host; recorded below

COMPUTED = {name for name, _unit, _better, computed in PER_LAYER if computed}


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _run_child(phase: str, workload: str, seed: int, traced: bool, timeout: float,
               call: int = 0) -> dict:
    scratch = ROOT / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)
    cmd = [
        sys.executable, str(HERE / "child.py"), "--phase", phase,
        "--workload", workload, "--seed", str(seed), "--call", str(call),
        "--trace", str(int(traced)),
        "--scratch", str(scratch), "--src", str(ROOT / "src"),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{phase} phase exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_calls(workload: str, seed: int, traced: bool, timeout) -> dict:
    """The runner calls of one repetition, each in its own interpreter.

    ``timeout`` gives the seconds left for the next process.  Returns the
    call records, their summed time, the largest peak RSS and, when traced,
    the per-layer metrics of the summed spans.
    """
    records = [_run_child("run", workload, seed, traced, timeout(), call=i)
               for i in range(len(calls(workload, seed)))]
    rep = {
        "wall_s": sum(r["s"] for r in records),
        "rss_mb": max(r["rss_mb"] for r in records),
        "calls": records,
        "environment": records[0]["environment"],
    }
    if traced:
        spans = merge([r["spans"] for r in records])
        dominant = DOMINANT[workload]
        if spans[dominant]["calls"] == 0:
            raise RuntimeError(f"{workload}: predicted dominant span {dominant} recorded no call")
        rep["trace"] = metrics(spans)
    return rep


def _check(child: dict, expected: list[dict]) -> int:
    """Failed runner calls of one repetition."""
    failed = 0
    for i, (record, ref) in enumerate(zip(child["calls"], expected, strict=True)):
        if record["error"] is not None:
            sys.stderr.write(record["error"])
            failed += 1
        elif record["digests"] != ref:
            print(f"perfbench: call {i} ({record['kind']}) output differs from reference.json",
                  file=sys.stderr)
            failed += 1
    return failed


def _environment(child: dict) -> dict:
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "anisotl").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": src.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        **child["environment"],
        "blas_threads": BLAS_THREADS,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "anisotl" / "__init__.py").is_file():
        return _fail(f"no anisotl sources under {ROOT / 'src'}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "reference.json").read_text())
    expected = expected[args.workload][str(variant(args.workload, args.seed))]

    start = time.perf_counter()

    def left() -> float:
        return max(HARD_LIMIT_S - (time.perf_counter() - start), 1.0)

    untraced, traced, durations = [], [], []
    attempted = failed = 0
    while True:
        want_trace = bool(args.trace) and len(traced) < len(untraced)
        t0 = time.perf_counter()
        try:
            setup = {} if args.trace else _run_child("setup", args.workload, args.seed,
                                                      False, left())
            child = {**run_calls(args.workload, args.seed, want_trace, left), **setup}
            failed += _check(child, expected)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            return _fail(f"{args.workload}: {exc}")
        durations.append(time.perf_counter() - t0)
        (traced if want_trace else untraced).append(child)
        attempted += len(child["calls"])
        elapsed = time.perf_counter() - start
        enough = len(untraced) >= (1 if args.trace else MIN_UNTRACED) and (
            not args.trace or len(traced) >= 1
        )
        next_end = elapsed + statistics.median(durations)
        if (enough and next_end > args.seconds) or next_end > HARD_LIMIT_S:
            break

    def median(key, runs):
        return statistics.median(r[key] for r in runs)

    digests = [[c["digests"] for c in r["calls"]] for r in untraced + traced]
    consistent = all(d == digests[0] for d in digests)
    if args.trace:
        values = {
            name: statistics.median(r["trace"][name] for r in traced)
            for name in traced[0]["trace"]
        }
        values["trace.overhead_ratio"] = median("wall_s", traced) / median("wall_s", untraced) - 1
        declared = bench["per_layer"]
        units = {name: unit for name, unit, _better, _computed in PER_LAYER}
    else:
        values = {
            "setup_s": median("setup_s", untraced),
            "wall_s": median("wall_s", untraced),
            "peak_rss_mb": median("rss_mb", untraced),
            "verified_ratio": (attempted - failed) / attempted,
        }
        declared = bench["end_to_end"]
        units = {m["name"]: m["unit"] for m in declared}
    if set(values) != {m["name"] for m in declared}:
        return _fail("reported metrics do not match BENCHMARK.json")

    env = _environment(untraced[0])
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"{args.workload} seed {args.seed} (variant {variant(args.workload, args.seed)}): "
          f"{len(untraced)} untraced and {len(traced)} traced repetitions, "
          f"{attempted} runner calls, {failed} failed")
    print("untraced wall_s per repetition: "
          + " ".join(f"{r['wall_s']:.3f}" for r in untraced))
    for m in declared:
        label = " (computed)" if m["name"] in COMPUTED else ""
        print(f"{m['name']} {values[m['name']]!r} {units[m['name']]}{label}")
    result = {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": units[m["name"]]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
