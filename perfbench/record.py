"""Record reference.json: the CSV digests of every workload variant.

Usage, from the root of a checkout:

    python3 perfbench/record.py

Each variant of every workload runs twice, each runner call in a fresh
interpreter, as in ``run.py``; the digests must agree and every runner
must report a pass, or nothing is written.  Re-record only at a commit whose results are
known to be right.
"""

from __future__ import annotations

import json
import sys

from run import HERE, run_calls
from workloads import WORKLOADS, variants


def main() -> int:
    reference = {}
    for workload in sorted(WORKLOADS):
        digests = {}
        for variant in variants(workload):
            runs = [run_calls(workload, variant, False, lambda: 600.0) for _ in range(2)]
            for record in runs[0]["calls"]:
                if record["error"] is not None or not record["pass"]:
                    print(f"{workload} variant {variant}: {record['kind']} did not pass",
                          file=sys.stderr)
                    sys.stderr.write(record["error"] or "")
                    return 1
            first, second = ([c["digests"] for c in r["calls"]] for r in runs)
            if first != second:
                print(f"{workload} variant {variant}: digests differ between processes",
                      file=sys.stderr)
                return 1
            digests[str(variant)] = first
            print(f"{workload} variant {variant}: wall "
                  f"{runs[0]['wall_s']:.2f} s / {runs[1]['wall_s']:.2f} s", flush=True)
        reference[workload] = digests
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
