#!/usr/bin/env python3
"""Pin the digests of the gen reports the benchmark produces.

    python3 perfbench/pin.py FIRST LAST

Runs the op lists of the gen workloads once for every seed from FIRST to
LAST, checks each report with the brute-force referees, and stores the
SHA-256 of each report in ``perfbench/digests.json``.  A report must be
byte-identical for a seed, so a later run whose report has another digest
counts that op as failed.  Seeds already pinned are checked, not re-pinned.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import checks
import run

GEN_WORKLOADS = ("gen-caps", "gen-saturate")


def main(argv: list[str]) -> int:
    first, last = (int(a) for a in argv)
    sys.path.insert(0, str(run.SRC))
    cli = run.import_package()
    with open(run.PINS) as fh:
        pins = json.load(fh)
    failed = 0
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        for workload in GEN_WORKLOADS:
            table = pins.setdefault(workload, {})
            for seed in range(first, last + 1):
                w = run.WORKLOADS[workload](seed, Path(tmp))
                *_, outputs = run.play(w.ops, cli, None)
                fresh = {}
                for op, (rc, out) in zip(w.ops, outputs):
                    problems = run.verify(op, rc, out)
                    for p in problems:
                        print(f"{workload} seed {seed} {op.label}: {p}")
                    failed += bool(problems)
                    fresh[op.label] = checks.digest(out)
                table.setdefault(str(seed), fresh)
                print(f"{workload} seed {seed} done", flush=True)
    if failed:
        print(f"{failed} reports failed; nothing written")
        return 1
    with open(run.PINS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
