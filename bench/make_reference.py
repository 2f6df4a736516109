"""Regenerate ``reference/<workload>.json``, the values runs are checked against.

    python3 bench/make_reference.py [--workload NAME ...]

Run only at a commit whose outputs are trusted: every later run with one of
``REFERENCE_SEEDS`` must reproduce these numeric columns within 1e-10 and
these discrete values exactly.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

from checks import read_outputs, reference_entry
from run import BENCH, spawn
from workloads import WORKLOADS

REFERENCE_SEEDS = tuple(range(16))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", nargs="*", default=list(WORKLOADS), choices=list(WORKLOADS))
    args = ap.parse_args(argv)
    work = BENCH / ".work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name in args.workload:
            w = WORKLOADS[name]
            seeds = {}
            for seed in REFERENCE_SEEDS:
                out = work / "out"
                rec = spawn("run", w.argv(seed, str(out)), work / "result.json",
                            work / "child.log")
                if rec["exit_code"] != 0:
                    print(f"{name} seed {seed}: exit {rec['exit_code']}", file=sys.stderr)
                    return 1
                seeds[str(seed)] = reference_entry(read_outputs(w.command, out))
                shutil.rmtree(out)
                print(f"{name} seed {seed}: ok", flush=True)
            path = BENCH / "reference" / f"{name}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps({"argv": w.argv(0, "OUT"), "seeds": seeds},
                                       sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
