"""Correctness checks on one CLI run's output directory.

Three kinds, each counted once per run towards ``attempted``/``failed``:

* exit code: the CLI returned 0;
* reference: for seeds with a checked-in reference (``reference/``), numeric
  columns agree within ``TOL`` absolute and discrete values (paths, path
  indices, row counts, config columns) are identical;
* invariants, for every seed: annealed == beta^2/2, quenched <= annealed
  (up to a sampling allowance that a correct run exceeds with probability
  < 1e-9), overlaps and coverages in [0, 1], row counts match the config.

Whether each output file is byte-identical to the reference is recorded as
information only, so a kernel that changes the last bits still passes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

TOL = 1e-10
ALPHA = 1e-9  # false-alarm probability of the quenched <= annealed check

FILES = {
    "free-energy": ("free_energy.csv",),
    "overlap": ("overlap.csv",),
    "localize": ("localize.jsonl", "windows.csv", "distinguished.json"),
}
NUMERIC = {
    "free_energy.csv": ("estimate", "stderr", "annealed"),
    "overlap.csv": ("mean_overlap", "overlap_stderr", "exact_overlap", "ibp_residual",
                    "ibp_stderr", "one_minus_deriv_over_beta"),
    "windows.csv": ("min_window_overlap",),
    "localize.jsonl": ("coverage", "per_block_coverage", "selection_trace",
                       "window_coverage"),
    "distinguished.json": (),
}
# localize.jsonl records per beta: one per greedy mode plus the coverage report
RECORDS_PER_BETA = 4


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _num(text: str):
    return float(text) if text != "" else None


def read_outputs(command: str, out_dir: Path) -> dict:
    """Parse a run's metric files into numeric columns and discrete values."""
    files = {}
    for fname in FILES[command]:
        raw = (out_dir / fname).read_bytes()
        num_keys = NUMERIC[fname]
        if fname.endswith(".csv"):
            rows = list(csv.DictReader(io.StringIO(raw.decode("utf-8"))))
            numeric = {k: [_num(r[k]) for r in rows] for k in num_keys}
        elif fname.endswith(".jsonl"):
            rows = [json.loads(line) for line in raw.decode("utf-8").splitlines() if line]
            numeric = {k: [r.get(k) for r in rows] for k in num_keys}
        else:
            rows = json.loads(raw)
            numeric = {}
        discrete = [
            {k: v for k, v in r.items() if k not in num_keys} for r in rows
        ]
        files[fname] = {
            "sha256": _sha256(raw),
            "rows": rows,
            "numeric": numeric,
            "discrete_sha256": _sha256(json.dumps(discrete, sort_keys=True).encode()),
        }
    return files


def reference_entry(files: dict) -> dict:
    """What is checked in for one seed: everything but the parsed rows."""
    return {
        fname: {"sha256": f["sha256"], "n_rows": len(f["rows"]),
                "discrete_sha256": f["discrete_sha256"], "numeric": f["numeric"]}
        for fname, f in files.items()
    }


def _close(a, b) -> bool:
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if a is None or b is None:
        return a is None and b is None
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= TOL


def compare_reference(files: dict, ref: dict) -> tuple[list, dict]:
    """(checks, byte_identical) against one seed's reference entry."""
    checks, identical = [], {}
    for fname, want in ref.items():
        got = files[fname]
        identical[fname] = got["sha256"] == want["sha256"]
        checks.append((f"reference rows {fname}", len(got["rows"]) == want["n_rows"],
                       f"{len(got['rows'])} vs {want['n_rows']}"))
        checks.append((f"reference discrete {fname}",
                       got["discrete_sha256"] == want["discrete_sha256"], ""))
        for col, vals in want["numeric"].items():
            checks.append((f"reference {fname}:{col}", _close(got["numeric"][col], vals),
                           f"tolerance {TOL}"))
    return checks, identical


def _in_unit(values) -> bool:
    flat = []
    for v in values:
        if isinstance(v, list):
            flat.extend(v)
        elif v is not None:
            flat.append(v)
    return all(0.0 <= x <= 1.0 for x in flat)


def _sampling_allowance(row: dict) -> float:
    """How far a correct estimate may exceed beta^2/2, with probability < ALPHA.

    The estimate averages log Z_N / N over n_disorder environments, so it can
    sit above E log Z_N / N <= beta^2/2.  log Z_N is beta sqrt(N)-Lipschitz
    in the field, so by Gaussian concentration the average exceeds its mean
    by u with probability at most exp(-n_disorder N u^2 / (2 beta^2)).
    """
    beta, n, k = float(row["beta"]), int(row["N"]), int(row["n_disorder"])
    return beta * math.sqrt(2.0 * math.log(1.0 / ALPHA) / (k * n))


def invariants(workload, seed: int, files: dict) -> list:
    """Seed-independent properties of the outputs, as (name, ok, detail)."""
    n_cfg = len(workload.ns) * len(workload.betas)
    if workload.command == "free-energy":
        rows = files["free_energy.csv"]["rows"]
        annealed = [0.5 * float(r["beta"]) ** 2 for r in rows]
        margin = min(a + _sampling_allowance(r) - float(r["estimate"])
                     for a, r in zip(annealed, rows))
        return [
            ("rows == |N grid| x |beta grid|", len(rows) == n_cfg, f"{len(rows)} vs {n_cfg}"),
            ("annealed == beta^2 / 2",
             all(abs(a - float(r["annealed"])) <= TOL for a, r in zip(annealed, rows)), ""),
            ("quenched <= annealed", margin >= 0.0, f"min margin {margin:.6g}"),
            ("seed column", all(int(r["seed"]) == seed for r in rows), ""),
        ]
    if workload.command == "overlap":
        f = files["overlap.csv"]
        return [
            ("rows == |N grid| x |beta grid|", len(f["rows"]) == n_cfg,
             f"{len(f['rows'])} vs {n_cfg}"),
            ("exact_overlap in [0, 1]", _in_unit(f["numeric"]["exact_overlap"]), ""),
            ("mean_overlap in [0, 1]", _in_unit(f["numeric"]["mean_overlap"]), ""),
        ]
    win = files["windows.csv"]
    loc = files["localize.jsonl"]
    n_win = workload.n_samples * len(workload.betas)
    n_rec = RECORDS_PER_BETA * len(workload.betas)
    n_steps = workload.ns[0]
    steps_ok = all(
        len(p.split(",")) == n_steps for r in loc["rows"] for p in r["paths"]
    )
    return [
        ("windows rows == n_samples x |beta grid|", len(win["rows"]) == n_win,
         f"{len(win['rows'])} vs {n_win}"),
        ("min_window_overlap in [0, 1]", _in_unit(win["numeric"]["min_window_overlap"]), ""),
        ("localize records == 4 x |beta grid|", len(loc["rows"]) == n_rec,
         f"{len(loc['rows'])} vs {n_rec}"),
        ("coverages in [0, 1]",
         all(_in_unit(loc["numeric"][k]) for k in NUMERIC["localize.jsonl"]), ""),
        ("paths have N steps", steps_ok, ""),
    ]


def load_reference(bench_dir: Path, workload: str) -> dict:
    path = bench_dir / "reference" / f"{workload}.json"
    return json.loads(path.read_text())["seeds"] if path.exists() else {}
