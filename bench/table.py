"""Rebuild the ROADMAP "Baseline measurements" table from traced runs alone.

    python3 bench/table.py [--seed 7]

Runs ``run.py --trace 1`` on every workload for ``run_seconds`` of
``BENCHMARK.json`` and prints Markdown: per-layer rates, the localization
split, each workload's split of traced wall time by layer, and the exact
waste counts.  Self times exclude
child spans, so kernel ns/cell excludes field generation.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import BENCH, DEFAULT_SEED, load_spec
from workloads import WORKLOADS

RATES = [
    ("Field (`Environment.values`)", "free_energy_d1", "lattice.field.ns_per_value", "ns/value"),
    ("Field (`Environment.values`)", "overlap_d2", "lattice.field.ns_per_value", "ns/value"),
    ("Line rolling kernel (`log_partitions`, d=1)", "free_energy_d1",
     "transfer.log_partitions.ns_per_cell", "ns/cell"),
    ("Grid forward kernel (`forward_layers`, d=2)", "overlap_d2",
     "transfer.forward_layers.ns_per_cell", "ns/cell"),
    ("Grid backward kernel (`backward_layers`, d=2)", "overlap_d2",
     "transfer.backward_layers.ns_per_cell", "ns/cell"),
    ("Grid rolling kernel (`log_partitions`, d=2)", "overlap_d2",
     "transfer.log_partitions.ns_per_cell", "ns/cell"),
    ("General rolling kernel (`log_partitions`, d=3)", "free_energy_d3",
     "transfer.log_partitions.ns_per_cell", "ns/cell"),
    ("Sampler (`sample_paths`)", "overlap_d2", "transfer.sample_paths.ns_per_path_step",
     "ns/path-step"),
    ("Sampler peak-RSS rise", "overlap_d2", "transfer.sample_paths.rss_growth_mb", "MB"),
    ("Pairwise counts peak-RSS rise", "localize_d1",
     "localization.pairwise_counts.rss_growth_mb", "MB"),
]
WASTE = [
    ("free_energy_d1", "lattice.field.regen_ratio"),
    ("overlap_d2", "lattice.field.regen_ratio"),
    ("overlap_d2", "lattice.gaussian_env.rebuild_ratio"),
    ("localize_d1", "localization.pairwise_counts.builds_per_beta"),
    ("localize_d1", "localization.min_window_overlap.dup_ratio"),
]
GROUPS = ("lattice.field", "transfer", "overlap", "free_energy", "localization")
# why each workload is in the set, as shares of traced wall time
EXPECTED = [
    ("free_energy_d1", "field + log_partitions >= 80%",
     lambda m, s: _share(m, "lattice.field", "transfer.log_partitions") >= 0.8),
    ("overlap_d2", "field + transfer >= 80%",
     lambda m, s: s["lattice.field"] + s["transfer"] >= 0.8),
    ("localize_d1", "localization >= 80% and transfer <= 5%",
     lambda m, s: s["localization"] >= 0.8 and s["transfer"] <= 0.05),
    ("free_energy_d3", "log_partitions >= 80% and field <= 15%",
     lambda m, s: _share(m, "transfer.log_partitions") >= 0.8 and s["lattice.field"] <= 0.15),
    ("overlap_d2", "sampler holds most of the peak-RSS rise",
     lambda m, s: m["transfer.sample_paths.rss_growth_mb"] > 0.5 * m["cli.rss_growth_mb"]),
]


def _share(m: dict, *layers) -> float:
    return sum(m[layer + ".self_s"] for layer in layers) / m["trace.wall_s"]


def traced_metrics(seed: int) -> dict:
    seconds = load_spec()["run_seconds"]
    out = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", "1"],
            check=True, stdout=subprocess.PIPE, text=True)
        last = json.loads(proc.stdout.splitlines()[-1])
        out[name] = {k: v["value"] for k, v in last["metrics"].items()}
    return out


def split(m: dict) -> dict:
    """Share of traced wall time per layer group (self times, so no overlap)."""
    wall = m["trace.wall_s"]
    shares = {g: 0.0 for g in GROUPS}
    for key, val in m.items():
        if key.endswith(".self_s"):
            group = next((g for g in GROUPS if key.startswith(g + ".")), None)
            if group:
                shares[group] += val / wall
    shares["cli"] = m["cli.self_s"] / wall
    shares["tracer bookkeeping"] = m["trace.bookkeeping_s"] / wall
    return shares


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = ap.parse_args(argv)
    m = traced_metrics(args.seed)

    print(f"Traced runs, seed {args.seed}; self times exclude child spans.\n")
    print("| Layer | Workload | Measured |\n|---|---|---|")
    for label, wl, key, unit in RATES:
        print(f"| {label} | `{wl}` | {m[wl][key]:.4g} {unit} |")

    loc = m["localize_d1"]
    print("\nLocalization split (`localize_d1`, share of traced wall):\n")
    print("| Function | calls | self s | share |\n|---|---|---|---|")
    for key in sorted(k for k in loc if k.startswith("localization.") and k.endswith(".self_s")):
        fn = key[: -len(".self_s")]
        print(f"| `{fn}` | {loc[fn + '.calls']:g} | {loc[key]:.3f} | "
              f"{loc[key] / loc['trace.wall_s']:.1%} |")

    print("\nSplit of traced wall time by layer:\n")
    cols = (*GROUPS, "cli", "tracer bookkeeping")
    print("| Workload | traced wall s | " + " | ".join(cols) + " |")
    print("|---|---|" + "---|" * len(cols))
    for wl, mw in m.items():
        sh = split(mw)
        print(f"| `{wl}` | {mw['trace.wall_s']:.2f} | "
              + " | ".join(f"{sh[c]:.1%}" for c in cols) + " |")

    print("\nWhy each workload was chosen:\n")
    print("| Workload | Expected | Holds |\n|---|---|---|")
    for wl, text, holds in EXPECTED:
        print(f"| `{wl}` | {text} | {'yes' if holds(m[wl], split(m[wl])) else 'NO'} |")

    print("\nExact waste counts (from call arguments):\n")
    print("| Workload | Counter | Value |\n|---|---|---|")
    for wl, key in WASTE:
        print(f"| `{wl}` | `{key}` | {m[wl][key]:g} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
