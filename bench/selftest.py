"""Self-tests of the benchmark's tracer, counters and checks.

    python3 -m pytest bench/selftest.py -q

Kept out of the package's test suite on purpose (the file name does not
match ``test_*.py``): these tests exercise the benchmark, not polymerlab.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import BOOKKEEPING, LAYERS, MODULES, ROOT, Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SMALL = {
    "free-energy": ["free-energy", "--d", "1", "--n-grid", "16,32",
                    "--beta-grid", "0.5,1,2,3", "--n-disorder", "3"],
    "overlap": ["overlap", "--d", "2", "--n-grid", "8", "--beta-grid", "0,1",
                "--n-disorder", "2", "--n-pairs", "20"],
    "localize": ["localize", "--d", "1", "--n", "64", "--beta-grid", "0,2",
                 "--delta", "0.2", "--eps", "0.1", "--n-samples", "40", "--blocks", "4"],
}
COMMON = ["--seed", "5", "--threads", "1"]


def _cli():
    from polymerlab import cli
    return cli


def _traced(argv, out: Path):
    tracer = Tracer()
    tracer.install()
    try:
        code, wall = tracer.run_root(_cli().main, argv + COMMON + ["--out", str(out)])
    finally:
        tracer.restore()
    assert code == 0
    return tracer, wall


def _metric_files(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.name != "run_record.json"}


def _snapshot() -> dict:
    snap = {}
    for name in MODULES:
        for key, val in vars(importlib.import_module(name)).items():
            snap[(name, key)] = id(val)
            if isinstance(val, type):
                for ckey, cval in vars(val).items():
                    snap[(name, key, ckey)] = id(cval)
            defaults = getattr(val, "__defaults__", None)
            if defaults:
                snap[(name, key, "__defaults__")] = tuple(id(v) for v in defaults)
    return snap


@pytest.mark.parametrize("command", sorted(SMALL))
def test_traced_and_untraced_write_identical_metric_files(command, tmp_path):
    assert _cli().main(SMALL[command] + COMMON + ["--out", str(tmp_path / "plain")]) == 0
    _traced(SMALL[command], tmp_path / "traced")
    plain = _metric_files(tmp_path / "plain")
    assert plain and plain == _metric_files(tmp_path / "traced")


def test_install_wraps_every_namespace_and_restore_undoes_it():
    before = _snapshot()
    originals = {}
    for name, (mod, attr) in LAYERS.items():
        obj = importlib.import_module(mod)
        for part in attr.split("."):
            obj = getattr(obj, part)
        originals[name] = obj
    tracer = Tracer()
    tracer.install()
    try:
        ids = {id(f) for f in originals.values()}
        for mod in MODULES:
            left = [k for k, v in vars(importlib.import_module(mod)).items() if id(v) in ids]
            assert not left, f"{mod} still holds unwrapped {left}"
        lattice = importlib.import_module("polymerlab.lattice")
        overlap = importlib.import_module("polymerlab.overlap")
        assert lattice.Environment.values is not originals["lattice.field"]
        sampler = overlap.mean_replica_overlap.__wrapped__.__defaults__[0]
        assert sampler is not originals["transfer.sample_paths"]
    finally:
        tracer.restore()
    assert _snapshot() == before


@pytest.mark.parametrize("command", sorted(SMALL))
def test_self_times_sum_to_traced_wall(command, tmp_path):
    tracer, wall = _traced(SMALL[command], tmp_path)
    root = [s for s in tracer.spans if s[2] == ROOT]
    assert len(root) == 1 and root[0][4] - root[0][3] <= wall
    summary = tracer.summary()
    parts = [summary[n + ".self_s"] for n in LAYERS]
    parts += [summary[ROOT + ".self_s"], summary[BOOKKEEPING + "_s"]]
    assert abs(sum(parts) - wall) < 1e-6 * wall


@pytest.mark.parametrize("command", sorted(SMALL))
def test_counts_repeat_exactly(command, tmp_path):
    a, _ = _traced(SMALL[command], tmp_path / "a")
    b, _ = _traced(SMALL[command], tmp_path / "b")
    ca = {k: v for k, v in a.summary().items() if not run._is_timing(k)}
    cb = {k: v for k, v in b.summary().items() if not run._is_timing(k)}
    assert ca == cb
    assert any(v for k, v in ca.items() if k.endswith(".calls"))


def test_waste_counters_on_known_configs(tmp_path):
    fe = _traced(SMALL["free-energy"], tmp_path / "fe")[0].summary()
    # four betas times two N, each rebuilding every environment and its
    # field; the N = 32 field already holds every (seed, layer, site) of N = 16
    cone16, cone32 = (sum(i + 1 for i in range(1, n + 1)) for n in (16, 32))
    assert fe["lattice.field.regen_ratio"] == 4 * (cone16 + cone32) / cone32
    assert fe["lattice.gaussian_env.rebuild_ratio"] == 8.0
    assert fe["transfer.log_partitions.cells"] == 4 * 3 * (cone16 + cone32)
    loc = _traced(SMALL["localize"], tmp_path / "loc")[0].summary()
    # three greedy modes plus one coverage report per beta; the window
    # statistic is computed by coverage_report and again by the CLI
    assert loc["localization.pairwise_counts.builds_per_beta"] == 4.0
    assert loc["localization.min_window_overlap.dup_ratio"] == 2.0
    assert loc["transfer.sample_paths.path_steps"] == 2 * 40 * 64


def test_per_layer_names_are_all_produced(tmp_path):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    summary = _traced(SMALL["free-energy"], tmp_path)[0].summary()
    extra = {"trace.wall_s", "trace.overhead_s", "cli.rss_growth_mb"}
    missing = [m["name"] for m in spec["per_layer"]
               if m["name"] not in summary and m["name"] not in extra]
    assert not missing
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_checks_catch_bad_outputs(tmp_path):
    out = tmp_path / "ov"
    assert _cli().main(SMALL["overlap"] + COMMON + ["--out", str(out)]) == 0
    files = checks.read_outputs("overlap", out)
    ref = checks.reference_entry(files)
    assert all(ok for _, ok, _ in checks.compare_reference(files, ref)[0])

    path = out / "overlap.csv"
    text = path.read_text().splitlines()
    header = text[0].split(",")
    row = text[1].split(",")
    col = header.index("exact_overlap")
    row[col] = repr(float(row[col]) + 1e-9)
    path.write_text("\n".join([text[0], ",".join(row), *text[2:]]) + "\n")
    bad = checks.compare_reference(checks.read_outputs("overlap", out), ref)[0]
    assert [name for name, ok, _ in bad if not ok] == ["reference overlap.csv:exact_overlap"]

    row[col] = "1.5"
    path.write_text("\n".join([text[0], ",".join(row), *text[2:]]) + "\n")
    small = Workload(name="small", command="overlap", args=(), ns=(8,), betas=(0, 1),
                     metric_file="overlap.csv")
    inv = checks.invariants(small, 5, checks.read_outputs("overlap", out))
    assert [name for name, ok, _ in inv if not ok] == ["exact_overlap in [0, 1]"]


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "free_energy_d1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
