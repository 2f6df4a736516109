"""polymerlab benchmark: pinned CLI workloads, end to end and layer by layer.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a polymerlab checkout; the package is imported from its
``src/`` directory.  The load is a closed loop with one client: the workload's
CLI command runs again and again, one process at a time, each in a fresh
single-threaded interpreter (``--threads 1``, BLAS/OpenMP thread variables
pinned to 1), until ``--seconds`` have passed and at least ``MIN_REPS`` runs
are done.  Each run's outputs are checked (see ``checks.py``); any failed
check makes the exit code 1.

``--trace 0`` reports the end-to-end metrics as medians over the runs:
set-up time (process start until ``polymerlab.cli`` is imported, also
sampled by import-only probes), ``cli.main`` wall and CPU time, peak RSS and
metric-file rows per second.  ``--trace 1`` alternates untraced runs with
runs whose layer functions are wrapped by ``tracer.Tracer``, at least two of
each, and reports the per-layer metrics; ``trace.overhead_s`` is the traced
wall time minus the untraced median.  Names and units of both metric sets
are read from ``BENCHMARK.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record of each invocation
(environment, every run, every check, per-layer values, spans) is written to
``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from checks import compare_reference, invariants, load_reference, read_outputs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 7
MIN_REPS = 2
MIN_TRACED = 2  # so the "counts repeat exactly" check always has two runs
MIN_SETUP_SAMPLES = 8
RUN_BUDGET_S = 150.0  # never start a run that could end past this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class BenchError(RuntimeError):
    """A child ended without a result, or imported polymerlab from elsewhere."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({k: "1" for k in THREAD_VARS})
    # same set-up work whatever the caller's environment; nothing written to src/
    env.update(PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    return env


def spawn(mode: str, argv: list, result: Path, log: Path) -> dict:
    """Start ``child.py`` in a fresh interpreter, wait for it, return its record."""
    env = child_env()
    with log.open("ab") as fh:
        cmd = [sys.executable, str(BENCH / "child.py"), repr(time.monotonic()),
               str(result), mode, *argv]
        proc = subprocess.run(cmd, env=env, stdout=fh, stderr=fh,
                              timeout=RUN_BUDGET_S, check=False)
    if not result.exists():
        tail = log.read_text(errors="replace")[-2000:]
        raise BenchError(f"child exited {proc.returncode} without a result:\n{tail}")
    rec = json.loads(result.read_text())
    result.unlink()
    src = (ROOT / "src").resolve()
    if not Path(rec["polymerlab_file"]).resolve().is_relative_to(src):
        raise BenchError(f"polymerlab imported from {rec['polymerlab_file']}, not {src}")
    return rec


def check_run(workload, seed: int, rec: dict, out: Path, reference: dict):
    """Checks on one CLI run: (checks, parsed files, byte identity or None)."""
    checks = [("exit code 0", rec.get("exit_code") == 0, rec.get("error", "")[-400:])]
    if rec.get("exit_code") != 0:
        return checks, None, None
    try:
        files = read_outputs(workload.command, out)
        checks += invariants(workload, seed, files)
    except (OSError, ValueError, KeyError) as exc:
        return checks + [("metric files readable", False, repr(exc))], None, None
    identical = None
    if str(seed) in reference:
        ref_checks, identical = compare_reference(files, reference[str(seed)])
        checks += ref_checks
    return checks, files, identical


def run_workload(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    reference = load_reference(BENCH, workload.name)
    log = work / "child.log"
    result = work / "result.json"
    runs, checks, setups = [], [], []
    start = time.monotonic()
    while True:
        i = len(runs)
        mode = "trace" if trace and i % 2 == 1 else "run"
        out = work / f"run{i}"
        t0 = time.monotonic()
        rec = spawn(mode, workload.argv(seed, str(out)), result, log)
        took = time.monotonic() - t0
        run_checks, files, identical = check_run(workload, seed, rec, out, reference)
        checks += [(f"run{i} {name}", ok, detail) for name, ok, detail in run_checks]
        rec["byte_identical_to_reference"] = identical
        rec["file_sha256"] = (
            {k: f["sha256"] for k, f in files.items()} if files else None)
        rec["rows"] = len(files[workload.metric_file]["rows"]) if files else 0
        shutil.rmtree(out, ignore_errors=True)
        setups.append(rec["setup_s"])
        runs.append(rec)
        elapsed = time.monotonic() - start
        done = elapsed >= seconds and len(runs) >= (2 * MIN_TRACED if trace else MIN_REPS)
        if done or elapsed + 1.5 * took > RUN_BUDGET_S:
            break
    if trace:
        checks += trace_checks(runs)
    else:
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(spawn("setup", [], result, log)["setup_s"])
    return {"runs": runs, "setup_samples": setups, "checks": checks}


def trace_checks(runs: list) -> list:
    """Tracing must not change outputs, and its counts must repeat exactly."""
    plain = [r for r in runs if r["mode"] == "run" and r["file_sha256"]]
    traced = [r for r in runs if r["mode"] == "trace" and r["file_sha256"]]
    out = []
    if plain and traced:
        out.append(("traced outputs byte-identical to untraced",
                    all(r["file_sha256"] == plain[0]["file_sha256"] for r in traced), ""))
    counts = [{k: v for k, v in r["layers"].items() if not _is_timing(k)} for r in traced]
    # too few traced runs (the time budget ran out) fails rather than skips
    out.append(("traced counts repeat exactly",
                len(counts) >= MIN_TRACED and all(c == counts[0] for c in counts),
                f"{len(counts)} traced run(s) with outputs"))
    return out


def _is_timing(name: str) -> bool:
    return name.endswith(("_s", ".ns_per_value", ".ns_per_cell", ".ns_per_path_step",
                          "rss_growth_mb"))


def end_to_end(res: dict) -> dict:
    runs = [r for r in res["runs"] if r["mode"] == "run" and r.get("exit_code") == 0]
    if not runs:
        return {}
    med = statistics.median
    return {
        "setup_s": med(res["setup_samples"]),
        "wall_s": med(r["wall_s"] for r in runs),
        "cpu_s": med(r["cpu_s"] for r in runs),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in runs),
        "rows_per_s": med(r["rows"] / r["wall_s"] for r in runs),
    }


def per_layer(res: dict, names: list) -> dict:
    runs = [r for r in res["runs"] if r.get("exit_code") == 0]
    traced = [r for r in runs if r["mode"] == "trace"]
    plain = [r for r in runs if r["mode"] == "run"]
    if not (traced and plain):
        return {}
    med = statistics.median
    out = {name: med(r["layers"].get(name, 0) for r in traced) for name in names}
    out["trace.wall_s"] = med(r["wall_s"] for r in traced)
    out["cli.rss_growth_mb"] = med(r["rss_growth_mb"] for r in traced)
    out["trace.overhead_s"] = out["trace.wall_s"] - med(r["wall_s"] for r in plain)
    return {name: out.get(name, 0) for name in names}


def _identity(runs: list) -> str:
    """Byte identity of the metric files with the reference (information only)."""
    seen = [r["byte_identical_to_reference"] for r in runs
            if r["byte_identical_to_reference"] is not None]
    if not seen:
        return "n/a (no reference for this seed)"
    return "yes" if all(all(d.values()) for d in seen) else "no"


def steal_ticks():
    """Host CPU time stolen from this machine so far (Linux /proc/stat), or None."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def environment(load_start, steal_start) -> dict:
    steal_end = steal_ticks()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_vars": {k: "1" for k in THREAD_VARS},
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        # a noisy neighbour shows here as wall time the runs did not get
        "steal_s": (None if steal_start is None or steal_end is None
                    else (steal_end - steal_start) / os.sysconf("SC_CLK_TCK")),
    }


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "polymerlab" / "cli.py").is_file():
        print(f"bench: no polymerlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    metric_set = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metric_set}
    names = [m["name"] for m in metric_set]

    names_w = list(WORKLOADS) if args.workload == "all" else [args.workload]
    load_start, steal_start = list(os.getloadavg()), steal_ticks()
    work = BENCH / ".work" / f"{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    results, metrics, attempted, failed = {}, {}, 0, 0
    try:
        for wname in names_w:
            res = run_workload(WORKLOADS[wname], args.seed, args.seconds,
                               bool(args.trace), work)
            values = per_layer(res, names) if args.trace else end_to_end(res)
            n_fail = sum(not ok for _, ok, _ in res["checks"])
            attempted += len(res["checks"])
            failed += n_fail
            results[wname] = res
            res["metrics"] = values
            n_runs = sum(r["mode"] == "run" for r in res["runs"])
            print(f"{wname}: seed {args.seed}, {len(res['runs'])} runs "
                  f"({n_runs} untraced), {len(res['checks'])} checks, {n_fail} failed, "
                  f"failed_ratio {n_fail / len(res['checks']):.3g}, "
                  f"byte-identical to reference: {_identity(res['runs'])}")
            for cname, ok, detail in res["checks"]:
                if not ok:
                    print(f"  FAILED {cname}: {detail}")
            for name in names:
                if name in values:
                    prefix = "" if len(names_w) == 1 else f"{wname}."
                    metrics[prefix + name] = {"value": values[name], "unit": units[name]}
                    print(f"  {name} = {values[name]:.6g} {units[name]}")
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(load_start, steal_start)
    versions = next(iter(results.values()))["runs"][0]["versions"]
    env.update(versions)
    print("environment: " + json.dumps(env, sort_keys=True))
    write_record(args, env, results)
    ok = failed == 0 and len(metrics) == len(names) * len(names_w)
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


def write_record(args, env: dict, results: dict) -> None:
    rdir = BENCH / "results"
    rdir.mkdir(exist_ok=True)
    for wname, res in results.items():
        tag = f"{wname}_seed{args.seed}_trace{args.trace}"
        spans = [r.pop("spans") for r in res["runs"] if "spans" in r]
        record = {"workload": wname, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": env, **res}
        (rdir / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
        if spans:
            (rdir / f"{tag}.spans.json").write_text(json.dumps(spans[0]) + "\n")


if __name__ == "__main__":
    sys.exit(main())
