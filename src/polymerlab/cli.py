"""Command-line harness: experiment orchestration, persistence, plot data.

Subcommands
-----------
free-energy   sweep a beta-grid x N-ladder of quenched free-energy estimates
overlap       replica overlap, the finite-N derivative identity, 1 - p'/beta
localize      Gibbs sampling, greedy favorite paths, distinguished sets
verify        the full oracle/property suite (exit 2 on any failure)
plotdata      tidy per-metric CSV series from prior run outputs

All randomness derives from ``--seed`` through the published replica-mixing
function, so identical configs reproduce every metric file byte-for-byte,
independent of ``--threads``.  Exit codes: 0 success, 1 validation error,
2 suite failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .free_energy import (
    annealed_bound,
    concentration_profile,
    estimate_derivative,
    estimate_free_energy,
    multi_temp_consistency,
)
from .lattice import LatticeParams, derive_seed, gaussian_env, make_partition
from .localization import (
    MODES,
    build_distinguished_sets,
    coverage_report,
    default_refinement,
    greedy_favorite_paths,
    report_to_jsonl,
)
from .overlap import exact_two_replica_overlap, ibp_residual, mean_replica_overlap
from .transfer import BetaProfile, forward_layers, sample_paths

COMMANDS = ("free-energy", "overlap", "localize", "verify", "plotdata")

# default free-energy sweep: beta <= 3, N <= 1024, d <= 2 (per dimension)
DEFAULT_BETA_GRID = (0.5, 1.0, 2.0, 3.0)
DEFAULT_N_LADDER = {1: (64, 256, 1024), 2: (64, 256)}


class ValidationError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat bag of experiment parameters; commands read what they need."""

    command: str
    seed: int = 1
    threads: int = 1
    out: str = "runs/latest"
    d: int = 1
    n_values: tuple = ()
    beta_values: tuple = ()
    block_betas: tuple = ()
    L: int = 4
    delta: float = 0.2
    epsilon: float = 0.1
    n_disorder: int = 200
    n_samples: int = 500
    n_pairs: int = 200
    h: float = 1e-3
    mode: str = "auto"
    ds_levels: int = 2
    max_j: int = 10
    tail_u: tuple = ()
    inputs: str = ""
    inject_fault: bool = False

    def __post_init__(self):
        object.__setattr__(self, "n_values", tuple(int(v) for v in self.n_values))
        object.__setattr__(self, "beta_values", tuple(float(v) for v in self.beta_values))
        object.__setattr__(self, "block_betas", tuple(float(v) for v in self.block_betas))
        object.__setattr__(self, "tail_u", tuple(float(v) for v in self.tail_u))

    def to_dict(self) -> dict:
        out = asdict(self)
        for key in ("n_values", "beta_values", "block_betas", "tail_u"):
            out[key] = list(out[key])
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


def config_content_hash(cfg: ExperimentConfig) -> str:
    blob = json.dumps(cfg.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass
class RunRecord:
    command: str
    config: dict
    content_hash: str
    metrics: dict = field(default_factory=dict)
    wall_time_s: float = 0.0
    timestamp_utc: str = ""


_LIST_KEYS = {"n_values", "beta_values", "block_betas", "tail_u"}
_INT_KEYS = {"seed", "threads", "d", "L", "n_disorder", "n_samples", "n_pairs",
             "ds_levels", "max_j"}
_FLOAT_KEYS = {"delta", "epsilon", "h"}
_BOOL_KEYS = {"inject_fault"}


def _coerce_value(key: str, raw):
    if key in _LIST_KEYS:
        if isinstance(raw, str):
            raw = [tok for tok in raw.replace(" ", "").split(",") if tok]
        return [float(v) for v in raw]
    if key in _INT_KEYS:
        return int(raw)
    if key in _FLOAT_KEYS:
        return float(raw)
    if key in _BOOL_KEYS:
        if isinstance(raw, bool):
            return raw
        return str(raw).strip().lower() in ("1", "true", "yes", "on")
    return raw


def load_config_file(path: str, command: str) -> dict:
    """Read [run] plus [<command>] keys from an INI file, or the JSON twin."""
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"config file not found: {path}")
    if p.suffix == ".json":
        data = json.loads(p.read_text())
        merged = dict(data.get("run", {}))
        merged.update(data.get(command, {}))
    else:
        parser = configparser.ConfigParser()
        parser.read(p)
        merged = {}
        for section in ("run", command):
            if parser.has_section(section):
                merged.update(dict(parser.items(section)))
    return {k: _coerce_value(k, v) for k, v in merged.items()}


# ---------------------------------------------------------------------------
# Deterministic file writers
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(path: Path, header: list, rows: list) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_free_energy(cfg: ExperimentConfig) -> RunRecord:
    betas = cfg.beta_values or DEFAULT_BETA_GRID
    ns = cfg.n_values or DEFAULT_N_LADDER.get(cfg.d, (64,))
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()

    if cfg.block_betas:
        gaps = multi_temp_consistency(
            ns, cfg.L, cfg.block_betas, d=cfg.d,
            n_disorder=cfg.n_disorder, master_seed=cfg.seed,
        )
        write_csv(
            out / "multi_temp.csv",
            ["N", "L", "betas", "gap", "stderr", "lhs_mean", "rhs_mean",
             "n_disorder", "seed"],
            [
                (g.N, g.L, " ".join(repr(b) for b in g.betas), g.gap, g.stderr,
                 g.lhs_mean, g.rhs_mean, g.n_disorder, cfg.seed)
                for g in gaps
            ],
        )
        return _finish(cfg, {"multi_temp_csv": "multi_temp.csv", "n_rows": len(gaps)}, t0)

    rows = []
    for n in ns:
        params = LatticeParams(d=cfg.d, N=int(n))
        for beta in betas:
            est = estimate_free_energy(
                beta, params, cfg.n_disorder, cfg.seed, n_threads=cfg.threads
            )
            rows.append(
                (beta, int(n), cfg.d, 1, est.mean, est.stderr,
                 annealed_bound(beta), cfg.n_disorder, cfg.seed)
            )
    write_csv(
        out / "free_energy.csv",
        ["beta", "N", "d", "L", "estimate", "stderr", "annealed", "n_disorder", "seed"],
        rows,
    )
    metrics = {"free_energy_csv": "free_energy.csv", "n_rows": len(rows)}

    if cfg.tail_u:
        tail_rows = []
        for n in ns:
            params = LatticeParams(d=cfg.d, N=int(n))
            for beta in betas:
                if beta == 0.0:
                    continue
                prof = concentration_profile(
                    beta, params, cfg.n_disorder, cfg.tail_u, cfg.seed,
                    n_threads=cfg.threads,
                )
                for u, emp, bnd in zip(prof.u_grid, prof.empirical, prof.bound):
                    tail_rows.append((beta, int(n), float(u), float(emp), float(bnd)))
        write_csv(
            out / "concentration.csv",
            ["beta", "N", "u", "empirical", "bound"],
            tail_rows,
        )
        metrics["concentration_csv"] = "concentration.csv"

    return _finish(cfg, metrics, t0)


def cmd_overlap(cfg: ExperimentConfig) -> RunRecord:
    betas = cfg.beta_values or (0.0, 0.5, 1.0, 2.0)
    ns = cfg.n_values or (64, 128, 256)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()

    rows = []
    for n in ns:
        params = LatticeParams(d=cfg.d, N=int(n))
        enum_ok = (2 * cfg.d) ** int(n) <= 4096
        mode = cfg.mode if cfg.mode != "auto" else ("enum" if enum_ok else "mc")
        for beta in betas:
            env = gaussian_env(derive_seed(cfg.seed, 0), params)
            prof = BetaProfile.constant(beta, int(n))
            est = mean_replica_overlap(
                env, prof, cfg.n_pairs, np.random.default_rng(derive_seed(cfg.seed, 1))
            )
            exact = float(
                np.mean(
                    [
                        exact_two_replica_overlap(
                            gaussian_env(derive_seed(cfg.seed, r), params), prof
                        )
                        for r in range(min(cfg.n_disorder, 50))
                    ]
                )
            )
            if beta > 0.0:
                if beta - cfg.h < 0:
                    raise ValidationError(f"h={cfg.h} too large for beta={beta}")
                ibp = ibp_residual(beta, cfg.h, params, cfg.n_disorder, cfg.seed, mode=mode)
                deriv = estimate_derivative(
                    beta, cfg.h, params, cfg.n_disorder, cfg.seed, n_threads=cfg.threads
                )
                identity = 1.0 - deriv / beta
                rows.append(
                    (beta, int(n), cfg.d, mode, est.mean, est.stderr, exact,
                     ibp.residual, ibp.stderr, identity, cfg.n_disorder, cfg.seed)
                )
            else:
                # the identity column divides by beta; emit overlap only
                rows.append(
                    (beta, int(n), cfg.d, mode, est.mean, est.stderr, exact,
                     "", "", "", cfg.n_disorder, cfg.seed)
                )
    write_csv(
        out / "overlap.csv",
        ["beta", "N", "d", "mode", "mean_overlap", "overlap_stderr", "exact_overlap",
         "ibp_residual", "ibp_stderr", "one_minus_deriv_over_beta", "n_disorder", "seed"],
        rows,
    )
    return _finish(cfg, {"overlap_csv": "overlap.csv", "n_rows": len(rows)}, t0)


def cmd_localize(cfg: ExperimentConfig) -> RunRecord:
    betas = cfg.beta_values or (0.0, 2.0)
    if not cfg.n_values:
        raise ValidationError("localize needs n_values (one N)")
    n = int(cfg.n_values[0])
    if cfg.L > n:
        raise ValidationError(f"L={cfg.L} exceeds N={n}")
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    part = make_partition(n, cfg.L)
    params = LatticeParams(d=cfg.d, N=n)

    jsonl = out / "localize.jsonl"
    jsonl.write_text("")
    window_rows = []
    ds_records = []
    for beta in betas:
        env = gaussian_env(derive_seed(cfg.seed, 0), params)
        table = forward_layers(env, BetaProfile.constant(beta, n))
        samples = sample_paths(
            table, cfg.n_samples, np.random.default_rng(derive_seed(cfg.seed, 3))
        )
        reports = []
        for mode in MODES:
            rep = greedy_favorite_paths(
                samples, cfg.delta, cfg.epsilon, mode,
                p=part if mode != "global" else None, max_centers=cfg.max_j,
            )
            reports.append(rep)
        global_rep = reports[0]
        if global_rep.paths:
            cov = coverage_report(
                np.stack(global_rep.paths), samples, cfg.delta, part,
                mode="global", epsilon=cfg.epsilon,
            )
            reports.append(cov)
            for si, stat in enumerate(cov.window_stats.tolist()):
                window_rows.append((beta, n, cfg.epsilon, cfg.delta, si, stat))
            # distinguished-set induction seeded with the extracted paths
            ds_part = make_partition(n, cfg.ds_levels)
            K = default_refinement(cfg.delta)
            if n // cfg.ds_levels >= K:
                ds = build_distinguished_sets(
                    list(global_rep.paths), ds_part, cfg.delta, max_paths=100_000
                )
                ds_records.append(
                    {"beta": beta, "levels": ds.level, "K": ds.K,
                     "n_seed_paths": len(global_rep.paths), "n_paths": len(ds)}
                )
        report_to_jsonl(reports, jsonl, seed=cfg.seed)

    write_csv(
        out / "windows.csv",
        ["beta", "N", "epsilon", "delta", "sample", "min_window_overlap"],
        window_rows,
    )
    (out / "distinguished.json").write_text(
        json.dumps(ds_records, sort_keys=True, indent=1) + "\n"
    )
    return _finish(
        cfg,
        {"localize_jsonl": "localize.jsonl", "windows_csv": "windows.csv",
         "distinguished_json": "distinguished.json"},
        t0,
    )


def cmd_verify(cfg: ExperimentConfig) -> tuple[RunRecord, int]:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    summary = verify_mod.run_all(cfg.seed, n_threads=cfg.threads,
                                 inject_fault=cfg.inject_fault)
    (out / "verify_summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=1) + "\n"
    )
    failures = [k for k, v in summary["suites"].items() if not v["pass"]]
    for name, res in sorted(summary["suites"].items()):
        print(f"[verify] {name}: {'PASS' if res['pass'] else 'FAIL'}")
    if failures:
        print(f"[verify] FAILED suites: {', '.join(failures)}")
    rec = _finish(cfg, {"verify_summary_json": "verify_summary.json",
                        "all_pass": summary["all_pass"]}, t0)
    return rec, 0 if summary["all_pass"] else 2


def cmd_plotdata(cfg: ExperimentConfig) -> RunRecord:
    src = Path(cfg.inputs or cfg.out)
    out = Path(cfg.out)
    t0 = time.time()
    produced = {}

    fe = src / "free_energy.csv"
    conc = src / "concentration.csv"
    loc = src / "localize.jsonl"
    win = src / "windows.csv"
    if not any(p.exists() for p in (fe, conc, loc, win)):
        raise ValidationError(f"no run outputs found under {src}")
    out.mkdir(parents=True, exist_ok=True)

    if fe.exists():
        with fe.open() as fh:
            rows = list(csv.DictReader(fh))
        by_n = {}
        for r in rows:
            by_n.setdefault((r["d"], r["N"]), []).append(r)
        for (d, n), series in sorted(by_n.items()):
            name = f"series_free_energy_d{d}_N{n}.csv"
            write_csv(
                out / name,
                ["beta", "estimate", "stderr", "annealed"],
                [(float(r["beta"]), float(r["estimate"]), float(r["stderr"]),
                  float(r["annealed"])) for r in series],
            )
            produced[name] = "free-energy curve"

    if conc.exists():
        with conc.open() as fh:
            rows = list(csv.DictReader(fh))
        by_key = {}
        for r in rows:
            by_key.setdefault((r["beta"], r["N"]), []).append(r)
        for (beta, n), series in sorted(by_key.items()):
            name = f"series_tail_beta{beta}_N{n}.csv"
            write_csv(
                out / name,
                ["u", "empirical", "bound"],
                [(float(r["u"]), float(r["empirical"]), float(r["bound"]))
                 for r in series],
            )
            produced[name] = "concentration tail"

    if loc.exists():
        records = [json.loads(line) for line in loc.read_text().splitlines() if line]
        rows = []
        for rec in records:
            for j, cov in enumerate(rec.get("selection_trace") or [], start=1):
                rows.append((rec["mode"], rec["delta"], j, cov))
        if rows:
            write_csv(
                out / "series_coverage_vs_j.csv",
                ["mode", "delta", "j", "coverage"], rows,
            )
            produced["series_coverage_vs_j.csv"] = "coverage vs number of paths"

    if win.exists():
        with win.open() as fh:
            rows = list(csv.DictReader(fh))
        name = "series_window_profile.csv"
        write_csv(
            out / name,
            ["beta", "N", "epsilon", "sample", "min_window_overlap"],
            [(float(r["beta"]), int(r["N"]), float(r["epsilon"]),
              int(r["sample"]), float(r["min_window_overlap"])) for r in rows],
        )
        produced[name] = "sliding-window overlap profile"

    return _finish(cfg, {"series": sorted(produced)}, t0)


def _finish(cfg: ExperimentConfig, metrics: dict, t0: float) -> RunRecord:
    rec = RunRecord(
        command=cfg.command,
        config=cfg.to_dict(),
        content_hash=config_content_hash(cfg),
        metrics=metrics,
        wall_time_s=time.time() - t0,
        timestamp_utc=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    )
    out = Path(cfg.out)
    if out.exists():
        (out / "run_record.json").write_text(
            json.dumps(asdict(rec), sort_keys=True, indent=1) + "\n"
        )
    return rec


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; validation is 1
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(sp):
    sp.add_argument("--config", default=None, help="INI or JSON config file")
    sp.add_argument("--seed", type=int, default=None, help="master seed")
    sp.add_argument("--threads", type=int, default=None, help="worker threads")
    sp.add_argument("--out", default=None, help="output directory")


def build_parser() -> _Parser:
    ap = _Parser(prog="polymerlab", description=__doc__,
                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    fe = sub.add_parser("free-energy", help="free-energy sweep")
    _add_common(fe)
    fe.add_argument("--d", type=int, default=None)
    fe.add_argument("--n-grid", dest="n_values", default=None,
                    help="comma-separated N ladder")
    fe.add_argument("--beta-grid", dest="beta_values", default=None,
                    help="comma-separated beta grid")
    fe.add_argument("--n-disorder", dest="n_disorder", type=int, default=None)
    fe.add_argument("--tail-u", dest="tail_u", default=None,
                    help="emit concentration tails on this u grid")
    fe.add_argument("--block-betas", dest="block_betas", default=None,
                    help="per-block temperatures: run the multi-temperature "
                         "consistency ladder instead of the single-beta sweep")
    fe.add_argument("--blocks", dest="L", type=int, default=None)

    ov = sub.add_parser("overlap", help="overlap and derivative identity")
    _add_common(ov)
    ov.add_argument("--d", type=int, default=None)
    ov.add_argument("--n-grid", dest="n_values", default=None)
    ov.add_argument("--beta-grid", dest="beta_values", default=None)
    ov.add_argument("--n-disorder", dest="n_disorder", type=int, default=None)
    ov.add_argument("--n-pairs", dest="n_pairs", type=int, default=None)
    ov.add_argument("--h", type=float, default=None)
    ov.add_argument("--mode", choices=("auto", "mc", "enum"), default=None)

    lo = sub.add_parser("localize", help="favorite-path extraction")
    _add_common(lo)
    lo.add_argument("--d", type=int, default=None)
    lo.add_argument("--n", dest="n_values", default=None, help="path length N")
    lo.add_argument("--beta-grid", dest="beta_values", default=None)
    lo.add_argument("--delta", type=float, default=None)
    lo.add_argument("--eps", dest="epsilon", type=float, default=None)
    lo.add_argument("--n-samples", dest="n_samples", type=int, default=None)
    lo.add_argument("--blocks", dest="L", type=int, default=None)
    lo.add_argument("--ds-levels", dest="ds_levels", type=int, default=None)
    lo.add_argument("--max-j", dest="max_j", type=int, default=None)

    ve = sub.add_parser("verify", help="oracle/property suites")
    _add_common(ve)
    ve.add_argument("--inject-fault", dest="inject_fault", action="store_true",
                    default=None, help="negative control: flip one field value")

    pd = sub.add_parser("plotdata", help="tidy series from prior outputs")
    _add_common(pd)
    pd.add_argument("--inputs", default=None, help="directory of prior run outputs")

    return ap


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig(command=args.command)
    if getattr(args, "config", None):
        cfg = replace(cfg, **load_config_file(args.config, args.command))
    overrides = {}
    for key in (f.name for f in fields(ExperimentConfig)):
        if key == "command":
            continue
        val = getattr(args, key, None)
        if val is not None:
            overrides[key] = _coerce_value(key, val)
    if overrides:
        cfg = replace(cfg, **overrides)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.seed < 0:
        raise ValidationError("seed must be non-negative")
    if cfg.threads < 1:
        raise ValidationError("threads must be >= 1")
    if cfg.d < 1:
        raise ValidationError("d must be >= 1")
    if cfg.n_disorder < 2:
        raise ValidationError("n_disorder must be >= 2")
    if not 0 < cfg.delta:
        raise ValidationError("delta must be positive")
    if not 0 < cfg.epsilon < 1:
        raise ValidationError("epsilon must lie in (0, 1)")
    if cfg.h <= 0:
        raise ValidationError("h must be positive")
    if any(b < 0 for b in cfg.beta_values):
        raise ValidationError("beta values must be >= 0")
    if any(n < 1 for n in cfg.n_values):
        raise ValidationError("N values must be >= 1")
    if cfg.command == "free-energy" and cfg.block_betas:
        if len(cfg.block_betas) != cfg.L:
            raise ValidationError(
                f"block_betas has {len(cfg.block_betas)} entries for L={cfg.L} blocks"
            )
        ns = cfg.n_values or DEFAULT_N_LADDER.get(cfg.d, (64,))
        bad = [n for n in ns if n < cfg.L**2]
        if bad:
            raise ValidationError(
                f"multi-temperature consistency requires N >= L^2 = {cfg.L**2}; "
                f"violated by N in {bad}"
            )
    if cfg.command == "localize" and cfg.n_values:
        n = int(cfg.n_values[0])
        if n < cfg.L**2:
            raise ValidationError(
                f"localize needs N >= L^2 for the block machinery (N={n}, L={cfg.L})"
            )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
    except ValidationError as exc:
        print(f"polymerlab: {exc}", file=sys.stderr)
        return 1
    try:
        if cfg.command == "free-energy":
            rec = cmd_free_energy(cfg)
        elif cfg.command == "overlap":
            rec = cmd_overlap(cfg)
        elif cfg.command == "localize":
            rec = cmd_localize(cfg)
        elif cfg.command == "verify":
            rec, code = cmd_verify(cfg)
            print(f"[{cfg.command}] wrote {cfg.out} in {rec.wall_time_s:.1f}s")
            return code
        elif cfg.command == "plotdata":
            rec = cmd_plotdata(cfg)
        else:  # pragma: no cover
            raise ValidationError(f"unknown command {cfg.command}")
    except ValidationError as exc:
        print(f"polymerlab: {exc}", file=sys.stderr)
        return 1
    print(f"[{cfg.command}] wrote {cfg.out} in {rec.wall_time_s:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
