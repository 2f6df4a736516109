"""Command-line harness: experiment orchestration, persistence, plot data.

Subcommands
-----------
free-energy   sweep a beta-grid x N-ladder of quenched free-energy estimates
overlap       replica overlap, the finite-N derivative identity, 1 - p'/beta
localize      Gibbs sampling, greedy favorite paths, distinguished sets
verify        the full oracle/property suite (exit 2 on any failure)
plotdata      tidy per-metric CSV series from prior run outputs

All randomness derives from ``--seed`` through the published replica-mixing
function, so identical configs reproduce every metric file byte-for-byte.
The estimators run in replica order on one thread; ``--threads`` is accepted
and validated for config compatibility and has no effect.  Each setting is
declared once, as an ``ExperimentConfig`` field whose annotation gives its
kind, and read once, by ``_coerce_value``, whether it comes from a flag or a
config file.  Exit codes: 0 success, 1 validation error, 2 suite failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
import typing
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

try:  # the builtin module, which loads no OpenSSL (``_sha2`` from Python 3.12)
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .free_energy import (
    annealed_bound,
    concentration_from_samples,
    estimate_free_energies,
    multi_temp_consistency,
)
from .lattice import (
    DEFAULT_MAX_CELLS,
    LatticeParams,
    MemoryGuardError,
    derive_seed,
    gaussian_env,
    make_partition,
)
from .localization import (
    DS_MAX_PATHS,
    MODES,
    build_distinguished_sets,
    coverage_report,
    default_refinement,
    greedy_favorite_paths,
    pairwise_counts,
    report_to_jsonl,
)
from .overlap import IBP_MODES, sweep_overlaps
from .transfer import BetaProfile, forward_layers, sample_paths

# default free-energy sweep: beta <= 3, N <= 1024, d <= 2 (per dimension)
DEFAULT_BETA_GRID = (0.5, 1.0, 2.0, 3.0)
DEFAULT_N_LADDER = {1: (64, 256, 1024), 2: (64, 256)}
_OVERLAP_BETAS = (0.0, 0.5, 1.0, 2.0)
_OVERLAP_NS = (64, 128, 256)


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
    n_values: tuple[int, ...] = ()
    beta_values: tuple[float, ...] = ()
    block_betas: tuple[float, ...] = ()
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
    tail_u: tuple[float, ...] = ()
    inputs: str = ""
    inject_fault: bool = False

    def __post_init__(self):
        for key, item in _LIST_ITEMS.items():
            object.__setattr__(self, key, tuple(item(v) for v in getattr(self, key)))

    def to_dict(self) -> dict:
        return {k: list(v) if k in _LIST_ITEMS else v for k, v in asdict(self).items()}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - set(_KINDS)
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


# every setting's kind, read off its annotation; list settings map to their item kind
_KINDS = typing.get_type_hints(ExperimentConfig)
_LIST_ITEMS = {k: typing.get_args(t)[0] for k, t in _KINDS.items()
               if typing.get_origin(t) is tuple}


def config_content_hash(cfg: ExperimentConfig) -> str:
    blob = json.dumps(cfg.to_dict(), sort_keys=True).encode()
    return sha256(blob).hexdigest()


@dataclass
class RunRecord:
    command: str
    config: dict
    content_hash: str
    metrics: dict = field(default_factory=dict)
    wall_time_s: float = 0.0
    timestamp_utc: str = ""
    platform: dict = field(default_factory=dict)


def _read(key: str, kind, raw):
    """``raw`` as a value of ``kind``; ValidationError when it cannot be read,
    when it is a bool (a JSON true or false) for a setting of another kind, or
    when it is a float that is not finite (no setting takes nan or inf)."""
    try:
        if kind is bool:
            if isinstance(raw, bool):
                return raw
            import configparser  # only a value spelt as a string pays for it

            return configparser.ConfigParser.BOOLEAN_STATES[str(raw).strip().lower()]
        if isinstance(raw, bool) or (kind is int and isinstance(raw, float)
                                     and not raw.is_integer()):
            raise ValueError
        value = kind(raw)
    except (KeyError, TypeError, ValueError):
        raise ValidationError(f"{key}: cannot read {raw!r} as {kind.__name__}") from None
    if kind is float and not math.isfinite(value):
        raise ValidationError(f"{key}: {raw!r} is not a finite number")
    return value


def _coerce_value(key: str, raw):
    """The one parser of setting values, from flags and from config files."""
    if key in _LIST_ITEMS:
        items = raw.replace(" ", "").split(",") if isinstance(raw, str) else raw
        if not isinstance(items, (list, tuple)):
            raise ValidationError(f"{key}: expected a list, got {raw!r}")
        return [_read(key, _LIST_ITEMS[key], v) for v in items if v != ""]
    if key in _KINDS:
        return _read(key, _KINDS[key], raw)
    return raw  # unknown keys reach ``from_dict``, which rejects them


def load_config_file(path: str, command: str) -> dict:
    """Read [run] plus [<command>] keys from an INI file, or the JSON twin."""
    import configparser  # only a run with a config file pays for it

    p = Path(path)
    if not p.exists():
        raise ValidationError(f"config file not found: {path}")
    try:
        if p.suffix == ".json":
            data = json.loads(p.read_text())
            if not isinstance(data, dict):
                raise ValidationError(f"config file {path}: expected a JSON object of sections")
            sections = {s: data[s] for s in ("run", command) if s in data}
        else:
            parser = configparser.ConfigParser()
            parser.read(p)
            sections = {s: dict(parser.items(s)) for s in ("run", command) if parser.has_section(s)}
    except (configparser.Error, json.JSONDecodeError) as exc:
        reason = " ".join(str(exc).split())
        raise ValidationError(f"cannot read config file {path}: {reason}") from None
    merged = {}
    for name, section in sections.items():
        if not isinstance(section, dict):
            raise ValidationError(f"config file {path}: section {name!r} is not an object")
        merged.update(section)
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

def _resolve_grids(cfg: ExperimentConfig) -> tuple:
    """The N ladder and beta grid of a free-energy or overlap run, defaults resolved."""
    if cfg.command == "overlap":
        return cfg.n_values or _OVERLAP_NS, cfg.beta_values or _OVERLAP_BETAS
    return cfg.n_values or DEFAULT_N_LADDER.get(cfg.d, (64,)), cfg.beta_values or DEFAULT_BETA_GRID


def cmd_free_energy(cfg: ExperimentConfig) -> RunRecord:
    ns, betas = _resolve_grids(cfg)
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
        return _finish(cfg, {"multi_temp_csv": "multi_temp.csv", "n_rows": len(gaps),
                             "n_values": [int(n) for n in ns]}, t0)

    rows, tail_rows = [], []
    ests = estimate_free_energies(betas, LatticeParams(d=cfg.d, N=max(ns)), cfg.n_disorder,
                                  cfg.seed, ns)
    for est in ests:
        rows.append(
            (est.beta, est.N, cfg.d, 1, est.mean, est.stderr,
             annealed_bound(est.beta), cfg.n_disorder, cfg.seed)
        )
        if cfg.tail_u and est.beta != 0.0:
            params = LatticeParams(d=cfg.d, N=est.N)
            prof = concentration_from_samples(est.beta, params, est.samples, cfg.tail_u)
            for u, emp, bnd in zip(prof.u_grid, prof.empirical, prof.bound):
                tail_rows.append((est.beta, est.N, float(u), float(emp), float(bnd)))
    write_csv(
        out / "free_energy.csv",
        ["beta", "N", "d", "L", "estimate", "stderr", "annealed", "n_disorder", "seed"],
        rows,
    )
    metrics = {"free_energy_csv": "free_energy.csv", "n_rows": len(rows),
               **_grids(ns, betas)}

    if cfg.tail_u:
        write_csv(
            out / "concentration.csv",
            ["beta", "N", "u", "empirical", "bound"],
            tail_rows,
        )
        metrics["concentration_csv"] = "concentration.csv"

    return _finish(cfg, metrics, t0)


def cmd_overlap(cfg: ExperimentConfig) -> RunRecord:
    ns, betas = _resolve_grids(cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()

    rows = []
    for sw in sweep_overlaps(betas, cfg.h, LatticeParams(d=cfg.d, N=max(ns)), cfg.n_disorder,
                             cfg.seed, cfg.n_pairs, cfg.mode, ns):
        # the identity columns divide by beta: blank at beta = 0
        ibp = (("", "", "") if sw.ibp is None
               else (sw.ibp.residual, sw.ibp.stderr, 1.0 - sw.ibp.derivative / sw.beta))
        rows.append((sw.beta, sw.N, cfg.d, sw.mode, sw.replica.mean, sw.replica.stderr,
                     sw.exact, *ibp, cfg.n_disorder, cfg.seed))
    write_csv(
        out / "overlap.csv",
        ["beta", "N", "d", "mode", "mean_overlap", "overlap_stderr", "exact_overlap",
         "ibp_residual", "ibp_stderr", "one_minus_deriv_over_beta", "n_disorder", "seed"],
        rows,
    )
    return _finish(cfg, {"overlap_csv": "overlap.csv", "n_rows": len(rows), **_grids(ns, betas)},
                   t0)


def cmd_localize(cfg: ExperimentConfig) -> RunRecord:
    betas = cfg.beta_values or (0.0, 2.0)
    (n,) = cfg.n_values
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    part = make_partition(n, cfg.L)
    env = gaussian_env(derive_seed(cfg.seed, 0), LatticeParams(d=cfg.d, N=n))
    # the counts (uint8, uint16 past 255-step blocks) and the bool cover relation
    # each hold one cell per (sample, sample, block): refuse before a table or a
    # sample exists
    cells = 2 * cfg.n_samples**2 * part.L
    if cells > env.params.max_cells:
        raise MemoryGuardError(
            f"localize: {cfg.n_samples} samples over {part.L} blocks need {cells} cells "
            f"for the coincidence counts and cover relation, more than {env.params.max_cells}"
        )
    ds_part = make_partition(n, cfg.ds_levels)

    jsonl = out / "localize.jsonl"
    window_rows = []
    ds_records = []
    for k, beta in enumerate(betas):
        rows, ds_rec = _localize_beta(cfg, env, beta, part, ds_part, jsonl, fresh=k == 0)
        window_rows.extend(rows)
        ds_records.append(ds_rec)

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
         "distinguished_json": "distinguished.json", **_grids([n], betas)},
        t0,
    )


def _localize_beta(cfg: ExperimentConfig, env, beta: float, part, ds_part, jsonl: Path,
                   fresh: bool) -> tuple:
    """One beta of ``localize``: appends its reports to ``jsonl`` (emptied
    first when ``fresh``) and returns its windows.csv rows and its
    distinguished.json record.  The table, samples, counts and reports die
    with the call, so none of them is alive under the next beta's peak."""
    n = env.params.N
    table = forward_layers(env, BetaProfile.constant(beta, n))
    if fresh:  # the kept-table budget has admitted N: replace any old output
        jsonl.write_text("")
    samples = sample_paths(
        table, cfg.n_samples, np.random.default_rng(derive_seed(cfg.seed, 3))
    )
    del table
    # one coincidence tensor feeds every mode and the coverage report
    counts = pairwise_counts(samples, samples, part.boundaries)
    reports = []
    for mode in MODES:
        rep = greedy_favorite_paths(
            samples, cfg.delta, cfg.epsilon, mode,
            p=part if mode != "global" else None, max_centers=cfg.max_j,
            counts=counts,
        )
        reports.append(rep)
    global_rep = reports[0]
    # keep only the chosen rows, so the full tensor is not alive under
    # the window statistic's peak memory
    counts = counts[global_rep.path_indices]
    window_rows = []
    if global_rep.paths:
        cov = coverage_report(
            np.stack(global_rep.paths), samples, cfg.delta, part,
            mode="global", epsilon=cfg.epsilon, counts=counts,
        )
        reports.append(cov)
        for si, stat in enumerate(cov.window_stats.tolist()):
            window_rows.append((beta, n, cfg.epsilon, cfg.delta, si, stat))
    report_to_jsonl(reports, jsonl, seed=cfg.seed)
    # distinguished-set induction seeded with the extracted paths; a beta
    # it cannot run on, or whose induction passes DS_MAX_PATHS, gets a
    # record that says why
    seeds = [np.array(p) for p in global_rep.paths]  # copies: the samples can go
    del reports, global_rep, samples  # the reports' paths are views of the samples
    K = default_refinement(cfg.delta)
    ds_rec = {"beta": beta, "levels": ds_part.L, "K": K, "n_seed_paths": len(seeds)}
    if not seeds:
        ds_rec["skipped"] = "the global cover found no paths"
    elif n // ds_part.L < K:
        ds_rec["skipped"] = f"N // levels = {n // ds_part.L} < K"
    else:
        try:
            ds = build_distinguished_sets(seeds, ds_part, cfg.delta, max_paths=DS_MAX_PATHS)
        except MemoryGuardError as exc:
            ds_rec["skipped"] = str(exc)
        else:
            ds_rec["n_paths"] = len(ds)
    return window_rows, ds_rec


def cmd_verify(cfg: ExperimentConfig) -> tuple[RunRecord, int]:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    from .verify import run_all  # the suites and scipy.special.chdtrc load only here
    summary = run_all(cfg.seed, inject_fault=cfg.inject_fault)
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


def _series_by(src_csv: Path, out: Path, keys, name: str, columns, label: str) -> dict:
    """One series file per value of ``keys`` in ``src_csv``, with ``columns`` as floats."""
    if not src_csv.exists():
        return {}
    groups = {}
    with src_csv.open() as fh:
        for r in csv.DictReader(fh):
            groups.setdefault(tuple(r[k] for k in keys), []).append(r)
    produced = {}
    for key, series in sorted(groups.items()):
        fname = name.format(*key)
        write_csv(out / fname, columns, [tuple(float(r[c]) for c in columns) for r in series])
        produced[fname] = label
    return produced


def cmd_plotdata(cfg: ExperimentConfig) -> RunRecord:
    src = Path(cfg.inputs or cfg.out)
    out = Path(cfg.out)
    t0 = time.time()

    fe = src / "free_energy.csv"
    conc = src / "concentration.csv"
    loc = src / "localize.jsonl"
    win = src / "windows.csv"
    if not any(p.exists() for p in (fe, conc, loc, win)):
        raise ValidationError(f"no run outputs found under {src}")
    out.mkdir(parents=True, exist_ok=True)

    produced = _series_by(fe, out, ("d", "N"), "series_free_energy_d{}_N{}.csv",
                          ["beta", "estimate", "stderr", "annealed"], "free-energy curve")
    produced.update(_series_by(conc, out, ("beta", "N"), "series_tail_beta{}_N{}.csv",
                               ["u", "empirical", "bound"], "concentration tail"))

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


def _grids(ns, betas) -> dict:
    """The N ladder and beta grid a run used, defaults resolved."""
    return {"n_values": [int(n) for n in ns], "beta_values": [float(b) for b in betas]}


def _platform() -> dict:
    """The interpreter and library versions, and the SIMD target numpy runs
    float64 exp, log and log1p on: the last bits of every log-space sum and
    of the field's tail, and so the metric files' digests, depend on it.
    scipy is recorded where it is loaded already (``verify``'s chi-square),
    and None where it is not: no other command uses it, and importing it
    here would cost every run its start-up."""
    from numpy.lib.introspect import opt_func_info

    targets = opt_func_info(func_name="^(exp|log|log1p)$", signature="float64")
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": getattr(sys.modules.get("scipy"), "__version__", None),
        "float64_targets": {name: next(iter(by_sig.values()))["current"]
                            for name, by_sig in sorted(targets.items())},
    }


def _finish(cfg: ExperimentConfig, metrics: dict, t0: float) -> RunRecord:
    rec = RunRecord(
        command=cfg.command,
        config=cfg.to_dict(),
        content_hash=config_content_hash(cfg),
        metrics=metrics,
        wall_time_s=time.time() - t0,
        timestamp_utc=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        platform=_platform(),
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


# every setting flag, declared once; argparse names the setting after the
# flag unless ``dest`` says otherwise, and ``_coerce_value`` reads the value
_FLAGS = {
    "--seed": {"help": "master seed"},
    "--threads": {"help": "accepted for config compatibility; no effect (the "
                          "estimators run in replica order)"},
    "--out": {"help": "output directory"},
    "--d": {},
    "--n-grid": {"dest": "n_values", "help": "comma-separated N ladder"},
    "--n": {"dest": "n_values", "help": "path length N"},
    "--beta-grid": {"dest": "beta_values", "help": "comma-separated beta grid"},
    "--n-disorder": {},
    "--tail-u": {"help": "emit concentration tails on this u grid"},
    "--block-betas": {"help": "per-block temperatures: run the multi-temperature "
                              "consistency ladder instead of the single-beta sweep"},
    "--blocks": {"dest": "L"},
    "--n-pairs": {},
    "--h": {},
    "--mode": {"choices": IBP_MODES},
    "--delta": {},
    "--eps": {"dest": "epsilon"},
    "--n-samples": {},
    "--ds-levels": {},
    "--max-j": {},
    "--inject-fault": {"action": "store_true",
                       "help": "negative control: flip one field value"},
    "--inputs": {"help": "directory of prior run outputs"},
}

# command -> (help, its flags after --config and the common ones)
_COMMAND_FLAGS = {
    "free-energy": ("free-energy sweep",
                    "--d --n-grid --beta-grid --n-disorder --tail-u --block-betas --blocks"),
    "overlap": ("overlap and derivative identity",
                "--d --n-grid --beta-grid --n-disorder --n-pairs --h --mode"),
    "localize": ("favorite-path extraction",
                 "--d --n --beta-grid --delta --eps --n-samples --blocks --ds-levels --max-j"),
    "verify": ("oracle/property suites", "--inject-fault"),
    "plotdata": ("tidy series from prior outputs", "--inputs"),
}


def build_parser() -> _Parser:
    ap = _Parser(prog="polymerlab", description=__doc__,
                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in _COMMAND_FLAGS.items():
        sp = sub.add_parser(command, help=help_text)
        sp.add_argument("--config", default=None, help="INI or JSON config file")
        for flag in ("--seed", "--threads", "--out", *flags.split()):
            sp.add_argument(flag, default=None, **_FLAGS[flag])
    return ap


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Defaults, then the config file, then the flags; one ``from_dict`` build."""
    data = load_config_file(args.config, args.command) if args.config else {}
    for key in _KINDS:
        val = getattr(args, key, None)
        if val is not None:
            data[key] = _coerce_value(key, val)
    data["command"] = args.command
    cfg = ExperimentConfig.from_dict(data)
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
    for key in ("n_pairs", "n_samples", "L", "max_j"):
        if getattr(cfg, key) < 1:
            raise ValidationError(f"{key} must be >= 1")
    if not 0 < cfg.delta <= 1:  # an overlap fraction never exceeds 1
        raise ValidationError("delta must lie in (0, 1]")
    if not 0 < cfg.epsilon < 1:
        raise ValidationError("epsilon must lie in (0, 1)")
    if cfg.h <= 0:
        raise ValidationError("h must be positive")
    if any(b < 0 for b in cfg.beta_values):
        raise ValidationError("beta values must be >= 0")
    if any(n < 1 for n in cfg.n_values):
        raise ValidationError("N values must be >= 1")
    # layer N alone holds |D_N| >= (N+1)^min(d,2) cells: refuse an N past the
    # budget here, before anything N long is built
    ns = (cfg.n_values if cfg.command == "localize"
          else _resolve_grids(cfg)[0] if cfg.command in ("free-energy", "overlap") else ())
    for n in ns:
        cells = (n + 1) ** min(cfg.d, 2)
        if cells > DEFAULT_MAX_CELLS:
            raise ValidationError(f"d={cfg.d}, N={n}: layer N alone holds at least {cells} "
                                  f"cells, more than {DEFAULT_MAX_CELLS}")
    if any(u <= 0 for u in cfg.tail_u):
        raise ValidationError("tail u values must be positive")
    if cfg.command == "free-energy" and cfg.block_betas:
        if cfg.tail_u:
            raise ValidationError("tail_u has no effect with block_betas: the "
                                  "multi-temperature ladder writes no concentration tails")
        if len(cfg.block_betas) != cfg.L:
            raise ValidationError(
                f"block_betas has {len(cfg.block_betas)} entries for L={cfg.L} blocks"
            )
        bad = [n for n in _resolve_grids(cfg)[0] if n < cfg.L**2]
        if bad:
            raise ValidationError(
                f"multi-temperature consistency requires N >= L^2 = {cfg.L**2}; "
                f"violated by N in {bad}"
            )
    if cfg.command == "overlap":
        betas = _resolve_grids(cfg)[1]
        if cfg.mode not in IBP_MODES:
            raise ValidationError(f"mode must be one of {IBP_MODES}, got {cfg.mode!r}")
        bad = [b for b in betas if 0.0 < b < cfg.h]
        if bad:
            raise ValidationError(f"h={cfg.h} too large for beta={bad[0]}")
    if cfg.command == "localize":
        if len(cfg.n_values) != 1:
            raise ValidationError(
                f"localize needs exactly one N (--n), got {list(cfg.n_values)}"
            )
        (n,) = cfg.n_values
        if n < cfg.L**2:
            raise ValidationError(
                f"localize needs N >= L^2 for the block machinery (N={n}, L={cfg.L})"
            )
        if not 1 <= cfg.ds_levels <= n:
            raise ValidationError(f"ds_levels={cfg.ds_levels} outside 1..N={n}")


_COMMANDS = {"free-energy": cmd_free_energy, "overlap": cmd_overlap,
             "localize": cmd_localize, "plotdata": cmd_plotdata}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        if cfg.command == "verify":  # exit 2 on a suite failure
            rec, code = cmd_verify(cfg)
        else:
            rec, code = _COMMANDS[cfg.command](cfg), 0
    except (ValidationError, MemoryGuardError) as exc:
        print(f"polymerlab: {exc}", file=sys.stderr)
        return 1
    print(f"[{cfg.command}] wrote {cfg.out} in {rec.wall_time_s:.1f}s")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
