import collections
import csv
import importlib
import json
import os
import platform
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import polymerlab
from polymerlab.cli import (
    ExperimentConfig,
    ValidationError,
    cmd_free_energy,
    cmd_localize,
    cmd_overlap,
    cmd_plotdata,
    config_content_hash,
    config_from_args,
    build_parser,
    load_config_file,
    main,
)
from polymerlab.lattice import derive_seed


class TestConfig:
    def test_dict_round_trip(self):
        cfg = ExperimentConfig(
            command="free-energy", seed=9, d=2, n_values=(16, 32),
            beta_values=(0.5, 1.0), n_disorder=10, out="x",
        )
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert config_content_hash(again) == config_content_hash(cfg)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentConfig.from_dict({"command": "verify", "bogus": 1})

    def test_ini_file(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[run]\nseed = 5\nthreads = 2\n\n"
            "[free-energy]\nd = 1\nn_values = 16, 32\nbeta_values = 0.5,1.0\nn_disorder = 8\n"
        )
        data = load_config_file(str(ini), "free-energy")
        assert data["seed"] == 5 and data["threads"] == 2
        assert data["n_values"] == [16, 32] and all(type(n) is int for n in data["n_values"])
        assert data["beta_values"] == [0.5, 1.0]
        assert data["n_disorder"] == 8

    def test_json_file_equivalence(self, tmp_path):
        blob = {
            "run": {"seed": 5, "threads": 2},
            "free-energy": {"d": 1, "n_values": [16, 32], "n_disorder": 8},
        }
        jf = tmp_path / "run.json"
        jf.write_text(json.dumps(blob))
        data = load_config_file(str(jf), "free-energy")
        assert data["seed"] == 5 and data["n_values"] == [16.0, 32.0]

    def test_cli_overrides_file(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\nseed = 5\n")
        args = build_parser().parse_args(
            ["free-energy", "--config", str(ini), "--seed", "11"]
        )
        cfg = config_from_args(args)
        assert cfg.seed == 11

    def test_validation_errors(self, tmp_path):
        ap = build_parser()
        cfg = config_from_args(ap.parse_args(["free-energy"]))
        assert cfg.n_disorder == 200
        with pytest.raises(ValidationError):
            config_from_args(ap.parse_args(["free-energy", "--n-disorder", "1"]))
        with pytest.raises(ValidationError):
            config_from_args(ap.parse_args(["localize", "--n", "8", "--blocks", "4"]))
        with pytest.raises(ValidationError, match="tail u"):
            config_from_args(ap.parse_args(["free-energy", "--tail-u", "0.1,0"]))
        with pytest.raises(ValidationError, match="ds_levels"):
            config_from_args(ap.parse_args(["localize", "--n", "16", "--ds-levels", "0"]))
        localize = ["localize", "--d", "1", "--n", "16", "--eps", "0.5", "--blocks", "2",
                    "--beta-grid", "2"]
        with pytest.raises(ValidationError, match=r"delta must lie in \(0, 1\]"):
            config_from_args(ap.parse_args(localize + ["--delta", "1.5"]))
        # a cover budget below one path picks nothing and reads as no coverage
        for max_j in ("0", "-3"):
            with pytest.raises(ValidationError, match="max_j must be >= 1"):
                config_from_args(ap.parse_args(localize + ["--delta", "0.5", "--max-j", max_j]))
        assert config_from_args(ap.parse_args(localize + ["--delta", "1"])).delta == 1.0
        # overlap's default beta grid holds 0.5, so h = 0.7 is refused before the sweep
        with pytest.raises(ValidationError, match="h=0.7 too large for beta=0.5"):
            config_from_args(ap.parse_args(["overlap", "--h", "0.7"]))
        # no float setting takes nan or +-inf, from a flag or from a config file
        for flag, command in (("--h", "overlap"), ("--beta-grid", "free-energy"),
                              ("--block-betas", "free-energy"), ("--tail-u", "free-energy"),
                              ("--beta-grid", "localize")):
            for raw in ("nan", "inf", "-inf") + (("0.5,nan",) if flag != "--h" else ()):
                with pytest.raises(ValidationError, match="not a finite number"):
                    config_from_args(ap.parse_args([command, f"{flag}={raw}"]))
        (tmp_path / "run.json").write_text('{"overlap": {"h": NaN}}')
        with pytest.raises(ValidationError, match="h: nan is not a finite number"):
            load_config_file(str(tmp_path / "run.json"), "overlap")


def _cfg(**kw):
    return ExperimentConfig(**kw)


class TestFreeEnergyCommand:
    def test_deterministic_bytes(self, tmp_path):
        base = dict(
            command="free-energy", seed=3, d=1, n_values=(16, 32),
            beta_values=(0.0, 1.0), n_disorder=8,
        )
        cmd_free_energy(_cfg(out=str(tmp_path / "a"), **base))
        cmd_free_energy(_cfg(out=str(tmp_path / "b"), **base))
        fa = (tmp_path / "a" / "free_energy.csv").read_bytes()
        fb = (tmp_path / "b" / "free_energy.csv").read_bytes()
        assert fa == fb

    def test_golden_header_and_zero_row(self, tmp_path):
        cfg = _cfg(
            command="free-energy", seed=3, d=1, n_values=(16,),
            beta_values=(0.0, 0.5), n_disorder=6, out=str(tmp_path),
        )
        cmd_free_energy(cfg)
        with (tmp_path / "free_energy.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "beta", "N", "d", "L", "estimate", "stderr", "annealed", "n_disorder", "seed",
        ]
        zero = rows[1]
        assert float(zero[0]) == 0.0 and float(zero[4]) == 0.0 and float(zero[5]) == 0.0

    def test_multi_temperature_ladder(self, tmp_path):
        cfg = _cfg(
            command="free-energy", seed=9, d=1, n_values=(25, 36), L=2,
            block_betas=(0.5, 1.5), n_disorder=10, out=str(tmp_path),
        )
        cmd_free_energy(cfg)
        with (tmp_path / "multi_temp.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "N", "L", "betas", "gap", "stderr", "lhs_mean", "rhs_mean",
            "n_disorder", "seed",
        ]
        assert len(rows) == 3

    def test_multi_temperature_hypothesis_validated(self):
        args = build_parser().parse_args([
            "free-energy", "--d", "1", "--n-grid", "8", "--blocks", "3",
            "--block-betas", "1,1,1",
        ])
        with pytest.raises(ValidationError, match="N >= L\\^2"):
            config_from_args(args)

    def test_tail_output(self, tmp_path):
        cfg = _cfg(
            command="free-energy", seed=3, d=1, n_values=(32,),
            beta_values=(1.0,), n_disorder=50, tail_u=(0.1, 0.3), out=str(tmp_path),
        )
        cmd_free_energy(cfg)
        with (tmp_path / "concentration.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["beta", "N", "u", "empirical", "bound"]
        assert len(rows) == 3


class TestOverlapCommand:
    def test_beta_zero_identity_guard(self, tmp_path):
        cfg = _cfg(
            command="overlap", seed=3, d=1, n_values=(6,),
            beta_values=(0.0, 0.9), n_disorder=5, n_pairs=20,
            h=1e-4, mode="enum", out=str(tmp_path),
        )
        cmd_overlap(cfg)
        with (tmp_path / "overlap.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        by_beta = {float(r["beta"]): r for r in rows}
        assert by_beta[0.0]["ibp_residual"] == ""
        assert by_beta[0.0]["mean_overlap"] != ""
        assert float(by_beta[0.9]["ibp_residual"]) < 1e-6

    def test_enum_past_the_enumeration_cap(self, tmp_path):
        # 2^30 paths are past any enumeration, but enum mode reads log Z off
        # the forward pass, so every N the cell budget admits runs
        assert main(["overlap", "--d", "1", "--n-grid", "8,30", "--mode", "enum",
                     "--n-disorder", "4", "--n-pairs", "10", "--out", str(tmp_path)]) == 0
        with (tmp_path / "overlap.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(r["mode"] == "enum" for r in rows)
        assert all(float(r["ibp_residual"]) < 1e-6 for r in rows if float(r["beta"]) > 0)

    def test_header(self, tmp_path):
        cfg = _cfg(
            command="overlap", seed=3, d=1, n_values=(5,), beta_values=(0.5,),
            n_disorder=4, n_pairs=10, mode="enum", out=str(tmp_path),
        )
        cmd_overlap(cfg)
        header = (tmp_path / "overlap.csv").read_text().splitlines()[0]
        assert header == (
            "beta,N,d,mode,mean_overlap,overlap_stderr,exact_overlap,"
            "ibp_residual,ibp_stderr,one_minus_deriv_over_beta,n_disorder,seed"
        )

    def test_exact_and_identity_columns_share_environments(self, tmp_path):
        # in mc mode both sides of the identity average the same environments,
        # so exact_overlap and 1 - p'/beta differ by exactly ibp_residual / beta;
        # 55 environments are more than any cap of 50 would let through
        cfg = _cfg(
            command="overlap", seed=3, d=1, n_values=(10,), beta_values=(0.0, 0.5, 1.5),
            n_disorder=55, n_pairs=5, mode="mc", out=str(tmp_path),
        )
        cmd_overlap(cfg)
        with (tmp_path / "overlap.csv").open() as fh:
            rows = [r for r in csv.DictReader(fh) if float(r["beta"]) > 0]
        assert len(rows) == 2
        for r in rows:
            gap = abs(float(r["exact_overlap"]) - float(r["one_minus_deriv_over_beta"]))
            assert abs(gap - float(r["ibp_residual"]) / float(r["beta"])) < 1e-12


class TestOnePassPerEnvironment:
    """Each environment's transfer passes run once and feed every estimate."""

    @staticmethod
    def _count(monkeypatch, name, key):
        """Count calls of a transfer entry point by key(its positional arguments)."""
        calls = collections.Counter()
        # the package re-exports a function named ``overlap``, so import by name
        mods = [importlib.import_module(f"polymerlab.{m}")
                for m in ("transfer", "free_energy", "overlap")]
        for mod in (m for m in mods if hasattr(m, name)):
            def counted(*args, _orig=getattr(mod, name), **kw):
                calls[key(*args)] += 1
                return _orig(*args, **kw)
            monkeypatch.setattr(mod, name, counted)
        return calls

    def test_overlap_passes(self, tmp_path, monkeypatch):
        self._overlap_passes(tmp_path, monkeypatch, "mc", 12)

    def test_overlap_passes_with_an_enum_rung(self, tmp_path, monkeypatch):
        # auto makes N = 8 an enum rung at d=1 (2^8 <= 4096 paths) and N = 16
        # an mc one, so the descent gives rung 8 its <H> as well, and the pass
        # its log Z(beta +/- h)
        self._overlap_passes(tmp_path, monkeypatch, "auto", 16)

    def _overlap_passes(self, tmp_path, monkeypatch, mode, top):
        def table_key(env, prof):
            return env.params.N, float(prof.values[0]), env.seed

        def pass_key(envs, profs, direction, dtype, keep, *_):
            return (direction, keep, envs[0].params.N, tuple(env.seed for env in envs),
                    tuple(float(p.values[0]) for p in profs))

        fwd = self._count(monkeypatch, "forward_layers", table_key)
        bwd = self._count(monkeypatch, "backward_layers", table_key)
        reduced = self._count(monkeypatch, "marginal_sums",
                              lambda table, ns: table_key(table.env, table.profile) + (tuple(ns),))
        passes = self._count(monkeypatch, "_transfer", pass_key)
        ladders = self._count(monkeypatch, "log_partition_ladder", lambda *_: "called")
        rolled = self._count(monkeypatch, "log_partitions", lambda env, *_: env.seed)
        # enumeration is the oracle of verify and the tests, never of a command
        enumerated = [self._count(monkeypatch, name, lambda *_: "called")
                      for name in ("brute_force_log_partition", "gibbs_enumeration")]
        ns, betas, h, seed = (8, top, 8), (1.0, 0.0, 2.0), 1e-3, 4
        cmd_overlap(_cfg(
            command="overlap", seed=seed, d=1, n_values=ns, beta_values=betas,
            n_disorder=3, n_pairs=5, h=h, mode=mode, out=str(tmp_path),
        ))
        seeds = [derive_seed(seed, r) for r in range(3)]
        # a beta = 0 pass reads no field: environment 0's stands for all
        used = {b: seeds if b > 0 else seeds[:1] for b in betas}
        # one forward pass per (beta, environment used), at the largest N,
        # keeping the table at beta; at beta > 0, beta +/- h ride along it, so
        # the whole ladder's log Z comes from the same pass
        forward = {k[1:]: c for k, c in passes.items() if k[0] == "forward"}
        assert forward == {(1, top, (s,), (b, b + h, b - h) if b > 0 else (b,)): 1
                           for b in betas for s in used[b]}
        # one reverse-chain descent per (beta, environment used), down the
        # table at the largest N, for the whole ladder and an enum rung's
        # <H>; a repeated N is not run again
        assert reduced == {(top, b, s, (8, top)): 1 for b in betas for s in used[b]}
        # and those are all the passes: the chain runs none, and no mode runs
        # a backward pass
        assert sum(passes.values()) == sum(forward.values())
        assert not any(k[0] == "backward" for k in passes)
        assert not fwd and not bwd and not ladders and not rolled
        assert not any(enumerated)
        with (tmp_path / "overlap.csv").open() as fh:
            rows = [(int(r["N"]), float(r["beta"])) for r in csv.DictReader(fh)]
        assert rows == [(n, b) for n in ns for b in betas]

    def test_free_energy_passes(self, tmp_path, monkeypatch):
        def key(envs, profs, *_):
            return (envs[0].params.N, tuple(env.seed for env in envs),
                    tuple(float(p.values[0]) for p in profs))

        passes = self._count(monkeypatch, "_transfer", key)
        rolled = self._count(monkeypatch, "log_partitions", lambda *args: args)
        # batches of two environments: three betas x 17 sites of layer 16 each
        monkeypatch.setattr(importlib.import_module("polymerlab.transfer"), "BATCH_CELLS",
                            2 * 3 * 17)
        ns, betas, seed = (16, 8, 16), (0.0, 0.5, 2.0), 5
        cmd_free_energy(_cfg(
            command="free-energy", seed=seed, d=1, n_values=ns, beta_values=betas,
            n_disorder=3, tail_u=(0.1,), out=str(tmp_path),
        ))
        seeds = tuple(derive_seed(seed, r) for r in range(3))
        # one pass per batch, to the largest N, serves every N and beta
        assert passes == {(16, seeds[:2], betas): 1, (16, seeds[2:], betas): 1}
        assert not rolled  # no pass per (N, environment) is left

    def test_multi_temp_passes(self, tmp_path, monkeypatch):
        passes = self._count(monkeypatch, "_transfer",
                             lambda envs, profs, *_: (envs[0].params.N, len(envs), len(profs)))
        rolled = self._count(monkeypatch, "log_partitions", lambda env, *_: env.seed)
        cmd_free_energy(_cfg(
            command="free-energy", seed=9, d=1, n_values=(25, 36), L=2,
            block_betas=(0.5, 1.5), n_disorder=4, out=str(tmp_path),
        ))
        # per rung, one batch fits every replica: one pass over the four
        # concatenations and one per block (sizes 12, 13 and 18, 18), L + 1 in all
        assert passes == {(25, 4, 1): 1, (12, 4, 1): 1, (13, 4, 1): 1,
                          (36, 4, 1): 1, (18, 4, 1): 2}
        assert not rolled


class TestLocalizeCommand:
    def test_outputs_parse_and_round_trip(self, tmp_path):
        from polymerlab.localization import decode_path

        cfg = _cfg(
            command="localize", seed=5, d=1, n_values=(96,),
            beta_values=(0.0, 2.0), delta=0.25, epsilon=0.1,
            n_samples=60, L=3, ds_levels=2, out=str(tmp_path),
        )
        cmd_localize(cfg)
        records = [
            json.loads(line)
            for line in (tmp_path / "localize.jsonl").read_text().splitlines()
        ]
        assert len(records) == 8  # (3 greedy modes + 1 coverage) x 2 betas
        for rec in records:
            for enc in rec["paths"]:
                path = decode_path(enc, 1)
                assert path.shape == (97, 1)
        with (tmp_path / "windows.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["beta", "N", "epsilon", "delta", "sample", "min_window_overlap"]
        ds = json.loads((tmp_path / "distinguished.json").read_text())
        assert all(r["n_paths"] >= r["n_seed_paths"] for r in ds)

    def test_one_count_tensor_and_environment_per_run(self, tmp_path, monkeypatch):
        import polymerlab.cli as cli_mod
        import polymerlab.localization as loc_mod

        calls = collections.Counter()
        for mod, name in ((loc_mod, "pairwise_counts"), (cli_mod, "pairwise_counts"),
                          (cli_mod, "gaussian_env")):
            def counted(*args, _orig=getattr(mod, name), _name=name, **kw):
                calls[_name] += 1
                return _orig(*args, **kw)
            monkeypatch.setattr(mod, name, counted)
        cmd_localize(_cfg(
            command="localize", seed=5, d=1, n_values=(48,), beta_values=(0.0, 1.0, 2.0),
            delta=0.25, epsilon=0.1, n_samples=30, L=3, out=str(tmp_path),
        ))
        assert calls == {"pairwise_counts": 3, "gaussian_env": 1}

    def test_localize_d1_peak_memory_bound(self, tmp_path):
        # the README localize config: 20.5 MiB with a float64 copy of the counts
        # under the cover, site keys built through int64 temporaries, and beta
        # = 0's table, samples, reports and seeds alive while beta = 2 ran
        argv = ["localize", "--d", "1", "--n", "512", "--beta-grid", "0,2", "--delta", "0.2",
                "--eps", "0.1", "--n-samples", "500", "--blocks", "4", "--seed", "7",
                "--threads", "1", "--out", str(tmp_path)]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20

    @pytest.mark.parametrize("n, delta, reason", [
        (48, 0.25, "N // levels = 24 < K"),
        (96, 1.5, "the global cover found no paths"),
        # the induction would build 2076 paths at beta = 0 and 57 at beta = 2
        (96, 0.25, "distinguished set exceeded 20 paths at level 2"),
    ])
    def test_every_beta_has_a_distinguished_record(self, tmp_path, monkeypatch, n, delta,
                                                   reason):
        monkeypatch.setattr("polymerlab.cli.DS_MAX_PATHS", 20)
        cmd_localize(_cfg(
            command="localize", seed=5, d=1, n_values=(n,), beta_values=(0.0, 2.0),
            delta=delta, epsilon=0.1, n_samples=30, L=3, out=str(tmp_path),
        ))
        ds = json.loads((tmp_path / "distinguished.json").read_text())
        assert [r["beta"] for r in ds] == [0.0, 2.0]
        for r in ds:
            assert set(r) == {"beta", "levels", "K", "n_seed_paths", "skipped"}
            assert r["levels"] == 2 and r["skipped"] == reason
            assert (r["n_seed_paths"] > 0) == (reason != "the global cover found no paths")


class TestRunRecord:
    @pytest.mark.parametrize("command, settings, ns, betas", [
        (cmd_free_energy, dict(n_disorder=2), [64, 256, 1024], [0.5, 1.0, 2.0, 3.0]),
        (cmd_overlap, dict(n_values=(8,), n_disorder=2, n_pairs=2), [8], [0.0, 0.5, 1.0, 2.0]),
        (cmd_localize, dict(n_values=(48,), delta=0.25, n_samples=10, L=3), [48], [0.0, 2.0]),
    ])
    def test_resolved_grids_recorded(self, tmp_path, command, settings, ns, betas):
        name = command.__name__[len("cmd_"):].replace("_", "-")
        command(_cfg(command=name, out=str(tmp_path), **settings))
        rec = json.loads((tmp_path / "run_record.json").read_text())
        assert rec["config"]["beta_values"] == []  # the defaults were used
        assert rec["metrics"]["n_values"] == ns and rec["metrics"]["beta_values"] == betas

    def test_platform_recorded(self, tmp_path):
        # the versions and numpy's SIMD targets that the metric files' last
        # bits depend on go to run_record.json, the one file that may vary
        cmd_free_energy(_cfg(command="free-energy", out=str(tmp_path), n_values=(8,),
                             beta_values=(1.0,), n_disorder=2))
        plat = json.loads((tmp_path / "run_record.json").read_text())["platform"]
        assert set(plat) == {"python", "numpy", "scipy", "float64_targets"}
        assert plat["python"] == platform.python_version()
        assert plat["numpy"] == np.__version__
        assert set(plat["float64_targets"]) == {"exp", "log", "log1p"}
        assert all(isinstance(t, str) and t for t in plat["float64_targets"].values())


class TestPlotdata:
    def test_missing_inputs_fail_validation(self, tmp_path):
        cfg = _cfg(command="plotdata", inputs=str(tmp_path / "nope"), out=str(tmp_path))
        with pytest.raises(ValidationError):
            cmd_plotdata(cfg)

    def test_series_from_run(self, tmp_path):
        fe_cfg = _cfg(
            command="free-energy", seed=3, d=1, n_values=(16, 32),
            beta_values=(0.5, 1.0), n_disorder=6, out=str(tmp_path / "run"),
        )
        cmd_free_energy(fe_cfg)
        pd_cfg = _cfg(
            command="plotdata", inputs=str(tmp_path / "run"), out=str(tmp_path / "series"),
        )
        rec = cmd_plotdata(pd_cfg)
        files = sorted(p.name for p in (tmp_path / "series").glob("series_*.csv"))
        assert files == [
            "series_free_energy_d1_N16.csv",
            "series_free_energy_d1_N32.csv",
        ]
        assert rec.metrics["series"] == files


# argv, and the config file it reads as (name, text) or None
MALFORMED = {
    "ini_unknown_key": (["free-energy"], ("run.ini", "[run]\nbogus = 1\n")),
    "ini_seed_not_int": (["free-energy"], ("run.ini", "[run]\nseed = five\n")),
    "ini_no_section": (["free-energy"], ("run.ini", "seed = 5\n")),
    "ini_overlap_mode": (["overlap"], ("run.ini", "[overlap]\nmode = bogus\n")),
    "json_syntax": (["free-energy"], ("run.json", '{"run": {"seed": 5,}}')),
    "json_run_not_object": (["free-energy"], ("run.json", '{"run": 5}')),
    "json_top_level_list": (["free-energy"], ("run.json", "[1, 2]")),
    "json_command_not_object": (["free-energy"], ("run.json", '{"free-energy": [1]}')),
    "n_grid_token": (["free-energy", "--n-grid", "16,x"], None),
    "n_grid_fraction": (["free-energy", "--n-grid", "16.5"], None),
    "localize_two_n": (["localize", "--n", "64,128"], None),
    "overlap_no_pairs": (["overlap", "--n-pairs", "0"], None),
    "localize_no_samples": (["localize", "--n", "64", "--n-samples", "0"], None),
    "localize_no_blocks": (["localize", "--n", "64", "--blocks", "0"], None),
    # a non-finite float is refused where it is read, not by a traceback later
    "overlap_h_nan": (["overlap", "--h", "nan"], None),
    "free_energy_beta_inf": (["free-energy", "--beta-grid", "inf"], None),
    "localize_beta_nan": (["localize", "--beta-grid", "nan"], None),
    "tail_u_nan": (["free-energy", "--tail-u", "nan"], None),
    "json_h_nan": (["overlap"], ("run.json", '{"overlap": {"h": NaN}}')),
    # the multi-temperature ladder writes no concentration tails
    "block_betas_with_tail_u": (["free-energy", "--d", "1", "--n-grid", "16", "--blocks", "2",
                                 "--block-betas", "0.5,1.5", "--tail-u", "0.1"], None),
}


class TestMainEntry:
    def test_validation_exit_code(self, capsys):
        assert main(["free-energy", "--n-disorder", "0"]) == 1
        assert "n_disorder" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_setting_one_line_exit_one(self, name, tmp_path, capsys):
        argv, config = MALFORMED[name]
        argv = argv + ["--out", str(tmp_path / "out")]
        if config is not None:
            path = tmp_path / config[0]
            path.write_text(config[1])
            argv += ["--config", str(path)]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("polymerlab:")
        assert not (tmp_path / "out").exists()  # refused before any work

    @pytest.mark.parametrize("argv, config", [
        (["free-energy", "--n-grid", "10000000000", "--beta-grid", "1", "--n-disorder", "4"],
         None),
        (["free-energy", "--n-grid", "100000000000000000000"], None),
        (["overlap", "--n-grid", "100000000000000000000"], None),
        (["localize", "--n", "100000000000000000000"], None),
        (["free-energy"], ("run.json", '{"free-energy": {"n_values": [64, 1e30]}}')),
    ], ids=["free_energy_1e10", "free_energy_1e20", "overlap_1e20", "localize_1e20",
            "json_1e30"])
    def test_huge_n_refused_before_anything_n_long(self, argv, config, tmp_path, capsys,
                                                   monkeypatch):
        # layer N alone holds at least N + 1 cells, so such an N is refused
        # where it is read; a refusal that came later would first build an
        # N-long profile, which raises here instead of allocating
        def built(*args, **kw):
            raise AssertionError("an N-long profile was built")

        monkeypatch.setattr(importlib.import_module("polymerlab.transfer").BetaProfile,
                            "constant", built)
        argv = argv + ["--out", str(tmp_path / "out")]
        if config is not None:
            path = tmp_path / config[0]
            path.write_text(config[1])
            argv += ["--config", str(path)]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("polymerlab: d=1, N=1")
        assert "layer N alone holds at least" in err[0]
        assert not (tmp_path / "out").exists()

    def test_memory_guard_exit_code(self, tmp_path, capsys):
        # free-energy holds three layer buffers per profile, plus working
        # cells per site: 8001^2 * (3 + 3 + 3) cells is over the cap, while
        # layer N alone (64M cells) is not; overlap and localize keep whole
        # tables: the d=2, N=1024 cone is 359.5M cells
        earlier = tmp_path / "localize" / "localize.jsonl"
        earlier.parent.mkdir()
        earlier.write_text('{"earlier": "run"}\n')
        for n, argv in (
            (8000, ["free-energy", "--n-grid", "8000", "--beta-grid", "1", "--n-disorder", "2"]),
            (1024, ["overlap", "--n-grid", "1024", "--beta-grid", "1", "--n-disorder", "2"]),
            (1024, ["localize", "--n", "1024"]),
        ):
            assert main(argv + ["--d", "2", "--out", str(tmp_path / argv[0])]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1
            assert err[0].startswith(f"polymerlab: d=2, N={n}:")
        assert earlier.read_text() == '{"earlier": "run"}\n'  # refused before truncation

    @pytest.mark.parametrize("n_samples, refused", [(20_000, True), (3536, True), (3535, False)])
    def test_localize_refuses_too_many_samples_before_sampling(self, tmp_path, capsys,
                                                               monkeypatch, n_samples, refused):
        # the int32 counts and the bool cover relation hold 2 * n_samples^2 *
        # blocks cells: at 4 blocks the 1e8-cell budget admits 3535 samples
        class Sampled(Exception):
            pass

        def sample_paths(*args, **kw):
            raise Sampled

        monkeypatch.setattr("polymerlab.cli.sample_paths", sample_paths)
        argv = ["localize", "--d", "1", "--n", "512", "--n-samples", str(n_samples),
                "--blocks", "4", "--out", str(tmp_path)]
        if not refused:
            with pytest.raises(Sampled):
                main(argv)
            return
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"polymerlab: localize: {n_samples} samples over 4 blocks")
        assert not (tmp_path / "localize.jsonl").exists()

    def test_overlap_refuses_a_too_large_n_before_any_work(self, tmp_path, capsys,
                                                          monkeypatch):
        # the kept table at the largest N of the ladder comes first, so N = 659
        # is refused before any N = 16 row is computed
        transfer = importlib.import_module("polymerlab.transfer")
        done = []

        def counted(*args, _orig=transfer._transfer, **kw):
            out = _orig(*args, **kw)
            done.append(args[0][0].params.N)
            return out

        monkeypatch.setattr(transfer, "_transfer", counted)
        argv = ["overlap", "--d", "2", "--n-grid", "16,659", "--out", str(tmp_path)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("polymerlab: d=2, N=659: a kept layer table")
        assert done == []

    def test_bad_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["free-energy", "--no-such-flag"])
        assert exc.value.code == 1

    def test_small_run_exit_zero(self, tmp_path, capsys):
        code = main([
            "free-energy", "--seed", "2", "--d", "1", "--n-grid", "8",
            "--beta-grid", "1.0", "--n-disorder", "4", "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "free_energy.csv").exists()
        assert (tmp_path / "run_record.json").exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(lang: str) -> str:
    """The first fenced ``lang`` block of the README's CLI section."""
    cli = README.read_text().split("\n## CLI\n", 1)[1]
    return cli.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


class TestReadmeExamples:
    """The README's commands and config file parse with today's flags."""

    def test_commands_parse(self):
        lines = _readme_block("sh").replace("\\\n", " ").splitlines()
        commands = [shlex.split(line, comments=True)[1:] for line in lines
                    if line.startswith("polymerlab ")]
        assert len(commands) == 6
        for argv in commands:
            config_from_args(build_parser().parse_args(argv))

    def test_ini_parses(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(_readme_block("ini"))
        cfg = config_from_args(build_parser().parse_args(["free-energy", "--config", str(ini)]))
        assert cfg.seed == 7 and cfg.n_values == (64, 256, 1024)


def test_platform_records_scipy_once_verify_loads_it():
    # run_record.json names scipy's version where it is loaded, as in a
    # verify run, whose suites import its chi-square, and null elsewhere
    src = str(Path(polymerlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import json, polymerlab.cli as cli\n"
            "before = cli._platform()['scipy']\n"
            "import polymerlab.verify, scipy\n"
            "print(json.dumps([before, cli._platform()['scipy'], scipy.__version__]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    before, after, version = json.loads(out.stdout)
    assert before is None and after == version


def test_cli_import_leaves_scipy_stats_unloaded(tmp_path):
    # only the verify command uses scipy (its chi-square); importing the CLI
    # and running free-energy, overlap and localize must not load any of it
    src = str(Path(polymerlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    runs = [["free-energy", "--d", "1", "--n-grid", "8", "--beta-grid", "1", "--n-disorder", "2"],
            ["overlap", "--d", "1", "--n-grid", "8", "--beta-grid", "0,1", "--n-disorder", "2",
             "--n-pairs", "5"],
            ["localize", "--d", "1", "--n", "16", "--beta-grid", "2", "--n-samples", "20",
             "--blocks", "2"]]
    code = ("import json, sys, polymerlab.cli\n"
            f"for k, argv in enumerate({runs!r}):\n"
            f"    assert polymerlab.cli.main(argv + ['--out', {str(tmp_path)!r} + f'/{{k}}']) == 0\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == []
    for k in range(len(runs)):
        assert json.loads((tmp_path / str(k) / "run_record.json").read_text())["platform"][
            "scipy"] is None


def test_free_energy_loads_no_openssl(tmp_path):
    # free-energy takes its config digest from the builtin SHA-256 and reads
    # no config file, so neither OpenSSL (hashlib, _hashlib) nor configparser
    # is loaded; the digest is hashlib's
    src = str(Path(polymerlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = ["free-energy", "--d", "3", "--n-grid", "4", "--beta-grid", "1", "--n-disorder", "2",
            "--out", str(tmp_path)]
    code = ("import json, sys, polymerlab.cli as cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            "print(json.dumps(sorted(m for m in ('hashlib', '_hashlib', 'configparser')"
            " if m in sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == []
    import hashlib

    record = json.loads((tmp_path / "run_record.json").read_text())
    cfg = ExperimentConfig.from_dict(record["config"])
    want = hashlib.sha256(json.dumps(cfg.to_dict(), sort_keys=True).encode()).hexdigest()
    assert config_content_hash(cfg) == record["content_hash"] == want
