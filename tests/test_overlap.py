import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymerlab.free_energy import estimate_derivative
from polymerlab.lattice import (LatticeParams, MemoryGuardError, as_path, derive_seed,
                                gaussian_env, make_partition)
from polymerlab.overlap import (
    block_overlap,
    exact_two_replica_overlap,
    ibp_residual,
    mean_replica_overlap,
    overlap,
    restricted_overlap,
    sweep_overlaps,
)
from polymerlab.transfer import (BetaProfile, _check_guard, _geometry, backward_layers,
                                 brute_force_log_partition, forward_layers,
                                 forward_layers_and_ladder, gibbs_enumeration,
                                 layer_log_marginals, logsumexp, marginal_sums)


def enumerated_two_replica_overlap(env, profile: BetaProfile) -> float:
    """<R> by the full double sum over enumerated paths (the oracle of the
    exact overlap)."""
    paths, probs = gibbs_enumeration(env, profile)
    n = profile.N
    eq = np.all(paths[:, None, 1:, :] == paths[None, :, 1:, :], axis=3)
    r = eq.sum(axis=2) / n
    return float(probs @ r @ probs)


class TestOverlapFunction:
    def test_identical(self):
        a = as_path([0, 1, 2, 1])
        assert overlap(a, a) == 1.0

    def test_disjoint_after_origin(self):
        assert overlap(as_path([0, 1, 2]), as_path([0, -1, 0])) == 0.0

    def test_hand_count(self):
        a = as_path([0, 1, 0, 1, 0])
        b = as_path([0, -1, 0, 1, 2])
        assert overlap(a, b) == 2 / 4

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            overlap(as_path([0, 1]), as_path([0, 1, 2]))

    def test_symmetry_and_range(self, rw):
        rng = np.random.default_rng(7)
        paths = rw(rng, 20, 30)
        for i in range(0, 20, 2):
            a, b = paths[i], paths[i + 1]
            assert overlap(a, b) == overlap(b, a)
            assert 0.0 <= overlap(a, b) <= 1.0


class TestRestrictedOverlap:
    def test_full_window_equals_overlap(self, rw):
        rng = np.random.default_rng(1)
        a, b = rw(rng, 2, 25)
        assert restricted_overlap(a, b, 1, 25) == overlap(a, b)

    def test_identical_any_window(self, rw):
        a = rw(np.random.default_rng(2), 1, 30)[0]
        assert restricted_overlap(a, a, 7, 19) == 1.0

    def test_bad_bounds(self, rw):
        a, b = rw(np.random.default_rng(3), 2, 10)
        for lo, hi in ((0, 5), (3, 2), (5, 11)):
            with pytest.raises(ValueError):
                restricted_overlap(a, b, lo, hi)

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 10_000), st.integers(2, 60), st.integers(1, 12))
    def test_weighted_aggregation_identity(self, seed, n, L):
        if L > n:
            return
        rng = np.random.default_rng(seed)
        steps = rng.choice((-1, 1), size=(2, n))
        a = np.concatenate([[0], np.cumsum(steps[0])])[:, None]
        b = np.concatenate([[0], np.cumsum(steps[1])])[:, None]
        p = make_partition(n, L)
        total = sum(
            (p.boundaries[l] - p.boundaries[l - 1]) * block_overlap(a, b, p, l)
            for l in range(1, L + 1)
        )
        assert abs(total - n * overlap(a, b)) < 1e-9


class TestBlockOverlap:
    def test_single_block_equals_overlap(self, rw):
        a, b = rw(np.random.default_rng(4), 2, 16)
        p = make_partition(16, 1)
        assert block_overlap(a, b, p, 1) == overlap(a, b)

    def test_identical_every_block(self, rw):
        a = rw(np.random.default_rng(5), 1, 20)[0]
        p = make_partition(20, 5)
        assert all(block_overlap(a, a, p, l) == 1.0 for l in range(1, 6))

    def test_matches_explicit_window(self, rw):
        a, b = rw(np.random.default_rng(6), 2, 10)
        p = make_partition(10, 3)
        for l in range(1, 4):
            lo, hi = p.block_window(l)
            assert block_overlap(a, b, p, l) == restricted_overlap(a, b, lo, hi)


class TestExactTwoReplica:
    def test_binomial_hand_value(self):
        env = gaussian_env(1, LatticeParams(d=1, N=2))
        v = exact_two_replica_overlap(env, BetaProfile.constant(0.0, 2))
        assert abs(v - 7 / 16) < 1e-12

    @pytest.mark.parametrize("d,n,beta", [(1, 5, 1.7), (1, 6, 0.6), (2, 4, 1.0)])
    def test_matches_enumeration(self, d, n, beta):
        env = gaussian_env(n * 10 + d, LatticeParams(d=d, N=n))
        prof = BetaProfile.constant(beta, n)
        assert (
            abs(
                exact_two_replica_overlap(env, prof)
                - enumerated_two_replica_overlap(env, prof)
            )
            < 1e-10
        )

    @pytest.mark.parametrize("d,n", [(1, 12), (2, 8), (3, 6), (4, 5)])
    def test_reduction_matches_table_pair(self, d, n):
        params, seed = LatticeParams(d=d, N=n), 13
        env = gaussian_env(derive_seed(seed, 0), params)
        betas = (0.0, 0.5, 0.7, 2.0, 10.0, 50.0)
        profs = [BetaProfile.constant(b, n) for b in betas]
        profs.append(BetaProfile.from_blocks(make_partition(n, 3), [1.3, 0.0, 0.7]))
        energies = []
        for prof in profs:
            # reference: kept forward and backward tables, terms summed in i order
            fwd, bwd = forward_layers(env, prof), backward_layers(env, prof)
            squares = energy = 0.0
            for i in range(1, n + 1):
                lm = layer_log_marginals(fwd, bwd, i)
                squares += float(np.exp(logsumexp(2.0 * lm)))
                if prof.values[i - 1] != 0.0:
                    energy += float(np.exp(lm) @ env.values(i, fwd.layer_coords(i)))
            # the reverse chain does not follow the table pair's arithmetic
            assert marginal_sums(fwd)[0] == pytest.approx(squares, rel=1e-12, abs=0)
            assert exact_two_replica_overlap(env, prof) == pytest.approx(squares / n, rel=1e-12,
                                                                         abs=0)
            # <H> from the same descent, over the layers with beta_i != 0
            sums, got = marginal_sums(fwd, energy=[n])
            assert sums.tobytes() == marginal_sums(fwd).tobytes()
            assert got[0] == pytest.approx(energy, rel=1e-12, abs=0)
            energies.append(energy)
        for beta, energy in zip(betas[1:], energies[1:]):
            # the enum-mode right-hand side is <H>/N, against the same table pair
            est = ibp_residual(beta, 1e-3, params, 1, seed, mode="enum")
            assert est.overlap_term == pytest.approx(energy / n, rel=1e-12, abs=0)

    @pytest.mark.parametrize("d, N", [(1, 1024), (2, 128), (3, 24)])
    def test_chain_matches_table_pair_at_large_beta(self, d, N):
        # every rung of a ladder against the kept forward x backward tables of
        # the rung's own N; the pair adds layers of size 1e4 to 5e4 at beta 50,
        # d=1, N=1024, and its float64 sum alone is then off by about 7e-13
        # relative (against longdouble tables), so the agreement is relative
        env = gaussian_env(derive_seed(21, d), LatticeParams(d=d, N=N))
        for beta in (0.0, 10.0, 50.0):
            fwd = forward_layers(env, BetaProfile.constant(beta, N))
            ns = (N, N // 2)
            got = marginal_sums(fwd, ns)
            for k, n in enumerate(ns):
                part = fwd.prefix(n)
                bwd = backward_layers(part.env, part.profile)
                squares = sum(float(np.exp(logsumexp(2.0 * layer_log_marginals(part, bwd, i))))
                              for i in range(1, n + 1))
                assert got[k] == pytest.approx(squares, rel=1e-12, abs=0)

    def test_monte_carlo_consistency(self):
        env = gaussian_env(5, LatticeParams(d=1, N=64))
        prof = BetaProfile.constant(1.0, 64)
        est = mean_replica_overlap(env, prof, 400, np.random.default_rng(8))
        exact = exact_two_replica_overlap(env, prof)
        assert abs(est.mean - exact) < 3 * est.stderr + 1e-3

    def test_temperature_contrast_across_n(self):
        # low temperature holds the overlap up; the free walk decays ~ N^{-1/2}
        vals = {}
        for beta in (0.0, 2.0):
            for n in (64, 256):
                env = gaussian_env(6, LatticeParams(d=1, N=n))
                vals[(beta, n)] = exact_two_replica_overlap(
                    env, BetaProfile.constant(beta, n)
                )
        assert vals[(2.0, 64)] > 0.3 and vals[(2.0, 256)] > 0.3
        assert vals[(0.0, 256)] < vals[(0.0, 64)] / 1.5


class TestMeanReplicaOverlap:
    def test_high_temperature_decay(self):
        env = gaussian_env(2, LatticeParams(d=1, N=400))
        est = mean_replica_overlap(
            env, BetaProfile.constant(0.0, 400), 200, np.random.default_rng(3)
        )
        assert est.mean < 0.1

    def test_forced_duplicates(self):
        env = gaussian_env(2, LatticeParams(d=1, N=16))
        prof = BetaProfile.constant(0.5, 16)

        def duplicating_sampler(table, n, rng):
            from polymerlab.transfer import sample_paths

            half = sample_paths(table, n // 2, rng)
            return np.repeat(half, 2, axis=0)

        est = mean_replica_overlap(
            env, prof, 4, np.random.default_rng(0), sampler=duplicating_sampler
        )
        assert est.mean == 1.0


class TestIbpResidual:
    def test_enumeration_mode(self):
        est = ibp_residual(
            0.9, 1e-4, LatticeParams(d=1, N=6), n_disorder=5, master_seed=77, mode="enum"
        )
        assert est.residual < 1e-6

    def test_monte_carlo_mode(self):
        est = ibp_residual(
            0.8, 1e-3, LatticeParams(d=1, N=32), n_disorder=60, master_seed=4, mode="mc"
        )
        assert est.residual < 5e-3 + 3 * est.stderr

    def test_small_beta_limit(self):
        # both sides vanish with beta, up to the Monte Carlo noise floor
        est = ibp_residual(
            0.01, 1e-3, LatticeParams(d=1, N=16), n_disorder=200, master_seed=9, mode="mc"
        )
        assert abs(est.derivative) < 3 * est.stderr + 0.01
        assert 0.0 <= est.overlap_term <= 0.01

    def test_preconditions(self):
        params = LatticeParams(d=1, N=8)
        with pytest.raises(ValueError):
            ibp_residual(0.5, -1e-3, params, 2, 0)
        with pytest.raises(ValueError):
            ibp_residual(0.0005, 1e-3, params, 2, 0)
        with pytest.raises(ValueError):
            ibp_residual(1.0, 1e-3, params, 2, 0, mode="exact")

    @pytest.mark.parametrize("d, ns", [(1, (12, 5, 8)), (2, (6, 3)), (3, (4, 2)), (4, (4, 1))])
    @pytest.mark.parametrize("beta", [0.5, 2.0, 50.0])
    def test_enum_log_z_matches_enumeration(self, d, ns, beta):
        # an enum rung's log Z(beta +/- h) rides along the kept pass; path
        # enumeration of the rung's own prefix environment is its oracle
        params, h, seed, n_env = LatticeParams(d=d, N=max(ns)), 1e-3, 23, 2
        profs = [BetaProfile.constant(b, params.N) for b in (beta, beta + h, beta - h)]
        for r in range(n_env):
            env = gaussian_env(derive_seed(seed, r), params)
            fwd, rolled = forward_layers_and_ladder(env, profs, ns)
            for n, got in zip(ns, rolled):
                part = fwd.prefix(n).env
                want = [brute_force_log_partition(part, BetaProfile.constant(b, n))
                        for b in (beta + h, beta - h)]
                assert got.tolist() == pytest.approx(want, rel=1e-13, abs=0)
        # and the identity's derivative is their enumerated finite difference
        n = params.N
        diffs = [(brute_force_log_partition(env, BetaProfile.constant(beta + h, n))
                  - brute_force_log_partition(env, BetaProfile.constant(beta - h, n))) / (2 * h * n)
                 for env in (gaussian_env(derive_seed(seed, r), params) for r in range(n_env))]
        est = ibp_residual(beta, h, params, n_env, seed, mode="enum")
        assert est.derivative == pytest.approx(float(np.mean(diffs)), rel=0, abs=1e-10)

    @pytest.mark.parametrize("mode", ["mc", "enum"])
    def test_refuses_an_empty_disorder_sample(self, mode):
        with pytest.raises(ValueError, match="n_disorder >= 1"):
            ibp_residual(0.5, 1e-3, LatticeParams(d=1, N=6), 0, 0, mode=mode)


class TestSweepOverlaps:
    @pytest.mark.parametrize("mode,d,n,n_disorder", [("enum", 1, 8, 5), ("mc", 1, 16, 60),
                                                    ("mc", 2, 6, 3)])
    @pytest.mark.parametrize("beta", [0.0, 0.7])
    def test_matches_separate_estimators(self, mode, d, n, n_disorder, beta):
        params, seed, h, n_pairs = LatticeParams(d=d, N=n), 31, 1e-3, 40
        prof = BetaProfile.constant(beta, n)
        (sw,) = sweep_overlaps(beta, h, params, n_disorder, seed, n_pairs, mode)
        assert (sw.beta, sw.N, sw.mode) == (beta, n, mode)
        replica = mean_replica_overlap(
            gaussian_env(derive_seed(seed, 0), params), prof, n_pairs,
            np.random.default_rng(derive_seed(seed, 1)),
        )
        exact = [exact_two_replica_overlap(gaussian_env(derive_seed(seed, r), params), prof)
                 for r in range(n_disorder)]
        assert sw.replica == replica
        if beta == 0.0:
            # no field is read, so every environment gives environment 0's value
            assert exact == exact[:1] * n_disorder and sw.exact == exact[0]
            assert sw.ibp is None
        else:
            assert sw.exact == float(np.mean(exact))
            assert sw.ibp == ibp_residual(beta, h, params, n_disorder, seed, mode=mode)
            assert sw.ibp.derivative == estimate_derivative(beta, h, params, n_disorder, seed)

    @pytest.mark.parametrize("d, ns, mode", [(1, (14, 5, 14, 7), "auto"), (2, (7, 3, 5), "auto"),
                                             (3, (4, 6, 4), "auto"), (2, (7, 4), "mc")])
    def test_ladder_matches_one_row_at_a_time(self, d, ns, mode):
        # an unsorted ladder with a repeat and a beta = 0 between betas > 0,
        # read off one table per (beta, environment) at the largest N, gives
        # every row of a sweep at that row's N and beta alone
        seed, h, betas = 17, 1e-3, (2.0, 0.0, 0.5)
        sweeps = sweep_overlaps(betas, h, LatticeParams(d=d, N=max(ns)), 3, seed, 20, mode, ns)
        assert [(sw.N, sw.beta) for sw in sweeps] == [(n, b) for n in ns for b in betas]
        for sw in sweeps:
            (alone,) = sweep_overlaps(sw.beta, h, LatticeParams(d=d, N=sw.N), 3, seed, 20,
                                      "enum" if (2 * d) ** sw.N <= 4096 and mode == "auto"
                                      else "mc")
            assert sw == alone

    @pytest.mark.parametrize("d, N", [(2, 656), (3, 140)])
    def test_refuses_a_too_large_n_before_any_pass(self, d, N, monkeypatch):
        # N fits a plain kept table (beta = 0) but not one with beta +/- h
        # riding along; the betas > 0 run first, so no pass runs at all
        transfer = importlib.import_module("polymerlab.transfer")
        done = []

        def counted(*args, _orig=transfer._transfer, **kw):
            out = _orig(*args, **kw)
            done.append(args[0][0].params.N)
            return out

        monkeypatch.setattr(transfer, "_transfer", counted)
        with pytest.raises(MemoryGuardError, match=f"d={d}, N={N}: a kept layer table with 2"):
            sweep_overlaps((0.0, 1.0), 1e-3, LatticeParams(d=d, N=N), 2, 0, 5, ns=(8, N))
        assert done == []

    def test_preconditions(self):
        params = LatticeParams(d=1, N=8)
        with pytest.raises(ValueError):
            sweep_overlaps(0.0005, 1e-3, params, 2, 0, 5)
        with pytest.raises(ValueError):
            sweep_overlaps(1.0, 1e-3, params, 2, 0, 5, mode="exact")

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_refuses_an_empty_disorder_sample(self, beta):
        with pytest.raises(ValueError, match="n_disorder >= 1"):
            sweep_overlaps(beta, 1e-3, LatticeParams(d=1, N=8), 0, 0, 5)


@pytest.mark.parametrize("d, N", [(1, 2000), (2, 200)])
@pytest.mark.parametrize("estimate", ["sweep", "exact", "ibp"])
def test_overlap_holds_one_forward_table(d, N, estimate):
    # the exact <R> walks down the kept forward table and runs no pass, so
    # an estimate holds one kept forward table at a time and peaks near what
    # that table is charged
    params, seed = LatticeParams(d=d, N=N), 3
    env = gaussian_env(derive_seed(seed, 0), params)
    run = {
        "sweep": lambda: sweep_overlaps(1.0, 1e-3, params, 2, seed, 5, "mc"),
        "exact": lambda: exact_two_replica_overlap(env, BetaProfile.constant(1.0, N)),
        "ibp": lambda: ibp_residual(1.0, 1e-3, params, 1, seed, "mc"),
    }[estimate]
    charged = _check_guard(env, _geometry(d, N), 1, keep=True)
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * charged
