import importlib
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from dataclasses import dataclass, field, replace

import numpy as np
import pytest
from scipy import stats

from polymerlab.free_energy import BlockConcatEnvironment, estimate_free_energies
from polymerlab.lattice import (
    FIELD_BLOCK,
    FIELD_SCRATCH_CELLS,
    Environment,
    LatticeParams,
    MemoryGuardError,
    derive_seed,
    gaussian_env,
    make_partition,
    perturb_env,
    reachable_set,
    reachable_set_size,
    zero_env,
)
from polymerlab.transfer import (
    BetaProfile,
    LayerTable,
    _batch_size,
    _check_guard,
    _DenseGeometry,
    _gather_logsum,
    _geometry,
    _logaddexp,
    _PackedGeometry,
    _transfer,
    backward_layers,
    brute_force_log_partition,
    forward_layers,
    forward_layers_and_ladder,
    gibbs_enumeration,
    layer_log_marginals,
    log_partition,
    log_partition_ladder,
    log_partitions,
    logsumexp,
    marginal_sums,
    markov_split_logz,
    sample_paths,
)


class TestBetaProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            BetaProfile(np.array([0.5, -0.1]))
        with pytest.raises(ValueError):
            BetaProfile(np.array([np.inf, 1.0]))

    def test_constructors(self):
        p = make_partition(10, 2)
        blocks = BetaProfile.from_blocks(p, [0.5, 1.5])
        assert blocks.values.tolist() == [0.5] * 5 + [1.5] * 5
        const = BetaProfile.constant(0.7, 10)
        assert np.array_equal(
            BetaProfile.from_blocks(p, [0.7, 0.7]).values, const.values
        )
        hat = BetaProfile.excluding_block(p, 1, 0.7)
        assert hat.values.tolist() == [0.0] * 5 + [0.7] * 5
        assert BetaProfile.constant(0.0, 4).is_zero
        assert not const.is_zero


def _without_avx512(code: str) -> str:
    """The last word ``code`` prints in a child process whose numpy has its
    AVX-512 targets disabled; the child imports polymerlab and these tests."""
    src = os.path.dirname(os.path.dirname(importlib.import_module("polymerlab").__file__))
    path = os.pathsep.join(filter(None, [src, os.path.dirname(__file__),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR",
               PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.split()[-1]


def _within_ulps(got, want, terms=None, n=2):
    """got equals want where want is infinite and elsewhere lies within n ulp
    of the larger of |want| and |terms|.  A log-space sum near 0 comes from
    terms away from 0, and both forms err by an ulp of those terms."""
    assert got.dtype == want.dtype
    inf = np.isinf(want)
    assert np.array_equal(got[inf], want[inf])
    scale = np.abs(want) if terms is None else np.maximum(np.abs(want), np.abs(terms))
    assert np.all(np.abs(got[~inf] - want[~inf]) <= n * np.spacing(scale[~inf]))


def _edge_pairs(dtype=np.float64):
    """(x, y) covering equal terms, one or both -inf, and gaps past the point
    (745 in float64) where exp(-gap) underflows to 0."""
    gap = 1 - np.log(np.finfo(dtype).smallest_subnormal)
    v = np.array([-1e4, -37.5, -1.0, 0.0, 0.25, 3.0, 700.0, 5e4], dtype=dtype)
    inf = np.full_like(v, -np.inf)
    x = np.concatenate([v, inf, v, inf, v, v, v - gap, v])
    y = np.concatenate([v, v, inf, inf, v - gap, v - 10 * gap, v, v + 0.5])
    return x, y


class TestLogAddExp:
    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_edge_cases_match_numpy(self, dtype):
        x, y = _edge_pairs(dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _logaddexp(x, y)
            want = np.logaddexp(x, y)
        _within_ulps(got, want)
        # blocks of n: a -inf term adds nothing (blocks 1, 2), -inf with -inf
        # is -inf (3), and past the underflow gap the larger term comes back
        # unchanged (4-6)
        n = len(x) // 8
        assert np.all(got[2 * n:4 * n] == np.maximum(x, y)[2 * n:4 * n])
        assert np.all(got[n:2 * n] == y[n:2 * n])
        assert np.all(got[4 * n:7 * n] == np.maximum(x, y)[4 * n:7 * n])

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_random_pairs_match_numpy(self, dtype):
        rng = np.random.default_rng(3)
        x = (rng.standard_normal(20_000) * rng.choice([0.1, 1, 30, 1e3], 20_000)).astype(dtype)
        y = (rng.standard_normal(20_000) * 30 + 2.0).astype(dtype)
        x[::97] = -np.inf
        _within_ulps(_logaddexp(x, y), np.logaddexp(x, y), np.maximum(x, y))

    def test_out_may_be_x(self):
        x, y = _edge_pairs()
        want = _logaddexp(x, y)
        out = x.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _logaddexp(out, y, out=out) is out
        assert out.tobytes() == want.tobytes()

    def test_one_temporary(self):
        # besides its output the kernel holds one array of the output's size,
        # and nothing when it is handed that array as scratch
        x, y = np.random.default_rng(1).standard_normal((2, 1 << 16))
        out, t = np.empty_like(x), np.empty_like(x)
        want = _logaddexp(x, y)
        peaks = []
        for scratch in (None, t):
            tracemalloc.start()
            try:
                _logaddexp(x, y, out=out, t=scratch)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert out.tobytes() == want.tobytes()
        assert x.nbytes <= peaks[0] < 1.1 * x.nbytes
        assert peaks[1] < 0.01 * x.nbytes

    def test_bit_for_bit_on_numpys_scalar_loops(self):
        # with numpy's AVX-512 targets disabled in a child process, its float64
        # exp and log1p round as the libm calls inside np.logaddexp do, and
        # the two forms agree to the bit
        code = (
            "import numpy as np\n"
            "from polymerlab.transfer import _logaddexp\n"
            "rng = np.random.default_rng(5)\n"
            "x = rng.standard_normal(200_000) * rng.choice([0.1, 1, 30, 1e3], 200_000)\n"
            "y = rng.standard_normal(200_000) * 30\n"
            "x[::97] = -np.inf\n"
            "y[::89] = -np.inf\n"
            "print(int(np.sum(_logaddexp(x, y).view(np.int64) != np.logaddexp(x, y).view(np.int64))))\n"
        )
        assert _without_avx512(code) == "0"


class TestLargeBeta:
    """At beta in {10, 50} the terms of each sum are far apart; log Z with the
    kernel agrees with a reference pass on ``np.logaddexp``."""

    @pytest.mark.parametrize("d, N", [(1, 1024), (2, 128), (3, 24)])
    def test_log_z_matches_numpy_logaddexp(self, d, N, monkeypatch):
        # the rolling ladder pass and the kept forward and backward tables
        # cover every site of the kernel: forward and backward at d <= 2 and
        # the gather at d >= 3
        envs, betas = _ladder_envs(d, N, 2), (10.0, 50.0)

        def log_zs():
            ladder = log_partition_ladder(envs, [BetaProfile.constant(b, N) for b in betas], [N])
            kept = [log_partition(build(env, BetaProfile.constant(b, N)))
                    for build in (forward_layers, backward_layers) for env in envs for b in betas]
            return np.concatenate([ladder.ravel(), kept])

        got = log_zs()
        monkeypatch.setattr(importlib.import_module("polymerlab.transfer"), "_logaddexp",
                            lambda x, y, out=None, t=None: np.logaddexp(x, y, out=out))
        want = log_zs()
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


class TestLogPartition:
    def test_zero_profile_exact(self):
        env = gaussian_env(4, LatticeParams(d=1, N=12))
        table = forward_layers(env, BetaProfile.constant(0.0, 12))
        assert log_partition(table) == 0.0

    def test_single_step_formula(self):
        env = gaussian_env(13, LatticeParams(d=1, N=1))
        beta = 0.8
        lz = log_partition(forward_layers(env, BetaProfile.constant(beta, 1)))
        g_right = env.value(1, (1,))
        g_left = env.value(1, (-1,))
        expect = math.log((math.exp(beta * g_right) + math.exp(beta * g_left)) / 2)
        assert abs(lz - expect) < 1e-12

    def test_oracle_n6(self):
        env = gaussian_env(42, LatticeParams(d=1, N=6))
        prof = BetaProfile.constant(1.3, 6)
        lz = log_partition(forward_layers(env, prof))
        assert abs(lz - brute_force_log_partition(env, prof)) < 1e-10

    def test_oracle_d2_n8(self):
        env = gaussian_env(7, LatticeParams(d=2, N=8))
        prof = BetaProfile.constant(0.7, 8)
        lz = log_partition(forward_layers(env, prof))
        assert abs(lz - brute_force_log_partition(env, prof)) < 1e-10

    @pytest.mark.parametrize("d,n", [(1, 7), (2, 6), (3, 4)])
    def test_oracle_random_profiles(self, d, n):
        rng = np.random.default_rng(d * 100 + n)
        for _ in range(5):
            env = gaussian_env(int(rng.integers(0, 2**62)), LatticeParams(d=d, N=n))
            prof = BetaProfile(rng.uniform(0.0, 3.0, size=n))
            lz = log_partitions(env, [prof])[0]
            assert abs(lz - brute_force_log_partition(env, prof)) < 1e-10

    def test_zero_environment_all_profiles(self):
        z = zero_env(LatticeParams(d=2, N=9))
        rng = np.random.default_rng(0)
        for _ in range(5):
            prof = BetaProfile(rng.uniform(0, 4, size=9))
            assert abs(log_partition(forward_layers(z, prof))) < 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sweep_matches_tables(self, d):
        env = gaussian_env(8, LatticeParams(d=d, N=10))
        profs = [BetaProfile.constant(b, 10) for b in (0.3, 1.1, 2.4)]
        swept = log_partitions(env, profs)
        single = [log_partition(forward_layers(env, pr)) for pr in profs]
        assert np.allclose(swept, single, rtol=0, atol=1e-12)

    def test_longdouble_reference(self):
        # finite at beta=5, N=2000 and within 1e-6 relative of extended precision
        env = gaussian_env(77, LatticeParams(d=1, N=2000))
        prof = BetaProfile.constant(5.0, 2000)
        lz64 = log_partitions(env, [prof])[0]
        lzld = log_partitions(env, [prof], dtype=np.longdouble)[0]
        assert np.isfinite(lz64)
        assert abs(lz64 - lzld) / abs(lzld) < 1e-6


class TestMultiTemperature:
    def test_equal_blocks_equal_constant(self):
        env = gaussian_env(3, LatticeParams(d=1, N=12))
        p = make_partition(12, 3)
        lz_multi = log_partitions(env, [BetaProfile.from_blocks(p, [0.9, 0.9, 0.9])])[0]
        lz_const = log_partitions(env, [BetaProfile.constant(0.9, 12)])[0]
        assert lz_multi == lz_const

    def test_zero_vector(self):
        env = gaussian_env(3, LatticeParams(d=1, N=12))
        prof = BetaProfile.from_blocks(make_partition(12, 3), [0, 0, 0])
        assert log_partitions(env, [prof])[0] == 0.0

    def test_against_brute_force(self):
        env = gaussian_env(3, LatticeParams(d=1, N=8))
        prof = BetaProfile.from_blocks(make_partition(8, 2), [0.5, 1.5])
        lz = log_partitions(env, [prof])[0]
        assert abs(lz - brute_force_log_partition(env, prof)) < 1e-10


class TestExcludingBlock:
    def test_whole_interval_suppressed(self):
        env = gaussian_env(6, LatticeParams(d=1, N=10))
        prof = BetaProfile.excluding_block(make_partition(10, 1), 1, 2.0)
        assert log_partitions(env, [prof])[0] == 0.0

    def test_beta_zero(self):
        env = gaussian_env(6, LatticeParams(d=1, N=10))
        prof = BetaProfile.excluding_block(make_partition(10, 2), 1, 0.0)
        assert log_partitions(env, [prof])[0] == 0.0

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_ratio_identity_both_routes(self, ell):
        # log Z - log Zhat^(ell) computed by transfer matrix and by enumeration
        env = gaussian_env(21, LatticeParams(d=1, N=8))
        p = make_partition(8, 3)
        beta = 1.1
        full, hat = BetaProfile.constant(beta, 8), BetaProfile.excluding_block(p, ell, beta)
        lhs = log_partitions(env, [full])[0] - log_partitions(env, [hat])[0]
        rhs = brute_force_log_partition(env, full) - brute_force_log_partition(env, hat)
        assert abs(lhs - rhs) < 1e-10


class TestSampling:
    def test_identical_stream_identical_path(self):
        env = gaussian_env(2, LatticeParams(d=2, N=12))
        table = forward_layers(env, BetaProfile.constant(0.9, 12))
        p1 = sample_paths(table, 1, np.random.default_rng(123))[0]
        p2 = sample_paths(table, 1, np.random.default_rng(123))[0]
        assert np.array_equal(p1, p2)

    def test_step_distribution_uniform_at_beta_zero(self):
        env = gaussian_env(2, LatticeParams(d=1, N=8))
        table = forward_layers(env, BetaProfile.constant(0.0, 8))
        paths = sample_paths(table, 20_000, np.random.default_rng(5))
        steps = np.diff(paths[:, :, 0], axis=1).ravel()
        counts = np.array([(steps == 1).sum(), (steps == -1).sum()])
        assert stats.chisquare(counts).pvalue > 0.001

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sampled_paths_valid(self, d):
        from polymerlab.lattice import is_valid_path

        env = gaussian_env(d, LatticeParams(d=d, N=7))
        table = forward_layers(env, BetaProfile.constant(1.2, 7))
        paths = sample_paths(table, 64, np.random.default_rng(0))
        assert all(is_valid_path(p) for p in paths)

    @pytest.mark.parametrize("d,n", [(1, 4), (2, 4), (3, 3)])
    def test_empirical_matches_enumeration_small(self, d, n):
        env = gaussian_env(31, LatticeParams(d=d, N=n))
        prof = BetaProfile.constant(1.0, n)
        table = forward_layers(env, prof)
        paths, probs = gibbs_enumeration(env, prof)

        def codes(p):
            # step k is +e_j (digit 2j) or -e_j (digit 2j+1); one base-2d number per path
            steps = np.diff(p, axis=1)
            digits = 2 * np.argmax(steps != 0, axis=2) + (steps.sum(axis=2) < 0)
            return digits @ (2 * d) ** np.arange(n)

        lookup = np.full((2 * d) ** n, -1)
        lookup[codes(paths)] = np.arange(len(paths))
        draws = sample_paths(table, 200_000, np.random.default_rng(6))
        emp = np.bincount(lookup[codes(draws)], minlength=len(paths)) / 200_000
        # E[TV] <= sqrt(M/n)/2 over M paths and n draws, and TV moves by at
        # most 1/n per draw, so P(TV > sqrt(M/n)) < exp(-M/2) (McDiarmid)
        tol = max(0.01, math.sqrt(len(paths) / 200_000))
        assert 0.5 * np.abs(emp - probs).sum() < tol

    def test_sampler_peak_memory_bound(self):
        import tracemalloc

        env = gaussian_env(4, LatticeParams(d=2, N=128))
        table = forward_layers(env, BetaProfile.constant(1.0, 128))
        tracemalloc.start()
        try:
            paths = sample_paths(table, 1000, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the output is 2 MB; an (n, |D_N|) endpoint matrix would be ~270 MB
        assert paths.shape == (1000, 129, 2)
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_decodes_only_drawn_sites(self, d, monkeypatch):
        table = forward_layers(gaussian_env(d, LatticeParams(d=d, N=12)),
                               BetaProfile.constant(1.0, 12))
        rows = []

        def coords(self, *args, _orig=type(table.geometry).coords):
            out = _orig(self, *args)
            rows.append(len(out))
            return out

        monkeypatch.setattr(type(table.geometry), "coords", coords)
        sample_paths(table, 3, np.random.default_rng(0))
        assert len(rows) == 13 and max(rows) <= 3  # layer 12 has at least 13 sites


def ref_sample_paths(table, n, rng):
    """The sampler as it was before index arithmetic, the oracle for
    ``sample_paths``: one row of candidates per draw, found at d <= 2 by
    unravelling each site and checking each step against the layer's bounds,
    and at d >= 3 as the transposed map rows; an off-layer candidate indexes
    a -inf appended to layer i-1.  Sites are decoded from whole layers."""
    N, geom, d = table.N, table.geometry, table.d
    out = np.zeros((n, N + 1, d), dtype=np.int64)
    w = table.layer_logw(N)
    cdf = np.cumsum(np.exp(w - w.max()))
    idx = np.searchsorted(cdf, rng.random(n) * cdf[-1], side="left")
    out[:, N] = table.layer_coords(N)[idx]
    for i in range(N, 0, -1):
        if d >= 3:
            cand = geom._maps(i - 1, geom.keys(i)[idx], -geom.steps).T
        else:
            a, cols = np.unravel_index(idx, (i + 1,) * d), []
            for step in itertools.product((-1, 0), repeat=d):
                b = [ak + sk for ak, sk in zip(a, step)]
                ok = np.logical_and.reduce([(bk >= 0) & (bk < i) for bk in b])
                flat = np.ravel_multi_index(b, (i,) * d, mode="clip")
                cols.append(np.where(ok, flat, i**d))
            cand = np.stack(cols, axis=1)
        logits = np.append(table.layer_logw(i - 1), -np.inf)[cand]
        c = np.cumsum(np.exp(logits - logits.max(axis=1, keepdims=True)), axis=1)
        pick = (rng.random((n, 1)) * c[:, -1:] > c).sum(axis=1)
        idx = cand[np.arange(n), pick]
        out[:, i - 1] = table.layer_coords(i - 1)[idx]
    return out


def sampler_mismatches() -> list:
    """The (d, beta, N, n) at which ``sample_paths`` and ``ref_sample_paths``
    differ by a byte, over d = 1..3, beta in {0, 1, 10, 50}, tables at N and
    at N = 1 and prefixes of them, and 0, 1, 7 and 1000 draws."""
    bad = []
    for d, N in ((1, 24), (2, 10), (3, 6)):
        for beta in (0.0, 1.0, 10.0, 50.0):
            env = gaussian_env(derive_seed(11, d), LatticeParams(d=d, N=N))
            top = forward_layers(env, BetaProfile.constant(beta, N))
            one = forward_layers(replace(env, params=LatticeParams(d=d, N=1)),
                                 BetaProfile.constant(beta, 1))
            for table in (top, one, top.prefix(1), top.prefix(N // 2), top.prefix(N - 1)):
                for n in (0, 1, 7, 1000):
                    got = sample_paths(table, n, np.random.default_rng(n + 3))
                    want = ref_sample_paths(table, n, np.random.default_rng(n + 3))
                    if got.shape != want.shape or got.tobytes() != want.tobytes():
                        bad.append((d, beta, table.N, n))
    return bad


class TestSamplerOracle:
    def test_matches_the_row_sampler_byte_for_byte(self):
        assert sampler_mismatches() == []

    def test_matches_on_numpys_scalar_loops(self):
        # the draw takes exp over a (candidates, draws) array, the oracle over
        # its transpose; both dispatches give each entry the same bits
        assert _without_avx512("import test_transfer\n"
                               "print(len(test_transfer.sampler_mismatches()))") == "0"


def endpoint_law(table):
    """{x: mu(sigma_N = x)} over D_N, off the last layer of a forward table."""
    w = table.layer_logw(table.N)
    probs = np.exp(w - logsumexp(w))
    return dict(zip(map(tuple, table.layer_coords(table.N).tolist()), probs.tolist()))


class TestEndpointDistribution:
    def test_binomial_at_beta_zero(self):
        env = gaussian_env(1, LatticeParams(d=1, N=2))
        table = forward_layers(env, BetaProfile.constant(0.0, 2))
        dist = endpoint_law(table)
        assert dist == {(-2,): 0.25, (0,): 0.5, (2,): 0.25}

    def test_normalization(self):
        env = gaussian_env(9, LatticeParams(d=2, N=9))
        table = forward_layers(env, BetaProfile.constant(1.4, 9))
        assert abs(sum(endpoint_law(table).values()) - 1.0) < 1e-12

    def test_matches_enumeration_pointwise(self):
        env = gaussian_env(11, LatticeParams(d=1, N=6))
        prof = BetaProfile.constant(2.0, 6)
        dist = endpoint_law(forward_layers(env, prof))
        paths, probs = gibbs_enumeration(env, prof)
        ref = {}
        for pth, pr in zip(paths, probs):
            ref[tuple(pth[-1])] = ref.get(tuple(pth[-1]), 0.0) + pr
        for x, pr in ref.items():
            assert abs(dist[x] - pr) < 1e-10


class TestPrefix:
    @pytest.mark.parametrize("d, N", [(1, 24), (2, 10), (3, 7)])
    @pytest.mark.parametrize("beta", [0.7, 10.0])
    def test_prefix_equals_a_table_built_at_n(self, d, N, beta):
        top = forward_layers(gaussian_env(5, LatticeParams(d=d, N=N)),
                             BetaProfile.constant(beta, N))
        for n in (1, N // 2, N - 1, N):
            part = top.prefix(n)
            alone = forward_layers(gaussian_env(5, LatticeParams(d=d, N=n)),
                                   BetaProfile.constant(beta, n))
            assert part.env == alone.env and part.N == n
            assert len(part.layers) == n + 1
            for a, b in zip(part.layers, alone.layers):
                assert a.tobytes() == b.tobytes()
            assert marginal_sums(part) == marginal_sums(alone)
            draws = [sample_paths(t, 50, np.random.default_rng(9)) for t in (part, alone)]
            assert np.array_equal(*draws)
            assert endpoint_law(part) == endpoint_law(alone)

    def test_prefix_bounds(self):
        env = gaussian_env(5, LatticeParams(d=1, N=6))
        fwd = forward_layers(env, BetaProfile.constant(1.0, 6))
        for n in (0, 7):
            with pytest.raises(ValueError, match="1 <= n <= 6"):
                fwd.prefix(n)
        with pytest.raises(ValueError, match="forward table"):
            backward_layers(env, BetaProfile.constant(1.0, 6)).prefix(3)


class TestMarkovSplitting:
    @pytest.mark.parametrize("d,n", [(1, 8), (2, 6), (3, 4)])
    def test_split_at_every_time(self, d, n):
        rng = np.random.default_rng(d)
        env = gaussian_env(int(rng.integers(0, 2**62)), LatticeParams(d=d, N=n))
        prof = BetaProfile(rng.uniform(0, 2, size=n))
        fwd = forward_layers(env, prof)
        bwd = backward_layers(env, prof)
        lz = log_partition(fwd)
        for i in range(n + 1):
            assert abs(markov_split_logz(fwd, bwd, i) - lz) < 1e-10


def _pass(env, profiles, direction, keep, geometry=_geometry):
    """Run ``_transfer``; return its geometry, a copy of what it handed its
    consumer as (i, per-profile layers) in pass order (a handed layer is valid
    only until the consumer returns), and its last layers."""
    handed = []
    geom, last = _transfer([env], profiles, direction, np.float64, keep,
                           lambda i, layers: handed.append((i, layers[0].copy())), geometry)
    return geom, handed, last[0]


def _sum(geom, kernel, i, layers, onto):
    """One neighbour sum of ``geom`` through fresh pass buffers on the plain
    (R, *shape(i)) ``layers``, laid as a pass lays layer i for it: framed for
    a sum onto layer i + 1 (``onto``), plain for a sum back onto layer i - 1."""
    bufs, lead = geom.buffers(len(layers), layers.dtype), (len(layers),)
    geom.lay(i, bufs[0], lead, framed=onto)[...] = layers
    return kernel(*bufs, lead).copy()


class TestGeometries:
    @pytest.mark.parametrize("d,n", [(1, 12), (2, 7)])
    def test_packed_matches_dense(self, d, n):
        # the packed geometry is only used for d >= 3; run it at d <= 2 too
        rng = np.random.default_rng(40 + d)
        env = gaussian_env(int(rng.integers(0, 2**62)), LatticeParams(d=d, N=n))
        prof = BetaProfile(rng.uniform(0.0, 2.0, size=n))
        out = {}
        for geometry in (_geometry, _PackedGeometry):
            geom, fh, _ = _pass(env, [prof], "forward", True, geometry)
            _, bh, _ = _pass(env, [prof], "backward", True, geometry)
            _, _, rolled = _pass(env, [prof], "forward", False, geometry)
            fwd = LayerTable(env, prof, "forward", geom, [layers[0] for _, layers in fh])
            bwd = LayerTable(env, prof, "backward", geom, [layers[0] for _, layers in bh[::-1]])
            marginals = []
            for i in range(n + 1):
                order = np.lexsort(fwd.layer_coords(i).T)  # same site order in both
                marginals.append(layer_log_marginals(fwd, bwd, i)[order])
            out[geometry] = (log_partition(fwd), float(logsumexp(rolled[0])), marginals)
        (lz_d, roll_d, m_d), (lz_p, roll_p, m_p) = out.values()
        assert roll_d == lz_d
        assert abs(lz_d - lz_p) < 1e-12 and abs(roll_d - roll_p) < 1e-12
        for a, b in zip(m_d, m_p):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) < 1e-12

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_packed_coords_decode_in_lexicographic_order(self, d):
        geom = _PackedGeometry(d, 6, keep=True)
        for i in range(7):
            assert np.array_equal(geom.coords(i), reachable_set(i, d))

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_coords_of_chosen_sites(self, d):
        geom, rng = _geometry(d, 6, keep=True), np.random.default_rng(d)
        for i in range(7):
            full = geom.coords(i)
            idx = rng.integers(0, len(full), size=9)
            assert np.array_equal(geom.coords(i, idx), full[idx])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_chain_sums_are_the_pass_sums(self, d):
        # the reverse chain's two neighbour sums are the passes' sums bit for
        # bit; at d >= 3 both come off one map set, the sum onto layer i by
        # scattering layer i-1 through its rows
        rng = np.random.default_rng(d)
        for geom in (_geometry(d, 6, True), _PackedGeometry(d, 6, keep=True)):
            for i in (1, 4, 6):
                below = rng.normal(scale=30.0, size=(1,) + geom.shape(i - 1))
                above = rng.normal(scale=30.0, size=(2,) + geom.shape(i))
                into, back = geom.chain_sums(i)
                assert (_sum(geom, into, i - 1, below, True).tobytes()
                        == _sum(geom, geom.sum_into(i), i - 1, below, True).tobytes())
                assert (_sum(geom, back, i, above, False).tobytes()
                        == _sum(geom, geom.sum_from(i), i, above, False).tobytes())

    def test_packed_keys_wider_than_62_bits_refused(self):
        with pytest.raises(MemoryGuardError, match="overflow int64"):
            _PackedGeometry(8, 256, keep=True)


@dataclass(frozen=True)
class CountingEnvironment(Environment):
    """Gaussian environment that records the layer of every field request."""

    layers: list = field(default_factory=list, compare=False)

    def values(self, i, coords):
        self.layers.append(i)
        return super().values(i, coords)


class TestFieldSkipping:
    def test_zero_profile_requests_no_field(self):
        env = CountingEnvironment(seed=3, params=LatticeParams(d=2, N=9))
        prof = BetaProfile.constant(0.0, 9)
        forward_layers(env, prof)
        backward_layers(env, prof)
        log_partitions(env, [prof, prof])
        assert env.layers == []

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("direction,keep", [("forward", True), ("forward", False),
                                                ("backward", True)])
    def test_mixed_zero_blocks_identical_layers(self, d, direction, keep):
        n = 12
        p = make_partition(n, 3)
        prof = BetaProfile.from_blocks(p, [0.0, 1.3, 0.0])
        env = CountingEnvironment(seed=5, params=LatticeParams(d=d, N=n))
        _, skipped, last = _pass(env, [prof], direction, keep)
        lo, hi = p.block_window(2)
        # every layer goes to the consumer in pass order, and the field is read
        # in that order on the layers with beta_i != 0 only
        order = list(range(n + 1)) if direction == "forward" else list(range(n, -1, -1))
        assert [i for i, _ in skipped] == order
        assert env.layers == [i for i in order if lo <= i <= hi]
        assert last.tobytes() == skipped[-1][1].tobytes()
        # a constant profile alongside makes every layer's field be generated
        _, full, _ = _pass(env, [prof, BetaProfile.constant(0.4, n)], direction, keep)
        assert len(skipped) == len(full)
        for (_, a), (_, b) in zip(skipped, full):
            assert a[0].tobytes() == b[0].tobytes()


def _field_envs(kind, d, N):
    """Environments for a pass: one or three plain ones, three block
    concatenations (which set their own ``_layer_base``), or one that shifts
    a cell of layer 3 (which overrides ``values``) with two plain ones."""
    params = LatticeParams(d=d, N=N)
    plain = [gaussian_env(derive_seed(29, r), params) for r in range(3)]
    if kind == "concat":
        p = make_partition(N, 3)
        return [BlockConcatEnvironment(
            seed=r, params=params, boundaries=p.boundaries,
            blocks=tuple(gaussian_env(derive_seed(31, 3 * r + ell), LatticeParams(d=d, N=s))
                         for ell, s in enumerate(p.sizes))) for r in range(3)]
    if kind == "perturbed":
        return [perturb_env(plain[0], 3, (1,) + (0,) * (d - 1), 0.5)] + plain[1:]
    return plain[:1] if kind == "one" else plain


class TestFieldBlocks:
    @pytest.mark.parametrize("d, N", [(1, 30), (2, 12), (3, 7)])
    @pytest.mark.parametrize("direction, keep", [("forward", 0), ("forward", 1),
                                                 ("backward", 0), ("backward", 1)])
    @pytest.mark.parametrize("kind", ["one", "three", "concat", "perturbed"])
    def test_every_layer_is_hashed_as_alone(self, d, N, direction, keep, kind, monkeypatch):
        # a pass hashes the field of a block of consecutive layers per call;
        # each layer's field is bit for bit that of hashing the layer alone,
        # one environment at a time, and the layers the pass hands over do not
        # depend on how many layers a block holds.  The middle third of the
        # profiles is 0, so its layers are skipped, not hashed
        lattice = importlib.import_module("polymerlab.lattice")
        envs, p = _field_envs(kind, d, N), make_partition(N, 3)
        profs = [BetaProfile.from_blocks(p, [1.3, 0.0, 0.9]),
                 BetaProfile.from_blocks(p, [0.4, 0.0, 2.0])]
        order = range(1, N + 1) if direction == "forward" else range(N, 0, -1)
        lo, hi = p.block_window(2)
        read = [i for i in order if not lo <= i <= hi]
        seen, calls, passes = [], [], {}

        def recorded(envs, layers, coords, out, t, _orig=lattice.field_layers):
            for i, g in zip(layers, _orig(envs, layers, coords, out, t)):
                seen.append((i, g.copy(), coords(i)))
                yield g

        def counted(h, t, _orig=lattice._gaussians):
            calls.append(len(h))
            return _orig(h, t)

        monkeypatch.setattr(importlib.import_module("polymerlab.transfer"), "field_layers",
                            recorded)
        monkeypatch.setattr(lattice, "_gaussians", counted)
        # an environment that overrides values is asked one layer at a time,
        # whatever the block
        for block in (FIELD_BLOCK,) if kind == "perturbed" else (1, 50, FIELD_BLOCK):
            monkeypatch.setattr(lattice, "FIELD_BLOCK", block)
            seen.clear(), calls.clear()
            handed = []
            _transfer(envs, profs, direction, np.float64, keep,
                      lambda i, layers: handed.append((i, layers.tobytes())))
            passes[block] = handed, list(seen), list(calls)
        monkeypatch.setattr(lattice, "FIELD_BLOCK", FIELD_BLOCK)
        for block, (handed, fields, made) in passes.items():
            assert handed == passes[FIELD_BLOCK][0]
            assert [i for i, _, _ in fields] == read
            for i, g, sites in fields:
                assert g.tobytes() == np.stack([env.values(i, sites) for env in envs]).tobytes()
            if kind == "perturbed":
                continue
            # a call per block: the fewest read layers in pass order that hold
            # ``block`` values, or all that are left
            want, at = [], 0
            for i in read:
                at += len(envs) * reachable_set_size(i, d)
                if at >= block:
                    want, at = want + [at], 0
            assert made == want + [at] * (at > 0)


class TestReverseChain:
    @pytest.mark.parametrize("d, N", [(1, 40), (2, 96), (3, 9)])
    @pytest.mark.parametrize("beta", [0.0, 0.7, 50.0])
    def test_every_rung_equals_its_own_descent(self, d, N, beta):
        # one descent over an unsorted ladder with a repeated n gives, bit for
        # bit, each rung's descent down the table's prefix alone: stacking
        # rungs changes no rung's arithmetic (at d=2 N=96 a layer holds more
        # cells than one numpy reduction buffer)
        fwd = forward_layers(gaussian_env(derive_seed(3, d), LatticeParams(d=d, N=N)),
                             BetaProfile.constant(beta, N))
        ns = (N // 2, N, 1, N // 2, N - 1)
        got = marginal_sums(fwd, ns)
        assert got.shape == (len(ns),)
        for k, n in enumerate(ns):
            alone = marginal_sums(fwd.prefix(n))
            assert alone.shape == (1,) and got[k].tobytes() == alone[0].tobytes()
        assert marginal_sums(fwd).tobytes() == marginal_sums(fwd, [N]).tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_reads_no_field(self, d, monkeypatch):
        env = CountingEnvironment(seed=4, params=LatticeParams(d=d, N=8))
        fwd = forward_layers(env, BetaProfile.constant(1.3, 8))
        assert env.layers == list(range(1, 9))

        def refuse(*_):
            raise AssertionError("the reverse chain hashed a field")

        for mod, name in (("lattice", "_hash"), ("transfer", "field_layers")):
            monkeypatch.setattr(importlib.import_module(f"polymerlab.{mod}"), name, refuse)
        env.layers.clear()
        marginal_sums(fwd, [8, 3, 5])
        assert env.layers == []

    def test_needs_a_forward_table_and_rungs_in_it(self):
        env = gaussian_env(5, LatticeParams(d=1, N=6))
        fwd = forward_layers(env, BetaProfile.constant(1.0, 6))
        with pytest.raises(ValueError, match="1..6"):
            marginal_sums(fwd, [3, 7])
        with pytest.raises(ValueError, match="forward table"):
            marginal_sums(backward_layers(env, BetaProfile.constant(1.0, 6)))

    @pytest.mark.parametrize("d, N", [(2, 256), (3, 24)])
    def test_descent_peak_within_charge(self, d, N):
        # the kept table it reads and everything a 3-rung descent allocates
        # stay within the cells the descent is charged
        env = gaussian_env(2, LatticeParams(d=d, N=N))
        fwd = forward_layers(env, BetaProfile.constant(0.8, N))
        held = sum(a.nbytes for a in fwd.layers)
        held += sum(k.nbytes for k in getattr(fwd.geometry, "_keys", []))
        charged = _check_guard(env, fwd.geometry, 1, 1, rungs=3)
        tracemalloc.start()
        try:
            marginal_sums(fwd, [N // 4, N, N // 2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert held + peak <= 8 * charged

    def test_long_ladder_refused_before_the_descent(self):
        # the charge grows with the rungs, and a ladder past the budget is
        # refused before any rung is stacked; the table is built under the
        # default budget, as its pass is charged the field block's fixed
        # cells besides
        N = 64
        fwd = forward_layers(gaussian_env(2, LatticeParams(d=2, N=N)), BetaProfile.constant(0.8, N))
        fwd = replace(fwd, env=gaussian_env(2, LatticeParams(d=2, N=N, max_cells=150_000)))
        marginal_sums(fwd, [N, N // 2])
        with pytest.raises(MemoryGuardError, match="d=2, N=64: a descent of 10 rung"):
            marginal_sums(fwd, range(N, 0, -7))


def _ladder_envs(d, N, n_plain):
    params = LatticeParams(d=d, N=N)
    return [gaussian_env(derive_seed(17 + d, r), params) for r in range(n_plain)]


class TestLadder:
    BETAS = (0.0, 0.6, 10.0, 50.0)

    @pytest.mark.parametrize("d, ns", [(1, (30, 4, 30, 17)), (2, (9, 2, 9, 5)),
                                       (3, (6, 1, 6, 4)), (4, (5, 2, 5, 3))])
    def test_every_rung_equals_its_own_pass(self, d, ns):
        # one pass to the largest N over a batch of environments gives, bit for
        # bit, the log Z of a standalone pass at each N of an unsorted ladder
        N = max(ns)
        envs = _ladder_envs(d, N, 3)
        profs = [BetaProfile.constant(b, N) for b in self.BETAS]
        got = log_partition_ladder(envs, profs, ns)
        assert got.shape == (len(ns), len(envs), len(self.BETAS))
        for j, n in enumerate(ns):
            for e, env in enumerate(envs):
                alone = gaussian_env(env.seed, LatticeParams(d=d, N=n))
                want = log_partitions(alone, [BetaProfile.constant(b, n) for b in self.BETAS])
                assert got[j, e].tobytes() == want.tobytes()
        assert np.all(got[:, :, 0] == 0.0)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_batch_equals_one_environment_at_a_time(self, d):
        N = 6
        plain = _ladder_envs(d, N, 2)
        point = (1,) + (0,) * (d - 1)
        envs = [plain[0], perturb_env(plain[1], 3, point, 0.75), zero_env(plain[0].params),
                plain[1]]
        profs = [BetaProfile.constant(b, N) for b in self.BETAS]
        profs.append(BetaProfile.from_blocks(make_partition(N, 2), [0.0, 1.3]))
        got = log_partition_ladder(envs, profs, [N])[0]
        for e, env in enumerate(envs):
            assert got[e].tobytes() == log_partitions(env, profs).tobytes()
        assert not np.array_equal(got[1], got[3])  # the perturbed cell is seen

    @pytest.mark.parametrize("d, N, size", [(1, 1024, 63), (2, 128, 3), (3, 32, 2)])
    def test_batched_pass_peak_within_charge(self, d, N, size):
        # everything a batched rolling pass allocates stays within the float64
        # cells the guard charges it; four profiles and the default cap give
        # the batch size pinned here
        envs = _ladder_envs(d, N, size)
        profs = [BetaProfile.constant(b, N) for b in (0.5, 1.0, 2.0, 3.0)]
        assert _batch_size(envs[0], len(profs), 10 * size) == size
        charged = _check_guard(envs[0], _geometry(d, N, False), len(profs), False, size)
        tracemalloc.start()
        try:
            log_partition_ladder(envs, profs, [N])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * charged

    def test_batch_size_bounded_by_the_cell_budget(self):
        # each environment of a rolling pass over four profiles at d=1 N=1024
        # is charged 1025 * (3 * 4 + 1) cells (three layer buffers per profile
        # and its layer of the field block) and the batch 1025 * 3 for its
        # coordinates and the field block's 196,608 fixed cells; 50,000 cells
        # besides these leave room for three
        field = FIELD_BLOCK + FIELD_SCRATCH_CELLS
        env = gaussian_env(1, LatticeParams(d=1, N=1024, max_cells=50_000 + field))
        assert _batch_size(env, 4, 100) == 3
        with pytest.raises(MemoryGuardError, match="a rolling pass"):
            _batch_size(gaussian_env(1, LatticeParams(d=1, N=1024, max_cells=10_000 + field)),
                        4, 100)

    @pytest.mark.parametrize("d, N, max_cells", [(1, 1024, 120_000), (2, 64, 200_000),
                                                 (3, 32, 2_000_000), (3, 16, 600_000)])
    @pytest.mark.parametrize("n_profiles", [1, 4])
    def test_batch_size_is_the_most_the_guard_admits(self, d, N, max_cells, n_profiles,
                                                     monkeypatch):
        # with BATCH_CELLS out of the way the batch is the largest the guard
        # admits: E environments pass it and E + 1 are refused.  At d >= 3 the
        # cells a step shares are charged once per pass, not once per
        # environment: d=3 N=32 on one profile under 2,000,000 cells, besides
        # the field block's fixed cells, takes 24
        monkeypatch.setattr(importlib.import_module("polymerlab.transfer"), "BATCH_CELLS",
                            1 << 40)
        geom = _geometry(d, N, False)
        field = FIELD_BLOCK * (1 + geom.key_cells) + FIELD_SCRATCH_CELLS
        env = gaussian_env(1, LatticeParams(d=d, N=N, max_cells=max_cells + field))
        size = _batch_size(env, n_profiles, 10_000)
        assert 1 < size < 10_000
        _check_guard(env, geom, n_profiles, False, size)
        with pytest.raises(MemoryGuardError, match="a rolling pass"):
            _check_guard(env, geom, n_profiles, False, size + 1)
        if (d, N, max_cells, n_profiles) == (3, 32, 2_000_000, 1):
            assert size == 24

    def test_refuses_an_empty_batch(self):
        with pytest.raises(ValueError, match="at least one environment"):
            log_partition_ladder([], [BetaProfile.constant(1.0, 8)], [8])

    def test_rungs_must_lie_in_the_pass(self):
        envs = _ladder_envs(1, 8, 1)
        with pytest.raises(ValueError, match="1..8"):
            log_partition_ladder(envs, [BetaProfile.constant(1.0, 8)], [4, 9])


def test_brute_force_guard():
    env = gaussian_env(1, LatticeParams(d=2, N=24))
    with pytest.raises(ValueError):
        brute_force_log_partition(env, BetaProfile.constant(1.0, 24))


def test_forward_layers_memory_guard():
    env = Environment(seed=1, params=LatticeParams(d=2, N=64, max_cells=100))
    with pytest.raises(MemoryGuardError):
        forward_layers(env, BetaProfile.constant(1.0, 64))


def test_kept_pass_frees_each_steps_maps_first(monkeypatch):
    # the index maps of a step are dead before the next step builds its own
    maps, live = [], []

    def counted(self, *args, _orig=_PackedGeometry._maps):
        live.append(sum(ref() is not None for ref in maps))
        out = _orig(self, *args)
        maps.append(weakref.ref(out))
        return out

    monkeypatch.setattr(_PackedGeometry, "_maps", counted)
    forward_layers(gaussian_env(3, LatticeParams(d=3, N=40)), BetaProfile.constant(1.0, 40))
    assert live == [0] * 40


def test_gather_holds_one_row():
    # the 2d = 6 gathered rows are folded one at a time, in row order, with the
    # bits of a row-order fold of the kernel and within 2 ulp of numpy's reduce;
    # the layer's sentinel copy, the gathered row and the kernel's temporary
    # are rows of the scratch it is handed, so it allocates no array
    geom, i = _PackedGeometry(3, 12, keep=True), 12
    maps = geom._maps(i - 1, geom.keys(i), -geom.steps)
    n = len(geom.keys(i - 1))
    x = np.random.default_rng(0).standard_normal((2, n))
    x[:, ::7] = -np.inf
    rows = np.append(x[1], -np.inf)[maps]
    want = rows[0]
    for row in rows[1:]:
        want = _logaddexp(want, row)
    y, t = np.empty(2 * len(geom.keys(i))), np.empty((3, len(geom.keys(i)) + 1))
    tracemalloc.start()
    try:
        got = _gather_logsum(maps, n, x.ravel(), y, t, (2,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (2, len(geom.keys(i))) and np.shares_memory(got, y)
    assert got[1].tobytes() == want.tobytes()
    _within_ulps(got[1], np.logaddexp.reduce(rows, axis=0),
                 np.abs(np.where(np.isfinite(rows), rows, 0)).max(axis=0))
    assert peak < 8 * len(geom.keys(i)) / 4


def test_rolling_pass_not_charged_for_the_cone():
    # the cone is 2,003,001 cells; a rolling pass with four profiles is charged
    # 2001 * (3 * 4 + 3 + 1) = 32,016 and the field block's 196,608 fixed cells
    small = LatticeParams(d=1, N=2000, max_cells=40_000 + FIELD_BLOCK + FIELD_SCRATCH_CELLS)
    full = LatticeParams(d=1, N=2000)
    betas = (0.5, 1.0, 2.0, 3.0)
    profs = [BetaProfile.constant(b, 2000) for b in betas]
    got = log_partitions(gaussian_env(5, small), profs)
    want = log_partitions(gaussian_env(5, full), profs)
    assert got.tobytes() == want.tobytes()
    got = estimate_free_energies(betas, small, n_disorder=2, master_seed=3)
    want = estimate_free_energies(betas, full, n_disorder=2, master_seed=3)
    for a, b in zip(got, want):
        assert (a.mean, a.stderr) == (b.mean, b.stderr)
        assert a.samples.tobytes() == b.samples.tobytes()
    env = gaussian_env(5, small)
    with pytest.raises(MemoryGuardError, match="d=1, N=2000"):
        forward_layers(env, profs[0])
    with pytest.raises(MemoryGuardError, match="d=1, N=2000"):
        backward_layers(env, profs[0])


@pytest.mark.parametrize("d, N", [(2, 7000), (3, 300)])
def test_rolling_pass_charged_working_cells(d, N):
    # one profile is charged 2 cells per site of layer N, but the pass also
    # holds coordinates, keys, index maps and temporaries: 49M sites at d=2
    # and 18.2M at d=3 would need gigabytes, so the default cap refuses them
    env = gaussian_env(1, LatticeParams(d=d, N=N))
    geom = _geometry(d, N, False)
    with pytest.raises(MemoryGuardError, match=f"d={d}, N={N}: a rolling pass"):
        _check_guard(env, geom, 1, keep=False)
    small = gaussian_env(1, LatticeParams(d=d, N=N // 10))
    _check_guard(small, _geometry(d, N // 10, False), 4, keep=False)


@pytest.mark.parametrize("d, N", [(2, 200), (3, 30)])
@pytest.mark.parametrize("build", [forward_layers, backward_layers])
def test_kept_table_peak_within_charge(d, N, build):
    # everything a kept pass allocates, its returned table included, stays
    # within the float64 cells it is charged
    env = gaussian_env(2, LatticeParams(d=d, N=N))
    charged = _check_guard(env, _geometry(d, N, True), 1, keep=True)
    tracemalloc.start()
    try:
        build(env, BetaProfile.constant(0.8, N))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * charged


@pytest.mark.parametrize("d, N", [(1, 48), (2, 20), (3, 9)])
def test_rolling_steps_allocate_nothing(d, N):
    # every step of a rolling pass works in buffers the pass allocates once,
    # so what is allocated when a layer is handed over is the same at every
    # step from step 2 on, besides the packed geometry's keys of its two
    # newest layers and the list that holds them
    envs, profs = _ladder_envs(d, N, 3), [BetaProfile.constant(b, N) for b in (0.5, 2.0)]
    geoms, sizes = [], np.zeros(N + 1, dtype=np.int64)

    def geometry(*args):
        geoms.append(_geometry(*args))
        return geoms[-1]

    def consume(i, layers):
        traced = tracemalloc.get_traced_memory()[0]
        keys = getattr(geoms[0], "_keys", [])
        sizes[i] = traced - sum(k.nbytes for k in keys if k is not None) - sys.getsizeof(keys)

    tracemalloc.start()
    try:
        _transfer(envs, profs, "forward", np.float64, 0, consume, geometry)
    finally:
        tracemalloc.stop()
    assert np.all(sizes[2:] == sizes[2]), sizes


@pytest.mark.parametrize("d, N", [(1, 12), (2, 8), (3, 5)])
def test_kept_tables_own_their_layers(d, N, monkeypatch):
    # a layer handed to a consumer lives in a pass buffer that the next step
    # writes over, so each kept layer is a copy of its own, with one profile
    # as with profiles riding along: it shares memory with no pass buffer
    # and with no other layer
    bufs = []
    for cls in (_DenseGeometry, _PackedGeometry):
        def recorded(self, *args, _orig=cls.buffers):
            bufs.extend(_orig(self, *args))
            return bufs[-3:]

        monkeypatch.setattr(cls, "buffers", recorded)
    env = gaussian_env(derive_seed(9, d), LatticeParams(d=d, N=N))
    profs = [BetaProfile.constant(b, N) for b in (0.7, 0.701, 0.699)]
    for build in (lambda: forward_layers(env, profs[0]), lambda: backward_layers(env, profs[0]),
                  lambda: forward_layers_and_ladder(env, profs, [N])[0]):
        table = build()
        assert bufs
        for k, layer in enumerate(table.layers):
            assert layer.flags.owndata
            assert not any(np.shares_memory(layer, buf) for buf in bufs)
            assert not any(np.shares_memory(layer, other) for other in table.layers[:k])
        bufs.clear()


@pytest.mark.parametrize("d, last", [(2, 660), (3, 123)])
def test_kept_table_limits_at_default_cap(d, last):
    # a kept table is charged its cone for the layer values, its cone again
    # for the keys at d >= 3, per site of layer N the pass's layer buffers
    # and one step's shared and work cells, and the field block's fixed cells
    _check_guard(gaussian_env(1, LatticeParams(d=d, N=last)), _geometry(d, last, True), 1,
                 keep=True)
    env = gaussian_env(1, LatticeParams(d=d, N=last + 1))
    with pytest.raises(MemoryGuardError, match=f"d={d}, N={last + 1}: a kept layer table"):
        _check_guard(env, _geometry(d, last + 1, True), 1, keep=True)


class TestRideAlong:
    @pytest.mark.parametrize("d, N", [(1, 24), (2, 10), (3, 7)])
    def test_kept_table_and_ladder_bit_for_bit(self, d, N):
        # the kept profile's layers are forward_layers', and the profiles
        # riding along give log_partition_ladder's log Z at every rung of an
        # unsorted ladder with a repeat; a rider that is 0 (beta - h at
        # beta = h) or 0 on the early rungs gives exactly 0.0 there
        env, h, ns = gaussian_env(derive_seed(7, d), LatticeParams(d=d, N=N)), 1e-3, (N, 1, 3, N)
        block = BetaProfile.from_blocks(make_partition(N, 2), [0.0, 1.3])
        for betas in ((0.0,), (h, 2 * h, 0.0), (0.7, 0.7 + h, 0.7 - h), (50.0, 50.0 + h, 50.0 - h)):
            profs = [BetaProfile.constant(b, N) for b in betas] + [block]
            table, rode = forward_layers_and_ladder(env, profs, ns)
            alone = forward_layers(env, profs[0])
            assert (table.env, table.profile, table.direction) == (env, profs[0], "forward")
            assert len(table.layers) == len(alone.layers)
            for a, b in zip(table.layers, alone.layers):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            want = log_partition_ladder([env], profs[1:], ns)[:, 0]
            assert rode.shape == want.shape == (len(ns), len(profs) - 1)
            assert rode.tobytes() == want.tobytes()
            assert np.all(rode[1, -1] == 0.0)

    @pytest.mark.parametrize("d, N", [(2, 200), (3, 30)])
    def test_pass_peak_within_charge(self, d, N):
        # the kept layers are copies, so no layer pins the riders' values,
        # and the pass is charged one cone and the geometry's layer buffers
        # per rider
        env = gaussian_env(2, LatticeParams(d=d, N=N))
        profs = [BetaProfile.constant(b, N) for b in (0.8, 0.801, 0.799)]
        geom = _geometry(d, N, True)
        charged = _check_guard(env, geom, 3, 1)
        assert charged == (_check_guard(env, geom, 1, 1)
                           + 2 * geom.layer_cells * reachable_set_size(N, d))
        tracemalloc.start()
        try:
            forward_layers_and_ladder(env, profs, [N // 2, N])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * charged

    @pytest.mark.parametrize("d, last", [(2, 654), (3, 121)])
    def test_limits_at_default_cap(self, d, last):
        # with beta +/- h riding along, the sweep's pass at beta > 0 reaches
        # N = 654 at d=2 and 121 at d=3; a plain kept table reaches 660 and
        # 123 (test_kept_table_limits_at_default_cap)
        _check_guard(gaussian_env(1, LatticeParams(d=d, N=last)), _geometry(d, last, True), 3, 1)
        env = gaussian_env(1, LatticeParams(d=d, N=last + 1))
        with pytest.raises(MemoryGuardError,
                           match=f"d={d}, N={last + 1}: a kept layer table with 2 rolling"):
            _check_guard(env, _geometry(d, last + 1, True), 3, 1)
        _check_guard(env, _geometry(d, last + 1, True), 1, 1)

    def test_rungs_must_lie_in_the_pass(self):
        env = gaussian_env(1, LatticeParams(d=1, N=8))
        with pytest.raises(ValueError, match="1..8"):
            forward_layers_and_ladder(env, [BetaProfile.constant(1.0, 8)] * 2, [0, 8])
