import hashlib
import importlib
import itertools
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from polymerlab.lattice import (
    FIELD_BLOCK,
    LatticeParams,
    MemoryGuardError,
    derive_seed,
    field_scratch,
    gaussian_env,
    is_valid_path,
    layer_fields,
    make_partition,
    make_subpartition,
    perturb_env,
    reachable_cells_total,
    reachable_set,
    reachable_set_size,
    zero_env,
)
from polymerlab.free_energy import BlockConcatEnvironment
from polymerlab.transfer import BetaProfile, backward_layers, forward_layers

lattice = importlib.import_module("polymerlab.lattice")


def test_params_validation():
    with pytest.raises(ValueError):
        LatticeParams(d=0, N=10)
    with pytest.raises(ValueError):
        LatticeParams(d=1, N=0)


def test_memory_guard_at_construction():
    # the environment stores nothing; the passes that keep its tables are charged
    env = gaussian_env(1, LatticeParams(d=2, N=512, max_cells=1000))
    prof = BetaProfile.constant(1.0, 512)
    with pytest.raises(MemoryGuardError):
        forward_layers(env, prof)
    with pytest.raises(MemoryGuardError):
        backward_layers(env, prof)
    gaussian_env(1, LatticeParams(d=1, N=512))  # well under the default cap


def _quantiles(u, chunk=FIELD_BLOCK, order=None):
    """The package's inverse normal of each u, a chunk at a time, the chunks
    taken in ``order`` (default first to last)."""
    out = np.array(u, dtype=np.float64)
    t = field_scratch(chunk)
    starts = range(0, len(out), chunk)
    for lo in (starts if order is None else order(starts)):
        lattice._ndtri(out[lo:lo + chunk], t)
    return out


def _uniform(h):
    """The u of the field for each uint64 hash h."""
    return np.minimum(((h >> np.uint64(11)) + 0.5) * 2.0**-53, 1.0 - 2.0**-53)


def _assert_near_scipy(got, u):
    want = ndtri(u)
    assert np.isfinite(got).all()
    assert np.all(np.abs(got - want) <= 2e-15 * np.abs(want))


class TestInverseNormal:
    def test_matches_scipy_over_hashed_uniforms(self):
        # 3M uniforms of the field's hash, both far tails (u < e^-25, where
        # the far rational takes over) and the two all-ones hashes: within
        # 2e-15 relative of scipy.special.ndtri, through the hash's own path
        env = gaussian_env(11, LatticeParams(d=2, N=8))
        sites = np.stack(np.divmod(np.arange(3_000_000), 2000), axis=1) - 1000
        h = np.empty(len(sites)).view(np.uint64)
        lattice._hash(h, np.array([env._layer_base(5)], dtype=np.uint64), sites,
                      field_scratch()[0].view(np.uint64))
        low = np.arange(0, 130_000, dtype=np.uint64) << np.uint64(11)
        ones = np.uint64(2**64 - 1) - low
        h = np.concatenate([h, low, ones, [np.uint64(2**64 - 1), np.uint64(2**64 - 1 - 2**11)]])
        u = _uniform(h)
        assert u.min() < 1e-16 and 1 - u.max() < 2e-16 and (u < np.exp(-25)).sum() > 100_000
        got = lattice._gaussians(h.copy(), field_scratch()).copy()
        assert got.tobytes() == _quantiles(u).tobytes()
        _assert_near_scipy(got, u)
        assert env.values(5, sites).tobytes() == got[:len(sites)].tobytes()

    def test_odd_symmetry_where_one_minus_u_is_exact(self):
        u = _uniform(np.random.default_rng(3).integers(0, 2**64, 1_000_000, dtype=np.uint64))
        u = np.concatenate([u, np.exp(-np.linspace(25, 37, 1000))])
        exact = (1.0 - (1.0 - u)) == u
        assert exact.mean() > 0.4
        x, y = _quantiles(u[exact]), _quantiles(1.0 - u[exact])
        assert np.array_equal(x, -y) and np.array_equal(np.signbit(x), ~np.signbit(y))
        _assert_near_scipy(y, 1.0 - u[exact])

    def test_bits_do_not_depend_on_chunk_or_order(self):
        u = _uniform(np.random.default_rng(5).integers(0, 2**64, 200_000, dtype=np.uint64))
        u[::997] = np.exp(-np.linspace(25, 37, len(u[::997])))
        want = _quantiles(u)
        for chunk in (1, 7, 1000, 4096, FIELD_BLOCK, len(u)):
            part = u if chunk >= 1000 else u[:3000]  # a call per chunk
            got, rev = _quantiles(part, chunk), _quantiles(part, chunk, order=reversed)
            assert got.tobytes() == rev.tobytes() == want[:len(part)].tobytes()


class TestEnvironment:
    def test_all_ones_hash_gives_a_finite_value(self, monkeypatch):
        # a hash whose top 53 bits are all ones gives u = (2^53 - 1 + 0.5) 2^-53,
        # which rounds to 1.0, whose quantile is inf, so u is clamped to
        # 1 - 2^-53; the next hash down keeps its u = 1 - 2^-52
        env = gaussian_env(3, LatticeParams(d=2, N=4))
        for top, u in ((2**53 - 1, 1 - 2**-53), (2**53 - 2, 1 - 2**-52)):
            h = np.uint64((top << 11) | 0x7FF)
            monkeypatch.setattr(lattice, "_mix64_arr", lambda a, t, h=h: a.fill(h) or a)
            v = env.values(1, np.array([[0, 0], [1, 0]]))
            assert v.tobytes() == _quantiles([u, u]).tobytes()
            _assert_near_scipy(v, np.array([u, u]))

    def test_repeated_queries_identical(self):
        env = gaussian_env(42, LatticeParams(d=2, N=32))
        coords = np.array([[0, 2], [-1, 1], [3, -3]])
        a = env.values(7, coords)
        b = env.values(7, coords)
        assert np.array_equal(a, b)
        assert env.value(7, (0, 2)) == a[0]

    def test_distinct_seeds_decorrelated(self):
        params = LatticeParams(d=1, N=8)
        coords = (np.arange(100_000) - 50_000)[:, None]
        v1 = gaussian_env(1, params).values(3, coords)
        v2 = gaussian_env(2, params).values(3, coords)
        assert not np.any(v1 == v2)
        corr = np.corrcoef(v1, v2)[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(100_000)

    def test_moments(self):
        env = gaussian_env(9, LatticeParams(d=1, N=8))
        coords = (np.arange(1_000_000) - 500_000)[:, None]
        v = env.values(5, coords)
        assert abs(v.mean()) < 0.01
        assert abs(v.var() - 1.0) < 0.01

    def test_layers_decorrelated(self):
        env = gaussian_env(3, LatticeParams(d=1, N=8))
        coords = (np.arange(100_000) - 50_000)[:, None]
        v1, v2 = env.values(1, coords), env.values(2, coords)
        assert abs(np.corrcoef(v1, v2)[0, 1]) < 3.0 / np.sqrt(100_000)

    def test_hash_identical_across_thread_counts(self):
        env = gaussian_env(101, LatticeParams(d=1, N=64))
        rng = np.random.default_rng(0)
        coords = rng.integers(-40, 41, size=(100, 100, 1))
        layers = rng.integers(1, 65, size=100)

        def digest(n_threads):
            def chunk(i):
                return env.values(int(layers[i]), coords[i]).tobytes()
            if n_threads == 1:
                parts = [chunk(i) for i in range(100)]
            else:
                with ThreadPoolExecutor(n_threads) as ex:
                    parts = list(ex.map(chunk, range(100)))
            return hashlib.sha256(b"".join(parts)).hexdigest()

        assert digest(1) == digest(8)

    def test_zero_env_and_perturbation(self):
        params = LatticeParams(d=1, N=8)
        z = zero_env(params)
        assert np.all(z.values(4, np.array([[0], [2]])) == 0.0)
        env = gaussian_env(5, params)
        pe = perturb_env(env, 3, (1,), 0.5)
        assert pe.value(3, (1,)) == env.value(3, (1,)) + 0.5
        assert pe.value(3, (-1,)) == env.value(3, (-1,))
        assert pe.value(4, (1,)) == env.value(4, (1,))

    @pytest.mark.parametrize("kind", [np.int32, np.int64, np.uint64])
    def test_numpy_integer_seeds_and_layers(self, kind):
        # a numpy integer enters the hash as the Python int it holds, with no
        # overflow and no warning
        params, coords = LatticeParams(d=2, N=8), reachable_set(3, 2)
        want = gaussian_env(5, params).values(3, coords).tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert derive_seed(kind(7), kind(2)) == derive_seed(7, 2)
            assert gaussian_env(kind(5), params).values(kind(3), coords).tobytes() == want
            assert gaussian_env(5, params).values(kind(3), coords).tobytes() == want
            two = [gaussian_env(kind(5), params)] * 2
            assert layer_fields(two, kind(3), coords)[1].tobytes() == want

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_batched_fields_equal_one_environment_at_a_time(self, d):
        # one hash call over several layer bases gives each environment's bits
        params = LatticeParams(d=d, N=12)
        plain = [gaussian_env(derive_seed(7, r), params) for r in range(3)]
        coords = reachable_set(5, d)
        mixed = plain + [zero_env(params), perturb_env(plain[0], 5, coords[0], 0.5)]
        for envs in (plain, mixed, plain[:1]):
            want = np.stack([env.values(5, coords) for env in envs])
            assert layer_fields(envs, 5, coords).tobytes() == want.tobytes()
        # concatenations of blocks: layer i is layer i - n_{ell-1} of block ell
        p = make_partition(12, 3)
        blocks = [[gaussian_env(derive_seed(9, 3 * r + ell), LatticeParams(d=d, N=s))
                   for ell, s in enumerate(p.sizes)] for r in range(3)]
        cats = [BlockConcatEnvironment(seed=b[0].seed, params=params, blocks=tuple(b),
                                       boundaries=p.boundaries) for b in blocks]
        for ell in range(1, p.L + 1):
            lo, hi = p.block_window(ell)
            for i in range(lo, hi + 1):
                by_cat = [b[ell - 1].values(i - lo + 1, coords) for b in blocks]
                for envs, want in ((cats, by_cat), (cats[:1], by_cat[:1]),
                                   (cats + plain, by_cat + [e.values(i, coords) for e in plain]),
                                   (cats + [zero_env(params)], by_cat + [np.zeros(len(coords))])):
                    got = layer_fields(envs, i, coords)
                    assert got.tobytes() == np.stack(want).tobytes()


def test_derive_seed_stable_and_spread():
    seeds = [derive_seed(123, i) for i in range(1000)]
    assert len(set(seeds)) == 1000
    assert derive_seed(123, 7) == derive_seed(123, 7)
    assert derive_seed(123, 7) != derive_seed(124, 7)


class TestReachableSets:
    def test_origin(self):
        assert reachable_set(0, 1).tolist() == [[0]]

    def test_one_step_d2(self):
        pts = {tuple(p) for p in reachable_set(1, 2)}
        assert pts == {(1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_i4_d1_against_walk_enumeration(self):
        # endpoints of all 2^4 walks
        ends = set()
        for steps in itertools.product((-1, 1), repeat=4):
            ends.add(sum(steps))
        assert sorted(ends) == [-4, -2, 0, 2, 4]
        assert reachable_set(4, 1).ravel().tolist() == [-4, -2, 0, 2, 4]

    @pytest.mark.parametrize("i", range(9))
    def test_sizes_d1_d2(self, i):
        assert reachable_set_size(i, 1) == i + 1
        assert reachable_set_size(i, 2) == (i + 1) ** 2
        assert len(reachable_set(i, 2)) == (i + 1) ** 2

    def test_d2_matches_walk_enumeration(self):
        # exact reachable positions after i steps, by direct expansion
        cur = {(0, 0)}
        for i in range(1, 9):
            cur = {
                (x + dx, y + dy)
                for (x, y) in cur
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
            }
            assert {tuple(p) for p in reachable_set(i, 2)} == cur

    @pytest.mark.parametrize("d", [3, 4])
    def test_formula_matches_enumeration_high_d(self, d):
        for i in range(6):
            assert reachable_set_size(i, d) == len(reachable_set(i, d))

    def test_cells_total(self):
        assert reachable_cells_total(4, 1) == 1 + 2 + 3 + 4 + 5
        assert reachable_cells_total(3, 2) == 1 + 4 + 9 + 16
        total = sum(reachable_set_size(i, 3) for i in range(11))
        assert reachable_cells_total(10, 3) == total

    @pytest.mark.parametrize("d", [1, 2])
    def test_cells_total_closed_form_large_n(self, d):
        n = 5000
        assert reachable_cells_total(n, d) == sum(reachable_set_size(i, d) for i in range(n + 1))


class TestPaths:
    def test_examples(self):
        assert is_valid_path([[0], [1], [2]])
        assert not is_valid_path([[0], [2]])
        assert not is_valid_path([[1], [2]])

    def test_flat_input_and_origin_only(self):
        assert is_valid_path([0, -1, 0, 1])
        assert is_valid_path([[0, 0]])
        assert not is_valid_path([[0, 0], [1, 1]])


class TestPartitions:
    def test_examples(self):
        assert make_partition(10, 3).boundaries == (0, 3, 6, 10)
        assert make_partition(12, 4).boundaries == (0, 3, 6, 9, 12)
        assert make_partition(7, 7).boundaries == (0, 1, 2, 3, 4, 5, 6, 7)

    def test_rejects_l_above_n(self):
        with pytest.raises(ValueError):
            make_partition(5, 6)

    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 10_000), st.integers(1, 32))
    def test_block_size_envelope(self, n, L):
        if L > n:
            return
        p = make_partition(n, L)
        lo, hi = n // L, -(-n // L)
        for s in p.sizes:
            assert s in (lo, hi)
            assert n / (2 * L) <= s <= 2 * n / L

    def test_subpartition_examples(self):
        p = make_partition(100, 10)  # block size 10
        sub = make_subpartition(p, 1, 3)
        assert sorted(sub.sizes) == [3, 3, 4]
        p9 = make_partition(81, 9)
        sub9 = make_subpartition(p9, 2, 9)
        assert sub9.sizes == (1,) * 9
        # refinement count for delta = 0.5
        from polymerlab.localization import default_refinement
        assert default_refinement(0.5) == 24
        p4 = make_partition(100, 4)
        sub24 = make_subpartition(p4, 1, 24)
        assert len(sub24.sizes) == 24

    def test_oversized_k_flagged(self):
        p = make_partition(12, 4)  # block size 3
        sub = make_subpartition(p, 1, 5)
        assert sub.has_empty_blocks
        assert not make_subpartition(p, 1, 3).has_empty_blocks

    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 10_000), st.integers(1, 32), st.integers(1, 64))
    def test_subblock_size_envelope(self, n, L, K):
        if L > n or n // L < K:
            return
        p = make_partition(n, L)
        for ell in (1, p.L):
            sub = make_subpartition(p, ell, K)
            for s in sub.sizes:
                assert n / (4 * L * K) <= s <= 4 * n / (L * K)

    def test_windows(self):
        p = make_partition(10, 3)
        assert p.block_window(1) == (1, 3)
        assert p.block_window(3) == (7, 10)
        sub = make_subpartition(p, 3, 2)
        assert sub.sub_window(1) == (7, 8)
        assert sub.sub_window(2) == (9, 10)
