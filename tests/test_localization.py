import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymerlab.lattice import (
    LatticeParams,
    as_path,
    gaussian_env,
    is_valid_path,
    make_partition,
    make_subpartition,
)
from polymerlab.localization import (
    InfeasibleConnectionError,
    _site_keys,
    build_distinguished_sets,
    cardinality_bound,
    concatenate,
    connecting_path,
    coverage_report,
    decode_path,
    default_refinement,
    encode_path,
    greedy_favorite_paths,
    meeting_time,
    min_window_overlap,
    pairwise_counts,
    plant_overlap_instance,
    splice_paths,
    step_feasible,
    verify_claim_reduction,
    window_minima,
)
from polymerlab.overlap import block_overlap, overlap, restricted_overlap
from polymerlab.transfer import BetaProfile, forward_layers, sample_paths


def bfs_reachable(x, y, s, d):
    """Exact s-step reachability by repeated neighbor expansion."""
    cur = {tuple(np.atleast_1d(x))}
    for _ in range(s):
        nxt = set()
        for p in cur:
            for k in range(d):
                for sign in (1, -1):
                    q = list(p)
                    q[k] += sign
                    nxt.add(tuple(q))
        cur = nxt
    return tuple(np.atleast_1d(y)) in cur


# Per-pair loop references for the vectorised kernels.

def ref_connecting_path(x, y, s):
    pos = np.array(x, dtype=np.int64)
    out = [pos.copy()]
    for k in range(pos.size):
        while pos[k] != y[k]:
            pos[k] += 1 if y[k] > pos[k] else -1
            out.append(pos.copy())
    while len(out) < s + 1:
        for sign in (1, -1):
            pos[0] += sign
            out.append(pos.copy())
    return np.array(out)


def ref_encode_path(path):
    toks = []
    for step in np.diff(path, axis=0):
        (k,) = np.flatnonzero(step)
        toks.append(("+" if step[k] > 0 else "-") + "xyz"[k])
    return ",".join(toks)


def ref_pairwise_counts(centers, samples, boundaries):
    out = np.zeros((len(centers), len(samples), len(boundaries) - 1), dtype=np.int64)
    for i, a in enumerate(centers):
        for j, b in enumerate(samples):
            for w in range(len(boundaries) - 1):
                lo, hi = boundaries[w] + 1, boundaries[w + 1] + 1
                out[i, j, w] = np.all(a[lo:hi] == b[lo:hi], axis=1).sum()
    return out


def ref_min_window_overlap(a, b, min_len):
    eq = np.all(a[1:] == b[1:], axis=1).astype(np.float64)
    csum = np.concatenate([[0.0], np.cumsum(eq)])
    best = np.inf
    for w in range(min_len, min(2 * min_len + 1, len(eq)) + 1):
        best = min(best, float(((csum[w:] - csum[:-w]) / w).min()))
    return best


def extreme_paths(rng, n_paths, n, d, parents=None):
    """Walks that reach coordinates near +-n, optionally branching off parents.

    Each path is a ray along one signed axis with a few random steps mixed
    in; with ``parents`` it follows a random parent up to a random time, so
    pairs share sites in some windows and not in others.
    """
    out = np.zeros((n_paths, n + 1, d), dtype=np.int64)
    for r in range(n_paths):
        axis, sign = rng.integers(d), rng.choice((-1, 1))
        steps = np.zeros((n, d), dtype=np.int64)
        steps[:, axis] = sign
        free = rng.random(n) < rng.choice((0.0, 0.3))  # pure rays reach +-n
        steps[free] = 0
        steps[free, rng.integers(0, d, size=free.sum())] = rng.choice((-1, 1), size=free.sum())
        out[r, 1:] = np.cumsum(steps, axis=0)
        if parents is not None and rng.random() < 0.7:
            m = int(rng.integers(0, n + 1))
            p = parents[rng.integers(len(parents))]
            out[r, m + 1 :] += p[m] - out[r, m]
            out[r, : m + 1] = p[: m + 1]
    return out


packed_cases = st.tuples(
    st.integers(0, 2**32 - 1),  # seed
    st.sampled_from([1, 2, 3]),  # d
    st.integers(1, 40),  # n
    st.integers(1, 5),  # centers
    st.integers(1, 7),  # samples
)


class TestStepFeasible:
    def test_parity_examples(self):
        assert step_feasible((0,), (0,), 0)
        assert not step_feasible((0,), (0,), 1)
        assert step_feasible((0,), (3,), 3)
        assert not step_feasible((0,), (3,), 4)
        assert step_feasible((0,), (3,), 5)

    @pytest.mark.parametrize("d", [1, 2])
    def test_exhaustive_against_bfs(self, d):
        rng = np.random.default_rng(d)
        pts = [
            p
            for p in itertools.product(range(-4, 5), repeat=d)
            if sum(abs(c) for c in p) <= 4
        ]
        # exhaustive in s; random subsample of (x, y) pairs to stay quick
        for _ in range(60):
            x = pts[rng.integers(len(pts))]
            y = pts[rng.integers(len(pts))]
            for s in range(9):
                assert step_feasible(x, y, s) == bfs_reachable(x, y, s, d)


class TestConnectingPath:
    def test_oscillation(self):
        assert connecting_path((3,), 2, (3,), 4).ravel().tolist() == [3, 4, 3]

    def test_straight_shot(self):
        assert connecting_path((0,), 0, (2,), 2).ravel().tolist() == [0, 1, 2]

    def test_two_dim_rule(self):
        out = connecting_path((0, 0), 0, (1, 1), 4)
        assert out.tolist() == [[0, 0], [1, 0], [1, 1], [2, 1], [1, 1]]

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleConnectionError):
            connecting_path((0,), 0, (3,), 4)

    def test_random_properties(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            d = int(rng.integers(1, 4))
            x = rng.integers(-5, 6, size=d)
            y = rng.integers(-5, 6, size=d)
            dist = int(np.abs(y - x).sum())
            s = dist + 2 * int(rng.integers(0, 4))
            out = connecting_path(x, 0, y, s)
            assert out.shape == (s + 1, d)
            assert np.array_equal(out[0], x) and np.array_equal(out[-1], y)
            assert np.all(np.abs(np.diff(out, axis=0)).sum(axis=1) == 1) or s == 0
            assert np.array_equal(out, connecting_path(x, 0, y, s))

    @settings(deadline=None, max_examples=80)
    @given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.integers(0, 5))
    def test_matches_step_loop(self, d, seed, extra):
        rng = np.random.default_rng(seed)
        x = rng.integers(-6, 7, size=d)
        y = rng.integers(-6, 7, size=d)
        s = int(np.abs(y - x).sum()) + 2 * extra
        out = connecting_path(x, 3, y, 3 + s)
        assert out.dtype == np.int64
        assert np.array_equal(out, ref_connecting_path(x, y, s))


class TestMeetingTime:
    def test_same_path_meets_immediately(self, rw):
        sig = rw(np.random.default_rng(0), 1, 24)[0]
        p = make_partition(24, 3)
        t = meeting_time(sig, sig, p.boundaries[1], p.block_window(2))
        assert t == p.boundaries[1] + 1

    def test_out_of_reach_returns_none(self):
        n = 12
        far = as_path(np.arange(n + 1))          # runs right
        near = as_path(-np.arange(n + 1))        # runs left
        p = make_partition(n, 2)
        # from far's position at n_1, near's window sites are > window steps away
        assert meeting_time(far, near, p.boundaries[1], p.block_window(2)) is None

    def test_against_bfs_argmin(self, rw):
        rng = np.random.default_rng(9)
        n = 16
        p = make_partition(n, 2)
        lo, hi = p.block_window(2)
        for _ in range(40):
            a, b = rw(rng, 2, n)
            m = int(rng.integers(0, p.boundaries[1] + 1))
            got = meeting_time(a, b, m, (lo, hi))
            want = None
            for t in range(lo, hi + 1):
                if bfs_reachable(a[m], b[t], t - m, 1):
                    want = t
                    break
            assert got == want

    def test_anchor_must_precede_window(self, rw):
        a, b = rw(np.random.default_rng(1), 2, 10)
        with pytest.raises(ValueError):
            meeting_time(a, b, 6, (4, 8))


class TestConcatenate:
    def test_agreement_properties(self, rw):
        rng = np.random.default_rng(11)
        n = 60
        p = make_partition(n, 3)
        done = 0
        while done < 100:
            a, b = rw(rng, 2, n)
            ell = int(rng.integers(1, 3))
            sub = make_subpartition(p, ell, 5)
            k = int(rng.integers(1, 5))
            m = sub.boundaries[k]
            t = meeting_time(a, b, m, p.block_window(ell + 1))
            if t is None:
                continue
            out = splice_paths(a, b, m, t)
            assert is_valid_path(out)
            assert np.array_equal(out[: m + 1], a[: m + 1])
            assert np.array_equal(out[t:], b[t:])
            done += 1

    def test_same_path_round_trip(self, rw):
        a = rw(np.random.default_rng(2), 1, 40)[0]
        p = make_partition(40, 2)
        sub = make_subpartition(p, 1, 4)
        out = concatenate(a, a, 2, sub)
        m = sub.boundaries[2]
        t = meeting_time(a, a, m, p.block_window(2))
        assert np.array_equal(out[: m + 1], a[: m + 1])
        assert np.array_equal(out[t:], a[t:])
        assert is_valid_path(out)

    def test_index_bounds(self, rw):
        a, b = rw(np.random.default_rng(3), 2, 40)
        p = make_partition(40, 2)
        sub = make_subpartition(p, 2, 4)  # final block: no following window
        with pytest.raises(ValueError):
            concatenate(a, b, 1, sub)
        sub1 = make_subpartition(p, 1, 4)
        with pytest.raises(ValueError):
            concatenate(a, b, 4, sub1)


class TestDistinguishedSets:
    def test_singleton_stays_singleton(self, rw):
        a = rw(np.random.default_rng(4), 1, 96)[0]
        p = make_partition(96, 2)
        ds = build_distinguished_sets([a], p, delta=0.5)
        assert len(ds) == 1

    def test_pairwise_growth_bound(self, rw):
        rng = np.random.default_rng(5)
        paths = list(rw(rng, 2, 96))
        p = make_partition(96, 2)
        ds = build_distinguished_sets(paths, p, delta=0.5)
        K = default_refinement(0.5)
        assert K == 24
        # |D_2| <= |D_1| + |D_1|(|D_1|-1)(K-1) = 2 + 2*23 = 48 <= K|D_1|^2
        assert len(ds) <= 48 <= K * 4

    def test_levels_and_closed_form(self, rw):
        rng = np.random.default_rng(6)
        for trial in range(5):
            J = int(rng.integers(1, 5))
            paths = list(rw(rng, J, 120))
            L = int(rng.integers(2, 4))
            p = make_partition(120, L)
            delta = 0.6
            ds = build_distinguished_sets(paths, p, delta=delta)
            K = ds.K
            size = len(set(tuple(map(tuple, q)) for q in paths))
            for _ in range(L - 1):
                size = size + size * (size - 1) * (K - 1)
            assert len(ds) <= size
            assert len(ds) <= cardinality_bound(J, delta, L)
            assert all(is_valid_path(q) for q in ds.paths)

    def test_requires_wide_blocks(self, rw):
        paths = list(rw(np.random.default_rng(7), 2, 20))
        p = make_partition(20, 2)
        with pytest.raises(ValueError):
            build_distinguished_sets(paths, p, delta=0.5)  # needs floor(N/L) >= 24

    def test_provenance_recorded(self, rw):
        rng = np.random.default_rng(8)
        paths = list(rw(rng, 3, 96))
        p = make_partition(96, 2)
        ds = build_distinguished_sets(paths, p, delta=0.5)
        for q, origin in zip(ds.paths, ds.provenance):
            if origin is None:
                continue
            ia, ib, k, t = origin
            sub = make_subpartition(p, 1, ds.K)
            m = sub.boundaries[k]
            assert np.array_equal(q[: m + 1], ds.paths[ia][: m + 1])
            assert np.array_equal(q[t:], ds.paths[ib][t:])


class TestClaimReduction:
    def test_equal_paths_trivial(self, rw):
        rng = np.random.default_rng(9)
        p = make_partition(150, 3)
        sig, s1, _ = plant_overlap_instance(rng, p, 1, 0.5)
        rec = verify_claim_reduction(sig, s1, s1, 1, 0.5, p)
        if rec.hypotheses_hold:
            assert rec.ok

    def test_hypothesis_failure_reported_not_raised(self, rw):
        rng = np.random.default_rng(10)
        sig, s1, s2 = rw(rng, 3, 150)
        p = make_partition(150, 3)
        rec = verify_claim_reduction(sig, s1, s2, 1, 0.9, p)
        assert not rec.hypotheses_hold
        assert not rec.ok

    def test_planted_instances_never_violate(self):
        rng = np.random.default_rng(11)
        violations = 0
        for _ in range(500):
            delta = float(rng.uniform(0.3, 0.7))
            n = int(rng.integers(130, 220))
            p = make_partition(n, 3)
            ell = int(rng.integers(1, 3))
            sig, s1, s2 = plant_overlap_instance(rng, p, ell, delta)
            rec = verify_claim_reduction(sig, s1, s2, ell, delta, p)
            assert rec.hypotheses_hold
            if not rec.ok:
                violations += 1
        assert violations == 0

    def test_two_dense_subblocks_guaranteed(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            delta = float(rng.uniform(0.3, 0.7))
            n = int(rng.integers(130, 220))
            p = make_partition(n, 3)
            sig, s1, s2 = plant_overlap_instance(rng, p, 1, delta)
            rec = verify_claim_reduction(sig, s1, s2, 1, delta, p)
            if rec.hypotheses_hold and not np.array_equal(s1, s2):
                assert len(rec.k_candidates) >= 2

    def test_conclusion_thresholds(self, rw):
        rng = np.random.default_rng(13)
        p = make_partition(160, 4)
        sig, s1, s2 = plant_overlap_instance(rng, p, 2, 0.5)
        rec = verify_claim_reduction(sig, s1, s2, 2, 0.5, p)
        assert rec.hypotheses_hold and rec.ok
        assert rec.ell_overlap >= 0.5**2 / 104
        assert rec.next_overlap >= 0.5
        assert rec.prefix_overlaps_equal


class TestWindowMachinery:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 100_000), st.integers(6, 48), st.integers(1, 10))
    def test_min_window_matches_brute_force(self, seed, n, wmin):
        if wmin > n:
            return
        rng = np.random.default_rng(seed)
        steps = rng.choice((-1, 1), size=(2, n))
        a = np.concatenate([[0], np.cumsum(steps[0])])[:, None]
        b = np.concatenate([[0], np.cumsum(steps[1])])[:, None]
        got = min_window_overlap(a, b, wmin)
        brute = min(
            restricted_overlap(a, b, lo, hi)
            for lo in range(1, n + 1)
            for hi in range(lo + wmin - 1, n + 1)
        )
        assert abs(got - brute) < 1e-12

    def test_window_reduction_zero_violations(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            L = int(rng.integers(2, 9))
            n = int(rng.integers(max(3 * L, 24), 300))
            p = make_partition(n, L)
            eps = 1.0 if L == 2 else float(rng.uniform(2 / L, min(2 / (L - 1), 1.0)))
            sig, s1, _ = plant_overlap_instance(rng, p, None, float(rng.uniform(0.2, 0.7)))
            rmin = min(block_overlap(s1, sig, p, l) for l in range(1, L + 1))
            if rmin == 0:
                continue
            wlen = min(n, math.ceil(eps * n))
            a = int(rng.integers(1, n - wlen + 2))
            b = int(rng.integers(a + wlen - 1, n + 1))
            assert restricted_overlap(s1, sig, a, b) + 1e-12 >= rmin / 18.0

    def test_block_always_inside_long_window(self):
        # any window of length >= ceil(eps*N) with eps >= 2/L contains a block
        rng = np.random.default_rng(15)
        for _ in range(300):
            L = int(rng.integers(2, 12))
            n = int(rng.integers(L, 500))
            p = make_partition(n, L)
            eps = 2.0 / L
            wlen = min(n, math.ceil(eps * n))
            a = int(rng.integers(1, n - wlen + 2))
            b = a + wlen - 1
            assert any(
                a <= p.boundaries[l - 1] + 1 and p.boundaries[l] <= b
                for l in range(1, L + 1)
            )


class TestPackedKernels:
    @settings(deadline=None, max_examples=80)
    @given(packed_cases, st.booleans(), st.lists(st.integers(0, 40), max_size=5))
    def test_pairwise_counts_match_per_pair(self, case, whole, cuts):
        seed, d, n, n_c, n_s = case
        rng = np.random.default_rng(seed)
        centers = extreme_paths(rng, n_c, n, d)
        samples = extreme_paths(rng, n_s, n, d, parents=centers)
        # (0, n) or an uneven partition, empty blocks included
        bounds = (0, n) if whole else tuple(sorted([0, n] + [c % (n + 1) for c in cuts]))
        got = pairwise_counts(centers, samples, bounds)
        assert got.shape == (n_c, n_s, len(bounds) - 1)
        assert np.array_equal(got, ref_pairwise_counts(centers, samples, bounds))

    @settings(deadline=None, max_examples=80)
    @given(packed_cases, st.sampled_from(["one", "half", "all"]))
    def test_window_minima_match_per_pair(self, case, length):
        seed, d, n, n_c, n_s = case
        rng = np.random.default_rng(seed)
        centers = extreme_paths(rng, n_c, n, d)
        samples = extreme_paths(rng, n_s, n, d, parents=centers)
        min_len = {"one": 1, "half": max(1, n // 2), "all": n}[length]
        got = window_minima(centers, samples, min_len)
        ref = np.array([[ref_min_window_overlap(a, b, min_len) for b in samples] for a in centers])
        assert np.array_equal(got, ref)  # bit for bit
        assert np.array_equal(got.max(axis=0), [max(col) for col in ref.T])
        assert min_window_overlap(centers[0], samples[-1], min_len) == ref[0, -1]

    @pytest.mark.parametrize("big, key_dtype", [(2**20 - 25, np.uint64), (2**40, np.intp)])
    def test_wide_coordinates_neither_alias_nor_overflow(self, rw, big, key_dtype):
        # +-(2**20 - 25) leaves each axis just under 2**21 wide, so packed keys
        # fill 63 bits; +-2**40 is too wide to pack and the sites are ranked
        base = rw(np.random.default_rng(30), 6, 24, 3)
        far = base.copy()
        far[::2] += big
        far[1::3] -= big
        far[5, :, 2] += big  # differs from base in the last axis only
        centers, samples = far[:3], np.concatenate([far, base])
        assert _site_keys(centers, samples)[0].dtype == key_dtype
        bounds = (0, 7, 7, 24)
        assert np.array_equal(
            pairwise_counts(centers, samples, bounds),
            ref_pairwise_counts(centers, samples, bounds),
        )
        ref = [[ref_min_window_overlap(a, b, 5) for b in samples] for a in centers]
        assert np.array_equal(window_minima(centers, samples, 5), ref)

    def test_pairwise_counts_peak_memory_bound(self, rw):
        samples = rw(np.random.default_rng(31), 500, 512)
        bounds = make_partition(512, 4).boundaries
        tracemalloc.start()
        try:
            pairwise_counts(samples, samples, bounds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_coverage_report_keeps_window_statistic(self, rw):
        rng = np.random.default_rng(32)
        samples = rw(rng, 30, 40)
        centers = rw(rng, 4, 40)
        p = make_partition(40, 4)
        rep = coverage_report(centers, samples, 0.05, p, mode="global", epsilon=0.25)
        ref = [max(ref_min_window_overlap(c, s, 10) for c in centers) for s in samples]
        assert np.array_equal(rep.window_stats, ref)
        assert "window_stats" not in rep.to_json_record()
        assert coverage_report(centers, samples, 0.05, p).window_stats is None


class TestGreedyExtraction:
    def test_identical_samples(self):
        path = as_path(np.concatenate([[0], np.cumsum(np.ones(20, dtype=int))]))
        samples = np.repeat(path[None], 25, axis=0)
        rep = greedy_favorite_paths(samples, delta=0.9, epsilon=0.05)
        assert len(rep.path_indices) == 1
        assert rep.coverage == 1.0
        assert rep.localized

    def test_coverage_monotone_in_selection(self, rw):
        samples = rw(np.random.default_rng(16), 120, 64)
        rep = greedy_favorite_paths(samples, delta=0.15, epsilon=0.01, max_centers=15)
        trace = rep.selection_trace
        assert all(b >= a for a, b in zip(trace, trace[1:]))

    def test_coverage_non_increasing_in_delta(self, rw):
        samples = rw(np.random.default_rng(17), 100, 64)
        covs = [
            greedy_favorite_paths(samples, delta=d, epsilon=0.01, max_centers=8).coverage
            for d in (0.05, 0.15, 0.3, 0.6)
        ]
        assert all(b <= a for a, b in zip(covs, covs[1:]))

    def test_high_temperature_fails_to_localize(self):
        # free-walk overlaps sit at the N^{-1/2} scale, so a handful of
        # centers cannot reach the 1 - eps target at delta well above it
        params = LatticeParams(d=1, N=400)
        env = gaussian_env(18, params)
        table = forward_layers(env, BetaProfile.constant(0.0, 400))
        samples = sample_paths(table, 300, np.random.default_rng(1))
        rep = greedy_favorite_paths(samples, delta=0.1, epsilon=0.1, max_centers=5)
        assert rep.coverage < 0.9
        assert not rep.localized
        rep15 = greedy_favorite_paths(samples, delta=0.15, epsilon=0.1, max_centers=10)
        assert rep15.coverage < 0.9
        assert not rep15.localized

    def test_block_modes_need_partition(self, rw):
        samples = rw(np.random.default_rng(19), 10, 20)
        with pytest.raises(ValueError):
            greedy_favorite_paths(samples, 0.2, 0.1, mode="per-block-any")


class TestCoverageReport:
    def test_self_cover(self, rw):
        samples = rw(np.random.default_rng(20), 40, 48)
        p = make_partition(48, 4)
        for mode in ("global", "per-block-any", "per-block-uniform"):
            rep = coverage_report(samples, samples, 1.0, p, mode=mode)
            assert rep.coverage == 1.0

    def test_impossible_threshold(self, rw):
        samples = rw(np.random.default_rng(21), 30, 48)
        p = make_partition(48, 4)
        for mode in ("global", "per-block-any", "per-block-uniform"):
            rep = coverage_report(samples[:5], samples, 1.5, p, mode=mode)
            assert rep.coverage == 0.0

    def test_event_containment_chain(self, rw):
        # uniform(delta) <= any(delta) <= global(delta/(2L)) on a common set
        rng = np.random.default_rng(22)
        samples = rw(rng, 150, 60)
        centers = rw(rng, 12, 60)
        p = make_partition(60, 3)
        delta = 0.2
        uni = coverage_report(centers, samples, delta, p, mode="per-block-uniform")
        any_ = coverage_report(centers, samples, delta, p, mode="per-block-any")
        glob = coverage_report(centers, samples, delta / (2 * p.L), p, mode="global")
        assert uni.coverage <= any_.coverage <= glob.coverage

    def test_window_statistic(self, rw):
        samples = rw(np.random.default_rng(23), 20, 40)
        p = make_partition(40, 2)
        rep = coverage_report(samples[:3], samples, 0.05, p, mode="global", epsilon=0.25)
        assert rep.window_coverage is not None
        assert 0.0 <= rep.window_coverage <= 1.0
        # identical paths keep every window at overlap 1
        rep_self = coverage_report(samples[:1], samples[:1], 0.9, p, mode="global", epsilon=0.25)
        assert rep_self.window_coverage == 1.0


class TestPathEncoding:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_round_trip(self, rw, d):
        path = rw(np.random.default_rng(24), 1, 30, d)[0]
        assert np.array_equal(decode_path(encode_path(path), d), path)

    def test_format(self):
        q = as_path([[0, 0], [1, 0], [1, 1], [0, 1]], d=2)
        assert encode_path(q) == "+x,+y,-x"
        assert encode_path(q[:1]) == ""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_step_loop(self, rw, d):
        for path in rw(np.random.default_rng(33), 20, 50, d):
            assert encode_path(path) == ref_encode_path(path)

    @pytest.mark.parametrize("bad", [[[0, 0], [0, 0]], [[0, 0], [1, 1]]])
    def test_rejects_non_unit_steps(self, bad):
        with pytest.raises(ValueError):
            encode_path(np.array(bad))
