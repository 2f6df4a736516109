import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymerlab import localization
from polymerlab.lattice import (
    LatticeParams,
    MemoryGuardError,
    as_path,
    gaussian_env,
    is_valid_path,
    make_partition,
    make_subpartition,
)
from polymerlab.localization import (
    DS_MAX_PATHS,
    MODES,
    InfeasibleConnectionError,
    _anchored_path,
    _random_walk,
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
from polymerlab.overlap import block_overlap, overlap, overlap_count, restricted_overlap
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


def ref_anchored_path(rng, sig, anchors):
    """The per-anchor loop: one connecting_path call per anchor gap, then a walk."""
    n = sig.shape[0] - 1
    parts = [sig[0:1]]
    cur_t, cur_x = 0, sig[0]
    for a in anchors:
        parts.append(connecting_path(cur_x, cur_t, sig[a], int(a))[1:])
        cur_t, cur_x = int(a), sig[a]
    if cur_t < n:
        parts.append(_random_walk(rng, n - cur_t, sig.shape[1], start=cur_x)[1:])
    return np.concatenate(parts, axis=0)


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


def ref_build_distinguished_sets(d1_paths, p, delta, K=None, max_paths=DS_MAX_PATHS):
    """The per-candidate induction loop: meeting_time and splice_paths per (ia, ib, k)."""
    K = default_refinement(delta) if K is None else int(K)
    paths, seen, prov = [], set(), []
    for pa in d1_paths:
        a = np.asarray(pa)
        a = a[:, None] if a.ndim == 1 else a
        if a.tobytes() not in seen:
            seen.add(a.tobytes())
            paths.append(a)
            prov.append(None)
    for ell in range(1, p.L):
        sub = make_subpartition(p, ell, K)
        window = p.block_window(ell + 1)
        level_size = len(paths)
        for ia in range(level_size):
            for ib in range(level_size):
                if ia == ib:
                    continue
                for k in range(1, K):
                    m = sub.boundaries[k]
                    t = meeting_time(paths[ia], paths[ib], m, window)
                    if t is None:
                        continue
                    cand = splice_paths(paths[ia], paths[ib], m, t)
                    if cand.tobytes() in seen:
                        continue
                    seen.add(cand.tobytes())
                    paths.append(cand)
                    prov.append((ia, ib, k, t))
                    if len(paths) > max_paths:
                        raise MemoryGuardError(
                            f"distinguished set exceeded {max_paths} paths at level {ell + 1}"
                        )
    return paths, prov


def assert_same_sets(ds, ref):
    """Same provenance, and every decoded path equal to the oracle's, as (T, d) int64."""
    paths, prov = ref
    assert ds.provenance == tuple(prov)
    assert len(ds) == len(ds.paths) == len(paths)
    shape = np.shape(paths[0])
    for got, want in zip(ds.paths, paths):
        assert got.dtype == want.dtype == np.int64
        assert got.shape == want.shape == shape
        assert np.array_equal(got, want)


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


def perturbed(rng, path, k):
    """``path`` moved off itself at up to k random times, by swapping two unequal steps."""
    steps = np.diff(path, axis=0)
    for t in rng.choice(len(steps) - 1, size=k, replace=False):
        if not np.array_equal(steps[t], steps[t + 1]):
            steps[[t, t + 1]] = steps[[t + 1, t]]
    return np.concatenate([path[:1], path[0] + np.cumsum(steps, axis=0)])


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
        a, b = as_path(np.arange(9)), as_path(-np.arange(9))
        with pytest.raises(InfeasibleConnectionError):
            splice_paths(a, b, 2, 5)  # 3 steps from 2 to -5
        with pytest.raises(InfeasibleConnectionError):
            splice_paths(a, b, 2, 6)  # parity: 4 steps from 2 to -6
        jumpy = np.array([[0], [1], [2], [1], [3], [4]], dtype=np.int64)  # 1 -> 3 in one step
        for anchors in ([3, 4], [1, 3, 5], [4], [2, 3, 4, 5]):
            with pytest.raises(InfeasibleConnectionError) as want:
                ref_anchored_path(np.random.default_rng(0), jumpy, anchors)
            with pytest.raises(InfeasibleConnectionError) as got:
                _anchored_path(np.random.default_rng(0), jumpy, anchors)
            assert str(got.value) == str(want.value)

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
        assert meeting_time(far, far, 2, (5, 4)) is None  # empty window

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

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_splice_is_prefix_bridge_suffix(self, rw, d):
        rng, done = np.random.default_rng(40 + d), 0
        while done < 50:
            a, b = rw(rng, 2, 30, d)
            m, t = np.sort(rng.integers(0, 31, size=2))
            if step_feasible(a[m], b[t], t - m):
                out = splice_paths(a, b, m, t)
                assert out.dtype == np.int64 and out.shape == a.shape
                assert np.array_equal(out[:m], a[:m]) and np.array_equal(out[t + 1 :], b[t + 1 :])
                assert np.array_equal(out[m : t + 1], ref_connecting_path(a[m], b[t], t - m))
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

    @pytest.mark.parametrize("J", [1, 2, 3, 4])
    @pytest.mark.parametrize("L", [2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_induction_loop(self, rw, d, L, J):
        n = 10 * L + 2
        walks = rw(np.random.default_rng(1000 * d + 10 * L + J), J, n, d)
        # a duplicate seed; a far copy and an odd-parity copy that meet no other path
        odd = walks[-1].copy()
        odd[:, 0] += 1
        seeds = list(walks) + [walks[0].copy(), walks[-1] + 10**6, odd]
        if d == 1:
            seeds = [s[:, 0] for s in seeds]
        args = (seeds, make_partition(n, L), 1.0, 5)
        assert_same_sets(build_distinguished_sets(*args), ref_build_distinguished_sets(*args))

    def test_guard_fires_where_the_loop_does(self, rw):
        seeds = list(rw(np.random.default_rng(2034), 4, 32, 2))
        args = (seeds, make_partition(32, 3), 1.0, 5)
        paths, _ = ref_build_distinguished_sets(*args)
        for cap in (0, 3, 50, len(paths) - 1):
            with pytest.raises(MemoryGuardError) as want:
                ref_build_distinguished_sets(*args, max_paths=cap)
            with pytest.raises(MemoryGuardError, match=f"exceeded {cap} paths") as got:
                build_distinguished_sets(*args, max_paths=cap)
            assert str(got.value) == str(want.value)
        assert len(build_distinguished_sets(*args, max_paths=len(paths))) == len(paths)

    def test_level_three_peak_memory_bound(self, rw):
        seeds = list(rw(np.random.default_rng(41), 4, 120))
        tracemalloc.start()
        try:
            with pytest.raises(MemoryGuardError, match="2000 paths at level 3"):
                build_distinguished_sets(seeds, make_partition(120, 3), 0.6, max_paths=2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_localize_sized_peak_memory_bound(self, rw):
        # the localize_d1 induction: 10 favourite paths, N = 512, two levels,
        # K = 60; about 5,000 paths kept from about 5,300 candidates
        seeds = list(rw(np.random.default_rng(7), 10, 512))
        tracemalloc.start()
        try:
            ds = build_distinguished_sets(seeds, make_partition(512, 2), 0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ds) > 4000
        # int64 paths and their bytes keys would hold about 8 KB per path
        assert peak < 10 * 2**20
        assert ds.codes.dtype == np.uint8 and ds.codes.shape == (len(ds), 512)

    @pytest.mark.parametrize("d", [1, 2])
    def test_one_sub_block_keeps_the_seeds(self, rw, d):
        walks = list(rw(np.random.default_rng(17 + d), 3, 30, d))
        args = (walks + [walks[1].copy()], make_partition(30, 3), 1.0, 1)
        ds = build_distinguished_sets(*args)
        assert len(ds) == 3
        assert_same_sets(ds, ref_build_distinguished_sets(*args))

    def test_refuses_a_seed_that_is_not_a_nearest_neighbour_path(self, rw):
        a, b = rw(np.random.default_rng(19), 2, 40)
        b[5:] += 4
        with pytest.raises(ValueError, match="unit step"):
            build_distinguished_sets([a, b], make_partition(40, 2), 1.0, 5)

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

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_planted_instances_match_anchor_loop(self, monkeypatch, d):
        def plant_all(seed):
            rng = np.random.default_rng(seed)
            out = []
            for _ in range(40):
                p = make_partition(int(rng.integers(24, 90)), int(rng.integers(2, 5)))
                ell = None if rng.random() < 0.5 else int(rng.integers(1, p.L))
                out += plant_overlap_instance(rng, p, ell, float(rng.uniform(0.05, 1.0)), d)
            return out

        got = plant_all(d)
        monkeypatch.setattr(localization, "_anchored_path", ref_anchored_path)
        want = plant_all(d)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)

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
        # the window counts agree with one overlap_count per window
        assert rec.ell_overlap == block_overlap(rec.witness, sig, p, 2)
        assert rec.next_overlap == block_overlap(rec.witness, sig, p, 3)
        sub = make_subpartition(p, 2, default_refinement(0.5))
        threshold = 0.5 * p.N / (4.0 * p.L * sub.K)
        dense = [k for k in range(1, sub.K + 1)
                 if overlap_count(s1, sig, *sub.sub_window(k)) + 1e-12 >= threshold]
        assert rec.k_candidates == tuple(dense)


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

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("min_len", [1, 2, 5])
    def test_window_minima_at_twice_min_len(self, min_len, extra, d):
        # n = 2*min_len + extra: windows of length 2*min_len.. are not scanned
        n = 2 * min_len + extra
        rng = np.random.default_rng(100 * min_len + 10 * extra + d)
        centers = extreme_paths(rng, 4, n, d)
        samples = extreme_paths(rng, 6, n, d, parents=centers)
        got = window_minima(centers, samples, min_len)
        ref = np.array([[ref_min_window_overlap(a, b, min_len) for b in samples] for a in centers])
        assert np.array_equal(got, ref)
        for (ci, si), v in np.ndenumerate(got):
            eq = np.all(centers[ci, 1:] == samples[si, 1:], axis=1)
            every = min(eq[lo : lo + w].sum() / w
                        for w in range(min_len, n + 1) for lo in range(n - w + 1))
            assert v == every

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

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("n", [255, 256, 257])
    def test_counters_at_lane_widths(self, rw, d, n):
        # the long window has n steps: uint8 counters hold 255, uint16 from 256.
        # Copies coincide at every step, so a count reaches n; independent
        # walks leave empty windows and perturbed copies live ones, all in one tile
        rng = np.random.default_rng(10 * n + d)
        base = rw(rng, 3, n, d)
        centers = np.stack([base[0], base[1], perturbed(rng, base[0], 40)])
        samples = np.concatenate([base, [perturbed(rng, base[1], 10)]])
        bounds = (0, 0, n, n)  # an empty block either side of the long window
        got = pairwise_counts(centers, samples, bounds)
        assert got.dtype == (np.uint8 if n <= 255 else np.uint16) and got.max() == n
        assert np.array_equal(got, ref_pairwise_counts(centers, samples, bounds))
        got = window_minima(centers, samples, 3)
        assert got[0, 2] == 0.0 and 0.0 < got[2, 0] < 1.0
        # 2*min_len - 1 below n, then past it
        for min_len in (3, 100, 200):
            got = window_minima(centers, samples, min_len)
            ref = [[ref_min_window_overlap(a, b, min_len) for b in samples] for a in centers]
            assert np.array_equal(got, ref) and got.max() == 1.0

    def test_window_minima_across_tiles(self, monkeypatch):
        # 8 samples of 2**16 steps fill a tile with two centers, so the third
        # center is a second tile; the first tile holds a live and an empty pair
        n, min_len = 2**16, 4
        rng = np.random.default_rng(34)
        samples = np.zeros((8, n + 1), dtype=np.int64)
        samples[:, 1:] = np.cumsum(rng.choice((-1, 1), size=(8, n)), axis=1)
        centers = np.stack([perturbed(rng, samples[3, :, None], 1250)[:, 0],
                            np.concatenate([[0], np.cumsum(rng.choice((-1, 1), size=n))]),
                            samples[7]])
        tiles = []
        tile_minima = localization._tile_minima

        def spy(c, s, m):
            tiles.append(len(c))
            return tile_minima(c, s, m)

        monkeypatch.setattr(localization, "_tile_minima", spy)
        got = window_minima(centers, samples, min_len)
        assert tiles == [2, 1]
        ref = [[ref_min_window_overlap(a[:, None], b[:, None], min_len) for b in samples]
               for a in centers]
        assert np.array_equal(got, ref)
        assert 0.0 < got[0, 3] < 1.0 and got[2, 7] == 1.0 and (got[1] == 0).all()

    @pytest.mark.parametrize("live, bound", [(False, 13_113_951), (True, 13_113_935)])
    def test_window_minima_peak_memory_bound(self, rw, live, bound):
        # the localize_d1 shape: 10 centers, 500 samples, N = 512, min_len 52.
        # bound is the tracemalloc peak (numpy 2.4.6) of the earlier scan of
        # every length over all pairs, which held a bool tensor, its prefix
        # sums and a cast copy at once; with every pair live the whole tile is
        # gathered for the long scan
        samples = rw(np.random.default_rng(33), 500, 512)
        if live:
            samples = np.repeat(samples[:1], 500, axis=0)
        tracemalloc.start()
        try:
            got = window_minima(samples[:10], samples, 52)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (got > 0).all() if live else (got == 0).mean() > 0.99
        assert peak <= bound

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

    def test_shared_stack_keyed_once(self, rw):
        # pairwise_counts(samples, samples, ...) keys the samples once, straight
        # into the narrow key dtype: the int64 concatenation, offsets and
        # products of both copies peaked at 11.7 MiB, 3.8 MiB of it the result
        samples = rw(np.random.default_rng(31), 500, 512)
        kc, ks = _site_keys(samples, samples)
        assert kc is ks and kc.dtype == np.uint8 and kc.shape == (500, 513)
        a, b = _site_keys(samples, samples.copy())
        assert a is not b and np.array_equal(a, b)
        bounds = make_partition(512, 4).boundaries
        tracemalloc.start()
        try:
            got = pairwise_counts(samples, samples, bounds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < got.nbytes + 1.5 * 2**20
        assert np.array_equal(got, pairwise_counts(samples, samples.copy(), bounds))

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

    @pytest.mark.parametrize("delta", [0.1, 0.2, 0.25, 1 / 3, 0.5, 1.0])
    def test_count_thresholds_make_the_float_tests_decisions(self, delta):
        # the cover compares integer counts with one threshold per block size
        # instead of testing c + 1e-9 >= delta * s on a float64 copy of them
        sizes = np.arange(1, 513)
        assert (delta * sizes == np.round(delta * sizes)).any()  # integer delta * s
        counts = np.arange(514)[:, None]
        got = counts >= localization._count_thresholds(delta, sizes)
        assert np.array_equal(got, counts + 1e-9 >= delta * sizes)

    def test_block_modes_need_partition(self, rw):
        samples = rw(np.random.default_rng(19), 10, 20)
        with pytest.raises(ValueError):
            greedy_favorite_paths(samples, 0.2, 0.1, mode="per-block-any")


class TestSharedCounts:
    """Reports read from one shared count tensor equal reports that build their own."""

    @staticmethod
    def assert_same_report(got, want):
        for f in dataclasses.fields(got):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if f.name in ("paths", "window_stats"):
                assert (a is None and b is None) or np.array_equal(a, b), f.name
            else:
                assert a == b, f.name

    @pytest.mark.parametrize("d", [1, 2])
    def test_reports_match_their_own_counts(self, rw, d):
        samples = rw(np.random.default_rng(50 + d), 80, 48, d)
        p = make_partition(48, 4)
        counts = pairwise_counts(samples, samples, p.boundaries)
        for mode in MODES:
            part = p if mode != "global" else None
            got = greedy_favorite_paths(samples, 0.15, 0.05, mode, part, 6, counts=counts)
            self.assert_same_report(got, greedy_favorite_paths(samples, 0.15, 0.05, mode, part, 6))
            chosen = got.path_indices
            for cov_mode in MODES:
                args = (samples[chosen], samples, 0.15, p, cov_mode, 0.1)
                got_cov = coverage_report(*args, counts=counts[chosen])
                self.assert_same_report(got_cov, coverage_report(*args))

    def test_mismatched_counts_rejected(self, rw):
        samples = rw(np.random.default_rng(52), 20, 24)
        p = make_partition(24, 3)
        whole = pairwise_counts(samples, samples, (0, 24))
        with pytest.raises(ValueError, match="do not match"):
            greedy_favorite_paths(samples, 0.2, 0.1, "per-block-any", p, counts=whole)
        with pytest.raises(ValueError, match="do not match"):
            coverage_report(samples, samples[:5], 0.2, p, counts=whole)


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

    def test_threshold_cap_past_the_count_dtype(self, rw):
        # a 255-step block counts in uint8; its threshold at delta > 1 is 256
        samples = np.repeat(rw(np.random.default_rng(25), 1, 255), 3, axis=0)
        p = make_partition(255, 1)
        for mode in ("per-block-any", "per-block-uniform"):
            assert coverage_report(samples, samples, 1.01, p, mode=mode).coverage == 0.0
            assert greedy_favorite_paths(samples, 1.01, 0.1, mode, p).coverage == 0.0

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

    @pytest.mark.parametrize("spec", ["+q", "+x,,+x", "x", "*x", "+x,", "+z", "+x,-y "])
    def test_decode_rejects_malformed_tokens(self, spec):
        with pytest.raises(ValueError, match="malformed step token"):
            decode_path(spec, 2)

    @pytest.mark.parametrize("bad", [[[0, 0], [0, 0]], [[0, 0], [1, 1]], [[0], [2], [1]],
                                     [[0, 0], [0, -3]]])
    def test_rejects_non_unit_steps(self, bad):
        with pytest.raises(ValueError, match="unit step"):
            encode_path(np.array(bad))
