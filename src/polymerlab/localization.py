"""Constructive path-localization machinery.

Implements the concatenation toolkit (feasibility, deterministic connecting
paths, meeting times, path splicing), the distinguished-set induction with
its cardinality bounds, a runtime verifier for the inductive overlap-transfer
claim, and greedy favorite-path extraction over sampled Gibbs trajectories
together with coverage reports for the union/intersection localization events
and the sliding-window statistic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import PartitionScheme, SubPartition, make_subpartition
from .overlap import overlap_count

AXIS_NAMES = ("x", "y", "z")


class InfeasibleConnectionError(ValueError):
    """No nearest-neighbor path of the requested length exists."""


def default_refinement(delta: float) -> int:
    """Sub-blocks per block used by the concatenation construction: ceil(12/delta)."""
    if not 0 < delta:
        raise ValueError("delta must be positive")
    return math.ceil(12.0 / delta)


def step_feasible(x, y, s: int) -> bool:
    """True iff some nearest-neighbor path joins x to y in exactly s steps.

    Requires s >= ||x - y||_1 with matching parity.
    """
    if s < 0:
        raise ValueError("step count must be >= 0")
    dist = int(np.abs(np.asarray(y, dtype=np.int64) - np.asarray(x, dtype=np.int64)).sum())
    return s >= dist and (s - dist) % 2 == 0


def connecting_path(x, i: int, y, t: int) -> np.ndarray:
    """Deterministic nearest-neighbor path from (i, x) to (t, y).

    Rule: close coordinate discrepancies in coordinate order, lowest index
    first, stepping toward the target; spend any remaining steps oscillating
    +e1 / -e1.  Returns the (t - i + 1, d) site sequence including both ends.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.int64))
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    s = t - i
    if not step_feasible(x, y, s):
        raise InfeasibleConnectionError(
            f"no {s}-step path between {x.tolist()} and {y.tolist()}"
        )
    gap = y - x
    dist = int(np.abs(gap).sum())
    axes = np.repeat(np.arange(x.size), np.abs(gap))
    steps = np.zeros((s, x.size), dtype=np.int64)
    steps[np.arange(dist), axes] = np.sign(gap)[axes]
    steps[dist::2, 0] = 1
    steps[dist + 1 :: 2, 0] = -1
    return np.concatenate([x[None], x + np.cumsum(steps, axis=0)])


def meeting_time(sigma1: np.ndarray, sigma2: np.ndarray, m: int, window) -> int | None:
    """Earliest t in ``window`` such that sigma2[t] is reachable from
    (m, sigma1[m]) by some nearest-neighbor path.

    window is the closed integer interval (lo, hi).  Returns None when no t
    in the window is feasible (the infimum over the empty set).
    """
    lo, hi = window
    if m > lo - 1:
        raise ValueError(f"anchor time {m} must precede the window start {lo}")
    s1 = np.asarray(sigma1)
    s2 = np.asarray(sigma2)
    if s1.ndim == 1:
        s1 = s1[:, None]
    if s2.ndim == 1:
        s2 = s2[:, None]
    anchor = s1[m]
    ts = np.arange(lo, hi + 1)
    targets = s2[lo : hi + 1]
    dist = np.abs(targets - anchor[None, :]).sum(axis=1)
    steps = ts - m
    feas = (steps >= dist) & ((steps - dist) % 2 == 0)
    idx = np.flatnonzero(feas)
    return int(ts[idx[0]]) if idx.size else None


def splice_paths(sigma1: np.ndarray, sigma2: np.ndarray, m: int, t: int) -> np.ndarray:
    """Follow sigma1 to time m, connect to sigma2[t], then follow sigma2."""
    a = np.asarray(sigma1)
    b = np.asarray(sigma2)
    if a.ndim == 1:
        a, b = a[:, None], b[:, None]
    bridge = connecting_path(a[m], m, b[t], t)
    return np.concatenate([a[: m + 1], bridge[1:], b[t + 1 :]], axis=0)


def concatenate(
    sigma1: np.ndarray, sigma2: np.ndarray, k: int, sub: SubPartition
) -> np.ndarray:
    """Concatenated path anchored at sub-block boundary k of block ell.

    Agrees with sigma1 through m_k and with sigma2 from the meeting time in
    the following block onward.
    """
    p = sub.parent
    if sub.ell >= p.L:
        raise ValueError("concatenation needs a following block")
    if not 1 <= k <= sub.K - 1:
        raise ValueError(f"sub-block boundary index {k} outside 1..{sub.K - 1}")
    m = sub.boundaries[k]
    t = meeting_time(sigma1, sigma2, m, p.block_window(sub.ell + 1))
    if t is None:
        raise InfeasibleConnectionError(
            f"no meeting time in block {sub.ell + 1} from anchor {m}"
        )
    return splice_paths(sigma1, sigma2, m, t)


# ---------------------------------------------------------------------------
# Distinguished sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistinguishedSet:
    """Paths accumulated by the concatenation induction up to ``level``.

    provenance[i] is None for seed paths and (i_prime, i_dprime, k, t) for a
    path spliced from paths i_prime, i_dprime at sub-boundary k, meeting at t.
    """

    level: int
    K: int
    paths: tuple
    provenance: tuple

    def __len__(self) -> int:
        return len(self.paths)


def build_distinguished_sets(
    d1_paths,
    p: PartitionScheme,
    delta: float,
    K: int | None = None,
    max_paths: int = 200_000,
) -> DistinguishedSet:
    """Run the concatenation induction from level 1 to level L.

    At each level, every ordered pair of distinct paths contributes one
    concatenated path per sub-block boundary with a finite meeting time.
    The growth obeys |D_{level+1}| <= K |D_level|^2, which explodes quickly;
    ``max_paths`` guards against runaway configurations.
    """
    K = default_refinement(delta) if K is None else int(K)
    if p.N // p.L < K:
        raise ValueError(
            f"floor(N/L) = {p.N // p.L} < K = {K}; N too small for this delta"
        )
    paths = []
    seen = set()
    prov = []
    for pa in d1_paths:
        a = np.asarray(pa)
        a = a[:, None] if a.ndim == 1 else a
        key = a.tobytes()
        if key not in seen:
            seen.add(key)
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
                    key = cand.tobytes()
                    if key in seen:
                        continue
                    seen.add(key)
                    paths.append(cand)
                    prov.append((ia, ib, k, t))
                    if len(paths) > max_paths:
                        raise MemoryError(
                            f"distinguished set exceeded {max_paths} paths at level {ell + 1}"
                        )
    return DistinguishedSet(level=p.L, K=K, paths=tuple(paths), provenance=tuple(prov))


def cardinality_bound(J: int, delta: float, L: int) -> float:
    """Closed-form growth cap (13/delta)^(2^(L-1)-1) * J^(2^(L-1))."""
    e = 2 ** (L - 1)
    return (13.0 / delta) ** (e - 1) * float(J) ** e


# ---------------------------------------------------------------------------
# Inductive overlap-transfer verifier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClaimRecord:
    """Outcome of one inductive overlap-transfer check.

    Hypotheses: the test path sigma overlaps sigma1 at density >= delta on
    block ell and sigma2 at density >= delta on block ell+1.  The verifier
    reconstructs the concatenated witness and checks the three conclusions:
    earlier-block overlaps unchanged, block-ell overlap >= delta^2/104, and
    block-(ell+1) overlap >= delta.
    """

    hypotheses_hold: bool
    ell: int
    delta: float
    k_candidates: tuple = ()
    k1: int | None = None
    k2: int | None = None
    meeting: int | None = None
    witness: np.ndarray | None = None
    prefix_overlaps_equal: bool | None = None
    ell_overlap: float | None = None
    next_overlap: float | None = None
    ok: bool = False


def verify_claim_reduction(
    sigma: np.ndarray,
    sigma1: np.ndarray,
    sigma2: np.ndarray,
    ell: int,
    delta: float,
    p: PartitionScheme,
    K: int | None = None,
) -> ClaimRecord:
    """Check the overlap-transfer step on one concrete instance."""
    K = default_refinement(delta) if K is None else int(K)
    if not 1 <= ell <= p.L - 1:
        raise ValueError(f"need 1 <= ell <= L-1, got ell={ell}")
    sig = np.asarray(sigma)
    s1 = np.asarray(sigma1)
    s2 = np.asarray(sigma2)
    if sig.ndim == 1:
        sig, s1, s2 = sig[:, None], s1[:, None], s2[:, None]

    lo, hi = p.block_window(ell)
    nlo, nhi = p.block_window(ell + 1)
    size_ell = hi - lo + 1
    size_next = nhi - nlo + 1
    r1 = overlap_count(s1, sig, lo, hi) / size_ell
    r2 = overlap_count(s2, sig, nlo, nhi) / size_next
    if r1 < delta or r2 < delta:
        return ClaimRecord(hypotheses_hold=False, ell=ell, delta=delta)

    eps = 1e-12
    if np.array_equal(s1, s2):
        witness = s1
        pre_ok = True
        r_ell = overlap_count(witness, sig, lo, hi) / size_ell
        r_next = overlap_count(witness, sig, nlo, nhi) / size_next
        ok = r_ell + eps >= delta * delta / 104.0 and r_next + eps >= delta
        return ClaimRecord(
            hypotheses_hold=True, ell=ell, delta=delta, witness=witness,
            prefix_overlaps_equal=pre_ok, ell_overlap=r_ell, next_overlap=r_next, ok=ok,
        )

    sub = make_subpartition(p, ell, K)
    threshold = delta * p.N / (4.0 * p.L * K)
    counts = np.array(
        [overlap_count(s1, sig, *sub.sub_window(k)) for k in range(1, K + 1)]
    )
    cands = tuple(int(k) for k in np.flatnonzero(counts + eps >= threshold) + 1)
    if len(cands) < 2:
        return ClaimRecord(
            hypotheses_hold=True, ell=ell, delta=delta, k_candidates=cands, ok=False
        )
    k1, k2 = cands[0], cands[1]
    m = sub.boundaries[k1]
    t = meeting_time(s1, s2, m, (nlo, nhi))
    if t is None:
        return ClaimRecord(
            hypotheses_hold=True, ell=ell, delta=delta,
            k_candidates=cands, k1=k1, k2=k2, ok=False,
        )
    witness = splice_paths(s1, s2, m, t)

    pre_ok = all(
        overlap_count(witness, sig, *p.block_window(lp))
        == overlap_count(s1, sig, *p.block_window(lp))
        for lp in range(1, ell)
    )
    r_ell = overlap_count(witness, sig, lo, hi) / size_ell
    r_next = overlap_count(witness, sig, nlo, nhi) / size_next
    ok = (
        pre_ok
        and r_ell + eps >= delta * delta / 104.0
        and r_next + eps >= delta
    )
    return ClaimRecord(
        hypotheses_hold=True, ell=ell, delta=delta, k_candidates=cands,
        k1=k1, k2=k2, meeting=t, witness=witness,
        prefix_overlaps_equal=pre_ok, ell_overlap=r_ell, next_overlap=r_next, ok=ok,
    )


# ---------------------------------------------------------------------------
# Pairwise overlap matrices
# ---------------------------------------------------------------------------

def _site_keys(*stacks) -> list:
    """One integer per (path, time) site of each (n, T, d) stack, equal iff the sites are.

    Per-axis offsets are packed in mixed radix into the narrowest unsigned
    dtype that holds every key; ranges too wide for 63 bits are ranked instead.
    """
    sites = [a.reshape(-1, a.shape[-1]) for a in stacks]
    flat = np.concatenate(sites)
    lo = flat.min(axis=0, initial=0)
    span = flat.max(axis=0, initial=0) - lo + 1
    size = math.prod(int(v) for v in span)
    if size <= 2**63:
        radix = np.cumprod(np.concatenate([[1], span[:-1]]))
        keys = ((flat - lo) @ radix).astype(np.min_scalar_type(size - 1))
    else:
        keys = np.unique(flat, axis=0, return_inverse=True)[1].reshape(-1)
    cuts = np.cumsum([len(x) for x in sites])[:-1]
    return [k.reshape(a.shape[:-1]) for k, a in zip(np.split(keys, cuts), stacks)]


def _as_stack(paths) -> np.ndarray:
    """(n, T, d) view of a path stack given as (n, T, d) or (n, T) for d = 1."""
    arr = np.asarray(paths)
    return arr[:, :, None] if arr.ndim == 2 else arr


def pairwise_counts(centers: np.ndarray, samples: np.ndarray, boundaries) -> np.ndarray:
    """Coincidence counts per window: (n_centers, n_samples, n_windows).

    ``boundaries`` are partition boundaries; window w covers times
    boundaries[w]+1 .. boundaries[w+1].  Sites are compared as packed keys
    one time step at a time, so besides the int32 result only one
    (n_centers, n_samples) bool array is held.
    """
    keys = _site_keys(_as_stack(centers), _as_stack(samples))
    c, s = (np.ascontiguousarray(k.T) for k in keys)  # time-major
    cuts = np.asarray(boundaries)
    out = np.zeros((len(cuts) - 1, c.shape[1], s.shape[1]), dtype=np.int32)
    for w, acc in enumerate(out):
        for t in range(cuts[w] + 1, cuts[w + 1] + 1):
            acc += c[t, :, None] == s[t]
    return np.moveaxis(out, 0, 2)


def window_minima(centers, samples, min_len: int) -> np.ndarray:
    """(n_centers, n_samples) array of ``min_window_overlap`` for every pair.

    Only lengths up to 2*min_len + 1 need scanning: any longer window splits
    into pieces in that range and its overlap is a weighted average of the
    piece overlaps, so it can never beat the piece minimum from below.  Each
    length's minimum count is divided by the length afterwards, which is
    monotone, so the result equals the minimum of the window means bit for bit.
    """
    c, s = _site_keys(_as_stack(centers), _as_stack(samples))
    n = s.shape[1] - 1
    if not 1 <= min_len <= n:
        raise ValueError(f"window length {min_len} outside 1..{n}")
    out = np.full((c.shape[0], s.shape[0]), np.inf)
    tile = max(1, 2**22 // max(1, s.shape[0] * n))  # ~4M cells: temporaries of a few MB
    for lo in range(0, c.shape[0], tile):
        eq = c[lo : lo + tile, None, 1:] == s[None, :, 1:]
        acc = np.zeros(eq.shape[:2] + (n + 1,), np.min_scalar_type(n))
        np.cumsum(eq, axis=2, out=acc[:, :, 1:])
        best = out[lo : lo + tile]
        for w in range(min_len, min(2 * min_len + 1, n) + 1):
            np.minimum(best, (acc[:, :, w:] - acc[:, :, :-w]).min(axis=2) / w, out=best)
    return out


def _cover_from_counts(counts: np.ndarray, sizes: np.ndarray, delta: float) -> np.ndarray:
    """Boolean cover relation per window at threshold delta."""
    return counts + 1e-9 >= delta * sizes[None, None, :]


# ---------------------------------------------------------------------------
# Greedy extraction and coverage reports
# ---------------------------------------------------------------------------

MODES = ("global", "per-block-any", "per-block-uniform")


@dataclass
class LocalizationReport:
    """Summary of one favorite-path extraction or coverage evaluation."""

    mode: str
    delta: float
    epsilon: float
    n_samples: int
    coverage: float
    path_indices: list
    paths: list = field(repr=False)
    localized: bool = False
    per_block_coverage: list | None = None
    selection_trace: list | None = None  # coverage after each greedy pick
    window_epsilon: float | None = None
    window_coverage: float | None = None  # sliding-window event frequency
    # per sample, the best candidate's min_window_overlap; not serialised
    window_stats: np.ndarray | None = field(default=None, repr=False)

    def to_json_record(self, seed: int | None = None) -> dict:
        rec = {
            "mode": self.mode,
            "delta": float(self.delta),
            "epsilon": float(self.epsilon),
            "seed": seed,
            "n_samples": int(self.n_samples),
            "n_paths": len(self.paths),
            "coverage": float(self.coverage),
            "localized": bool(self.localized),
            "path_indices": [int(i) for i in self.path_indices],
            "paths": [encode_path(np.asarray(p)) for p in self.paths],
        }
        if self.per_block_coverage is not None:
            rec["per_block_coverage"] = [float(v) for v in self.per_block_coverage]
        if self.selection_trace is not None:
            rec["selection_trace"] = [float(v) for v in self.selection_trace]
        if self.window_coverage is not None:
            rec["window_epsilon"] = float(self.window_epsilon)
            rec["window_coverage"] = float(self.window_coverage)
        return rec


def _greedy_cover(cover: np.ndarray, target: float, max_centers: int | None):
    """Greedy set cover on a (centers, samples) boolean relation.

    Ties break toward the lowest center index.  Stops at target coverage,
    zero marginal gain, or the center budget.
    """
    n_samples = cover.shape[1]
    uncovered = np.ones(n_samples, dtype=bool)
    chosen: list[int] = []
    trace: list[float] = []
    budget = cover.shape[0] if max_centers is None else int(max_centers)
    while len(chosen) < budget:
        gains = cover[:, uncovered].sum(axis=1)
        best = int(np.argmax(gains))
        if gains[best] == 0:
            break
        chosen.append(best)
        uncovered &= ~cover[best]
        cov = 1.0 - uncovered.mean()
        trace.append(float(cov))
        if cov >= target:
            break
    return chosen, 1.0 - uncovered.mean(), trace


def greedy_favorite_paths(
    samples,
    delta: float,
    epsilon: float,
    mode: str = "global",
    p: PartitionScheme | None = None,
    max_centers: int | None = None,
) -> LocalizationReport:
    """Extract distinguished paths from Gibbs samples by greedy set cover.

    Candidate centers are the samples themselves.  Cover relations by mode:
    global, overall overlap >= delta; per-block-uniform, block overlap >=
    delta in every block simultaneously (one center covers all blocks);
    per-block-any, greedy runs per block and a sample counts covered when
    every block is covered by some selected center.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    arr = _as_stack(samples)
    n = arr.shape[1] - 1
    if mode != "global" and p is None:
        raise ValueError("block modes need a partition")

    if mode == "global":
        counts = pairwise_counts(arr, arr, (0, n))
        cover = _cover_from_counts(counts, np.array([n]), delta)[:, :, 0]
        chosen, cov, trace = _greedy_cover(cover, 1.0 - epsilon, max_centers)
        return LocalizationReport(
            mode=mode, delta=delta, epsilon=epsilon, n_samples=arr.shape[0],
            coverage=float(cov), path_indices=chosen,
            paths=[arr[i] for i in chosen], localized=cov >= 1.0 - epsilon,
            selection_trace=trace,
        )

    counts = pairwise_counts(arr, arr, p.boundaries)
    sizes = np.asarray(p.sizes)
    cover_blocks = _cover_from_counts(counts, sizes, delta)

    if mode == "per-block-uniform":
        cover = cover_blocks.all(axis=2)
        chosen, cov, trace = _greedy_cover(cover, 1.0 - epsilon, max_centers)
        per_block = [
            float(cover_blocks[chosen, :, w].any(axis=0).mean()) if chosen else 0.0
            for w in range(p.L)
        ]
        return LocalizationReport(
            mode=mode, delta=delta, epsilon=epsilon, n_samples=arr.shape[0],
            coverage=float(cov), path_indices=chosen,
            paths=[arr[i] for i in chosen], localized=cov >= 1.0 - epsilon,
            per_block_coverage=per_block, selection_trace=trace,
        )

    # per-block-any: cover each block separately, union the centers
    chosen: list[int] = []
    per_block = []
    for w in range(p.L):
        ch, cov_w, _ = _greedy_cover(cover_blocks[:, :, w], 1.0 - epsilon, max_centers)
        per_block.append(float(cov_w))
        for i in ch:
            if i not in chosen:
                chosen.append(i)
    covered = (
        cover_blocks[chosen].any(axis=0).all(axis=1)
        if chosen
        else np.zeros(arr.shape[0], dtype=bool)
    )
    cov = float(covered.mean())
    return LocalizationReport(
        mode=mode, delta=delta, epsilon=epsilon, n_samples=arr.shape[0],
        coverage=cov, path_indices=chosen,
        paths=[arr[i] for i in chosen], localized=cov >= 1.0 - epsilon,
        per_block_coverage=per_block,
    )


def coverage_report(
    paths,
    samples,
    delta: float,
    p: PartitionScheme,
    mode: str = "global",
    epsilon: float | None = None,
) -> LocalizationReport:
    """Coverage of given candidate paths over given samples, by mode.

    With ``epsilon`` set, also evaluates the sliding-window event: the
    fraction of samples whose best candidate keeps restricted overlap >=
    delta on every window of length >= ceil(epsilon * N).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    cent, samp = _as_stack(paths), _as_stack(samples)
    n = samp.shape[1] - 1

    if mode == "global":
        counts = pairwise_counts(cent, samp, (0, n))
        cover = _cover_from_counts(counts, np.array([n]), delta)[:, :, 0]
        covered = cover.any(axis=0)
        per_block = None
    else:
        counts = pairwise_counts(cent, samp, p.boundaries)
        cover_blocks = _cover_from_counts(counts, np.asarray(p.sizes), delta)
        if mode == "per-block-uniform":
            covered = cover_blocks.all(axis=2).any(axis=0)
        else:
            covered = cover_blocks.any(axis=0).all(axis=1)
        per_block = [
            float(cover_blocks[:, :, w].any(axis=0).mean()) for w in range(p.L)
        ]

    win_cov = win_stats = None
    if epsilon is not None:
        wmin = max(1, math.ceil(epsilon * n))
        win_stats = window_minima(cent, samp, wmin).max(axis=0)
        win_cov = float((win_stats + 1e-12 >= delta).mean())

    cov = float(covered.mean())
    eps_out = epsilon if epsilon is not None else 0.0
    return LocalizationReport(
        mode=mode, delta=delta, epsilon=eps_out, n_samples=samp.shape[0],
        coverage=cov, path_indices=list(range(cent.shape[0])),
        paths=[cent[i] for i in range(cent.shape[0])],
        localized=cov >= 1.0 - eps_out if epsilon is not None else False,
        per_block_coverage=per_block,
        window_epsilon=epsilon, window_coverage=win_cov, window_stats=win_stats,
    )


def min_window_overlap(a, b, min_len: int) -> float:
    """Minimum restricted overlap of paths a and b over all windows of length >= min_len."""
    return float(window_minima([a], [b], min_len)[0, 0])


# ---------------------------------------------------------------------------
# Planted instances
# ---------------------------------------------------------------------------

def _random_walk(rng: np.random.Generator, n: int, d: int, start=None) -> np.ndarray:
    axes = rng.integers(0, d, size=n)
    signs = rng.choice((-1, 1), size=n)
    steps = np.zeros((n, d), dtype=np.int64)
    steps[np.arange(n), axes] = signs
    out = np.zeros((n + 1, d), dtype=np.int64)
    if start is not None:
        out[0] = start
    out[1:] = out[0] + np.cumsum(steps, axis=0)
    return out


def _anchored_path(rng: np.random.Generator, sig: np.ndarray, anchors) -> np.ndarray:
    """Valid path that coincides with ``sig`` at the given sorted times.

    Consecutive anchors are joined by the deterministic connecting rule
    (feasible because sig itself joins them); after the last anchor the path
    continues as a fresh random walk.
    """
    n = sig.shape[0] - 1
    parts = [sig[0:1]]
    cur_t = 0
    cur_x = sig[0]
    for a in anchors:
        seg = connecting_path(cur_x, cur_t, sig[a], int(a))
        parts.append(seg[1:])
        cur_t, cur_x = int(a), sig[a]
    if cur_t < n:
        tail = _random_walk(rng, n - cur_t, sig.shape[1], start=cur_x)
        parts.append(tail[1:])
    return np.concatenate(parts, axis=0)


def plant_overlap_instance(
    rng: np.random.Generator,
    p: PartitionScheme,
    ell: int | None,
    delta: float,
    d: int = 1,
):
    """Random (sigma, sigma1, sigma2) with overlap >= delta planted by block.

    With ``ell`` set, sigma1 coincides with sigma at density >= delta inside
    block ell and sigma2 inside block ell+1 (the claim-verifier hypotheses).
    With ``ell`` None, both overlap sigma at density >= delta in every block.
    """
    sig = _random_walk(rng, p.N, d)

    def anchors_for(blocks) -> np.ndarray:
        times = []
        for b in blocks:
            lo, hi = p.block_window(b)
            size = hi - lo + 1
            n_anchor = int(math.ceil(delta * size))
            times.extend(
                rng.choice(np.arange(lo, hi + 1), size=n_anchor, replace=False)
            )
        return np.sort(np.asarray(times, dtype=np.int64))

    if ell is None:
        s1 = _anchored_path(rng, sig, anchors_for(range(1, p.L + 1)))
        s2 = _anchored_path(rng, sig, anchors_for(range(1, p.L + 1)))
    else:
        if not 1 <= ell <= p.L - 1:
            raise ValueError("ell must leave room for the following block")
        s1 = _anchored_path(rng, sig, anchors_for([ell]))
        s2 = _anchored_path(rng, sig, anchors_for([ell + 1]))
    return sig, s1, s2


# ---------------------------------------------------------------------------
# Path step encoding
# ---------------------------------------------------------------------------

def _axis_name(k: int) -> str:
    return AXIS_NAMES[k] if k < len(AXIS_NAMES) else f"c{k}"


def encode_path(path: np.ndarray) -> str:
    """Compact step-direction string, e.g. '+x,-y,+x'."""
    arr = np.asarray(path)
    if arr.ndim == 1:
        arr = arr[:, None]
    steps = np.diff(arr, axis=0)
    if np.any(np.count_nonzero(steps, axis=1) != 1):
        raise ValueError("every step must move along exactly one axis")
    axis = np.argmax(steps != 0, axis=1)
    up = steps[np.arange(steps.shape[0]), axis] > 0
    names = [_axis_name(k) for k in range(arr.shape[1])]
    toks = ["-" + nm for nm in names] + ["+" + nm for nm in names]
    return ",".join([toks[i] for i in (axis + up * arr.shape[1]).tolist()])


def decode_path(spec: str, d: int) -> np.ndarray:
    """Inverse of ``encode_path``; returns an (M+1, d) path from the origin."""
    names = {_axis_name(k): k for k in range(d)}
    steps = []
    if spec:
        for tok in spec.split(","):
            sign = 1 if tok[0] == "+" else -1
            k = names[tok[1:]]
            v = np.zeros(d, dtype=np.int64)
            v[k] = sign
            steps.append(v)
    out = np.zeros((len(steps) + 1, d), dtype=np.int64)
    if steps:
        out[1:] = np.cumsum(steps, axis=0)
    return out


def report_to_jsonl(reports, path, seed: int | None = None) -> None:
    """Append LocalizationReports as JSON Lines."""
    with open(path, "a", encoding="utf-8") as fh:
        for rep in reports:
            fh.write(json.dumps(rep.to_json_record(seed), sort_keys=True) + "\n")
