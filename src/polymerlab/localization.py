"""Constructive path-localization machinery.

Implements the concatenation toolkit (feasibility, deterministic connecting
paths, meeting times, path splicing), the distinguished-set induction with
its cardinality bounds, a runtime verifier for the inductive overlap-transfer
claim, and greedy favorite-path extraction over sampled Gibbs trajectories
together with coverage reports for the union/intersection localization events
and the sliding-window statistic.

Each rule has one owner, and every caller goes through it:

- bridge: ``_bridge``, behind ``connecting_path`` (which ``splice_paths``
  calls), the induction's ``_splice_codes`` and the planted instances'
  ``_anchored_path``;
- step code: ``_step_codes`` (-e_k -> k, +e_k -> d + k), behind
  ``encode_path`` and the induction's paths; ``_decode`` turns codes back
  into sites, behind ``decode_path`` and the induction;
- meeting time: ``_meeting_times``, behind ``meeting_time`` and the induction;
- cover: ``_cover``, behind every mode of ``greedy_favorite_paths`` and
  ``coverage_report`` (the global mode is the one-block case).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .lattice import (MemoryGuardError, PartitionScheme, SubPartition, make_subpartition,
                      path_columns)

AXIS_NAMES = ("x", "y", "z")
# paths one distinguished-set induction may build (``build_distinguished_sets``
# raises MemoryGuardError past it; ``localize`` records that beta as skipped)
DS_MAX_PATHS = 100_000


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


def _require_path(x, y, s: int) -> None:
    """Raise InfeasibleConnectionError unless ``step_feasible(x, y, s)``."""
    if not step_feasible(x, y, s):
        raise InfeasibleConnectionError(
            f"no {s}-step path between {np.asarray(x).tolist()} and {np.asarray(y).tolist()}"
        )


def _bridge(x, gap, u):
    """Site reached u steps after leaving x toward x + gap, by ``connecting_path``'s rule.

    Axis a has moved min(max(u - c_a, 0), |gap_a|) toward the target, where
    c_a is the distance closed on the axes before a; after the last gap step
    the first coordinate oscillates +1 / -1.  x and gap are (..., d) and
    broadcast against u (...); the result is (..., d).
    """
    size = np.abs(gap)
    out = u[..., None] - (np.cumsum(size, axis=-1) - size)
    np.clip(out, 0, size, out=out)
    out *= np.sign(gap)
    out += x
    tail = u - size.sum(axis=-1)  # steps past the last gap step
    np.maximum(tail, 0, out=tail)
    tail &= 1
    out[..., 0] += tail
    return out


def connecting_path(x, i: int, y, t: int) -> np.ndarray:
    """Deterministic nearest-neighbor path from (i, x) to (t, y).

    Rule: close coordinate discrepancies in coordinate order, lowest index
    first, stepping toward the target; spend any remaining steps oscillating
    +e1 / -e1.  Returns the (t - i + 1, d) site sequence including both ends.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.int64))
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    _require_path(x, y, t - i)
    return _bridge(x, y - x, np.arange(t - i + 1))


def meeting_time(sigma1: np.ndarray, sigma2: np.ndarray, m: int, window) -> int | None:
    """Earliest t in ``window`` such that sigma2[t] is reachable from
    (m, sigma1[m]) by some nearest-neighbor path.

    window is the closed integer interval (lo, hi).  Returns None when no t
    in the window is feasible (the infimum over the empty set).
    """
    lo, hi = window
    if m > lo - 1:
        raise ValueError(f"anchor time {m} must precede the window start {lo}")
    if hi < lo:
        return None
    s1, s2 = path_columns(sigma1), path_columns(sigma2)
    t = int(_meeting_times(s1[m][None], np.array([m]), s2[None, lo : hi + 1], lo)[0, 0])
    return t if t >= 0 else None


def splice_paths(sigma1: np.ndarray, sigma2: np.ndarray, m: int, t: int) -> np.ndarray:
    """Follow sigma1 to time m, connect to sigma2[t], then follow sigma2."""
    a, b = path_columns(sigma1), path_columns(sigma2)
    return np.concatenate([a[:m], connecting_path(a[m], m, b[t], t), b[t + 1 :]])


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

    Path i is held as its start site starts[i] (d int64) and one step code
    per step, codes[i] ((T - 1) uint8, ``_step_codes``; read-only);
    ``paths`` decodes them once, on first access, into a tuple of (T, d)
    int64 site arrays.
    provenance[i] is None for seed paths and (i_prime, i_dprime, k, t) for a
    path spliced from paths i_prime, i_dprime at sub-boundary k, meeting at t.
    """

    level: int
    K: int
    starts: np.ndarray
    codes: np.ndarray
    provenance: tuple

    def __len__(self) -> int:
        return len(self.codes)

    @cached_property
    def paths(self) -> tuple:
        return tuple(_decode(self.starts, self.codes, np.arange(self.codes.shape[1] + 1)))


def _meeting_times(anchors: np.ndarray, ms: np.ndarray, targets: np.ndarray, lo: int):
    """``meeting_time`` for every (partner, anchor) pair: (n_partners, len(ms)).

    anchors[k] is the anchor site at time ms[k] and targets the (n_partners,
    W, d) window slices starting at time ``lo``.  Entries with no feasible
    time are -1.
    """
    steps = lo + np.arange(targets.shape[1]) - ms[:, None]  # (K-1, W)
    slack = np.broadcast_to(steps, (targets.shape[0],) + steps.shape).copy()
    for a in range(targets.shape[2]):
        slack -= np.abs(targets[:, None, :, a] - anchors[None, :, None, a])
    feasible = (slack >= 0) & (slack % 2 == 0)
    first = feasible.argmax(axis=2)
    return np.where(feasible.any(axis=2), lo + first, -1)


def _splice_codes(head, tails, x, y, m, t) -> np.ndarray:
    """Step codes of the paths ``splice_paths`` would build, (B, T - 1), from code rows.

    head is the anchor's code row and tails the partners' (B, T - 1) rows;
    x is the anchor's site at m[b] and y the partner's at t[b].  Steps before
    m[b] are the anchor's, steps from t[b] the partner's, and the t[b] - m[b]
    steps between are ``_bridge``'s from x to y.
    """
    u = np.arange(tails.shape[1] + 1) - m[:, None]  # (B, T)
    out = _step_codes(_bridge(x[:, None], (y - x)[:, None], u), check=False)
    np.copyto(out, head, where=u[:, 1:] <= 0)
    np.copyto(out, tails, where=u[:, :-1] >= (t - m)[:, None])
    return out


def build_distinguished_sets(
    d1_paths,
    p: PartitionScheme,
    delta: float,
    K: int | None = None,
    max_paths: int = DS_MAX_PATHS,
) -> DistinguishedSet:
    """Run the concatenation induction from level 1 to level L.

    At each level, every ordered pair of distinct paths contributes one
    concatenated path per sub-block boundary with a finite meeting time,
    taken in (anchor, partner, boundary) order and kept when new.  The
    growth obeys |D_{level+1}| <= K |D_level|^2, which explodes quickly;
    ``max_paths`` guards against runaway configurations (MemoryGuardError).
    A seed that is not a nearest-neighbour path is refused (ValueError).

    Each path is kept once, as its dedup key: the start site (8d bytes)
    and one uint8 step code per step (T - 1 bytes), against 8Td bytes for
    an int64 path and as many again for a key of its sites.  A level reads
    its paths from one buffer of the joined keys and decodes int64 sites
    only at the anchor times and over the next block's window, for the
    meeting times.  Per anchor path, the meeting times and splices for a
    tile of partners are array operations whose temporaries hold about 16K
    cells, and candidates are spliced straight into code rows.
    """
    K = default_refinement(delta) if K is None else int(K)
    if p.N // p.L < K:
        raise ValueError(
            f"floor(N/L) = {p.N // p.L} < K = {K}; N too small for this delta"
        )
    keys, seen, prov = [], set(), []  # keys[i]: start bytes + code bytes of path i
    shape = None
    for a in map(path_columns, d1_paths):
        if shape not in (None, a.shape):
            raise ValueError("seed paths must share one (T, d) shape")
        shape = a.shape
        codes = _step_codes(a)
        key = a[0].astype(np.int64).tobytes() + codes.tobytes()
        if key not in seen:
            seen.add(key)
            keys.append(key)
            prov.append(None)
    if shape is None:
        raise ValueError("the induction needs at least one seed path")
    d = shape[1]
    starts, codes = _unpack(keys, d, codes.dtype)
    for ell in range(1, p.L):
        ms = np.asarray(make_subpartition(p, ell, K).boundaries[1:K])
        if not len(ms):  # K = 1: no interior sub-boundary, no candidates
            continue
        lo, hi = p.block_window(ell + 1)
        n, T = len(keys), codes.shape[1] + 1
        anchors = _decode(starts, codes, ms)  # (n, K-1, d)
        window = _decode(starts, codes, np.arange(lo, hi + 1))  # (n, W, d)
        # ~16K cells (128 KB of int64) per temporary: in cache, and under
        # glibc's mmap threshold, so no tile maps and unmaps its temporaries
        tile = max(1, 2**14 // (len(ms) * max(hi - lo + 1, T * d)))
        for ia in range(n):
            for j0 in range(0, n, tile):
                meet = _meeting_times(anchors[ia], ms, window[j0 : j0 + tile], lo)
                if j0 <= ia < j0 + tile:
                    meet[ia - j0] = -1
                jj, kk = np.nonzero(meet >= 0)
                tt = meet[jj, kk]
                cands = _splice_codes(codes[ia], codes[j0 + jj], anchors[ia, kk],
                                      window[j0 + jj, tt - lo], ms[kk], tt)
                rows = np.empty((len(jj), 8 * d + cands.shape[1] * cands.itemsize), np.uint8)
                rows[:, : 8 * d] = starts[ia].view(np.uint8)  # the anchor's start
                rows[:, 8 * d :] = cands.view(np.uint8)
                new = []
                for c, key in enumerate(rows.view(f"V{rows.shape[1]}").ravel().tolist()):
                    if key in seen:
                        continue
                    seen.add(key)
                    keys.append(key)
                    new.append(c)
                    if len(prov) + len(new) > max_paths:
                        raise MemoryGuardError(
                            f"distinguished set exceeded {max_paths} paths at level {ell + 1}"
                        )
                prov.extend(
                    (ia, ib, k, t)
                    for ib, k, t in zip((jj[new] + j0).tolist(), (kk[new] + 1).tolist(),
                                        tt[new].tolist())
                )
        starts, codes = _unpack(keys, d, codes.dtype)
    return DistinguishedSet(level=p.L, K=K, starts=starts, codes=codes, provenance=tuple(prov))


def _unpack(keys: list, d: int, code) -> tuple:
    """Starts (n, d) int64 and step codes (n, T - 1) of the induction's path keys.

    The codes are a read-only view of one buffer that holds every key.
    """
    rows = np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(len(keys), -1)
    return rows[:, : 8 * d].copy().view(np.int64), rows[:, 8 * d :].view(code)


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


def _coincidence_prefix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """c with c[hi + 1] - c[lo] sites of a and b coinciding on the closed window [lo, hi]."""
    return np.concatenate([[0], np.cumsum(np.all(a == b, axis=1))])


def _window_counts(c: np.ndarray, boundaries) -> np.ndarray:
    """Coincidences per window boundaries[w]+1 .. boundaries[w+1] (as ``pairwise_counts``)."""
    return np.diff(c[np.asarray(boundaries) + 1])


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
    sig, s1, s2 = map(path_columns, (sigma, sigma1, sigma2))

    lo, hi = p.block_window(ell)
    nlo, nhi = p.block_window(ell + 1)
    size_ell = hi - lo + 1
    size_next = nhi - nlo + 1
    c1 = _coincidence_prefix(s1, sig)
    blocks1 = _window_counts(c1, p.boundaries)
    r1 = int(blocks1[ell - 1]) / size_ell
    r2 = int(_window_counts(_coincidence_prefix(s2, sig), p.boundaries)[ell]) / size_next
    if r1 < delta or r2 < delta:
        return ClaimRecord(hypotheses_hold=False, ell=ell, delta=delta)

    eps = 1e-12
    if np.array_equal(s1, s2):
        cands, k1, k2, t, witness = (), None, None, None, s1
    else:
        sub = make_subpartition(p, ell, K)
        threshold = delta * p.N / (4.0 * p.L * K)
        counts = _window_counts(c1, sub.boundaries)
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

    blocks_w = _window_counts(_coincidence_prefix(witness, sig), p.boundaries)
    pre_ok = bool(np.array_equal(blocks_w[: ell - 1], blocks1[: ell - 1]))
    r_ell = int(blocks_w[ell - 1]) / size_ell
    r_next = int(blocks_w[ell]) / size_next
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
    dtype that holds every key, one axis at a time straight into that dtype;
    ranges too wide for 63 bits are ranked instead.  An array passed twice is
    keyed once, and both places in the result hold the same key array.
    """
    distinct = list({id(a): a for a in stacks}.values())
    axes = tuple(range(distinct[0].ndim - 1))
    lo = np.min([a.min(axis=axes, initial=0) for a in distinct], axis=0)
    span = np.max([a.max(axis=axes, initial=0) for a in distinct], axis=0) - lo + 1
    size = math.prod(int(v) for v in span)
    if size <= 2**63:
        code = np.min_scalar_type(size - 1)
        radix = np.cumprod(np.concatenate([[1], span[:-1]])).astype(code)
        keys = []
        for a in distinct:
            key = np.empty(a.shape[:-1], code)
            part = np.empty_like(key) if a.shape[-1] > 1 else None
            np.subtract(a[..., 0], lo[0], out=key, casting="unsafe")
            for k in range(1, a.shape[-1]):  # each term and sum < size: no overflow
                np.subtract(a[..., k], lo[k], out=part, casting="unsafe")
                part *= radix[k]
                key += part
            keys.append(key)
    else:
        sites = [a.reshape(-1, a.shape[-1]) for a in distinct]
        ranks = np.unique(np.concatenate(sites), axis=0, return_inverse=True)[1].reshape(-1)
        cuts = np.cumsum([len(x) for x in sites])[:-1]
        keys = [k.reshape(a.shape[:-1]) for k, a in zip(np.split(ranks, cuts), distinct)]
    by_id = {id(a): k for a, k in zip(distinct, keys)}
    return [by_id[id(a)] for a in stacks]


def _as_stack(paths) -> np.ndarray:
    """(n, T, d) view of a path stack given as (n, T, d) or (n, T) for d = 1."""
    arr = np.asarray(paths)
    return arr[:, :, None] if arr.ndim == 2 else arr


def pairwise_counts(centers: np.ndarray, samples: np.ndarray, boundaries) -> np.ndarray:
    """Coincidence counts per window: (n_centers, n_samples, n_windows).

    ``boundaries`` are partition boundaries; window w covers times
    boundaries[w]+1 .. boundaries[w+1].  Sites are compared as packed keys
    one time step at a time.  Each step's equality goes into one reused
    (n_centers, n_samples) bool array and is added, as uint8, to that
    window's slice of the result, whose dtype is the narrowest unsigned one
    that holds the longest window (uint8 up to 255 steps, uint16 beyond):
    exact, because a window of w steps counts at most w coincidences.
    """
    kc, ks = _site_keys(_as_stack(centers), _as_stack(samples))
    c = np.ascontiguousarray(kc.T)  # time-major
    s = c if ks is kc else np.ascontiguousarray(ks.T)
    cuts = np.asarray(boundaries)
    out = np.zeros((len(cuts) - 1, c.shape[1], s.shape[1]),
                   dtype=np.min_scalar_type(np.diff(cuts).max(initial=0)))
    eq = np.empty(out.shape[1:], dtype=bool)
    for w, dst in enumerate(out):
        for t in range(cuts[w] + 1, cuts[w + 1] + 1):
            np.equal(c[t, :, None], s[t], out=eq)
            dst += eq.view(np.uint8)
    return np.moveaxis(out, 0, 2)


def window_minima(centers, samples, min_len: int) -> np.ndarray:
    """(n_centers, n_samples) array of ``min_window_overlap`` for every pair.

    Only lengths up to 2*min_len - 1 need scanning: a window of length
    >= 2*min_len splits into two halves of length >= min_len each, and its
    overlap is a weighted average of theirs, so it can never beat the smaller
    from below.  Each length's minimum count is divided by the length
    afterwards, and correctly rounded division is monotone, so the result
    equals the minimum of the window means bit for bit.

    Length min_len is scanned for every pair first.  A pair with an empty
    window of that length is final at 0.0, since no overlap is negative, so
    only the other ("live") pairs are gathered and scanned over the longer
    lengths; every division that reaches the result is the same as in a scan
    of all pairs.
    """
    c, s = _site_keys(_as_stack(centers), _as_stack(samples))
    n = s.shape[1] - 1
    if not 1 <= min_len <= n:
        raise ValueError(f"window length {min_len} outside 1..{n}")
    out = np.empty((c.shape[0], s.shape[0]))
    tile = max(1, 2**20 // max(1, s.shape[0] * n))  # ~1M cells: temporaries of 1-2 MB
    for lo in range(0, c.shape[0], tile):
        out[lo : lo + tile] = _tile_minima(c[lo : lo + tile], s, min_len)
    return out


def _tile_minima(c: np.ndarray, s: np.ndarray, min_len: int) -> np.ndarray:
    """``window_minima`` of site keys c (centers) against s (samples)."""
    n = s.shape[1] - 1
    # equality straight into the prefix-sum array, summed in place: no bool
    # tensor and no cast copy of one
    acc = np.zeros((len(c), len(s), n + 1), np.min_scalar_type(n))
    np.equal(c[:, None, 1:], s[None, :, 1:], out=acc[:, :, 1:])
    np.cumsum(acc, axis=2, out=acc)
    first = (acc[:, :, min_len:] - acc[:, :, :-min_len]).min(axis=2)
    best = first / min_len
    live = np.flatnonzero(first)
    rows = acc.reshape(-1, n + 1)[live]
    del acc  # the live rows replace the tile's prefix sums under the scan
    b = best.reshape(-1)[live]
    for w in range(min_len + 1, min(2 * min_len - 1, n) + 1):
        np.minimum(b, (rows[:, w:] - rows[:, :-w]).min(axis=1) / w, out=b)
    best.reshape(-1)[live] = b
    return best


def _total(counts: np.ndarray) -> np.ndarray:
    """Whole-path (0, N) counts from counts over any partition of 0..N (exact int32 sum)."""
    return counts.sum(axis=2, dtype=np.int32, keepdims=True)


def _checked(counts: np.ndarray, shape: tuple) -> np.ndarray:
    """``counts`` if its leading axes are ``shape``; a mismatch would broadcast silently."""
    if counts.shape[: len(shape)] != shape:
        raise ValueError(f"counts of shape {counts.shape} do not match {shape}")
    return counts


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


def _cover(cent: np.ndarray, samp: np.ndarray, delta: float, mode: str, p, counts) -> np.ndarray:
    """Cover relation (centers, samples, blocks) at threshold delta.

    The global mode is the one-block case: whole-path counts and size N.
    ``counts`` is ``pairwise_counts(cent, samp, p.boundaries)`` or None;
    the global mode sums it over blocks, so any partition of 0..N serves it.
    """
    n = samp.shape[1] - 1
    bounds, sizes = ((0, n), [n]) if mode == "global" else (p.boundaries, p.sizes)
    if counts is None:
        counts = pairwise_counts(cent, samp, bounds)
    if mode == "global":
        counts = _total(counts)
    counts = _checked(counts, (len(cent), len(samp), len(sizes)))
    # int64 thresholds: a cap of s + 1 need not fit the counts' dtype
    return counts >= _count_thresholds(delta, sizes)


def _count_thresholds(delta: float, sizes) -> np.ndarray:
    """Per block size s, the least count c with ``c + 1e-9 >= delta * s`` in float64.

    The test is monotone in c, and its least passing count is c0 =
    max(ceil(delta * s) - 1, 0) or c0 + 1 (c0 - 1 falls short by more than
    1), so comparing integer counts with these thresholds makes the float
    test's decisions without a float copy of the counts.  No block of s
    steps counts more than s, so a threshold is capped at s + 1, which no
    count reaches.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    need = delta * sizes
    c = np.maximum(np.ceil(need) - 1, 0)
    c += c + 1e-9 < need
    return np.minimum(c, sizes + 1).astype(np.int64)


def greedy_favorite_paths(
    samples,
    delta: float,
    epsilon: float,
    mode: str = "global",
    p: PartitionScheme | None = None,
    max_centers: int | None = None,
    counts: np.ndarray | None = None,
) -> LocalizationReport:
    """Extract distinguished paths from Gibbs samples by greedy set cover.

    Candidate centers are the samples themselves.  Cover relations by mode:
    global, overall overlap >= delta; per-block-uniform, block overlap >=
    delta in every block simultaneously (one center covers all blocks);
    per-block-any, greedy runs per block and a sample counts covered when
    every block is covered by some selected center.

    ``counts`` is ``pairwise_counts(samples, samples, p.boundaries)`` when the
    caller already holds it, so every mode reads one tensor; the global mode
    sums it over blocks, so any partition of 0..N serves it.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    arr = _as_stack(samples)
    if mode != "global" and p is None:
        raise ValueError("block modes need a partition")
    cover = _cover(arr, arr, delta, mode, p, counts)

    per_block = trace = None
    if mode == "per-block-any":
        # cover each block separately, union the centers
        chosen: list[int] = []
        per_block = []
        for w in range(cover.shape[2]):
            ch, cov_w, _ = _greedy_cover(cover[:, :, w], 1.0 - epsilon, max_centers)
            per_block.append(float(cov_w))
            chosen.extend(i for i in ch if i not in chosen)
        cov = cover[chosen].any(axis=0).all(axis=1).mean()
    else:
        chosen, cov, trace = _greedy_cover(cover.all(axis=2), 1.0 - epsilon, max_centers)
        if mode == "per-block-uniform":
            per_block = [float(v) for v in cover[chosen].any(axis=0).mean(axis=0)]
    cov = float(cov)
    return LocalizationReport(
        mode=mode, delta=delta, epsilon=epsilon, n_samples=arr.shape[0],
        coverage=cov, path_indices=chosen,
        paths=[arr[i] for i in chosen], localized=cov >= 1.0 - epsilon,
        per_block_coverage=per_block, selection_trace=trace,
    )


def coverage_report(
    paths,
    samples,
    delta: float,
    p: PartitionScheme,
    mode: str = "global",
    epsilon: float | None = None,
    counts: np.ndarray | None = None,
) -> LocalizationReport:
    """Coverage of given candidate paths over given samples, by mode.

    With ``epsilon`` set, also evaluates the sliding-window event: the
    fraction of samples whose best candidate keeps restricted overlap >=
    delta on every window of length >= ceil(epsilon * N).  ``counts`` is
    ``pairwise_counts(paths, samples, p.boundaries)`` when the caller already
    holds it (the global mode sums it over blocks).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    cent, samp = _as_stack(paths), _as_stack(samples)
    n = samp.shape[1] - 1
    cover = _cover(cent, samp, delta, mode, p, counts)
    if mode == "per-block-any":
        covered = cover.any(axis=0).all(axis=1)
    else:
        covered = cover.all(axis=2).any(axis=0)
    per_block = None if mode == "global" else [float(v) for v in cover.any(axis=0).mean(axis=0)]

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
    (feasible because sig itself joins them), all gaps in one ``_bridge``
    call; after the last anchor the path continues as a fresh random walk.
    """
    n, d = sig.shape[0] - 1, sig.shape[1]
    ends = np.asarray(anchors, dtype=np.int64)
    starts = np.concatenate([[0], ends])[:-1]
    gap = sig[ends] - sig[starts]
    slack = ends - starts - np.abs(gap).sum(axis=1)
    bad = np.flatnonzero((slack < 0) | (slack % 2 != 0))
    if bad.size:  # raises for the first gap that cannot be joined
        k = bad[0]
        _require_path(sig[starts[k]], sig[ends[k]], int(ends[k] - starts[k]))
    last = int(ends[-1]) if ends.size else 0
    out = np.empty((n + 1, d), dtype=np.int64)
    out[0] = sig[0]
    j = np.arange(1, last + 1)
    g = np.searchsorted(ends, j)  # gap that time j lies in: starts[g] < j <= ends[g]
    out[1 : last + 1] = _bridge(sig[starts[g]], gap[g], j - starts[g])
    if last < n:
        out[last:] = _random_walk(rng, n - last, d, start=sig[last])
    return out


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


def _step_tokens(d: int) -> list:
    """Token i names the step -e_i for i < d and +e_(i-d) otherwise."""
    names = [_axis_name(k) for k in range(d)]
    return ["-" + nm for nm in names] + ["+" + nm for nm in names]


def _step_codes(sites: np.ndarray, check: bool = True) -> np.ndarray:
    """Step codes of (..., T, d) sites: (..., T - 1), -e_k -> k and +e_k -> d + k.

    The dtype is the narrowest unsigned one holding 2d - 1 (uint8 up to
    d = 128).  Raises ValueError unless every step is a unit step +-e_k;
    ``check=False`` is for callers whose steps are unit steps by construction.
    """
    d = sites.shape[-1]
    code = np.min_scalar_type(2 * d - 1).type
    codes = np.zeros(sites.shape[:-2] + (sites.shape[-2] - 1,), dtype=code)
    moved = np.zeros(codes.shape, dtype=np.intp) if check else None
    for k in range(d):  # one axis at a time, in code-sized arithmetic
        a, b = sites[..., :-1, k], sites[..., 1:, k]
        codes += (b > a).view(np.uint8) * code(d + k)
        codes += (b < a).view(np.uint8) * code(k)
        if check:
            s = b - a
            if np.any((s < -1) | (s > 1)):
                raise ValueError("every step must be a unit step +-e_k along one axis")
            moved += s != 0
    if check and np.any(moved != 1):
        raise ValueError("every step must be a unit step +-e_k along one axis")
    return codes


def _decode(starts: np.ndarray, codes: np.ndarray, times) -> np.ndarray:
    """Sites of the paths (starts[i], codes[i]) at the given times: (n, len(times), d) int64.

    Decoded in row chunks whose walks hold about 64K cells.
    """
    n, d = starts.shape
    eye = np.eye(d, dtype=np.int64)
    unit = np.concatenate([-eye, eye])  # the step of each code
    times = np.asarray(times, dtype=np.intp)
    top = int(times.max(initial=0))
    out = np.empty((n, len(times), d), dtype=np.int64)
    rows = max(1, 2**16 // ((top + 1) * d))
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        walk = np.zeros((r1 - r0, top + 1, d), dtype=np.int64)
        np.cumsum(unit[codes[r0:r1, :top]], axis=1, out=walk[:, 1:])
        walk += starts[r0:r1, None]
        out[r0:r1] = walk[:, times]
    return out


def encode_path(path: np.ndarray) -> str:
    """Compact step-direction string, e.g. '+x,-y,+x'."""
    arr = path_columns(path)
    toks = _step_tokens(arr.shape[1])
    return ",".join([toks[i] for i in _step_codes(arr).tolist()])


def decode_path(spec: str, d: int) -> np.ndarray:
    """Inverse of ``encode_path``, the reader of ``localize.jsonl``'s paths:
    an (M+1, d) path from the origin."""
    index = {tok: i for i, tok in enumerate(_step_tokens(d))}
    try:
        codes = np.array([[index[tok] for tok in spec.split(",")] if spec else []], np.intp)
    except KeyError as err:
        raise ValueError(f"malformed step token {err.args[0]!r} for d = {d}") from None
    return _decode(np.zeros((1, d), np.int64), codes, np.arange(codes.shape[1] + 1))[0]


def report_to_jsonl(reports, path, seed: int | None = None) -> None:
    """Append LocalizationReports as JSON Lines."""
    with open(path, "a", encoding="utf-8") as fh:
        for rep in reports:
            fh.write(json.dumps(rep.to_json_record(seed), sort_keys=True) + "\n")
