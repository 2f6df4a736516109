"""Self-contained verification suites behind the ``verify`` CLI command, and
the oracles that only they and the tests use: path enumeration
(``brute_force_log_partition``, ``gibbs_enumeration``), the planted overlap
instances and the verifier of the inductive overlap-transfer claim.  No
command but ``verify`` imports this module, so none of it, and none of
scipy, loads on a command path.

Each suite returns a dict with a boolean ``pass`` plus the metrics it
measured.  Every number is a pure function of the master seed, so the
assembled summary is byte-identical across runs.  Everything runs in
index order on one thread, and no suite calls a threaded library (BLAS):
sums of products are numpy sums.  ``suite_env_determinism`` checks on every
run that field values do not depend on how they are evaluated: one chunk
at a time, or through the block hash of the estimators' passes
(``lattice.field_layers``, at given sites), in other pieces and another
order.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from .free_energy import concentration_profile
from .lattice import (
    FIELD_BLOCK,
    Environment,
    LatticeParams,
    PartitionScheme,
    PointSites,
    derive_seed,
    field_layers,
    field_scratch,
    gaussian_env,
    make_partition,
    make_subpartition,
    path_columns,
    perturb_env,
)
from .localization import (_bridge, _require_path, default_refinement, meeting_time,
                           splice_paths)
from .overlap import block_overlap, ibp_residual, overlap, restricted_overlap
from .transfer import (
    BetaProfile,
    _check_forward_args,
    _offsets,
    backward_layers,
    forward_layers,
    log_partition,
    log_partitions,
    logsumexp,
    markov_split_logz,
    sample_paths,
)


# ---------------------------------------------------------------------------
# Enumeration oracles
# ---------------------------------------------------------------------------

def enumerate_paths(N: int, d: int) -> np.ndarray:
    """All (2d)^N nearest-neighbor paths from the origin, (M, N+1, d): path m
    takes its step k along the row of ``transfer._offsets`` that is digit k
    of m in base 2d."""
    M = (2 * d) ** N
    if M > 2_000_000:
        raise ValueError(f"(2d)^N = {M} too large to materialize")
    digits = (np.arange(M)[:, None] // (2 * d) ** np.arange(N)) % (2 * d)
    out = np.zeros((M, N + 1, d), dtype=np.int64)
    out[:, 1:] = np.cumsum(_offsets(d)[digits], axis=1)
    return out


def _path_log_weights(env: Environment, profile: BetaProfile, paths: np.ndarray) -> np.ndarray:
    """Unnormalized log Gibbs weight beta.H - N log 2d per enumerated path."""
    N, d = profile.N, env.params.d
    h = np.zeros(paths.shape[0])
    for i in range(1, N + 1):
        b = profile.values[i - 1]
        if b != 0.0:
            h += b * env.values(i, paths[:, i, :])
    return h - N * math.log(2 * d)


def brute_force_log_partition(env: Environment, profile: BetaProfile) -> float:
    """Reference log Z by direct enumeration of every path."""
    _check_forward_args(env, profile)
    paths = enumerate_paths(profile.N, env.params.d)
    return float(logsumexp(_path_log_weights(env, profile, paths)))


def gibbs_enumeration(env: Environment, profile: BetaProfile):
    """(paths, probabilities) of the exact Gibbs law, by enumeration."""
    paths = enumerate_paths(profile.N, env.params.d)
    logw = _path_log_weights(env, profile, paths)
    return paths, np.exp(logw - logsumexp(logw))


# ---------------------------------------------------------------------------
# The inductive overlap-transfer verifier and its planted instances
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
# Suites
# ---------------------------------------------------------------------------

def _rw_paths(rng: np.random.Generator, n: int, N: int) -> np.ndarray:
    steps = rng.choice((-1, 1), size=(n, N))
    out = np.zeros((n, N + 1, 1), dtype=np.int64)
    out[:, 1:, 0] = np.cumsum(steps, axis=1)
    return out


def suite_partition_arithmetic(seed: int, n_max: int = 10_000, l_max: int = 32,
                               k_max: int = 64) -> dict:
    """Exhaustive size-envelope sweep plus structural spot checks."""
    ns = np.arange(1, n_max + 1, dtype=np.int64)
    ok = True
    for L in range(1, l_max + 1):
        m = ns >= L
        flo, fhi = ns[m] // L, -(-ns[m] // L)
        # block sizes take only the two values floor/ceil of N/L
        if not (np.all(2 * L * flo >= ns[m]) and np.all(L * fhi <= 2 * ns[m])):
            ok = False
        for K in range(1, k_max + 1):
            mk = m & (ns // L >= K)
            if not np.any(mk):
                continue
            for b in (ns[mk] // L, -(-ns[mk] // L)):
                slo, shi = b // K, -(-b // K)
                if not (
                    np.all(4 * L * K * slo >= ns[mk]) and np.all(L * K * shi <= 4 * ns[mk])
                ):
                    ok = False
    rng = np.random.default_rng(seed)
    structural = 0
    for _ in range(200):
        n = int(rng.integers(1, 2000))
        L = int(rng.integers(1, min(n, 32) + 1))
        p = make_partition(n, L)  # raises if invariants fail
        k = int(rng.integers(1, 65))
        sub = make_subpartition(p, int(rng.integers(1, L + 1)), k)
        if sub.boundaries[-1] == p.boundaries[sub.ell]:
            structural += 1
    return {"pass": bool(ok and structural == 200), "envelope_ok": bool(ok),
            "structural_checks": structural}


def suite_env_determinism(seed: int, inject_fault: bool = False) -> dict:
    """Hash of 1e4 field values, computed one chunk at a time and again through
    the estimators' block hash ``field_layers`` at the same sites
    (``PointSites``), in uneven pieces, last chunk first."""
    params = LatticeParams(d=2, N=64)
    env = gaussian_env(seed, params)
    rng = np.random.default_rng(seed)
    layers = rng.integers(1, 65, size=100)
    coords = rng.integers(-30, 31, size=(100, 100, 2)).astype(np.int64)
    first = [env.values(int(layers[c]), coords[c]).tobytes() for c in range(100)]
    env2 = perturb_env(env, int(layers[0]), coords[0][0], 1e-3) if inject_fault else env
    # a batch of two plain environments, every piece a layer of one block
    # hash; row 0 is env2's
    batch = (env2, gaussian_env(derive_seed(seed, 1), params))
    pieces = [(c, coords[c][a:b]) for c in reversed(range(100))
              for a, b in itertools.pairwise((0, 1 + c % 7, 37 + c % 23, 100))]
    sites = PointSites([piece for _, piece in pieces])
    fields = field_layers(batch, [int(layers[c]) for c, _ in pieces], sites,
                          np.empty(2 * 100 + FIELD_BLOCK), field_scratch())
    second = [b""] * 100
    for (c, _), g in zip(pieces, fields):
        second[c] += g[0].tobytes()
    h1 = hashlib.sha256(b"".join(first)).hexdigest()
    h2 = hashlib.sha256(b"".join(second)).hexdigest()
    return {"pass": h1 == h2, "hash_first": h1, "hash_second": h2}


def suite_env_moments(seed: int) -> dict:
    params = LatticeParams(d=1, N=10)
    env = gaussian_env(seed, params)
    coords = np.arange(1_000_000, dtype=np.int64)[:, None] - 500_000
    v = env.values(3, coords)
    mean, var = float(v.mean()), float(v.var())
    a, b = v[:100_000 - 1], v[1:100_000]
    a, b = a - a.mean(), b - b.mean()  # the lag-1 correlation by sums, not BLAS
    corr = float((a * b).sum() / math.sqrt((a * a).sum() * (b * b).sum()))
    tol = 3.0 / math.sqrt(100_000)
    ok = abs(mean) <= 0.01 and abs(var - 1.0) <= 0.01 and abs(corr) <= tol
    return {"pass": bool(ok), "mean": mean, "var": var, "lag1_corr": corr,
            "corr_tol": tol}


def suite_oracle_equivalence(seed: int, n_cases: int = 100) -> dict:
    """Transfer-matrix log Z vs enumeration on random small instances."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        d = int(rng.integers(1, 3))
        n = int(rng.integers(2, 9))
        params = LatticeParams(d=d, N=n)
        env = gaussian_env(rng.integers(0, 2**63), params)
        kind = rng.integers(0, 3)
        if kind == 0:
            prof = BetaProfile.constant(float(rng.uniform(0, 3)), n)
        elif kind == 1:
            prof = BetaProfile(rng.uniform(0, 3, size=n))
        else:
            L = int(rng.integers(1, n + 1))
            p = make_partition(n, L)
            prof = BetaProfile.from_blocks(p, rng.uniform(0, 3, size=L))
        lz = log_partitions(env, [prof])[0]
        bf = brute_force_log_partition(env, prof)
        worst = max(worst, abs(lz - bf))
    return {"pass": bool(worst < 1e-10), "n_cases": n_cases, "max_abs_diff": worst}


def suite_markov_splitting(seed: int, n_cases: int = 25) -> dict:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        d = int(rng.integers(1, 3))
        n = int(rng.integers(2, 9))
        params = LatticeParams(d=d, N=n)
        env = gaussian_env(rng.integers(0, 2**63), params)
        prof = BetaProfile(rng.uniform(0, 2.5, size=n))
        fwd = forward_layers(env, prof)
        bwd = backward_layers(env, prof)
        lz = log_partition(fwd)
        for i in range(n + 1):
            worst = max(worst, abs(markov_split_logz(fwd, bwd, i) - lz))
    return {"pass": bool(worst < 1e-10), "max_abs_diff": worst}


def suite_sampler_chi2(seed: int, n_draws: int = 100_000) -> dict:
    """At beta = 0 the step directions must be uniform over 2d moves."""
    params = LatticeParams(d=2, N=6)
    env = gaussian_env(seed, params)
    table = forward_layers(env, BetaProfile.constant(0.0, 6))
    paths = sample_paths(table, n_draws, np.random.default_rng(derive_seed(seed, 1)))
    steps = np.diff(paths, axis=1).reshape(-1, 2)
    code = (steps[:, 0] == 1) * 0 + (steps[:, 0] == -1) * 1 + (steps[:, 1] == 1) * 2 + (steps[:, 1] == -1) * 3
    counts = np.bincount(code, minlength=4)
    chi2 = ((counts - counts.mean()) ** 2 / counts.mean()).sum()  # Pearson, uniform expectation
    p = chdtrc(len(counts) - 1, chi2)
    return {"pass": bool(p > 0.001), "chi2": float(chi2), "p_value": float(p)}


def suite_sampler_tv(seed: int, n_draws: int = 1_000_000) -> dict:
    """TV distance between sampled and enumerated Gibbs law at N=5, d=1."""
    params = LatticeParams(d=1, N=5)
    env = gaussian_env(seed, params)
    prof = BetaProfile.constant(1.0, 5)
    table = forward_layers(env, prof)
    paths, probs = gibbs_enumeration(env, prof)
    steps = np.diff(paths[:, :, 0], axis=1)
    codes = ((steps == -1) @ (2 ** np.arange(5)))
    order = np.argsort(codes)
    lookup = np.empty(32, dtype=np.int64)
    lookup[codes[order]] = order
    rng = np.random.default_rng(derive_seed(seed, 2))
    counts = np.zeros(len(paths))
    for lo in range(0, n_draws, 250_000):
        m = min(250_000, n_draws - lo)
        sp = sample_paths(table, m, rng)
        sc = ((np.diff(sp[:, :, 0], axis=1) == -1) @ (2 ** np.arange(5)))
        counts += np.bincount(lookup[sc], minlength=len(paths))
    tv = 0.5 * float(np.abs(counts / n_draws - probs).sum())
    return {"pass": bool(tv < 5e-3), "tv_distance": tv, "n_draws": n_draws}


def suite_overlap_identities(seed: int) -> dict:
    """Aggregation and symmetry of block overlaps on random path pairs."""
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(100):
        n = int(rng.integers(8, 120))
        a, b = _rw_paths(rng, 2, n)
        L = int(rng.integers(1, min(n, 12) + 1))
        p = make_partition(n, L)
        total = sum(
            (p.boundaries[l] - p.boundaries[l - 1]) * block_overlap(a, b, p, l)
            for l in range(1, L + 1)
        )
        if abs(total - n * overlap(a, b)) > 1e-9:
            ok = False
        if overlap(a, b) != overlap(b, a) or overlap(a, a) != 1.0:
            ok = False
        if restricted_overlap(a, b, 1, n) != overlap(a, b):
            ok = False
    return {"pass": bool(ok)}


def suite_ibp_enum(seed: int) -> dict:
    params = LatticeParams(d=1, N=6)
    est = ibp_residual(0.9, 1e-4, params, n_disorder=5, master_seed=seed, mode="enum")
    return {"pass": bool(est.residual < 1e-6), "residual": est.residual}


def suite_claim_reduction(seed: int, n_trials: int = 10_000) -> dict:
    """Planted overlap-transfer instances; the reduction is mathematically
    guaranteed, so any violation is an implementation bug."""
    rng = np.random.default_rng(seed)
    violations = 0
    hypo_fail = 0
    for _ in range(n_trials):
        delta = float(rng.uniform(0.3, 0.7))
        n = int(rng.integers(130, 240))
        p = make_partition(n, 3)
        ell = int(rng.integers(1, 3))
        sig, s1, s2 = plant_overlap_instance(rng, p, ell, delta)
        if rng.random() < 0.02:
            s2 = s1  # exercise the degenerate equal-paths branch
            rec = verify_claim_reduction(sig, s1, s2, ell, delta, p)
            if rec.hypotheses_hold and not rec.ok:
                violations += 1
            continue
        rec = verify_claim_reduction(sig, s1, s2, ell, delta, p)
        if not rec.hypotheses_hold:
            hypo_fail += 1
        elif not rec.ok:
            violations += 1
    return {
        "pass": bool(violations == 0 and hypo_fail == 0),
        "n_trials": n_trials,
        "violations": violations,
        "hypothesis_failures": hypo_fail,
    }


def suite_window_reduction(seed: int, n_trials: int = 1_000) -> dict:
    """Blockwise overlap >= delta forces >= delta/18 on every long window."""
    rng = np.random.default_rng(seed)
    violations = 0
    checked = 0
    for _ in range(n_trials):
        L = int(rng.integers(2, 9))
        n = int(rng.integers(max(3 * L, 20), 400))
        p = make_partition(n, L)
        eps = 1.0 if L == 2 else float(rng.uniform(2.0 / L, min(2.0 / (L - 1), 1.0)))
        delta = float(rng.uniform(0.2, 0.8))
        sig, s1, _ = plant_overlap_instance(rng, p, None, delta)
        rmin = min(block_overlap(s1, sig, p, l) for l in range(1, L + 1))
        if rmin <= 0:
            continue
        wlen = min(n, math.ceil(eps * n))
        a = int(rng.integers(1, n - wlen + 2))
        b = int(rng.integers(a + wlen - 1, n + 1))
        checked += 1
        if restricted_overlap(s1, sig, a, b) + 1e-12 < rmin / 18.0:
            violations += 1
    return {"pass": bool(violations == 0), "n_checked": checked, "violations": violations}


def suite_concentration(seed: int, n_disorder: int = 400) -> dict:
    params = LatticeParams(d=1, N=128)
    prof = concentration_profile(1.0, params, n_disorder, (0.05, 0.1, 0.2, 0.4), seed)
    return {
        "pass": prof.within_bound(3.0),
        "empirical": [float(x) for x in prof.empirical],
        "bound": [float(x) for x in prof.bound],
    }


def suite_hamiltonian_identities(seed: int) -> dict:
    """Multi-temperature and block-suppressed partition-function identities."""
    rng = np.random.default_rng(seed)
    ok = True
    # constant block profile coincides with the single-temperature Hamiltonian
    for _ in range(10):
        n = int(rng.integers(4, 30))
        L = int(rng.integers(1, min(n, 6) + 1))
        beta = float(rng.uniform(0, 2.5))
        params = LatticeParams(d=1, N=n)
        env = gaussian_env(rng.integers(0, 2**63), params)
        p = make_partition(n, L)
        lz_multi, lz_single = log_partitions(
            env, [BetaProfile.from_blocks(p, [beta] * L), BetaProfile.constant(beta, n)]
        )
        if lz_multi != lz_single:
            ok = False
    # log Z - log Zhat^(ell) computed by transfer matrix vs enumeration
    worst = 0.0
    for _ in range(10):
        n = 8
        d = int(rng.integers(1, 3))
        L = int(rng.integers(2, 5))
        ell = int(rng.integers(1, L + 1))
        beta = float(rng.uniform(0.3, 2.0))
        params = LatticeParams(d=d, N=n)
        env = gaussian_env(rng.integers(0, 2**63), params)
        p = make_partition(n, L)
        full = BetaProfile.constant(beta, n)
        hat = BetaProfile.excluding_block(p, ell, beta)
        lhs = log_partitions(env, [full])[0] - log_partitions(env, [hat])[0]
        rhs = brute_force_log_partition(env, full) - brute_force_log_partition(env, hat)
        worst = max(worst, abs(lhs - rhs))
    return {"pass": bool(ok and worst < 1e-10), "constant_profile_ok": bool(ok),
            "excluding_block_max_diff": worst}


# every suite in report order, with the index its seed is derived at
_SUITES = (
    ("partition_arithmetic", suite_partition_arithmetic, 101),
    ("env_determinism", suite_env_determinism, 102),
    ("env_moments", suite_env_moments, 103),
    ("oracle_equivalence", suite_oracle_equivalence, 104),
    ("markov_splitting", suite_markov_splitting, 105),
    ("sampler_chi2", suite_sampler_chi2, 106),
    ("sampler_tv", suite_sampler_tv, 107),
    ("overlap_identities", suite_overlap_identities, 108),
    ("ibp_enum", suite_ibp_enum, 109),
    ("claim_reduction", suite_claim_reduction, 110),
    ("window_reduction", suite_window_reduction, 111),
    ("concentration", suite_concentration, 112),
    ("hamiltonian_identities", suite_hamiltonian_identities, 113),
)


def run_all(seed: int, inject_fault: bool = False) -> dict:
    """Run every suite; returns {"suites": {...}, "all_pass": bool}."""
    results = {}
    for name, suite, index in _SUITES:
        fault = {"inject_fault": inject_fault} if suite is suite_env_determinism else {}
        results[name] = suite(derive_seed(seed, index), **fault)
    return {"suites": results, "all_pass": all(r["pass"] for r in results.values())}
