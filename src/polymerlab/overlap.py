"""Overlap functionals and replica-overlap estimators under the Gibbs measure.

The overlap of two equal-length paths counts coinciding sites over i = 1..N
(the shared origin is excluded).  Replica estimates come from exact Gibbs
sampling; the exact quenched two-replica overlap comes from forward/backward
marginals, <R> = (1/N) sum_i sum_x mu(sigma_i = x)^2, which also powers the
finite-N derivative identity from Gaussian integration by parts,

    (1/N) d/dbeta E log Z_N(beta) = beta * (1 - E<R>_beta).

``ibp_residual`` checks it: in mc mode both sides are disorder averages over
common environments; in enum mode the pathwise half d/dbeta log Z = <H> is
checked per environment, so only the O(h^2) bias remains.

``sweep_overlaps`` makes every estimate for a beta grid and an N ladder:
environments built once, at the largest N; per beta one forward pass per
environment (environment 0 only at beta = 0, where no field is read), which
keeps the table at beta and carries beta +/- h along, rolling, for log Z at
every n, in either mode.  The table's first n layers give environment 0's
samples at every n, and one descent of the reverse chain down the table
(``marginal_sums``) gives every n its exact <R> and each enum rung its <H>,
sum_x g(i, x) mu_i(x) added up layer by layer with numpy sums, reading the
field of the enum rungs' layers only.  One forward table is kept at a time,
and no backward one, and no path is enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .free_energy import difference_quotient, standard_error
from .lattice import (Environment, LatticeParams, PartitionScheme, derive_seed, gaussian_env,
                      path_columns)
from .transfer import (
    BetaProfile,
    forward_layers,
    forward_layers_and_ladder,
    marginal_sums,
    sample_paths,
)


def overlap_count(a, b, lo: int, hi: int) -> int:
    """Number of coinciding sites on the closed window [lo, hi]."""
    a, b = path_columns(a), path_columns(b)
    return int(np.all(a[lo : hi + 1] == b[lo : hi + 1], axis=1).sum())


def overlap(a, b) -> float:
    """Fraction of coinciding sites over i = 1..N."""
    a, b = path_columns(a), path_columns(b)
    if a.shape != b.shape:
        raise ValueError(f"path shapes differ: {a.shape} vs {b.shape}")
    n = a.shape[0] - 1
    if n < 1:
        raise ValueError("paths must have at least one step")
    return overlap_count(a, b, 1, n) / n


def restricted_overlap(a, b, lo: int, hi: int) -> float:
    """Fraction of coinciding sites on [lo, hi], 1 <= lo <= hi <= N."""
    a, b = path_columns(a), path_columns(b)
    if a.shape != b.shape:
        raise ValueError(f"path shapes differ: {a.shape} vs {b.shape}")
    n = a.shape[0] - 1
    if not 1 <= lo <= hi <= n:
        raise ValueError(f"window [{lo}, {hi}] not inside [1, {n}]")
    return overlap_count(a, b, lo, hi) / (hi - lo + 1)


def block_overlap(a, b, p: PartitionScheme, ell: int) -> float:
    """Restricted overlap on the ell-th regular block of the partition."""
    lo, hi = p.block_window(ell)
    if lo > hi:
        raise ValueError(f"block {ell} of partition is empty")
    return restricted_overlap(a, b, lo, hi)


@dataclass(frozen=True)
class OverlapEstimate:
    mean: float
    stderr: float
    n_pairs: int
    n_disorder: int


def _replica_overlap(table, n_pairs: int, rng: np.random.Generator,
                     sampler=sample_paths) -> OverlapEstimate:
    """``mean_replica_overlap`` on a given forward table."""
    if n_pairs < 1:
        raise ValueError("need at least one pair")
    paths = sampler(table, 2 * n_pairs, rng)
    eq = np.all(paths[0::2, 1:, :] == paths[1::2, 1:, :], axis=2)
    vals = eq.sum(axis=1) / table.N
    return OverlapEstimate(mean=float(vals.mean()), stderr=standard_error(vals),
                           n_pairs=n_pairs, n_disorder=1)


def mean_replica_overlap(
    env: Environment,
    profile: BetaProfile,
    n_pairs: int,
    rng: np.random.Generator,
    sampler=sample_paths,
) -> OverlapEstimate:
    """Quenched <R> estimate from disjoint pairs of independent Gibbs draws.

    ``sampler`` is injectable so tests can force degenerate draws.
    """
    return _replica_overlap(forward_layers(env, profile), n_pairs, rng, sampler)


def exact_two_replica_overlap(env: Environment, profile: BetaProfile) -> float:
    """Exact quenched <R> = (1/N) sum_i sum_x mu(sigma_i = x)^2."""
    return float(marginal_sums(forward_layers(env, profile))[0]) / profile.N


@dataclass(frozen=True)
class IbpEstimate:
    """Residual of the finite-N derivative identity, with its noise scale."""

    residual: float
    stderr: float
    # (1/N) d/dbeta E log Z by the centered difference of per-step log Z,
    # off the pass's rolling profiles: bit for bit ``estimate_derivative``
    derivative: float
    overlap_term: float  # beta * (1 - E<R>) in mc mode; <H>/N in enum mode
    beta: float
    h: float
    n_disorder: int
    mode: str


IBP_MODES = ("auto", "mc", "enum")


def _mode_at(mode: str, d: int, n: int) -> str:
    """The identity's mode at (d, N): auto is enum where (2d)^N <= 4096 paths,
    else mc.  (2d)^N >= 2^N, so an N past 12 is mc before 2d is raised to it."""
    return mode if mode != "auto" else "enum" if n <= 12 and (2 * d) ** n <= 4096 else "mc"


def _check_ibp_args(beta: float, h: float, mode: str) -> None:
    if h <= 0:
        raise ValueError("h must be positive")
    if beta - h < 0:
        raise ValueError("need beta - h >= 0")
    if mode not in IBP_MODES:
        raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class OverlapSweep:
    """Every overlap estimate at one (N, beta), one table per environment."""

    beta: float
    N: int
    mode: str  # the identity's mode at this N, auto resolved
    replica: OverlapEstimate | None  # sampled pairs on environment 0
    exact: float  # exact <R>, mean over all n_disorder environments
    ibp: IbpEstimate | None  # all n_disorder environments; None at beta = 0


def _disorder_terms(betas, h: float, params: LatticeParams, n_env: int, master_seed: int,
                    mode: str, ns, n_pairs: int | None = None) -> dict:
    """``OverlapSweep`` per (n, beta) of the ladder ``ns`` and the grid ``betas``,
    over ``n_env`` environments (environment 0 at beta = 0), from the passes the
    module docstring lists; replica pairs only with ``n_pairs``."""
    if n_env < 1:
        raise ValueError("need n_disorder >= 1")
    ns = list(dict.fromkeys(int(n) for n in ns))
    top = replace(params, N=max(ns))
    modes = [_mode_at(mode, top.d, n) for n in ns]
    envs = [gaussian_env(derive_seed(master_seed, r), top) for r in range(n_env)]
    terms = {}
    # betas > 0 first: their pass holds the most, and it runs at the largest
    # N, so a too-large N is refused before any work
    for beta in sorted(dict.fromkeys(float(b) for b in betas), key=lambda b: b == 0.0):
        used, pm = (envs, (beta + h, beta - h)) if beta > 0.0 else (envs[:1], ())
        overlaps, rhs = np.empty((len(ns), len(used))), np.empty((len(ns), len(used)))
        rolled = np.empty((len(ns), len(used), len(pm)))
        enum = [j for j, m in enumerate(modes) if m == "enum" and beta > 0.0]
        enum_ns = [ns[j] for j in enum]
        for r, env in enumerate(used):
            fwd, rolled[:, r] = forward_layers_and_ladder(
                env, [BetaProfile.constant(b, top.N) for b in (beta,) + pm], ns)
            sums, energies = marginal_sums(fwd, ns, energy=enum_ns)
            overlaps[:, r] = sums / ns
            rhs[:, r] = beta * (1.0 - overlaps[:, r])
            rhs[enum, r] = energies / enum_ns
            if r == 0:
                replicas = [None if n_pairs is None else _replica_overlap(
                    fwd.prefix(n), n_pairs, np.random.default_rng(derive_seed(master_seed, 1)))
                    for n in ns]
            del fwd  # before the next table is built
        for j, (n, m) in enumerate(zip(ns, modes)):
            ibp = None
            if beta > 0.0:
                # the residual is a statistic of the per-environment differences
                x = (rolled[j, :, 0] - rolled[j, :, 1]) / (2.0 * h * n) - rhs[j]
                ibp = IbpEstimate(
                    residual=float(abs(x.mean())), stderr=standard_error(x),
                    derivative=difference_quotient(rolled[j, :, 1] / n, rolled[j, :, 0] / n,
                                                   2 * h),
                    overlap_term=float(rhs[j].mean()), beta=beta, h=h, n_disorder=len(x), mode=m)
            terms[n, beta] = OverlapSweep(beta, n, m, replicas[j], float(overlaps[j].mean()), ibp)
    return terms


def ibp_residual(beta: float, h: float, params: LatticeParams, n_disorder: int,
                 master_seed: int, mode: str = "mc") -> IbpEstimate:
    """Check (1/N) d/dbeta E log Z = beta (1 - E<R>) at finite N.

    mc:   averages both sides over ``n_disorder`` common environments; the
          residual is zero-mean up to O(h^2) with Monte Carlo noise reported
          as ``stderr``.
    enum: checks the pathwise half d/dbeta log Z = <H> per environment, with
          log Z(beta +/- h) from the rolling profiles of the forward pass
          and <H> from the reverse chain's marginals down its table; all
          sampling noise cancels and only the O(h^2) discretization bias
          remains.
    """
    _check_ibp_args(beta, h, mode)
    terms = _disorder_terms([beta], h, params, n_disorder, master_seed, mode, [params.N])
    return terms[params.N, float(beta)].ibp


def sweep_overlaps(betas, h: float, params: LatticeParams, n_disorder: int, master_seed: int,
                   n_pairs: int, mode: str = "mc", ns=None) -> list[OverlapSweep]:
    """Every overlap estimate at each N of ``ns`` (default ``params.N``) and
    beta of ``betas`` (a lone beta is a grid of one), N-major in the order given:
    per (N, beta) those of ``mean_replica_overlap`` on environment 0 with the
    generator seeded by ``derive_seed(master_seed, 1)``, the mean of
    ``exact_two_replica_overlap`` over all ``n_disorder`` environments and
    ``ibp_residual``, whose derivative is ``estimate_derivative``'s."""
    betas = np.atleast_1d(betas).astype(float).tolist()
    for beta in filter(None, betas):  # beta = 0 has no identity to check
        _check_ibp_args(beta, h, mode)
    ns = [params.N] if ns is None else ns
    terms = _disorder_terms(betas, h, params, n_disorder, master_seed, mode, ns, n_pairs)
    return [terms[int(n), beta] for n in ns for beta in betas]
