"""Overlap functionals and replica-overlap estimators under the Gibbs measure.

The overlap of two equal-length paths counts coinciding sites over i = 1..N
(the shared origin is excluded).  Replica estimates come from exact Gibbs
sampling; the exact quenched two-replica overlap comes from forward/backward
marginals,

    <R> = (1/N) sum_i sum_x mu(sigma_i = x)^2,

which also powers the finite-N derivative identity

    (1/N) d/dbeta E log Z_N(beta) = beta * (1 - E<R>_beta),

obtained from Gaussian integration by parts.  ``ibp_residual`` checks that
identity: in Monte Carlo mode both sides are disorder averages over a common
set of environments; in enumeration mode the statistically-exact pathwise
half of the identity, d/dbeta log Z = <H>, is checked per environment with
log Z from path enumeration and <H> from transfer-matrix marginals, so only
the O(h^2) finite-difference bias remains.

Each estimator's formula is written once, over a forward table, its
``marginal_sums`` or log Z values; the public estimators wrap it for one
environment or one disorder average.  ``sweep_overlaps`` and ``ibp_residual``
walk the environments once: a forward table each (the replica sampler runs on
environment 0's), reduced against one rolling backward pass (exact <R> and, in
enum mode, <H>); then log Z at beta +/- h of all of them comes from one batched
rolling pass.  One table is kept at a time; no backward table is.  At beta = 0
the passes read no field, so environment 0 stands for every environment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .free_energy import difference_quotient, standard_error
from .lattice import (Environment, LatticeParams, PartitionScheme, derive_seed, gaussian_env,
                      path_columns)
from .transfer import (
    BetaProfile,
    brute_force_log_partition,
    forward_layers,
    gibbs_enumeration,
    log_partition_ladder,
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
    return marginal_sums(forward_layers(env, profile))[0] / profile.N


@dataclass(frozen=True)
class IbpEstimate:
    """Residual of the finite-N derivative identity, with its noise scale."""

    residual: float
    stderr: float
    derivative: float  # centered finite difference of per-step free energy
    overlap_term: float  # beta * (1 - E<R>) in mc mode; <H>/N in enum mode
    beta: float
    h: float
    n_disorder: int
    mode: str


def _ibp_summary(logz: np.ndarray, rhs: np.ndarray, beta: float, h: float,
                 n: int, mode: str) -> IbpEstimate:
    """The identity's residual from per-environment log Z at beta +/- h
    (columns of ``logz``) and right-hand sides."""
    diffs = (logz[:, 0] - logz[:, 1]) / (2.0 * h * n)
    x = diffs - rhs
    return IbpEstimate(
        residual=float(abs(x.mean())),
        stderr=standard_error(x),
        derivative=float(diffs.mean()),
        overlap_term=float(rhs.mean()),
        beta=beta,
        h=h,
        n_disorder=len(x),
        mode=mode,
    )


def _check_ibp_args(beta: float, h: float, mode: str) -> None:
    if h <= 0:
        raise ValueError("h must be positive")
    if beta - h < 0:
        raise ValueError("need beta - h >= 0")
    if mode not in ("mc", "enum"):
        raise ValueError(f"unknown mode {mode!r}")


def _disorder_terms(beta: float, h: float, params: LatticeParams, n_env: int,
                    master_seed: int, mode: str, first=lambda fwd: None):
    """Exact <R>, the identity's right-hand side (beta (1 - <R>) in mc mode,
    <H>/N in enum mode) and, at beta > 0, log Z at beta + h and beta - h from the
    rolling pass and as the identity reads it (enumerated in enum mode), of each
    of the first ``n_env`` environments.  ``first`` gets environment 0's table."""
    if n_env < 1:
        raise ValueError("need n_disorder >= 1")
    n = params.N
    envs = [gaussian_env(derive_seed(master_seed, r), params) for r in range(n_env)]
    overlaps, rhs = np.empty(n_env), np.empty(n_env)
    # the kept tables first: their budget refuses a too-large N before any work
    for r, env in enumerate(envs):
        fwd = forward_layers(env, BetaProfile.constant(beta, n))
        if r == 0:
            first(fwd)
        squares, energy = marginal_sums(fwd)
        del fwd  # before the next table is built
        overlaps[r] = squares / n
        rhs[r] = energy / n if mode == "enum" else beta * (1.0 - overlaps[r])
    if beta == 0.0:
        return overlaps, rhs, None, None
    profs = [BetaProfile.constant(beta + h, n), BetaProfile.constant(beta - h, n)]
    rolled = log_partition_ladder(envs, profs, [n])[0]
    logz = rolled if mode == "mc" else np.array(
        [[brute_force_log_partition(env, pr) for pr in profs] for env in envs])
    return overlaps, rhs, rolled, logz


def ibp_residual(beta: float, h: float, params: LatticeParams, n_disorder: int,
                 master_seed: int, mode: str = "mc") -> IbpEstimate:
    """Check (1/N) d/dbeta E log Z = beta (1 - E<R>) at finite N.

    mc:   averages both sides over ``n_disorder`` common environments; the
          residual is zero-mean up to O(h^2) with Monte Carlo noise reported
          as ``stderr``.
    enum: checks the pathwise half d/dbeta log Z = <H> per environment, with
          log Z from full path enumeration and <H> from transfer-matrix
          marginals; all sampling noise cancels and only the O(h^2)
          discretization bias remains.
    """
    _check_ibp_args(beta, h, mode)
    _, rhs, _, logz = _disorder_terms(beta, h, params, n_disorder, master_seed, mode)
    return _ibp_summary(logz, rhs, beta, h, params.N, mode)


@dataclass(frozen=True)
class OverlapSweep:
    """Every overlap estimate at one (N, beta), one table per environment."""

    replica: OverlapEstimate  # sampled pairs on environment 0
    exact: float  # exact <R>, mean over all n_disorder environments
    ibp: IbpEstimate | None  # all n_disorder environments; None at beta = 0
    derivative: float | None  # (1/N) d/dbeta E log Z, central difference; None at beta = 0


def sweep_overlaps(beta: float, h: float, params: LatticeParams, n_disorder: int,
                   master_seed: int, n_pairs: int, mode: str = "mc") -> OverlapSweep:
    """Every overlap estimate at one (N, beta) from one table per environment.

    Gives the same numbers as ``mean_replica_overlap`` on environment 0 with
    the generator seeded by ``derive_seed(master_seed, 1)``, the mean of
    ``exact_two_replica_overlap`` over all ``n_disorder`` environments,
    ``ibp_residual`` and ``estimate_derivative``, from one forward table and
    one backward reduction per environment and (beta > 0) one batched rolling
    pass over all of them.  At beta = 0 no field is read, so only environment
    0's passes run.
    """
    n = params.N
    if beta > 0.0:
        _check_ibp_args(beta, h, mode)
    rng = np.random.default_rng(derive_seed(master_seed, 1))
    replica = []
    overlaps, rhs, rolled, logz = _disorder_terms(
        beta, h, params, n_disorder if beta > 0.0 else min(n_disorder, 1), master_seed, mode,
        lambda fwd: replica.append(_replica_overlap(fwd, n_pairs, rng)))
    exact = float(overlaps.mean())
    if beta == 0.0:
        return OverlapSweep(replica[0], exact, None, None)
    return OverlapSweep(
        replica[0],
        exact,
        _ibp_summary(logz, rhs, beta, h, n, mode),
        difference_quotient(rolled[:, 1] / n, rolled[:, 0] / n, 2 * h),
    )


def enumerated_two_replica_overlap(env: Environment, profile: BetaProfile) -> float:
    """<R> by the full double sum over enumerated paths (test oracle)."""
    paths, probs = gibbs_enumeration(env, profile)
    n = profile.N
    eq = np.all(paths[:, None, 1:, :] == paths[None, :, 1:, :], axis=3)
    r = eq.sum(axis=2) / n
    return float(probs @ r @ probs)
