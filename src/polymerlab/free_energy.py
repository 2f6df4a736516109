"""Quenched free-energy estimation, concentration, and multi-temperature checks.

Per-step free energy is estimated as the disorder average of log Z_N / N over
independently seeded environments.  The annealed (Jensen) bound

    E log Z_N(beta) <= log E Z_N(beta) = N beta^2 / 2

is exact because beta^2/2 is the log moment generating function of a standard
normal, so every estimate must sit below beta^2/2 up to sampling noise.
Derivatives use common random numbers: the profiles at beta +/- h share each
environment, which collapses the variance of the difference.

A beta grid and an N ladder are swept together: ``_per_step_logz`` reads
log Z_n at every N and beta off one rolling pass to the largest N per batch
of environments (``transfer.log_partition_ladder``), so each layer's field is
generated once per environment.  The resulting (N x environment x beta)
array of log Z / N feeds the estimates and, through
``concentration_from_samples``, the concentration tails, with the bits of one
pass per N, environment and beta.

``multi_temp_gap`` measures how closely the multi-temperature free energy
matches the average of independent single-temperature block free energies.
Each replica builds L fresh block environments, evaluates the standalone
block partition functions, and evaluates the multi-temperature partition
function on the concatenation of those same blocks.  Every term keeps its
required marginal law while the shared blocks act as common random numbers,
so the gap statistic isolates the junction-mixing term, which vanishes as
N grows.  Each term is one batched rolling pass over every replica.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field, replace

import numpy as np

from .lattice import Environment, LatticeParams, PartitionScheme, derive_seed, gaussian_env, make_partition
from .transfer import BetaProfile, log_partition_ladder


@dataclass(frozen=True)
class FreeEnergyEstimate:
    beta: float
    N: int
    d: int
    mean: float  # per-step free energy, (1/N) avg log Z
    stderr: float
    n_disorder: int
    # log Z / N per environment, the sample behind mean and stderr
    samples: np.ndarray | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class ConcentrationProfile:
    beta: float
    N: int
    d: int
    u_grid: np.ndarray
    empirical: np.ndarray  # P-hat(|log Z / N - mean| > u)
    bound: np.ndarray  # exp(-N u^2 / (2 beta^2))
    binomial_sigma: np.ndarray
    n_disorder: int

    def within_bound(self, n_sigma: float = 3.0) -> bool:
        return bool(np.all(self.empirical <= self.bound + n_sigma * self.binomial_sigma))


def annealed_bound(beta: float) -> float:
    """Per-step annealed free energy beta^2/2 (Gaussian log-mgf)."""
    return 0.5 * beta * beta


def standard_error(x: np.ndarray) -> float:
    """Standard error of the mean of sample ``x``; 0.0 for one value or none."""
    return float(x.std(ddof=1) / np.sqrt(x.size)) if x.size > 1 else 0.0


def _per_step_logz(params: LatticeParams, betas, master_seed: int, n_disorder: int,
                   ns=None) -> np.ndarray:
    """(len(ns), n_disorder, len(betas)) array of log Z_n / n over derived seeds,
    in seed order, for each n of ``ns`` (default ``params.N``) in the order given."""
    ns = np.array((params.N,) if ns is None else ns)
    if ns.size == 0:
        raise ValueError("need at least one N in the ladder")
    top = replace(params, N=int(ns.max()))
    envs = [gaussian_env(derive_seed(master_seed, r), top) for r in range(n_disorder)]
    profs = [BetaProfile.constant(beta, top.N) for beta in betas]
    return log_partition_ladder(envs, profs, ns) / ns[:, None, None]


def estimate_free_energies(
    betas,
    params: LatticeParams,
    n_disorder: int = 200,
    master_seed: int = 0,
    ns=None,
) -> list[FreeEnergyEstimate]:
    """Average (1/N) log Z_N(beta) over independent environments, for each N of
    ``ns`` (default ``params.N``) in the order given and each beta, N-major.

    Every beta and N share one rolling pass per batch of environments.
    """
    if n_disorder < 2:
        raise ValueError("need n_disorder >= 2")
    ns = (params.N,) if ns is None else ns
    vals = _per_step_logz(params, betas, master_seed, n_disorder, ns)
    return [
        FreeEnergyEstimate(
            beta=beta, N=int(n), d=params.d, mean=float(v.mean()),
            stderr=standard_error(v), n_disorder=n_disorder, samples=v,
        )
        for n, by_n in zip(ns, vals)
        for beta, v in zip(betas, by_n.T)
    ]


def estimate_free_energy(
    beta: float,
    params: LatticeParams,
    n_disorder: int = 200,
    master_seed: int = 0,
) -> FreeEnergyEstimate:
    """Average (1/N) log Z_N(beta) over independent environments."""
    return estimate_free_energies([beta], params, n_disorder, master_seed)[0]


def difference_quotient(lo: np.ndarray, hi: np.ndarray, width: float) -> float:
    """Mean over environments of (hi - lo) / width, for per-step log Z samples."""
    return float((hi - lo).mean() / width)


def estimate_derivative(
    beta: float,
    h: float,
    params: LatticeParams,
    n_disorder: int = 200,
    master_seed: int = 0,
) -> float:
    """Central difference of the per-step free energy with common random numbers.

    At beta = 0 the derivative is taken one-sided (p'(0) = 0 by the +/- g
    symmetry, and negative temperatures are outside the model).
    """
    if h <= 0:
        raise ValueError("h must be positive")
    if beta - h < 0:
        lo, hi, width = 0.0, beta + h, beta + h
    else:
        lo, hi, width = beta - h, beta + h, 2 * h
    vals = _per_step_logz(params, (lo, hi), master_seed, n_disorder)[0]
    return difference_quotient(vals[:, 0], vals[:, 1], width)


def concentration_profile(
    beta: float,
    params: LatticeParams,
    n_disorder: int,
    u_grid,
    master_seed: int = 0,
) -> ConcentrationProfile:
    """Empirical exceedance of |log Z/N - mean| against the Gaussian bound."""
    u_grid = _positive_grid(u_grid)  # before the transfer passes
    vals = _per_step_logz(params, (beta,), master_seed, n_disorder)[0, :, 0]
    return concentration_from_samples(beta, params, vals, u_grid)


def _positive_grid(u_grid) -> np.ndarray:
    u_grid = np.asarray(u_grid, dtype=np.float64)
    if np.any(u_grid <= 0):
        raise ValueError("u grid must be positive")
    return u_grid


def concentration_from_samples(
    beta: float, params: LatticeParams, samples: np.ndarray, u_grid
) -> ConcentrationProfile:
    """``concentration_profile`` of given per-environment log Z / N samples."""
    u_grid = _positive_grid(u_grid)
    n_disorder = len(samples)
    dev = np.abs(samples - samples.mean())
    empirical = np.array([(dev > u).mean() for u in u_grid])
    if beta == 0.0:
        bound = np.zeros_like(u_grid)
    else:
        bound = np.exp(-params.N * u_grid**2 / (2.0 * beta * beta))
    sigma = np.sqrt(np.minimum(bound, 1.0) * (1.0 - np.minimum(bound, 1.0)) / n_disorder)
    return ConcentrationProfile(
        beta=beta,
        N=params.N,
        d=params.d,
        u_grid=u_grid,
        empirical=empirical,
        bound=bound,
        binomial_sigma=sigma,
        n_disorder=n_disorder,
    )


# ---------------------------------------------------------------------------
# Multi-temperature consistency
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockConcatEnvironment(Environment):
    """Environment assembled from independent plain block environments.

    Layer i of the composite has the layer base of layer i - n_{ell-1} of the
    block ell holding i, so a batch of composites is hashed in one call and
    each block is queried on 1..block_len.  The composite field is i.i.d.
    standard normal because the blocks are independent and each is queried
    injectively.
    """

    blocks: tuple = ()
    boundaries: tuple = ()

    def _layer_base(self, i: int) -> int:
        ell = bisect.bisect_left(self.boundaries, i)
        return self.blocks[ell - 1]._layer_base(i - self.boundaries[ell - 1])


@dataclass(frozen=True)
class GapEstimate:
    """|avg multi-temperature free energy - sum of block free energies|."""

    N: int
    L: int
    betas: tuple
    gap: float
    stderr: float
    lhs_mean: float  # (1/N) avg log Z_{P_{N,L}}(betas)
    rhs_mean: float  # sum_ell (1/N) avg log Z_{block}(beta_ell)
    n_disorder: int


def multi_temp_gap(
    p: PartitionScheme,
    betas,
    d: int,
    n_disorder: int = 200,
    master_seed: int = 0,
) -> GapEstimate:
    """Gap Delta_N between the two sides of the consistency limit at one N."""
    betas = tuple(float(b) for b in np.atleast_1d(betas))
    if len(betas) != p.L:
        raise ValueError(f"need {p.L} block temperatures, got {len(betas)}")
    if p.N < p.L**2:
        raise ValueError(f"consistency check requires N >= L^2 (N={p.N}, L={p.L})")
    # blocks[ell][r]: block ell of replica r, a fresh environment of its size
    blocks = [
        [gaussian_env(derive_seed(master_seed, r * p.L + ell), LatticeParams(d=d, N=s))
         for r in range(n_disorder)]
        for ell, s in enumerate(p.sizes)
    ]
    cats = [
        BlockConcatEnvironment(seed=envs[0].seed, params=LatticeParams(d=d, N=p.N),
                               blocks=envs, boundaries=p.boundaries)
        for envs in zip(*blocks)
    ]
    lz_full = log_partition_ladder(cats, [BetaProfile.from_blocks(p, betas)], [p.N])[0, :, 0]
    lz_blocks = sum(
        log_partition_ladder(envs, [BetaProfile.constant(b, s)], [s])[0, :, 0]
        for envs, s, b in zip(blocks, p.sizes, betas)
    )
    lhs = lz_full / p.N
    xs = (lz_full - lz_blocks) / p.N

    return GapEstimate(
        N=p.N,
        L=p.L,
        betas=betas,
        gap=float(abs(xs.mean())),
        stderr=standard_error(xs),
        lhs_mean=float(lhs.mean()),
        rhs_mean=float(lhs.mean() - xs.mean()),
        n_disorder=n_disorder,
    )


def multi_temp_consistency(
    n_ladder,
    L: int,
    betas,
    d: int,
    n_disorder: int = 200,
    master_seed: int = 0,
) -> list[GapEstimate]:
    """Gap estimates along an N-ladder (each rung gets fresh seeds)."""
    out = []
    for j, n in enumerate(n_ladder):
        p = make_partition(int(n), L)
        out.append(
            multi_temp_gap(p, betas, d, n_disorder, derive_seed(master_seed, 1_000_003 + j))
        )
    return out

