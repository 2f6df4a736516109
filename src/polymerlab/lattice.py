"""Lattice geometry, seeded Gaussian disorder, and interval partitions.

Foundation shared by every other module: nearest-neighbor path validity on
Z^d, the reachable cone D_i, the counter-style random field g(i, x), and the
regular partitions of [1, N] together with their K-fold refinements.

The disorder field is generated counter-style: every value is a pure hash of
(seed, layer, site), so any cell can be evaluated at any time, in any order,
on any number of threads, and the result never changes.  Nothing is stored,
so an environment costs no cells: the cell budget ``LatticeParams.max_cells``
is charged by the transfer driver, for the layers a pass actually holds.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_LAYER_SALT = 0xD1B54A32D192ED03
_SEED_SALT = 0x8BB84B93962EACC9
_COORD_SALT = 0xC2B2AE3D27D4EB4F

DEFAULT_MAX_CELLS = 100_000_000
_U_MAX = np.array(1.0 - 2.0**-53)  # the largest float64 below 1 (0-d: the cheapest operand)


class MemoryGuardError(ValueError):
    """A computation would hold more cells than the configured budget."""


def _mix64(h: int) -> int:
    """SplitMix64 finalizer on python ints (wraps mod 2^64)."""
    h &= _MASK64
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK64
    return h ^ (h >> 31)


def _mix64_arr(h: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer of the uint64 array h, in place; returns h."""
    h ^= h >> np.uint64(30)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(27)
    h *= np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(31)
    return h


def _coord_salt(k: int) -> int:
    # odd multiplier per coordinate axis, so axis permutations decorrelate
    return _mix64(_COORD_SALT + (k + 1) * _GOLDEN) | 1


def derive_seed(master_seed: int, index: int) -> int:
    """Published replica-seed mixing function.

    Replica ``index`` of a run with ``master_seed`` uses
    ``mix64(master_seed XOR mix64((index + 1) * SEED_SALT))`` where mix64 is
    the SplitMix64 finalizer.  Deterministic under any parallel schedule.
    """
    seed, index = operator.index(master_seed) & _MASK64, operator.index(index)
    return _mix64(seed ^ _mix64((index + 1) * _SEED_SALT))


@dataclass(frozen=True)
class LatticeParams:
    """Spatial dimension and path length, plus the cell budget of a transfer pass."""

    d: int
    N: int
    max_cells: int = DEFAULT_MAX_CELLS

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.N < 1:
            raise ValueError(f"path length must be >= 1, got {self.N}")
        if self.max_cells < 1:
            raise ValueError("max_cells must be positive")


def _normals(bases, coords, out=None) -> np.ndarray:
    """Standard normals hashed from layer bases (uint64, any shape B) and the
    (n, d) sites ``coords``: shape B + (n,), written into ``out`` when given,
    which also holds the hash; besides it one temporary of its size is held.
    Every value depends on its own base and site only, so a batch of bases
    gives the bits of one at a time."""
    coords = path_columns(np.asarray(coords, dtype=np.int64))
    bases = np.asarray(bases, dtype=np.uint64)
    out = np.empty(bases.shape + (len(coords),)) if out is None else out
    h = out.view(np.uint64)
    h[...] = bases[..., None]
    with np.errstate(over="ignore"):
        for k in range(coords.shape[1]):
            col = coords[:, k].astype(np.uint64)
            col *= np.uint64(_coord_salt(k))
            h ^= col
            h = _mix64_arr(h)
    # out holds the hash, so the shifted bits go through a temporary: numpy
    # copies an input that overlaps its output with another dtype
    u = np.add(h >> np.uint64(11), 0.5, out=out)
    u *= 2.0**-53
    # (2^53 - 1) + 0.5 rounds to 2^53, so the all-ones hash gives u = 1 and an
    # infinite normal; every other u is at most 1 - 2^-52 and keeps its bits
    np.minimum(u, _U_MAX, out=u)
    return ndtri(u, out=u)


@dataclass(frozen=True)
class Environment:
    """Seeded Gaussian field g(i, x) over the reachable cone, 1 <= i <= N.

    Values are standard normal, independent across distinct (i, x), and a
    deterministic function of (seed, i, x).
    """

    seed: int
    params: LatticeParams

    @functools.cached_property
    def _seed_hash(self) -> int:
        return _mix64((operator.index(self.seed) & _MASK64) ^ _GOLDEN)

    def _layer_base(self, i: int) -> int:
        return _mix64(self._seed_hash ^ ((operator.index(i) * _LAYER_SALT) & _MASK64))

    def values(self, i: int, coords: np.ndarray) -> np.ndarray:
        """Field values at layer i for an (n, d) array of lattice points."""
        return _normals(self._layer_base(i), coords)

    def value(self, i: int, point) -> float:
        return float(self.values(i, np.asarray(point, dtype=np.int64).reshape(1, -1))[0])


@dataclass(frozen=True)
class ZeroEnvironment(Environment):
    """All-zero field; injects a deterministic null disorder for testing."""

    def values(self, i: int, coords: np.ndarray) -> np.ndarray:
        return np.zeros(len(coords))


def zero_env(params: LatticeParams) -> ZeroEnvironment:
    return ZeroEnvironment(seed=0, params=params)


@dataclass(frozen=True)
class PerturbedEnvironment(Environment):
    """Wraps a base environment and shifts the value of one cell by delta.

    Fault-injection hook for the determinism suite.
    """

    base: Environment = None  # type: ignore[assignment]
    layer: int = 1
    point: tuple = (0,)
    delta: float = 1.0

    def values(self, i: int, coords: np.ndarray) -> np.ndarray:
        out = self.base.values(i, coords)
        if i == self.layer:
            coords = path_columns(np.asarray(coords, dtype=np.int64))
            hit = np.all(coords == np.asarray(self.point, dtype=np.int64), axis=1)
            out = np.where(hit, out + self.delta, out)
        return out


def perturb_env(base: Environment, layer: int, point, delta: float) -> PerturbedEnvironment:
    return PerturbedEnvironment(
        seed=base.seed, params=base.params, base=base,
        layer=layer, point=tuple(np.atleast_1d(point).tolist()), delta=delta,
    )


def layer_fields(envs, i: int, coords: np.ndarray, out=None) -> np.ndarray:
    """g(i, .) of each environment at the (n, d) sites ``coords``: (len(envs), n),
    written into ``out`` when given.

    Several environments that keep ``Environment.values`` share one hash call
    over their ``_layer_base(i)``.  A lone environment, or a batch holding one
    that overrides ``values``, is asked through ``values``, one environment at
    a time.
    """
    if len(envs) > 1 and all(type(env).values is Environment.values for env in envs):
        return _normals(np.array([env._layer_base(i) for env in envs], dtype=np.uint64), coords,
                        out)
    out = np.empty((len(envs), len(coords))) if out is None else out
    for row, env in zip(out, envs):
        row[:] = env.values(i, coords)
    return out


def gaussian_env(seed: int, params: LatticeParams) -> Environment:
    """The seeded environment.  It stores nothing, so any N and d are accepted;
    ``params.max_cells`` is charged by each transfer pass over it."""
    return Environment(seed=seed, params=params)


# ---------------------------------------------------------------------------
# Reachable cone
# ---------------------------------------------------------------------------

def reachable_set(i: int, d: int) -> np.ndarray:
    """All sites the walk can occupy at step i, sorted lexicographically.

    D_i = {x : ||x||_1 <= i and ||x||_1 = i mod 2}.  Enumeration-based;
    intended for diagnostics and small i.
    """
    if i < 0:
        raise ValueError("step index must be >= 0")
    pts = [
        p
        for p in itertools.product(range(-i, i + 1), repeat=d)
        if sum(abs(c) for c in p) <= i and (sum(abs(c) for c in p) - i) % 2 == 0
    ]
    return np.array(sorted(pts), dtype=np.int64).reshape(len(pts), d)


def _shell_count(r: int, d: int) -> int:
    """Number of lattice points with ||x||_1 == r."""
    if r == 0:
        return 1
    return sum(
        (2**k) * math.comb(d, k) * math.comb(r - 1, k - 1)
        for k in range(1, min(d, r) + 1)
    )


def reachable_set_size(i: int, d: int) -> int:
    """|D_i| without enumeration."""
    if i < 0:
        raise ValueError("step index must be >= 0")
    if d == 1:
        return i + 1
    if d == 2:
        return (i + 1) ** 2
    return sum(_shell_count(r, d) for r in range(i % 2, i + 1, 2))


def reachable_cells_total(N: int, d: int, cap: int | None = None) -> int:
    """Sum of |D_i| over layers i = 0..N; stops early once past ``cap``."""
    if d == 1:
        return (N + 1) * (N + 2) // 2
    if d == 2:
        return (N + 1) * (N + 2) * (2 * N + 3) // 6
    # parity classes let |D_i| grow incrementally: D_i = D_{i-2} + shell_i
    size = [1, _shell_count(1, d)]  # |D_0|, |D_1|
    total = size[0] + (size[1] if N >= 1 else 0)
    for i in range(2, N + 1):
        s = size[i % 2] + _shell_count(i, d)
        size[i % 2] = s
        total += s
        if cap is not None and total > cap:
            return total
    return total


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

def path_columns(points) -> np.ndarray:
    """Sites as rows of an array, keeping its dtype; a 1-D array is one d=1 column."""
    arr = np.asarray(points)
    return arr[:, None] if arr.ndim == 1 else arr


def as_path(points, d: int = 1) -> np.ndarray:
    """Convenience: coerce a point sequence into an (M, d) int64 array."""
    arr = path_columns(np.asarray(points, dtype=np.int64))
    if arr.shape[1] != d:
        raise ValueError(f"expected dimension {d}, got {arr.shape[1]}")
    return arr


def is_valid_path(points) -> bool:
    """True iff the sequence starts at the origin and takes unit L1 steps."""
    pts = path_columns(points)
    if pts.ndim != 2 or pts.shape[0] < 1:
        return False
    if not np.issubdtype(pts.dtype, np.integer):
        if not np.all(pts == np.round(pts)):
            return False
        pts = pts.astype(np.int64)
    if np.any(pts[0] != 0):
        return False
    if pts.shape[0] == 1:
        return True
    steps = np.abs(np.diff(pts, axis=0)).sum(axis=1)
    return bool(np.all(steps == 1))


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionScheme:
    """Boundaries 0 = n_0 <= n_1 <= ... <= n_L = N of L regular blocks."""

    N: int
    L: int
    boundaries: tuple

    def __post_init__(self):
        b = self.boundaries
        if len(b) != self.L + 1 or b[0] != 0 or b[-1] != self.N:
            raise ValueError("boundaries must run 0 = n_0 <= ... <= n_L = N")
        sizes = np.diff(b)
        if np.any(sizes < 0):
            raise ValueError("boundaries must be non-decreasing")
        lo, hi = self.N // self.L, -(-self.N // self.L)
        if not all(s in (lo, hi) for s in sizes):
            raise ValueError(f"block sizes {tuple(sizes)} not in {{{lo}, {hi}}}")
        if self.N >= self.L:
            if not all(self.N / (2 * self.L) <= s <= 2 * self.N / self.L for s in sizes):
                raise ValueError("block sizes violate the N/2L..2N/L envelope")

    @property
    def sizes(self) -> tuple:
        return tuple(int(x) for x in np.diff(self.boundaries))

    def block_window(self, ell: int) -> tuple:
        """Closed time window [n_{ell-1}+1, n_ell] of block ell (1-based)."""
        if not 1 <= ell <= self.L:
            raise ValueError(f"block index {ell} outside 1..{self.L}")
        return self.boundaries[ell - 1] + 1, self.boundaries[ell]


def make_partition(N: int, L: int) -> PartitionScheme:
    """Canonical regular partition with boundaries n_ell = floor(ell*N/L)."""
    if not 1 <= L <= N:
        raise ValueError(f"need 1 <= L <= N, got L={L}, N={N}")
    bounds = tuple(ell * N // L for ell in range(L + 1))
    return PartitionScheme(N=N, L=L, boundaries=bounds)


@dataclass(frozen=True)
class SubPartition:
    """K-fold refinement of one block of a PartitionScheme."""

    parent: PartitionScheme
    ell: int
    K: int
    boundaries: tuple

    def __post_init__(self):
        lo, hi = self.parent.boundaries[self.ell - 1], self.parent.boundaries[self.ell]
        b = self.boundaries
        if len(b) != self.K + 1 or b[0] != lo or b[-1] != hi:
            raise ValueError("sub-boundaries must span the parent block")
        sizes = np.diff(b)
        size = hi - lo
        flo, fhi = size // self.K, -(-size // self.K)
        if not all(s in (flo, fhi) for s in sizes):
            raise ValueError("sub-block sizes are not as equal as possible")

    @property
    def sizes(self) -> tuple:
        return tuple(int(x) for x in np.diff(self.boundaries))

    @property
    def has_empty_blocks(self) -> bool:
        return any(s == 0 for s in self.sizes)

    def sub_window(self, k: int) -> tuple:
        """Closed time window [m_{k-1}+1, m_k] of sub-block k (1-based)."""
        if not 1 <= k <= self.K:
            raise ValueError(f"sub-block index {k} outside 1..{self.K}")
        return self.boundaries[k - 1] + 1, self.boundaries[k]


def make_subpartition(p: PartitionScheme, ell: int, K: int) -> SubPartition:
    """Split block ell into K sub-blocks with sizes as equal as possible.

    K larger than the block size is permitted; the result then carries empty
    sub-blocks and flags them via ``has_empty_blocks``.
    """
    if not 1 <= ell <= p.L:
        raise ValueError(f"block index {ell} outside 1..{p.L}")
    if K < 1:
        raise ValueError("K must be >= 1")
    lo, hi = p.boundaries[ell - 1], p.boundaries[ell]
    size = hi - lo
    bounds = tuple(lo + k * size // K for k in range(K + 1))
    return SubPartition(parent=p, ell=ell, K=K, boundaries=bounds)
