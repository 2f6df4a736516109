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

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_LAYER_SALT = 0xD1B54A32D192ED03
_SEED_SALT = 0x8BB84B93962EACC9
_COORD_SALT = 0xC2B2AE3D27D4EB4F

DEFAULT_MAX_CELLS = 100_000_000
_U_MAX = np.array(1.0 - 2.0**-53)  # the largest float64 below 1 (0-d: the cheapest operand)

# values per field hash call and per chunk of its scratch: numpy's per-call
# cost shows below it, cache misses above it (CHANGES.md holds the measured
# table)
FIELD_BLOCK = 1 << 15
# cells a field hash holds besides its output, at most: its scratch, four
# rows of a chunk, and a chunk more for the inverse normal's tail index (or
# numpy's buffers of the uint64 to float64 conversion before it)
FIELD_SCRATCH_CELLS = 5 * FIELD_BLOCK

# Wichura's AS241 (PPND16), Applied Statistics 37(3), 1988: with q = u - 0.5,
# the central rational in r = 0.180625 - q^2 where |q| <= 0.425, and in the
# tail r = sqrt(-log(min(u, 1 - u))), the near one in r - 1.6 up to r = 5
# and the far one in r - 5 beyond; numerator and denominator coefficients,
# constant term first
_CENTRAL = ((3.3871328727963666080e0, 1.3314166789178437745e+2, 1.9715909503065514427e+3,
             1.3731693765509461125e+4, 4.5921953931549871457e+4, 6.7265770927008700853e+4,
             3.3430575583588128105e+4, 2.5090809287301226727e+3),
            (1.0, 4.2313330701600911252e+1, 6.8718700749205790830e+2, 5.3941960214247511077e+3,
             2.1213794301586595867e+4, 3.9307895800092710610e+4, 2.8729085735721942674e+4,
             5.2264952788528545610e+3))
_NEAR = ((1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
          3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
          2.27238449892691845833e-2, 7.74545014278341407640e-4),
         (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
          1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
          1.05075007164441684324e-9))
_FAR = ((6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
         2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
         2.71155556874348757815e-5, 2.01033439929228813265e-7),
        (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
         7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
         2.04426310338993978564e-15))


class MemoryGuardError(ValueError):
    """A computation would hold more cells than the configured budget."""


def _mix64(h: int) -> int:
    """SplitMix64 finalizer on python ints (wraps mod 2^64)."""
    h &= _MASK64
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK64
    return h ^ (h >> 31)


def _mix64_arr(h: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer of the flat uint64 array h, in place, a chunk
    of len(t) at a time, each shift into the uint64 scratch t; returns h."""
    for lo in range(0, len(h), len(t)):
        x = h[lo:lo + len(t)]
        s = t[:len(x)]
        x ^= np.right_shift(x, 30, out=s)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= np.right_shift(x, 27, out=s)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= np.right_shift(x, 31, out=s)
    return h


@functools.cache
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


def _poly(c, r: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sum_k c[k] r^k by Horner's rule, into out (not r)."""
    np.multiply(r, c[-1], out=out)
    out += c[-2]
    for ck in c[-3::-1]:
        out *= r
        out += ck
    return out


def _ndtri(u: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The standard normal quantile of each u in (0, 1), in place, by AS241
    (within 2e-15 relative of ``scipy.special.ndtri``): the central rational
    over all of u, then the tail |u - 0.5| > 0.425, gathered through its own
    index array.  Each value's arithmetic is its own, so its bits do not
    depend on the chunk.  ``t`` is (4, >= len(u)) float64 scratch; its last
    row holds the tail's mask, then the tail."""
    n = len(u)
    q, r, den = t[0, :n], t[1, :n], t[2, :n]
    np.subtract(u, 0.5, out=q)
    at = np.flatnonzero(np.greater(np.abs(q, out=r), 0.425, out=t[3].view(np.bool_)[:n]))
    v = np.take(u, at, out=t[3, :len(at)], mode="clip")
    np.multiply(q, q, out=r)
    np.subtract(0.180625, r, out=r)
    _poly(_CENTRAL[0], r, u)
    u *= q
    with np.errstate(divide="ignore", invalid="ignore"):  # the tail's entries, replaced below
        u /= _poly(_CENTRAL[1], r, den)
    sign, num, den = (row[:len(v)] for row in t[:3])
    np.subtract(v, 0.5, out=sign)
    np.minimum(v, np.subtract(1.0, v, out=num), out=v)
    np.sqrt(np.negative(np.log(v, out=v), out=v), out=v)
    far = v > 5.0 if len(v) and v.max() > 5.0 else None  # u < e^-25: hardly ever
    if far is not None:
        w = v[far] - 5.0
        x_far = _poly(_FAR[0], w, np.empty_like(w)) / _poly(_FAR[1], w, np.empty_like(w))
    v -= 1.6
    x = _poly(_NEAR[0], v, num)
    x /= _poly(_NEAR[1], v, den)
    if far is not None:
        x[far] = x_far
    np.put(u, at, np.copysign(x, sign, out=x), mode="clip")
    return u


def field_scratch(n: int = FIELD_BLOCK) -> np.ndarray:
    """Scratch for hashing fields a chunk of n values at a time."""
    return np.empty((4, n))


def _hash(out: np.ndarray, bases: np.ndarray, coords: np.ndarray, t: np.ndarray) -> int:
    """The hash of each of the uint64 ``bases`` with each of the (n, d)
    int64 sites ``coords``, a (len(bases), n) block at the head of the flat
    uint64 ``out``; returns its size."""
    block = out[:len(bases) * len(coords)]
    rows = block.reshape(len(bases), len(coords))
    np.copyto(rows, bases[:, None])
    with np.errstate(over="ignore"):
        for k in range(coords.shape[1]):
            col = coords[:, k].astype(np.uint64)
            col *= np.uint64(_coord_salt(k))
            rows ^= col
            _mix64_arr(block, t)
    return block.size


def _gaussians(h: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The flat hashes h, float64 memory viewed as uint64, turned in place
    into standard normals a chunk of t at a time: u = (top 53 bits + 0.5)
    2^-53, then its quantile; returns them as float64."""
    out = h.view(np.float64)
    for lo in range(0, len(h), t.shape[1]):
        u = out[lo:lo + t.shape[1]]
        top = t[0].view(np.uint64)[:len(u)]
        # u holds the hash, so the shifted bits go through scratch: numpy
        # copies an input that overlaps its output with another dtype
        np.add(np.right_shift(h[lo:lo + len(u)], 11, out=top), 0.5, out=u)
        u *= 2.0**-53
        # (2^53 - 1) + 0.5 rounds to 2^53, so the all-ones hash gives u = 1 and an
        # infinite normal; every other u is at most 1 - 2^-52 and keeps its bits
        np.minimum(u, _U_MAX, out=u)
        _ndtri(u, t)
    return out


def _normals(bases, coords, out=None) -> np.ndarray:
    """Standard normals hashed from layer bases (uint64, any shape B) and the
    (n, d) sites ``coords``: shape B + (n,), written into ``out`` when given,
    which also holds the hash, with scratch of their size up to FIELD_BLOCK.
    Every value depends on its own base and site only, so its bits do not
    depend on the call, the block or the chunk it is computed in."""
    coords = path_columns(np.asarray(coords, dtype=np.int64))
    bases = np.asarray(bases, dtype=np.uint64)
    out = np.empty(bases.shape + (len(coords),)) if out is None else out
    h = out.reshape(-1).view(np.uint64)
    t = field_scratch(min(max(h.size, 1), FIELD_BLOCK))
    _hash(h, bases.reshape(-1), coords, t[0].view(np.uint64))
    _gaussians(h, t)
    return out


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


def _hashes_plain(envs) -> bool:
    """Whether every environment keeps ``Environment.values``, so that its
    field is the hash of its ``_layer_base`` and the site."""
    return all(type(env).values is Environment.values for env in envs)


def layer_fields(envs, i: int, coords: np.ndarray, out=None) -> np.ndarray:
    """g(i, .) of each environment at the (n, d) sites ``coords``: (len(envs), n),
    written into ``out`` when given.

    Environments that keep ``Environment.values`` share one hash call over
    their ``_layer_base(i)``; a batch holding one that overrides ``values``
    is asked through ``values``, one environment at a time.
    """
    if _hashes_plain(envs):
        return _normals(np.array([env._layer_base(i) for env in envs], dtype=np.uint64), coords,
                        out)
    out = np.empty((len(envs), len(coords))) if out is None else out
    for row, env in zip(out, envs):
        row[:] = env.values(i, coords)
    return out


def field_layers(envs, layers, coords, out: np.ndarray, t: np.ndarray):
    """g(i, .) of each environment at the sites ``coords(i)``, shape
    (len(envs), n_i), for each layer i of ``layers`` in turn: views into the
    flat ``out``, each valid until the next is taken.

    Environments that keep ``Environment.values`` are hashed a block of
    consecutive layers at a time, the fewest that hold FIELD_BLOCK values
    (or all that are left), so ``out`` has room for FIELD_BLOCK values
    besides the largest layer of the batch; the scratch ``t``
    (``field_scratch``) serves every block.  Each value keeps its own
    ``_layer_base(i)`` and site, so its bits are those of ``layer_fields``.
    A batch holding an environment that overrides ``values`` is asked one
    layer at a time through ``layer_fields``.
    """
    n_envs, h = len(envs), out.view(np.uint64)
    if not _hashes_plain(envs):
        for i in layers:
            sites = coords(i)
            yield layer_fields(envs, i, sites, out[:n_envs * len(sites)].reshape(n_envs, -1))
        return
    k = 0
    while k < len(layers):
        ends = [0]
        while k < len(layers) and ends[-1] < FIELD_BLOCK:
            i, k = layers[k], k + 1
            bases = np.array([env._layer_base(i) for env in envs], dtype=np.uint64)
            ends.append(ends[-1] + _hash(h[ends[-1]:], bases, coords(i), t[0].view(np.uint64)))
        _gaussians(h[:ends[-1]], t)
        for lo, hi in zip(ends, ends[1:]):
            yield out[lo:hi].reshape(n_envs, -1)


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
