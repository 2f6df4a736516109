"""Exact partition functions and exact Gibbs path sampling.

A forward transfer-matrix recursion computes, entirely in log-space,

    W(0, origin) = 1,
    W(i, x) = exp(beta_i * g(i, x)) * (1/2d) * sum_{y ~ x} W(i-1, y),

so that log Z = logsumexp_x log W(N, x).  A matching backward recursion gives
the conditional partition function from (i, x) onward; combining the two
yields exact site marginals and a Markov split of log Z at any time.  Paths
are sampled exactly (not approximately) by drawing the endpoint proportional
to W(N, .) and walking backwards, every path's step drawn at once from
candidates the geometry finds by index arithmetic (d <= 2) or index maps.

One private driver, ``_transfer``, runs this recursion, forward or
backward, over a layer geometry chosen from d:
  d<=2  dense (i+1)^d array per layer in rotated coordinates (x in d=1;
        s = x1+x2, t = x1-x2 in d=2), where the walk factorizes into
        independent one-dimensional walks and the reachable cone is a full
        cube.  The one dense kernel, ``_shifted_sums``, sums neighbours along
        an axis of flat stride s as one contiguous ``_logaddexp`` of the
        layer with itself shifted by s, over the whole batch: onto the next
        layer from a layer framed by one -inf cell past the end of each
        axis, back onto the last one read through its leading window;
  d>=3  sorted int64 site keys per layer, stepped by key arithmetic and
        joined via searchsorted; coordinates are decoded only on demand,
        and the neighbour sum folds 2d gathered rows with ``_logaddexp``.
``_logaddexp`` is the one log-space sum of two terms: max(x, y) +
log1p(exp(-|x - y|)) on numpy's vector exp and log1p, with its temporary
in scratch it is handed.
One pass carries E environments x P profiles as one (E, P, *layer shape)
array: one hash call makes the E fields of a layer, the dense neighbour sums
act on the trailing layer axes, and at d >= 3 the keys and index maps serve
the whole batch.  A pass allocates its buffers once, room for layer N: the
geometry's layer buffers (the layer, its neighbour sum and, dense, the
kernel's scratch) and one for the field, so a step allocates no array the
size of a layer (the packed keys and index maps excepted).  The driver hands
each layer, and nothing else, to a per-layer consumer, as a view into a pass
buffer that is valid only until the consumer returns: the kept tables copy
it, and log Z at each N of a ladder (``log_partition_ladder``) reads it; no
field leaves a pass.  The exact overlap runs no pass: ``marginal_sums`` walks
the site marginals down a kept forward table by the reverse chain of
forward-filtering/backward-smoothing, on the geometry's neighbour sums.
A kept table may carry further profiles that roll along it, read for log Z
at each N of a ladder (``forward_layers_and_ladder``).  The driver alone
charges the cell budget ``LatticeParams.max_cells``, for what each pass
holds, and the budget and ``BATCH_CELLS`` alone set how many environments
share a rolling pass.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .lattice import (FIELD_BLOCK, FIELD_SCRATCH_CELLS, Environment, MemoryGuardError,
                      PartitionScheme, field_layers, field_scratch, reachable_cells_total,
                      reachable_set_size)

NEG_INF = -np.inf


def logsumexp(a: np.ndarray, axis=None) -> np.ndarray:
    """Max-shifted logsumexp that preserves the input dtype (incl. longdouble)."""
    a = np.asarray(a)
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True)) + m
    return out.reshape(()) if axis is None else np.squeeze(out, axis=axis)


# ---------------------------------------------------------------------------
# Per-step inverse-temperature profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BetaProfile:
    """Inverse temperature per step i = 1..N (entry i-1 applies to g(i, .))."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64)  # own copy; frozen below
        if v.ndim != 1 or v.size < 1:
            raise ValueError("profile must be a non-empty 1-d array")
        if not np.all(np.isfinite(v)) or np.any(v < 0):
            raise ValueError("profile entries must be finite and >= 0")
        object.__setattr__(self, "values", v)
        self.values.setflags(write=False)

    @property
    def N(self) -> int:
        return self.values.size

    @property
    def is_zero(self) -> bool:
        return not np.any(self.values)

    @classmethod
    def constant(cls, beta: float, N: int) -> "BetaProfile":
        return cls(np.full(N, float(beta)))

    @classmethod
    def from_blocks(cls, p: PartitionScheme, betas) -> "BetaProfile":
        """Block profile of the multi-temperature Hamiltonian."""
        betas = np.asarray(betas, dtype=np.float64)
        if betas.shape != (p.L,):
            raise ValueError(f"need one beta per block, got {betas.shape} for L={p.L}")
        out = np.empty(p.N)
        for ell in range(1, p.L + 1):
            lo, hi = p.block_window(ell)
            out[lo - 1 : hi] = betas[ell - 1]
        return cls(out)

    @classmethod
    def excluding_block(cls, p: PartitionScheme, ell: int, beta: float) -> "BetaProfile":
        """Constant beta with the disorder of block ell suppressed."""
        out = np.full(p.N, float(beta))
        lo, hi = p.block_window(ell)
        out[lo - 1 : hi] = 0.0
        return cls(out)


# ---------------------------------------------------------------------------
# Layer geometries
# ---------------------------------------------------------------------------

def _offsets(d: int) -> np.ndarray:
    out = np.zeros((2 * d, d), dtype=np.int64)
    for k in range(d):
        out[2 * k, k] = 1
        out[2 * k + 1, k] = -1
    return out


def _logaddexp(x: np.ndarray, y: np.ndarray, out=None, t=None) -> np.ndarray:
    """log(exp(x) + exp(y)) as max(x, y) + log1p(exp(-|x - y|)), on numpy's
    vector exp and log1p; ``out`` may be x.  Its one temporary, -|x - y|
    taken as min - max, goes in ``t`` (the output's shape, none of x, y and
    out) or else in an array of its own.  Where both are -inf that is NaN,
    which fmin takes to 0, so the sum stays -inf."""
    t = np.minimum(x, y, out=t)
    out = np.maximum(x, y, out=out)
    with np.errstate(invalid="ignore"):
        np.subtract(t, out, out=t)
    np.fmin(t, 0.0, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    out += t
    return out


def _shifted_sums(x: np.ndarray, y: np.ndarray, t: np.ndarray, strides, back: bool) -> np.ndarray:
    """The neighbour log-sum of the flat layers in x along each of ``strides``
    in turn, into y; x, y and t have one length, and x and t are scratch.
    Each stride s is one contiguous ``_logaddexp`` of x with itself shifted
    by s, over every layer at once: onto the next layer out[s:] = x[:-s] +
    x[s:] and out[:s] = x[:s], back onto the last one out[:-s] = x[:-s] +
    x[s:] and out[-s:] = x[-s:].  Onward, x carries one -inf cell past the
    end of each axis, so that every end entry, and the first entry of every
    later layer, sums with a -inf term and comes out a copy; back, the
    previous layer sits in the leading window of each axis."""
    src = x
    for k, s in enumerate(strides):
        dst, tmp = (y, t) if (len(strides) - k) % 2 else (t, y)  # the last sum lands in y
        tmp = x if tmp is src else tmp
        if back:
            into, end = slice(None, -s), slice(-s, None)
        else:
            into, end = slice(s, None), slice(None, s)
        _logaddexp(src[:-s], src[s:], out=dst[into], t=tmp[into])
        dst[end] = src[end]
        src = dst
    return y


def _gather_logsum(maps: np.ndarray, size: int, x: np.ndarray, y: np.ndarray, t: np.ndarray,
                   lead: tuple) -> np.ndarray:
    """log sum_r exp(layer[maps[r]]) of each of the prod(lead) layers of
    ``size`` sites at the head of x, where index ``size`` stands for a -inf
    term; the rows fold into y in row order, shape lead + (maps.shape[1],).
    The layers go one at a time through the rows of t, (3, > size): a copy
    of the layer with the -inf sentinel, one gathered row and the kernel's
    temporary."""
    rows, m = math.prod(lead), maps.shape[1]
    layer, got, tmp = t[0, :size + 1], t[1, :m], t[2, :m]
    layer[size] = NEG_INF
    out = y[:rows * m].reshape(rows, m)
    for src, acc in zip(x[:rows * size].reshape(rows, size), out):
        layer[:size] = src
        # every index lies in the layer or on its sentinel; "clip" writes
        # straight into out, where "raise" buffers a copy of it
        np.take(layer, maps[0], out=acc, mode="clip")
        for row in maps[1:]:
            np.take(layer, row, out=got, mode="clip")
            _logaddexp(acc, got, out=acc, t=tmp)
    return out.reshape(lead + (m,))


def _scatter_logsum(maps: np.ndarray, size: int, x: np.ndarray, y: np.ndarray, t: np.ndarray,
                    lead: tuple) -> np.ndarray:
    """log sum_r exp of the one layer at the head of x put through ``maps[r]``
    onto ``size`` cells, -inf where no entry lands, into y, shape lead +
    (size,) with lead (1,): each row an injective scatter into a -inf filled
    row of t, the rows folded in row order.  With the rows of a map set from
    layer i-1 onto layer i, that is the neighbour log-sum of ``_gather_logsum``
    through the map set of layer i onto layer i-1, bit for bit."""
    x, out, row_buf, tmp = x[:maps.shape[1]], y[:size], t[0, :size], t[1, :size]
    out.fill(NEG_INF)
    out[maps[0]] = x
    for row in maps[1:]:
        row_buf.fill(NEG_INF)
        row_buf[row] = x
        _logaddexp(out, row_buf, out=out, t=tmp)
    return out.reshape(lead + (size,))


class _DenseGeometry:
    """d <= 2: layer i is a dense (i+1)^d array in rotated coordinates.

    The coordinates u = x in d = 1 and u = (x1+x2, x1-x2) in d = 2 each move
    by +-1 at every step, independently, so layer i is the full cube
    {-i, -i+2, ..., i}^d (entry a of an axis holds -i + 2a) and the neighbour
    sum splits into one shifted ``_logaddexp`` per axis (``_shifted_sums``).
    """

    key_cells = 0  # per site of a kept layer, besides its values
    # per environment, profile and site of layer N a pass holds three layer
    # buffers: the framed layer, the neighbour sum and the kernel's temporary;
    # per site, for the whole batch, the coordinates and one column of them,
    # and per environment its layer of the field block
    layer_cells, shared_cells, work_cells = 3, 3, 1
    # cells per site of one reverse-chain step besides the kept table: layer
    # i-1 framed and its sum onto layer i (and one more for numpy's buffers of
    # strided operations), and per rung its log marginal, its sum back and
    # the kernel's temporary
    chain_shared_cells, chain_rung_cells = 3, 3

    def __init__(self, d: int, N: int):
        self.d, self.N = d, N

    def shape(self, i: int) -> tuple:
        return (i + 1,) * self.d

    def buffers(self, rows: int, dtype) -> list:
        """Three flat buffers, each room for ``rows`` layers N."""
        return [np.empty(rows * (self.N + 1) ** self.d, dtype=dtype) for _ in range(3)]

    def lay(self, i: int, buf: np.ndarray, lead: tuple, framed: bool = False) -> np.ndarray:
        """Layers i at the head of the flat ``buf``, shape lead + shape(i);
        ``framed``, each axis one -inf cell longer, the window leaving it out."""
        n = i + 1 + framed
        v = buf[:math.prod(lead) * n ** self.d].reshape(lead + (n,) * self.d)
        if not framed:
            return v
        for k in range(self.d):
            v[(..., i + 1) + (slice(None),) * k] = NEG_INF
        return v[(...,) + (slice(None, i + 1),) * self.d]

    def _sums(self, i: int, back: bool, x, y, t, lead: tuple) -> np.ndarray:
        n = math.prod(lead) * (i + 1) ** self.d
        strides = [(i + 1) ** k for k in range(self.d)]  # last axis first
        out = _shifted_sums(x[:n], y[:n], t[:n], strides, back).reshape(lead + self.shape(i))
        return out[(...,) + (slice(None, i),) * self.d] if back else out

    def sum_into(self, i: int):
        """f(x, y, t, lead): the neighbour log-sum onto layers i of layers i-1,
        framed in x as ``lay`` leaves them, into y, shape lead + shape(i)."""
        return functools.partial(self._sums, i, False)

    def sum_from(self, i: int):
        """f(x, y, t, lead): the neighbour log-sum back onto layers i-1 of layers
        i laid in x, into y, read through the leading window of shape(i)."""
        return functools.partial(self._sums, i, True)

    def chain_sums(self, i: int):
        """``sum_into(i)`` and ``sum_from(i)``, for one step of the reverse chain."""
        return self.sum_into(i), self.sum_from(i)

    def coords(self, i: int, idx=None) -> np.ndarray:
        """Coordinates of the sites of layer i, or of its flat sites ``idx`` only.
        In d = 2 entry (a0, a1) is the site (a0 + a1 - i, a0 - a1)."""
        if self.d == 1:
            u = np.arange(-i, i + 1, 2, dtype=np.int64)
            return (u if idx is None else u[idx])[:, None]
        a0, a1 = np.ogrid[:i + 1, :i + 1] if idx is None else np.divmod(idx, i + 1)
        out = np.empty(np.broadcast_shapes(a0.shape, a1.shape) + (2,), dtype=np.int64)
        np.add(a0, a1, out=out[..., 0])
        out[..., 0] -= i
        np.subtract(a0, a1, out=out[..., 1])
        return out.reshape(-1, 2)

    def framed(self, i: int, layer: np.ndarray) -> np.ndarray:
        """Layer i framed by one -inf cell on both sides of each axis, flat."""
        out = np.full((i + 3,) * self.d, NEG_INF, dtype=layer.dtype)
        out[(slice(1, -1),) * self.d] = layer
        return out.ravel()

    def predecessors(self, i: int, idx: np.ndarray):
        """The neighbours in layer i-1 of the layer-i sites idx, entry a + s for
        s in {-1, 0}^d in lexicographic order: (2^d, n) positions in
        ``framed(i - 1)``, where an off-layer neighbour reads -inf, and the
        (2^d, n) flat indices in layer i-1 of the same sites.  Entry a sits
        at sum_k a_k (i+2)^(d-1-k) in the frame (idx plus a0 in d = 2) and
        at idx - a0 in layer i-1; each s adds a fixed offset to both."""
        if self.d == 1:
            return idx + np.array([[0], [1]]), idx + np.array([[-1], [0]])
        a0 = idx // (i + 1)
        return (idx + a0 + np.array([[0], [1], [i + 2], [i + 3]]),
                idx - a0 + np.array([[-i - 1], [-i], [-1], [0]]))


class _PackedGeometry:
    """d >= 3: layer i is the sorted int64 keys of its sites and nothing else.

    key(x) = sum_k (x_k + N) (2N+1)^(d-1-k) orders sites lexicographically, and
    the step +-e_k moves a key by +-(2N+1)^(d-1-k).  A move to |x_k| = N+1 can
    only alias a site with a coordinate +-N, which no layer it is looked up in
    holds.  Layer i is the set of neighbours of layer i-1.  Neighbour sums
    gather along the last axis through index maps found by ``searchsorted``,
    built once per layer and shared by every environment and profile of the
    pass; a site off the layer maps one past its end, where a -inf sentinel
    sits.  Coordinates are decoded only where asked for.
    Without ``keep``, building a layer's keys drops those below the layer
    the last step summed from, so a rolling pass holds the keys of its field
    block (``lattice.field_layers``) and of the layer before it.
    """

    key_cells = 1  # per site of a kept layer, besides its values
    # per environment, profile and site of layer N a pass holds two layer
    # buffers: the layer and the neighbour sum
    layer_cells = 2

    def __init__(self, d: int, N: int, keep: bool):
        base = 2 * N + 1
        if d * math.log2(base) > 62:
            raise MemoryGuardError("packed site keys would overflow int64")
        self.N, self.keep, self.base = N, keep, base
        self._floor = 0  # without keep, the lowest layer whose keys are read again
        self.radix = base ** np.arange(d - 1, -1, -1, dtype=np.int64)
        # the key moves of the steps +e1, -e1, +e2, ...
        self.steps = np.stack([self.radix, -self.radix], axis=1).ravel()
        # per site, one step holds two layers' keys, 2d candidate keys or map
        # rows and the kernel's three rows for the whole batch, and per
        # environment its layer of the field block
        self.shared_cells, self.work_cells = 2 * d + 5, 1
        # a reverse-chain step holds one map set and its search temporaries,
        # layer i-1, its sum onto layer i and the kernel's three rows, and per
        # rung its log marginal and the sum back
        self.chain_shared_cells, self.chain_rung_cells = 2 * d + 8, 2
        self._keys = [N * self.radix.sum(keepdims=True)]

    def keys(self, i: int) -> np.ndarray:
        while len(self._keys) <= i:
            cand = (self._keys[-1] + self.steps[:, None]).ravel()
            cand.sort()
            self._keys.append(cand[np.append(True, cand[1:] != cand[:-1])])
            if not self.keep:
                self._keys[:self._floor] = [None] * self._floor
        return self._keys[i]

    def shape(self, i: int) -> tuple:
        return self.keys(i).shape

    def buffers(self, rows: int, dtype) -> list:
        """Two flat buffers, each room for ``rows`` layers N, and the three
        rows of ``_gather_logsum``."""
        n = reachable_set_size(self.N, len(self.radix))
        return [np.empty(rows * n, dtype=dtype), np.empty(rows * n, dtype=dtype),
                np.empty((3, n + 1), dtype=dtype)]

    def lay(self, i: int, buf: np.ndarray, lead: tuple, framed: bool = False) -> np.ndarray:
        """Layers i at the head of the flat ``buf``, shape lead + shape(i); the
        gather frames each layer as it reads it."""
        return buf[:math.prod(lead) * len(self.keys(i))].reshape(lead + self.shape(i))

    def coords(self, i: int, idx=None) -> np.ndarray:
        keys = self.keys(i) if idx is None else self.keys(i)[idx]
        return keys[:, None] // self.radix % self.base - self.N

    def _maps(self, i: int, keys: np.ndarray, moves: np.ndarray) -> np.ndarray:
        """Positions in layer i of keys + move, one row per move, built a row at a
        time to hold one row's search temporaries; off-layer sites get its size."""
        layer = self.keys(i)
        maps = np.empty((len(moves), len(keys)), dtype=np.intp)
        for row, move in zip(maps, moves):
            k = keys + move
            row[:] = np.searchsorted(layer, k)
            np.minimum(row, len(layer) - 1, out=row)
            row[layer[row] != k] = len(layer)
        return maps

    def sum_into(self, i: int):
        self._floor = i - 1
        return functools.partial(_gather_logsum, self._maps(i - 1, self.keys(i), -self.steps),
                                 len(self.keys(i - 1)))

    def sum_from(self, i: int):
        return self.chain_sums(i)[1]

    def chain_sums(self, i: int):
        """``sum_into(i)`` for one layer and ``sum_from(i)`` off the one map set
        of ``sum_from``: each of its rows takes layer i-1 injectively into layer
        i, the set of the neighbours of layer i-1."""
        maps = self._maps(i, self.keys(i - 1), self.steps)
        return (functools.partial(_scatter_logsum, maps, len(self.keys(i))),
                functools.partial(_gather_logsum, maps, len(self.keys(i))))

    def framed(self, i: int, layer: np.ndarray) -> np.ndarray:
        """Layer i with a -inf sentinel one past its end."""
        return np.append(layer, NEG_INF)

    def predecessors(self, i: int, idx: np.ndarray):
        """The (2d, n) neighbours in layer i-1 of the layer-i sites idx, in step
        order, as positions in ``framed(i - 1)`` and as flat indices: both are
        the map rows, an off-layer neighbour on the sentinel."""
        maps = self._maps(i - 1, self.keys(i)[idx], -self.steps)
        return maps, maps


def _geometry(d: int, N: int, keep: bool):
    """The layer geometry of the recursion, chosen here and only here."""
    return _DenseGeometry(d, N) if d <= 2 else _PackedGeometry(d, N, keep)


# ---------------------------------------------------------------------------
# The recursion
# ---------------------------------------------------------------------------

@dataclass
class LayerTable:
    """All layers of one forward or backward pass, in log-space.

    ``layers[i]`` has the geometry's shape for layer i; ``layer_logw`` and
    ``layer_coords`` give a flat view with matching site order.
    """

    env: Environment
    profile: BetaProfile
    direction: str  # "forward" | "backward"
    geometry: object = field(repr=False)
    layers: list = field(repr=False)

    @property
    def d(self) -> int:
        return self.env.params.d

    @property
    def N(self) -> int:
        return self.profile.N

    def layer_logw(self, i: int) -> np.ndarray:
        return self.layers[i].ravel()

    def layer_coords(self, i: int) -> np.ndarray:
        return self.geometry.coords(i)

    def prefix(self, n: int) -> "LayerTable":
        """Layers 0..n of a forward table, over the first n betas and the
        environment with N = n: bit for bit the table of a pass that stops at n
        (layer i reads g(1..i, .) only; packed keys keep their order for any N)."""
        if self.direction != "forward" or not 1 <= n <= self.N:
            raise ValueError(f"a prefix needs a forward table and 1 <= n <= {self.N}")
        env = replace(self.env, params=replace(self.env.params, N=n))
        return LayerTable(env, BetaProfile(self.profile.values[:n]), "forward",
                          self.geometry, self.layers[:n + 1])


def _check_guard(env: Environment, geom, n_profiles: int, keep: int, n_envs: int = 1,
                 rungs: int = 0) -> int:
    """The one cell budget, returning the cells charged for a pass over
    ``n_envs`` environments like ``env`` that keeps its first ``keep``
    profiles.  A kept profile holds its cone, one cell per environment, and
    the pass ``key_cells`` per cone site; per site of layer N the pass holds
    the geometry's ``layer_cells`` per environment and profile (its buffers,
    allocated once), ``shared_cells`` for the whole batch and ``work_cells``
    per environment, and once the rest of the field block, FIELD_BLOCK
    values (and their layers' keys at d >= 3), and its scratch.  An
    environment that overrides ``Environment.values`` is charged as one that
    keeps it.  With ``rungs``, the charge is of a reverse-chain
    descent down one kept table (``marginal_sums``): that cone, and per site
    of layer N the geometry's ``chain_shared_cells`` and
    ``chain_rung_cells`` per rung."""
    p = env.params
    width = reachable_set_size(p.N, p.d)
    held = (reachable_cells_total(p.N, p.d, cap=p.max_cells) * (n_envs * keep + geom.key_cells)
            if keep else 0)
    step = (geom.chain_shared_cells + rungs * geom.chain_rung_cells if rungs
            else geom.shared_cells + n_envs * (geom.work_cells + n_profiles * geom.layer_cells))
    field = 0 if rungs else FIELD_BLOCK * (1 + geom.key_cells) + FIELD_SCRATCH_CELLS
    cells = held + width * step + field
    if cells > p.max_cells:
        what = (f"a descent of {rungs} rung(s) down a kept layer table" if rungs
                else f"a rolling pass over {n_profiles} profile(s)" if not keep
                else "a kept layer table" if n_profiles == keep
                else f"a kept layer table with {n_profiles - keep} rolling profile(s)")
        raise MemoryGuardError(f"d={p.d}, N={p.N}: {what} needs more than {p.max_cells} cells")
    return cells


# cells of one batched rolling step, environments x profiles x sites of layer
# N: wider batches stop paying back (CHANGES.md holds the measured table)
BATCH_CELLS = 1 << 18


def _batch_size(env: Environment, n_profiles: int, n_envs: int) -> int:
    """Environments per rolling pass: at most ``BATCH_CELLS`` per step and the
    most the guard admits, read off its charge (linear in the batch) for none
    and for one; at least one, as the guard refuses a pass that cannot hold it."""
    p, geom = env.params, _geometry(env.params.d, env.params.N, False)
    base, one = (_check_guard(env, geom, n_profiles, False, k) for k in (0, 1))
    wide = BATCH_CELLS // (max(n_profiles, 1) * reachable_set_size(p.N, p.d))
    return max(1, min(n_envs, wide, (p.max_cells - base) // (one - base)))


def _check_forward_args(env: Environment, profile: BetaProfile):
    if profile.N != env.params.N:
        raise ValueError(
            f"profile length {profile.N} does not match environment N={env.params.N}"
        )


def _transfer(envs, profiles, direction, dtype, keep, consume=lambda i, layers: None,
              geometry=_geometry):
    """Run one recursion for several profiles over the fields of several
    environments that share their ``LatticeParams``.

    forward:  log W(i)   = drive_i + log sum_nbr W(i-1) - log 2d,  i = 1..N
    backward: log B(i-1) = log sum_nbr exp(drive_i + log B(i)) - log 2d,  i = N..1

    with drive_i = beta_i g(i, .).  Each layer's field is generated once per
    environment and fed to every profile, and not at all where every beta_i
    is 0.  The E environments x P profiles step as one (E, P, *layer shape)
    array, and the neighbour sums act on its trailing layer axes, so each
    entry gets the arithmetic of a pass of its own.  Every step works in
    buffers the pass allocates once: the geometry's (the layer, its neighbour
    sum and the kernels' scratch) and the field block and its scratch, which
    ``lattice.field_layers`` fills a block of layers ahead of the step, in
    pass order.  Layers 0..N (forward)
    or N..0 (backward) go in that order to ``consume(i, layers)``: layer i as
    that array, a view into a pass buffer that is valid only until
    ``consume`` returns.  ``keep`` is how many leading profiles the consumer
    copies every layer of, for the geometry and the guard.  Returns the
    geometry and the last layers.
    """
    env = envs[0]
    if any(other.params != env.params for other in envs):
        raise ValueError("the environments of one pass must share their LatticeParams")
    for pr in profiles:
        _check_forward_args(env, pr)
    d, N = env.params.d, env.params.N
    geom = geometry(d, N, bool(keep))
    _check_guard(env, geom, len(profiles), keep, len(envs))
    log2d = np.log(dtype(2.0 * d))
    forward = direction == "forward"
    lead = (len(envs), len(profiles))
    bufs = geom.buffers(math.prod(lead), dtype)
    # betas[i - 1] is step i's beta per profile, shaped to scale an (E, 1, ...) field
    betas = np.array([pr.values for pr in profiles]).reshape(len(profiles), N).T
    read = betas.any(axis=1).tolist()
    betas = betas.reshape(betas.shape + (1,) * len(geom.shape(0)))
    order = range(1, N + 1) if forward else range(N, 0, -1)
    if any(read):
        fields = field_layers(envs, [i for i in order if read[i - 1]], geom.coords,
                              np.empty(len(envs) * reachable_set_size(N, d) + FIELD_BLOCK),
                              field_scratch())

    def field(i):  # g(i, .) of each environment, shaped to scale an (E, 1, ...) layer
        return next(fields).reshape((len(envs), 1) + geom.shape(i))

    # forward, layer i sits framed in bufs[0] and its sum lands in bufs[1];
    # backward, layer i plus its drive sits in bufs[0] and layer i-1 lands in
    # bufs[1]; bufs[2] is the kernels' scratch
    layers = geom.lay(0 if forward else N, bufs[0 if forward else 1], lead, framed=forward)
    layers.fill(0.0)
    consume(0 if forward else N, layers)
    for i in order:
        if forward:
            # the sum is built and its index maps dropped in one statement, so
            # this step's maps go before the next step's are built.  The drive
            # runs on the sum, which is contiguous (sum + beta g is beta g +
            # sum, bit for bit), and is then copied to layer i's place in
            # bufs[0]: a framed window at d <= 2, which numpy would run each
            # pass of the drive through its iteration buffers
            total = geom.sum_into(i)(*bufs, lead)
            if read[i - 1]:
                total += np.multiply(betas[i - 1], field(i), out=geom.lay(i, bufs[0], lead),
                                     dtype=dtype)
            total -= log2d
            layers = geom.lay(i, bufs[0], lead, framed=i < N)
            np.copyto(layers, total)
        else:
            total, layers = layers, geom.lay(i, bufs[0], lead)
            if read[i - 1]:
                np.multiply(betas[i - 1], field(i), out=layers, dtype=dtype)
                layers += total
            else:
                layers[...] = total
            layers = geom.sum_from(i)(*bufs, lead)
            layers -= log2d
        consume(i if forward else i - 1, layers)
    return geom, layers


def _rung_log_zs(layers: np.ndarray, profiles, n: int) -> list:
    """log Z_n per environment and profile from layer n of a forward pass:
    each entry's logsumexp, or exactly 0.0 for a profile that is 0 on 1..n."""
    zero = [not pr.values[:n].any() for pr in profiles]
    return [[0.0 if z else float(logsumexp(w)) for z, w in zip(zero, by_env)]
            for by_env in layers]


def _kept_table(env: Environment, profiles, direction: str, dtype, ns=()):
    """The table of ``profiles[0]`` and, for a forward pass, log Z_n of the
    other profiles at each n of ``ns``, from one pass that keeps the first
    profile only; the others roll along with it."""
    kept, rungs = [None] * (profiles[0].N + 1), _rungs(ns)
    rode = np.empty((len(ns), len(profiles) - 1))

    def consume(i, layers):
        kept[i] = layers[0, 0].copy()  # the pass writes its next layer over this one
        if i in rungs:
            rode[rungs[i]] = _rung_log_zs(layers[:, 1:], profiles[1:], i)[0]

    geom, _ = _transfer([env], profiles, direction, dtype, 1, consume)
    return LayerTable(env, profiles[0], direction, geom, kept), rode


def forward_layers(env: Environment, profile: BetaProfile, dtype=np.float64) -> LayerTable:
    """Run the full forward recursion and keep every layer."""
    return _kept_table(env, [profile], "forward", dtype)[0]


def forward_layers_and_ladder(env: Environment, profiles, ns,
                              dtype=np.float64) -> tuple[LayerTable, np.ndarray]:
    """``forward_layers`` of ``profiles[0]`` and, from the same pass, log Z_n
    of each later profile at every n of ``ns``, shape (len(ns),
    len(profiles) - 1), bit for bit those of ``log_partition_ladder``.  The
    later profiles roll along, so the pass holds one cone and reads each
    layer's field once for all of them."""
    ns = [int(n) for n in ns]
    _check_ladder(env.params.N, ns)
    return _kept_table(env, list(profiles), "forward", dtype, ns)


def backward_layers(env: Environment, profile: BetaProfile, dtype=np.float64) -> LayerTable:
    """Conditional partition functions B(i, x) from (i, x) onward, log-space."""
    return _kept_table(env, [profile], "backward", dtype)[0]


# ---------------------------------------------------------------------------
# Partition functions
# ---------------------------------------------------------------------------

def log_partition(table: LayerTable) -> float:
    """logsumexp over the final layer (forward) or the root cell (backward).

    An identically-zero profile short-circuits to exactly 0.0: the Gibbs
    weight is then 1 for every path regardless of the disorder.
    """
    if table.profile.is_zero:
        return 0.0
    if table.direction == "forward":
        return float(logsumexp(table.layer_logw(table.N)))
    return float(table.layer_logw(0)[0])


def _rungs(ns) -> dict:
    """The positions in the ladder ``ns`` of each of its n."""
    return {n: [j for j, m in enumerate(ns) if m == n] for n in ns}


def _check_ladder(N: int, ns) -> None:
    if not all(1 <= n <= N for n in ns):
        raise ValueError(f"every n of the ladder must lie in 1..{N}, got {list(ns)}")


def log_partition_ladder(envs, profiles, ns, dtype=np.float64) -> np.ndarray:
    """log Z_n of every n in ``ns``, environment and profile, shape (len(ns),
    len(envs), len(profiles)); the environments share their ``LatticeParams``,
    whose N the profiles have and no n exceeds.

    The environments go in batches of ``_batch_size``, one rolling forward
    pass to N per batch.  Layer n of that pass depends only on g(1..n, .) and
    the profiles' first n entries, and at d >= 3 its packed keys keep their
    order for any N, so its logsumexp is, bit for bit, log Z of a pass that
    stops at n.  A profile that is 0 on 1..n gives exactly 0.0 there.
    """
    profiles, ns = list(profiles), [int(n) for n in ns]
    if not envs:
        raise ValueError("need at least one environment (n_disorder >= 1)")
    _check_ladder(envs[0].params.N, ns)
    out = np.empty((len(ns), len(envs), len(profiles)))
    rungs = _rungs(ns)
    size = _batch_size(envs[0], len(profiles), len(envs))
    for lo in range(0, len(envs), size):
        def consume(i, layers):
            if i in rungs:
                out[rungs[i], lo:lo + len(layers)] = _rung_log_zs(layers, profiles, i)

        _transfer(envs[lo:lo + size], profiles, "forward", dtype, 0, consume)
    return out


def log_partitions(env: Environment, profiles, dtype=np.float64) -> np.ndarray:
    """log Z for several profiles over one environment, sharing the field.

    Rolling two layers only; the per-layer disorder is generated once and fed
    to every profile, which is what makes common-random-number derivative and
    multi-temperature estimates cheap.
    """
    return log_partition_ladder([env], profiles, [env.params.N], dtype)[0, 0]


# ---------------------------------------------------------------------------
# Exact sampling and marginals
# ---------------------------------------------------------------------------

def _categorical_columns(logits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One draw per column from unnormalized log-weights, taking one
    ``rng.random`` double per column, in column order."""
    c = np.exp(logits - logits.max(axis=0))
    for row in range(1, len(c)):  # the cumsum over axis 0, a row at a time
        c[row] += c[row - 1]
    return (rng.random(logits.shape[1]) * c[-1] > c).sum(axis=0)


def sample_paths(table: LayerTable, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n independent paths exactly from the Gibbs measure of the table.

    Endpoint first, proportional to W(N, .), by one CDF and a binary search
    per draw; then each earlier site among its neighbours in layer i-1,
    proportional to W(i-1, .).  The geometry gives the neighbours as
    positions in a -inf framed copy of layer i-1 (by index arithmetic at
    d <= 2, by the index maps at d >= 3), one column per draw, and only the
    drawn sites are decoded.  Returns (n, N+1, d) int64.
    """
    if table.direction != "forward":
        raise ValueError("sampling requires a forward table")
    N, geom = table.N, table.geometry
    out = np.zeros((n, N + 1, table.d), dtype=np.int64)
    w = table.layer_logw(N)
    cdf = np.cumsum(np.exp(w - w.max()))
    idx = np.searchsorted(cdf, rng.random(n) * cdf[-1], side="left")
    out[:, N] = geom.coords(N, idx)
    draws = np.arange(n)
    for i in range(N, 0, -1):
        at, flat = geom.predecessors(i, idx)
        pick = _categorical_columns(geom.framed(i - 1, table.layers[i - 1])[at], rng)
        idx = flat[pick, draws]
        out[:, i - 1] = geom.coords(i - 1, idx)
    return out


def layer_log_marginals(fwd: LayerTable, bwd: LayerTable, i: int) -> np.ndarray:
    """log mu(sigma_i = x) over layer i, flat, normalized within the layer,
    from log A(i) + log B(i)."""
    s = fwd.layer_logw(i) + bwd.layers[i].ravel()
    return s - logsumexp(s)


def _renormalise(lm: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """sum_x mu(x)^2 of each row of the (R, sites) log weights ``lm``, which it
    normalizes in place, from one exp per cell into ``mu``, of lm's shape:
    mu = exp(lm - m), z = sum mu."""
    m = lm.max(axis=1, keepdims=True)
    mu = np.subtract(lm, m, out=mu)
    np.exp(mu, out=mu)
    z = mu.sum(axis=1)
    lm -= m + np.log(z)[:, None]
    mu *= mu
    return mu.sum(axis=1) / (z * z)


def marginal_sums(fwd: LayerTable, ns=None) -> np.ndarray:
    """sum_{i <= n} sum_x mu_i(x)^2 for each n of the ladder ``ns`` (default
    the table's N), with mu_i the site law at time i of the table's first n
    steps, from one descent of the reverse chain down the kept forward table A:

        log mu_n = A_n - logsumexp A_n,
        log mu_{i-1}(y) = A_{i-1}(y) + log sum_{x ~ y} exp(log mu_i(x) - LS_i(x)),

    where LS_i is the neighbour log-sum of A_{i-1} onto layer i.  It reads no
    field and runs no pass.  Rung n joins the stack of log marginals at layer
    n, every step serves all live rungs with one LS_i, and each rung is
    renormalized at every layer; each rung's arithmetic is its own, so its
    sum is bit for bit that of ``marginal_sums(fwd.prefix(n))``."""
    if fwd.direction != "forward":
        raise ValueError("the reverse chain needs a forward table")
    ns = [fwd.N] if ns is None else [int(n) for n in ns]
    _check_ladder(fwd.N, ns)
    tops = sorted(set(ns), reverse=True)  # row k of the stack is rung tops[k]
    _check_guard(fwd.env, fwd.geometry, 1, 1, rungs=len(tops))
    layers, sums, geom = fwd.layers, np.zeros(len(tops)), fwd.geometry
    # the stack of log marginals, its sum back (first the renormalisation's
    # scratch) and the kernels' scratch; layer i-1 and its sum onto layer i
    stack = geom.buffers(len(tops), layers[0].dtype)
    below = np.empty((2, reachable_set_size(fwd.N, fwd.d)), dtype=layers[0].dtype)
    rungs = 0
    for i in range(tops[0], 0, -1):
        rungs += i in tops
        lm = geom.lay(i, stack[0], (rungs,))
        if i in tops:
            lm[-1] = layers[i]
        sums[:rungs] += _renormalise(lm.reshape(rungs, -1),
                                     stack[1][:lm.size].reshape(rungs, -1))
        if i > 1:
            into, back = geom.chain_sums(i)
            geom.lay(i - 1, below[0], (1,), framed=True)[0] = layers[i - 1]
            lm -= into(*below, stack[2], (1,))
            # copied out of its window, then added, as numpy buffers a strided add
            lm = geom.lay(i - 1, stack[0], (rungs,))
            np.copyto(lm, back(*stack, (rungs,)))
            lm += layers[i - 1]
            del into, back  # this step's maps go before the next step's are built
    return sums[[tops.index(n) for n in ns]]


def markov_split_logz(fwd: LayerTable, bwd: LayerTable, i: int) -> float:
    """log Z reassembled at split time i: logsumexp_x [log A + log B]."""
    return float(logsumexp(fwd.layer_logw(i) + bwd.layer_logw(i)))


# ---------------------------------------------------------------------------
# Enumeration oracles
# ---------------------------------------------------------------------------

BRUTE_FORCE_CAP = 10_000_000


def _digit_positions(digits: np.ndarray, d: int) -> np.ndarray:
    """(M, N) step digits in base 2d -> (M, N+1, d) lattice positions."""
    steps = _offsets(d)[digits]  # (M, N, d)
    pos = np.zeros((digits.shape[0], digits.shape[1] + 1, d), dtype=np.int64)
    pos[:, 1:] = np.cumsum(steps, axis=1)
    return pos


def enumerate_paths(N: int, d: int) -> np.ndarray:
    """All (2d)^N nearest-neighbor paths from the origin, (M, N+1, d)."""
    M = (2 * d) ** N
    if M > 2_000_000:
        raise ValueError(f"(2d)^N = {M} too large to materialize")
    idx = np.arange(M)
    digits = (idx[:, None] // (2 * d) ** np.arange(N)[None, :]) % (2 * d)
    return _digit_positions(digits.astype(np.int64), d)


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
    N, d = profile.N, env.params.d
    M = (2 * d) ** N
    if M > BRUTE_FORCE_CAP:
        raise ValueError(f"(2d)^N = {M} exceeds the enumeration cap {BRUTE_FORCE_CAP}")
    chunk = 1 << 18
    pows = (2 * d) ** np.arange(N)[None, :]
    parts = []
    for lo in range(0, M, chunk):
        idx = np.arange(lo, min(lo + chunk, M))
        digits = ((idx[:, None] // pows) % (2 * d)).astype(np.int64)
        parts.append(logsumexp(_path_log_weights(env, profile, _digit_positions(digits, d))))
    return float(logsumexp(np.array(parts)))


def gibbs_enumeration(env: Environment, profile: BetaProfile):
    """(paths, probabilities) of the exact Gibbs law, by enumeration."""
    paths = enumerate_paths(profile.N, env.params.d)
    logw = _path_log_weights(env, profile, paths)
    return paths, np.exp(logw - logsumexp(logw))
