"""Exact partition functions and exact Gibbs path sampling.

A forward transfer-matrix recursion computes, entirely in log-space,

    W(0, origin) = 1,
    W(i, x) = exp(beta_i * g(i, x)) * (1/2d) * sum_{y ~ x} W(i-1, y),

so that log Z = logsumexp_x log W(N, x).  A matching backward recursion gives
the conditional partition function from (i, x) onward; combining the two
yields exact site marginals and a Markov split of log Z at any time.  Paths
are sampled exactly (not approximately) by drawing the endpoint proportional
to W(N, .) and walking backwards, every path's step drawn at once from
candidates the geometry finds by index arithmetic (d <= 2) or its column maps.

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
  d>=3  the sites of a layer in lexicographic order, as a run of columns
        that share x_1..x_{d-1}: a step moves a column's sites to one
        column of the next layer, shifted by 0 or 1, so a pass builds its
        index maps a column at a time, from table sums and no search; the
        neighbour sum folds 2d gathered rows with ``_logaddexp``.
``_logaddexp`` is the one log-space sum of two terms: max(x, y) +
log1p(exp(-|x - y|)) on numpy's vector exp and log1p, with its temporary
in scratch it is handed.
One pass carries E environments x P profiles as one (E, P, *layer shape)
array: the E fields of a block of layers are hashed together, the dense
neighbour sums act on the trailing layer axes, and at d >= 3 the index maps
serve the whole batch.  Each geometry hashes the field of its layer from its
own structure (``hasher``), with no per-site coordinates: at d = 1 from a
strided window of a salted axis table, at d = 2 from one prefix mix per x_1
and sliding windows, and at d >= 3 from one prefix per column, spread over
the column's sites.  A pass allocates its buffers once, room for layer N: the
geometry's layer buffers (the layer, its neighbour sum and, dense, the
kernel's scratch) and one for the field, so a step allocates no array the
size of a layer (the index maps at d >= 3 excepted).  The driver hands
each layer, and nothing else, to a per-layer consumer, as a view into a pass
buffer that is valid only until the consumer returns: the kept tables copy
it, and log Z at each N of a ladder (``log_partition_ladder``) reads it; no
field leaves a pass.  The exact overlap runs no pass: ``marginal_sums`` walks
the site marginals down a kept forward table by the reverse chain of
forward-filtering/backward-smoothing, on the geometry's neighbour sums, and
reads the field of its first layers only where <H> of a short rung is asked.
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
                      PartitionScheme, _mix64_arr, field_layers, field_scratch,
                      reachable_cells_total, reachable_set_size)

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

    # per environment, profile and site of layer N a pass holds three layer
    # buffers: the framed layer, the neighbour sum and the kernel's temporary,
    # and per environment its layer of the field block; per site, for the
    # whole batch, the two temporaries of a rung's logsumexp
    # (``_rung_log_zs``).  The field's hash holds no per-site array
    # (``hasher``)
    layer_cells, shared_cells, work_cells = 3, 2, 1
    # cells per site of one reverse-chain step besides the kept table: layer
    # i-1 framed and its sum onto layer i (and one more for numpy's buffers of
    # strided operations), and per rung its log marginal, its sum back and
    # the kernel's temporary
    chain_shared_cells, chain_rung_cells = 3, 3

    def __init__(self, d: int, N: int):
        self.d, self.N = d, N
        # the step from a site to its neighbour in each row of
        # ``predecessors``: u' = u + 1 + 2s in d = 1, and in d = 2
        # (x1', x2') = (x1 + s0 + s1 + 1, x2 + s0 - s1)
        self.back_steps = np.array([[-1], [1]] if d == 1 else [[-1, 0], [0, -1], [0, 1], [1, 0]])
        self.prefix_cells = 2 * N + 1 if d == 2 else 0  # per environment, ``hasher``'s prefixes

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

    def hasher(self, i: int):
        """The size of layer i and f(bases, axes, out, t), the field hash of
        its sites before the last mix, (len(bases), *shape(i)) at the head of
        the flat ``out`` (``lattice.field_layers``).  In d = 1 that is base ^
        C_1[x], with C_k the row of axis k of ``axes``, read as a strided
        window.  In d = 2 the prefix P(x_1) = mix(base ^ C_1[x_1]) is mixed
        once per x_1 in [-i, i], into an array of its own, and entry (a0, a1)
        reads P[a0 + a1] ^ C_2[a0 - a1]: two sliding windows, no index array."""
        return (i + 1) ** self.d, functools.partial(self._hash_layer, i)

    def _hash_layer(self, i: int, bases, axes, out, t):
        m, n = axes.shape[1] // 2, i + 1
        rows = out[:len(bases) * n ** self.d].reshape((len(bases),) + self.shape(i))
        if self.d == 1:
            np.bitwise_xor(bases[:, None], axes[0, m - i:m + i + 1:2], out=rows)
            return
        pre = np.bitwise_xor(bases[:, None], axes[0, m - i:m + i + 1])
        _mix64_arr(pre.reshape(-1), t)
        # the windows as arrays over the same memory: [e, a0, a1] = pre[e, a0 + a1]
        # and [a0, a1] = C_2[a0 - a1] (numpy's sliding_window_view costs more
        # than a small layer's hash)
        u = pre.itemsize
        np.bitwise_xor(np.ndarray(rows.shape, pre.dtype, pre, 0, (pre.strides[0], u, u)),
                       np.ndarray(rows.shape[1:], pre.dtype, axes[1], m * u, (u, -u)), out=rows)

    def framed(self, i: int, layer: np.ndarray) -> np.ndarray:
        """Layer i framed by one -inf cell on both sides of each axis, flat."""
        out = np.full((i + 3,) * self.d, NEG_INF, dtype=layer.dtype)
        out[(slice(1, -1),) * self.d] = layer
        return out.ravel()

    def predecessors(self, i: int, idx: np.ndarray, x: np.ndarray):
        """The neighbours in layer i-1 of the layer-i sites idx, entry a + s for
        s in {-1, 0}^d in lexicographic order: (2^d, n) positions in
        ``framed(i - 1)``, where an off-layer neighbour reads -inf, and the
        (2^d, n) flat indices in layer i-1 of the same sites.  Entry a sits
        at sum_k a_k (i+2)^(d-1-k) in the frame (idx plus a0 in d = 2) and
        at idx - a0 in layer i-1; each s adds a fixed offset to both.  The
        sites' (n, d) coordinates ``x`` are not needed here."""
        if self.d == 1:
            return idx + np.array([[0], [1]]), idx + np.array([[-1], [0]])
        a0 = idx // (i + 1)
        return (idx + a0 + np.array([[0], [1], [i + 2], [i + 3]]),
                idx - a0 + np.array([[-i - 1], [-i], [-1], [0]]))


class _ColumnGeometry:
    """d >= 3: layer i is a run of columns, each the sites of one prefix.

    A prefix p = (x_1, ..., x_{d-1}) with |p|_1 <= i holds the sites with
    x_d in {-k, -k+2, ..., k}, k = i - |p|_1, at positions q = (x_d + k)/2,
    and the columns follow each other in lexicographic order of p, so the
    sites are in lexicographic order.  A step +-e_d keeps a site in its
    column and a step +-e_j, j < d, takes it to the column p +- e_j; either
    way its position moves by a shift of 0 or +-1 that is the same for the
    whole column, and only the first or last site of a column can step off
    the next layer.  The first site of column p in layer r is a sum of table
    entries over the coordinates of p (``_first``), so a map from the sites
    of one layer to their neighbours in the next is built a column at a time
    and spread over its sites by one ``np.repeat``, shared by every
    environment and profile of the pass; a site off the layer maps one past
    its end, where a -inf sentinel sits.  Nothing is kept between steps.
    The sampler carries its drawn sites' coordinates, which name their
    columns, and builds the moves of those columns only.
    """

    # per environment, profile and site of layer N a pass holds two layer
    # buffers: the layer and the neighbour sum
    layer_cells = 2

    def __init__(self, d: int, N: int):
        self.d, self.N = d, N
        # per column of layer N a step holds the columns of its layer (d + 1
        # cells each), its moves (2d offsets and their flags), the tables of
        # ``_first`` and the temporaries that build them: 6d + 8 cells cover
        # what tracemalloc sees of them at d = 3 to 5, charged per site of
        # layer N (a column has one site or more)
        columns = reachable_set_size(N, d - 1) + reachable_set_size(N - 1, d - 1)
        spread = -(-(6 * d + 8) * columns // reachable_set_size(N, d))
        # per site, one step holds the 2d rows of its map and the site
        # numbers that build it, and the gather's three rows, for the whole
        # batch, and per environment its layer of the field block; the
        # field's hash holds three per-site arrays (``hasher``: two index
        # arrays and a temporary), never while a map is live, and per
        # environment the prefix of each column
        self.shared_cells, self.work_cells = 2 * d + 4 + spread, 1
        self.prefix_cells = columns
        # a reverse-chain step holds one map and the site numbers, layer i-1
        # and its sum onto layer i and the kernel's three rows, and per rung
        # its log marginal and the sum back
        self.chain_shared_cells, self.chain_rung_cells = 2 * d + 6 + spread, 2
        self.back_steps = -_offsets(d)  # the step of each row of ``predecessors``

    @functools.cached_property
    def _tables(self):
        """The tables of ``_first`` and ``_locate`` and the layer sizes |D_0|,
        ..., |D_N|.  With W_0(r) = r + 1 sites in a column of radius r left
        and W_n(r) those under the n-coordinate prefixes of radius r, entry
        r (2N+1) + a + N of the table of coordinate t (of d - 1) holds
        F_{d-1-t}(r, a) = sum_{b=-r}^{a-1} W_{d-2-t}(r - |b|), the sites
        before a at radius r, plus r (|D_N| + 1), which sorts each table.
        Built on first use, which follows the guard."""
        N = self.N
        left = np.arange(N + 1)[:, None] - np.abs(np.arange(-N, N + 1))
        w, tables = np.arange(1, N + 2), []
        for _ in range(self.d - 1):
            terms = np.where(left >= 0, w[np.maximum(left, 0)], 0)
            tables.append(np.cumsum(terms, axis=1) - terms)
            w = terms.sum(axis=1)
        lift = (w[-1] + 1) * np.arange(N + 1)[:, None]
        return [(f + lift).ravel() for f in tables[::-1]], w.tolist()

    def _first(self, pre: np.ndarray, r: int) -> np.ndarray:
        """The first site in layer r of the column of each prefix of the
        (d-1, ...) ``pre``; where that column is not in layer r, any index in
        the table."""
        (tables, sizes), width = self._tables, 2 * self.N + 1
        out = np.zeros(pre.shape[1:], dtype=np.intp)
        for a, table in zip(pre, tables):
            out += table.take(r * width + a + self.N, mode="clip") - r * (sizes[-1] + 1)
            r = r - np.abs(a)
        return out

    def _locate(self, i: int, idx: np.ndarray):
        """The columns of the flat sites ``idx`` of layer i: their (d-1, n)
        prefixes, ks and first sites.  Coordinate t of a site's prefix is the
        last a whose sites before it, in the table's row of the radius left,
        are at most the site's rank left: one search of the sorted table."""
        (tables, sizes), width = self._tables, 2 * self.N + 1
        pre = np.empty((self.d - 1, len(idx)), dtype=np.intp)
        rest, r = idx, np.full(len(idx), i)
        for a, table in zip(pre, tables):
            lifted = rest + r * (sizes[-1] + 1)
            at = np.searchsorted(table, lifted, side="right") - 1
            np.subtract(at - self.N, r * width, out=a)
            rest = lifted - table[at]
            r = r - np.abs(a)
        return pre, r, idx - rest

    def _columns(self, i: int):
        """The (d-1, C) prefixes of layer i in lexicographic order, each
        column's k and its first site (C + 1 of them, the last |D_i|).  The
        sums are ``np.add.accumulate``: ``np.cumsum`` now and then leaves a
        small object behind, which a step of a pass must not."""
        pre, k = np.zeros((0, 1), dtype=np.intp), np.array([i])
        for _ in range(self.d - 1):  # one coordinate of the prefixes at a time
            n = 2 * k + 1
            up = np.repeat(np.arange(len(k)), n)
            a = np.arange(len(up)) - np.repeat(np.add.accumulate(n) - n + k, n)
            pre, k = np.vstack((pre[:, up], a)), k[up] - np.abs(a)
        start = np.zeros(len(k) + 1, dtype=np.intp)
        np.add.accumulate(k + 1, out=start[1:])
        return pre, k, start

    def _moves(self, dst: int, steps: np.ndarray, pre, k, heads):
        """The (R, d) ``steps`` into layer dst of the C columns with prefixes
        ``pre``, ks ``k`` and first sites ``heads``: (R, C) offsets from each
        site to its neighbour in layer dst, and whether the first and the
        last site of the column has none."""
        moved = pre[:, None] + steps.T[:-1, :, None]  # the prefixes of the target columns
        k2 = dst - np.abs(moved).sum(axis=0)  # k' = dst - |p'|
        # x_d = 2q - k = 2q' - k' - dx with dx the step along e_d
        shift = (steps[:, -1:] + k2 - k) // 2
        return self._first(moved, dst) + shift - heads, shift < 0, k2 - shift < k

    def shape(self, i: int) -> tuple:
        return (self._tables[1][i],)

    def buffers(self, rows: int, dtype) -> list:
        """Two flat buffers, each room for ``rows`` layers N, and the three
        rows of ``_gather_logsum``."""
        n = self.shape(self.N)[0]
        return [np.empty(rows * n, dtype=dtype), np.empty(rows * n, dtype=dtype),
                np.empty((3, n + 1), dtype=dtype)]

    def lay(self, i: int, buf: np.ndarray, lead: tuple, framed: bool = False) -> np.ndarray:
        """Layers i at the head of the flat ``buf``, shape lead + shape(i); the
        gather frames each layer as it reads it."""
        return buf[:math.prod(lead) * self.shape(i)[0]].reshape(lead + self.shape(i))

    def coords(self, i: int, idx=None) -> np.ndarray:
        """Coordinates of the sites of layer i, or of its flat sites ``idx``
        only, whose columns ``_locate`` finds."""
        if idx is not None:
            pre, k, heads = self._locate(i, idx)
            return np.column_stack((*pre, 2 * (idx - heads) - k))
        pre, k, start = self._columns(i)
        lens, out = k + 1, np.empty((start[-1], self.d), dtype=np.int64)
        for t, a in enumerate(pre):
            out[:, t] = np.repeat(a, lens)
        np.subtract(2 * np.arange(start[-1]), np.repeat(2 * start[:-1] + k, lens), out=out[:, -1])
        return out

    def hasher(self, i: int):
        """The size of layer i and f(bases, axes, out, t), the field hash of
        its sites before the last mix, (len(bases), |D_i|) at the head of the
        flat ``out`` (``lattice.field_layers``): the prefix P = mix(...
        mix(base ^ C_1[x_1]) ... ^ C_{d-1}[x_{d-1}]) of each column of
        ``_columns(i)``, with C_k the row of axis k of ``axes``, taken over
        the column's k + 1 sites and XORed with C_d[x_d].  Its two per-site
        index arrays, each site's column and x_d, are built like ``coords``."""
        return self.shape(i)[0], functools.partial(self._hash_layer, i)

    def _hash_layer(self, i: int, bases, axes, out, t):
        pre, k, start = self._columns(i)
        m, n = axes.shape[1] // 2, start[-1]
        prefix = np.repeat(bases[:, None], len(k), axis=1)
        for a, salted in zip(pre, axes):
            prefix ^= salted.take(a + m)
            _mix64_arr(prefix.reshape(-1), t)
        rows = out[:len(bases) * n].reshape(len(bases), n)
        at = np.repeat(np.arange(len(k)), k + 1)
        np.take(prefix, at, axis=1, out=rows, mode="clip")
        del prefix
        x = np.repeat(m - k - 2 * start[:-1], k + 1)
        x += np.arange(0, 2 * n, 2)  # x_d + m
        rows ^= np.take(axes[-1], x, out=at.view(np.uint64), mode="clip")

    def _maps(self, src: int, dst: int) -> np.ndarray:
        """(2d, |D_src|) positions in layer dst = src +- 1 of the neighbours of
        the sites of layer src, along -+e1, +-e1, -+e2, ... (the sign of
        dst - src first); an off-layer one gets |D_dst|: each site plus its
        column's offset."""
        pre, k, start = self._columns(src)
        heads, off = start[:-1], self.shape(dst)[0]
        steps = (dst - src) * _offsets(self.d)
        delta = np.empty((len(steps), len(k)), dtype=np.intp)
        first_off, last_off = np.empty(delta.shape, dtype=bool), np.empty(delta.shape, dtype=bool)
        for r in range(len(steps)):  # a step at a time, to keep the temporaries to one row
            delta[r], first_off[r], last_off[r] = self._moves(dst, steps[r:r + 1], pre, k, heads)
        maps = np.repeat(delta, k + 1, axis=1)
        maps += np.arange(start[-1])
        for row, lo, hi in zip(maps, first_off, last_off):
            row[heads[lo]] = off
            row[(heads + k)[hi]] = off
        return maps

    def sum_into(self, i: int):
        return functools.partial(_gather_logsum, self._maps(i, i - 1), self.shape(i - 1)[0])

    def sum_from(self, i: int):
        return self.chain_sums(i)[1]

    def chain_sums(self, i: int):
        """``sum_into(i)`` for one layer and ``sum_from(i)`` off the one map
        of ``sum_from``: each of its rows takes layer i-1 injectively into
        layer i, the set of the neighbours of layer i-1."""
        maps, size = self._maps(i - 1, i), self.shape(i)[0]
        return (functools.partial(_scatter_logsum, maps, size),
                functools.partial(_gather_logsum, maps, size))

    def framed(self, i: int, layer: np.ndarray) -> np.ndarray:
        """Layer i with a -inf sentinel one past its end."""
        return np.append(layer, NEG_INF)

    def predecessors(self, i: int, idx: np.ndarray, x: np.ndarray):
        """The (2d, n) neighbours in layer i-1 of the layer-i sites idx, at
        coordinates x (n, d), in the order of ``_maps``, as positions in
        ``framed(i - 1)`` and as flat indices: both are the map's entries at
        idx, an off-layer neighbour on the sentinel.  A site's prefix, k and
        position q = (x_d + k)/2 come from x, and the moves are those of the
        drawn sites' columns only."""
        pre = x[:, :-1].T
        k = i - np.abs(pre).sum(axis=0)
        q = (x[:, -1] + k) // 2
        delta, first_off, last_off = self._moves(i - 1, self.back_steps, pre, k, idx - q)
        maps = idx + delta
        maps[(first_off & (q == 0)) | (last_off & (q == k))] = self.shape(i - 1)[0]
        return maps, maps


def _geometry(d: int, N: int):
    """The layer geometry of the recursion, chosen here and only here."""
    return _DenseGeometry(d, N) if d <= 2 else _ColumnGeometry(d, N)


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
        (layer i reads g(1..i, .) only, and its site order does not depend on N)."""
        if self.direction != "forward" or not 1 <= n <= self.N:
            raise ValueError(f"a prefix needs a forward table and 1 <= n <= {self.N}")
        env = replace(self.env, params=replace(self.env.params, N=n))
        return LayerTable(env, BetaProfile(self.profile.values[:n]), "forward",
                          self.geometry, self.layers[:n + 1])


def _check_guard(env: Environment, geom, n_profiles: int, keep: int, n_envs: int = 1,
                 rungs: int = 0, energy: int = 0) -> int:
    """The one cell budget, returning the cells charged for a pass over
    ``n_envs`` environments like ``env`` that keeps its first ``keep``
    profiles.  A kept profile holds its cone, one cell per environment and
    cone site, and nothing else does; per site of layer N the pass holds
    the geometry's ``layer_cells`` per environment and profile (its buffers,
    allocated once), ``shared_cells`` for the whole batch (at d >= 3 with
    the column-level work spread over the sites) and ``work_cells`` per
    environment, and once the field's fixed cells: the rest of the field
    block, FIELD_BLOCK values, its scratch, the hash's salted axis tables,
    2N + 1 cells per axis, and per environment the geometry's
    ``prefix_cells``.  An environment that overrides ``Environment.values``
    is charged as one that keeps it.  With ``rungs``, the charge is of a
    reverse-chain descent down one kept table (``marginal_sums``): that
    cone, and per site of layer N the geometry's ``chain_shared_cells`` and
    ``chain_rung_cells`` per rung; with ``energy``, the last layer whose
    field the descent reads, also the field's fixed cells and, per site of
    that layer, its field (the hash's per-site arrays at d >= 3 are never
    live with the chain's maps, which are charged more)."""
    p = env.params
    width = reachable_set_size(p.N, p.d)
    held = reachable_cells_total(p.N, p.d) * n_envs * keep if keep else 0
    step = (geom.chain_shared_cells + rungs * geom.chain_rung_cells if rungs
            else geom.shared_cells + n_envs * (geom.work_cells + n_profiles * geom.layer_cells))
    field = 0
    if energy or not rungs:
        field = FIELD_BLOCK + FIELD_SCRATCH_CELLS + p.d * (2 * p.N + 1) + n_envs * geom.prefix_cells
    if energy:
        field += reachable_set_size(energy, p.d)
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
    p, geom = env.params, _geometry(env.params.d, env.params.N)
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
    geom = geometry(d, N)
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
        fields = field_layers(envs, [i for i in order if read[i - 1]], geom,
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
    the profiles' first n entries, and its site order does not depend on N,
    so its logsumexp is, bit for bit, log Z of a pass that
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

def _uniforms(rng: np.random.Generator, n: int) -> np.ndarray:
    """``rng.random(n)`` with 0.0 read as 2^-53, the smallest positive value it
    returns: u = 0 would pick a leading zero-weight candidate (a -inf frame
    row or site), u > 0 never does."""
    return np.maximum(rng.random(n), 2.0**-53)


def _categorical_columns(logits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One draw per column from unnormalized log-weights, taking one
    ``rng.random`` double per column, in column order."""
    c = np.exp(logits - logits.max(axis=0))
    for row in range(1, len(c)):  # the cumsum over axis 0, a row at a time
        c[row] += c[row - 1]
    return (_uniforms(rng, logits.shape[1]) * c[-1] > c).sum(axis=0)


def sample_paths(table: LayerTable, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n independent paths exactly from the Gibbs measure of the table.

    Endpoint first, proportional to W(N, .), by one CDF and a binary search
    per draw; then each earlier site among its neighbours in layer i-1,
    proportional to W(i-1, .).  The geometry gives the neighbours as
    positions in a -inf framed copy of layer i-1 (by index arithmetic at
    d <= 2, by the column maps at d >= 3), one column per draw; only the
    endpoints are decoded, and each earlier site is the later one plus the
    chosen row's step.  Returns (n, N+1, d) int64.
    """
    if table.direction != "forward":
        raise ValueError("sampling requires a forward table")
    N, geom = table.N, table.geometry
    out = np.zeros((n, N + 1, table.d), dtype=np.int64)
    w = table.layer_logw(N)
    cdf = np.cumsum(np.exp(w - w.max()))
    idx = np.searchsorted(cdf, _uniforms(rng, n) * cdf[-1], side="left")
    x = out[:, N] = geom.coords(N, idx)
    draws = np.arange(n)
    for i in range(N, 0, -1):
        at, flat = geom.predecessors(i, idx, x)
        pick = _categorical_columns(geom.framed(i - 1, table.layers[i - 1])[at], rng)
        idx = flat[pick, draws]
        x = out[:, i - 1] = x + geom.back_steps.take(pick, axis=0)
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


def marginal_sums(fwd: LayerTable, ns=None, energy=None):
    """sum_{i <= n} sum_x mu_i(x)^2 for each n of the ladder ``ns`` (default
    the table's N), with mu_i the site law at time i of the table's first n
    steps, from one descent of the reverse chain down the kept forward table A:

        log mu_n = A_n - logsumexp A_n,
        log mu_{i-1}(y) = A_{i-1}(y) + log sum_{x ~ y} exp(log mu_i(x) - LS_i(x)),

    where LS_i is the neighbour log-sum of A_{i-1} onto layer i.  It runs no
    pass.  Rung n joins the stack of log marginals at layer n, every step
    serves all live rungs with one LS_i, and each rung is renormalized at
    every layer; each rung's arithmetic is its own, so its sum is bit for
    bit that of ``marginal_sums(fwd.prefix(n))``.

    With ``energy``, a list of n, returns (those sums, <H> of each n of
    ``energy``): sum_{i <= n} sum_x g(i, x) mu_i(x) over the layers with
    beta_i != 0, each layer's terms added up by ``np.sum`` off the rung's
    renormalized row, in descent order.  Only then is a field read: the
    layers up to the largest n of ``energy``, a block of layers per hash
    call as a pass reads them (``lattice.field_layers``)."""
    if fwd.direction != "forward":
        raise ValueError("the reverse chain needs a forward table")
    ns = [fwd.N] if ns is None else [int(n) for n in ns]
    asked = [] if energy is None else [int(n) for n in energy]
    _check_ladder(fwd.N, ns + asked)
    tops = sorted(set(ns + asked), reverse=True)  # row k of the stack is rung tops[k]
    rows, last = [tops.index(n) for n in asked], max(asked, default=0)
    _check_guard(fwd.env, fwd.geometry, 1, 1, rungs=len(tops), energy=last)
    layers, geom = fwd.layers, fwd.geometry
    sums, energies = np.zeros(len(tops)), np.zeros(len(tops))
    # the stack of log marginals, its sum back (first the renormalisation's
    # scratch, then each <H> term's) and the kernels' scratch; layer i-1 and
    # its sum onto layer i
    stack = geom.buffers(len(tops), layers[0].dtype)
    below = np.empty((2, reachable_set_size(fwd.N, fwd.d)), dtype=layers[0].dtype)
    read = [i for i in range(last, 0, -1) if fwd.profile.values[i - 1]]
    if read:
        fields = field_layers([fwd.env], read, geom,
                              np.empty(reachable_set_size(last, fwd.d) + FIELD_BLOCK),
                              field_scratch())
    rungs = 0
    for i in range(tops[0], 0, -1):
        rungs += i in tops
        lm = geom.lay(i, stack[0], (rungs,))
        if i in tops:
            lm[-1] = layers[i]
        logmu, mu = lm.reshape(rungs, -1), stack[1][:lm.size].reshape(rungs, -1)
        sums[:rungs] += _renormalise(logmu, mu)
        if i <= last and fwd.profile.values[i - 1]:
            g = next(fields)[0]
            for k in (k for k in rows if k < rungs):
                energies[k] += np.multiply(np.exp(logmu[k], out=mu[0]), g, out=mu[0]).sum()
        if i > 1:
            into, back = geom.chain_sums(i)
            geom.lay(i - 1, below[0], (1,), framed=True)[0] = layers[i - 1]
            lm -= into(*below, stack[2], (1,))
            # copied out of its window, then added, as numpy buffers a strided add
            lm = geom.lay(i - 1, stack[0], (rungs,))
            np.copyto(lm, back(*stack, (rungs,)))
            lm += layers[i - 1]
            del into, back  # this step's maps go before the next step's are built
    sums = sums[[tops.index(n) for n in ns]]
    return sums if energy is None else (sums, energies[rows])


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
