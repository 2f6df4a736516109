"""Span tracer that wraps polymerlab's public layer functions from outside.

Nothing under ``src/`` is edited: ``Tracer.install`` swaps each layer
function for a timing wrapper in every namespace it is looked up in (the
defining module, the ``from .x import y`` copies in sibling modules, the
package ``__init__`` re-exports, function default arguments such as
``mean_replica_overlap(sampler=sample_paths)``, and ``Environment.values``
on the class), and ``Tracer.restore`` puts every original back.

Spans are kept in memory.  A span's self time is its duration minus the
time covered by its child spans.  The tracer's own time around each span
(counter bookkeeping, span records) is charged to ``trace.bookkeeping``, not
to the parent, so with the root span around ``cli.main`` the self times of
all layers, ``cli`` and ``trace.bookkeeping`` sum to the traced wall time
exactly.  Only the Python call into and out of each wrapper (well under a
microsecond) stays in the parent's self time.

Every counter is a function of the call arguments only, so counts repeat
exactly from run to run.  Cell, path-step and pair-step counts are computed
from array sizes (``Sum_i |D_i|`` etc.), not observed inside the kernels.
"""

from __future__ import annotations

import functools
import importlib
import math
import resource
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

ROOT = "cli"
BOOKKEEPING = "trace.bookkeeping"

# span name -> (module, attribute path); "Class.method" patches the class
LAYERS = {
    "lattice.field": ("polymerlab.lattice", "Environment.values"),
    "lattice.gaussian_env": ("polymerlab.lattice", "gaussian_env"),
    "transfer.log_partitions": ("polymerlab.transfer", "log_partitions"),
    "transfer.forward_layers": ("polymerlab.transfer", "forward_layers"),
    "transfer.backward_layers": ("polymerlab.transfer", "backward_layers"),
    "transfer.layer_log_marginals": ("polymerlab.transfer", "layer_log_marginals"),
    "transfer.sample_paths": ("polymerlab.transfer", "sample_paths"),
    "overlap.exact_two_replica_overlap": ("polymerlab.overlap", "exact_two_replica_overlap"),
    "overlap.mean_replica_overlap": ("polymerlab.overlap", "mean_replica_overlap"),
    "overlap.ibp_residual": ("polymerlab.overlap", "ibp_residual"),
    "free_energy.estimate_free_energy": ("polymerlab.free_energy", "estimate_free_energy"),
    "free_energy.estimate_derivative": ("polymerlab.free_energy", "estimate_derivative"),
    "localization.pairwise_counts": ("polymerlab.localization", "pairwise_counts"),
    "localization.min_window_overlap": ("polymerlab.localization", "min_window_overlap"),
    "localization.greedy_favorite_paths": ("polymerlab.localization", "greedy_favorite_paths"),
    "localization.coverage_report": ("polymerlab.localization", "coverage_report"),
    "localization.build_distinguished_sets": ("polymerlab.localization", "build_distinguished_sets"),
    "localization.report_to_jsonl": ("polymerlab.localization", "report_to_jsonl"),
}

# every module whose namespace may hold a copy of a layer function
MODULES = (
    "polymerlab",
    "polymerlab.lattice",
    "polymerlab.transfer",
    "polymerlab.overlap",
    "polymerlab.free_energy",
    "polymerlab.localization",
    "polymerlab.parallel",
    "polymerlab.verify",
    "polymerlab.cli",
)

# layers whose rise in the process peak RSS is recorded per span
RSS_LAYERS = frozenset({"transfer.sample_paths", "localization.pairwise_counts"})


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fingerprint(a) -> tuple:
    """Content identity of an array argument (shape, dtype, 64-bit hash)."""
    arr = np.asarray(a)
    return arr.shape, arr.dtype.str, hash(arr.tobytes())


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


@functools.lru_cache(maxsize=None)
def cone_cells(d: int, N: int) -> int:
    """Sum over layers i = 1..N of |D_i|, the cells one recursion pass visits.

    Computed here rather than by ``polymerlab.lattice`` so the count, and the
    ns/cell rates built on it, stay fixed while the program changes.
    """
    total = 0
    for i in range(1, N + 1):
        if d == 1:
            total += i + 1
        elif d == 2:
            total += (i + 1) ** 2
        else:
            # points with ||x||_1 = r <= i, r = i mod 2
            total += sum(
                1 if r == 0 else sum(
                    2**k * math.comb(d, k) * math.comb(r - 1, k - 1)
                    for k in range(1, min(d, r) + 1)
                )
                for r in range(i % 2, i + 1, 2)
            )
    return total


class Tracer:
    """Collects spans and argument-derived counters for one traced CLI run."""

    def __init__(self):
        self.spans: list = []  # (id, parent id, name, start, end)
        self._stack: list = []
        self._next_id = 0
        self.wall_s = 0.0  # root span plus the tracer's time around it
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._patches: list = []  # (setter target, attribute, original)
        # exact-waste bookkeeping, keyed by argument content
        self._field_sites: dict = {}  # (seed, layer) -> {fingerprint: coords}
        self._env_builds: set = set()
        self._pc_samples: set = set()
        self._mwo_pairs: set = set()

    # ------------------------------------------------------------------ spans
    def call(self, name: str, fn, args, kwargs, count=None):
        b0 = perf_counter()
        if count is not None:
            args, kwargs = count(self, args, kwargs)
        frame = [self._next_id, 0.0]  # span id, seconds covered by children
        self._next_id += 1
        self._stack.append(frame)
        rss0 = _maxrss_mb() if name in RSS_LAYERS else None
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            if rss0 is not None:
                self.counts[name + ".rss_growth_mb"] += _maxrss_mb() - rss0
            parent = self._stack[-1] if self._stack else None
            self.spans.append((frame[0], parent[0] if parent else -1, name, t0, t1))
            self.calls[name] += 1
            self.self_s[name] += (t1 - t0) - frame[1]
            t2 = perf_counter()
            # the tracer's own time around the span, counters included
            self.self_s[BOOKKEEPING] += (t0 - b0) + (t2 - t1)
            if parent is None:
                self.wall_s = t2 - b0
            else:
                parent[1] += t2 - b0

    def run_root(self, fn, *args):
        """Run ``fn`` (``cli.main``) as the root span; returns (result, wall s)."""
        out = self.call(ROOT, fn, args, {})
        return out, self.wall_s

    # -------------------------------------------------------------- patching
    def install(self):
        """Wrap every layer function in every namespace that refers to it."""
        mods = [importlib.import_module(m) for m in MODULES]
        originals = {}
        for name, (modname, attr) in LAYERS.items():
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(name, orig))
            else:
                orig = getattr(mod, attr)
                originals[id(orig)] = self._wrap(name, orig)
        for mod in mods:
            for key, val in list(vars(mod).items()):
                if id(val) in originals:
                    self._set(mod, key, originals[id(val)])
        # default arguments that captured a layer function at definition time
        for mod in mods:
            for val in list(vars(mod).values()):
                fn = getattr(val, "__wrapped__", val)
                defaults = getattr(fn, "__defaults__", None)
                if defaults and any(id(v) in originals for v in defaults):
                    new = tuple(originals.get(id(v), v) for v in defaults)
                    self._set(fn, "__defaults__", new)

    def _set(self, target, attr, value):
        # vars() so a class keeps its own entry, not an inherited lookup
        orig = vars(target)[attr] if attr in vars(target) else getattr(target, attr)
        self._patches.append((target, attr, orig))
        setattr(target, attr, value)

    def restore(self):
        """Undo ``install`` in reverse order."""
        while self._patches:
            target, attr, orig = self._patches.pop()
            setattr(target, attr, orig)

    def _wrap(self, name, fn):
        tracer = self
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, count)

        return wrapper

    # --------------------------------------------------------------- summary
    def summary(self) -> dict:
        """Per-layer metrics by name; times in seconds, counts exact."""
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for name in LAYERS:
            out[name + ".calls"] = self.calls.get(name, 0)
            out[name + ".self_s"] = self.self_s.get(name, 0.0)
        for key in ("lattice.field.values", "transfer.log_partitions.cells",
                    "transfer.forward_layers.cells", "transfer.backward_layers.cells",
                    "transfer.sample_paths.path_steps",
                    "localization.pairwise_counts.pair_steps"):
            out[key] = c.get(key, 0)
        for name in RSS_LAYERS:
            out[name + ".rss_growth_mb"] = c.get(name + ".rss_growth_mb", 0.0)
        for rate, count in (("lattice.field.ns_per_value", "lattice.field.values"),
                            ("transfer.log_partitions.ns_per_cell", "transfer.log_partitions.cells"),
                            ("transfer.forward_layers.ns_per_cell", "transfer.forward_layers.cells"),
                            ("transfer.backward_layers.ns_per_cell", "transfer.backward_layers.cells"),
                            ("transfer.sample_paths.ns_per_path_step",
                             "transfer.sample_paths.path_steps")):
            layer = rate.rsplit(".", 1)[0]
            out[rate] = ratio(1e9 * out[layer + ".self_s"], out[count])
        sites = sum(
            len(np.unique(np.concatenate(list(arrays.values())), axis=0))
            for arrays in self._field_sites.values()
        )
        out["lattice.field.regen_ratio"] = ratio(out["lattice.field.values"], sites)
        out["lattice.gaussian_env.rebuild_ratio"] = ratio(
            out["lattice.gaussian_env.calls"], len(self._env_builds))
        out["localization.pairwise_counts.builds_per_beta"] = ratio(
            out["localization.pairwise_counts.calls"], len(self._pc_samples))
        out["localization.min_window_overlap.dup_ratio"] = ratio(
            out["localization.min_window_overlap.calls"], len(self._mwo_pairs))
        out[ROOT + ".self_s"] = self.self_s.get(ROOT, 0.0)
        out[BOOKKEEPING + "_s"] = self.self_s.get(BOOKKEEPING, 0.0)
        return out


# ---------------------------------------------------------------------------
# Counters: each takes the call arguments and returns them (possibly with an
# iterable materialised so it can be both counted and consumed).
# ---------------------------------------------------------------------------

def _count_field(t: Tracer, args, kwargs):
    env, i, coords = args[0], _arg(args, kwargs, 1, "i"), _arg(args, kwargs, 2, "coords")
    rows = np.asarray(coords, dtype=np.int64)
    rows = rows[:, None] if rows.ndim == 1 else rows
    t.counts["lattice.field.values"] += rows.shape[0]
    # the field is a function of (seed, layer, site) only, so a layer
    # regenerated for another N of the ladder counts as regenerated
    seen = t._field_sites.setdefault((int(env.seed), int(i)), {})
    fp = _fingerprint(rows)
    if fp not in seen:
        seen[fp] = rows.copy()
    return args, kwargs


def _count_env(t: Tracer, args, kwargs):
    t._env_builds.add(int(_arg(args, kwargs, 0, "seed")))
    return args, kwargs


def _count_log_partitions(t: Tracer, args, kwargs):
    env, profiles = args[0], _arg(args, kwargs, 1, "profiles")
    if not isinstance(profiles, (list, tuple)):
        profiles = list(profiles)
        args = (env, profiles) + tuple(args[2:])
        kwargs = {k: v for k, v in kwargs.items() if k != "profiles"}
    if profiles:
        t.counts["transfer.log_partitions.cells"] += (
            cone_cells(env.params.d, profiles[0].N) * len(profiles))
    return args, kwargs


def _count_table(name):
    def count(t: Tracer, args, kwargs):
        env, profile = args[0], _arg(args, kwargs, 1, "profile")
        t.counts[name + ".cells"] += cone_cells(env.params.d, profile.N)
        return args, kwargs
    return count


def _count_sample_paths(t: Tracer, args, kwargs):
    table, n = args[0], _arg(args, kwargs, 1, "n")
    t.counts["transfer.sample_paths.path_steps"] += int(n) * table.N
    return args, kwargs


def _count_pairwise(t: Tracer, args, kwargs):
    c = np.asarray(args[0])
    s = np.asarray(_arg(args, kwargs, 1, "samples"))
    t.counts["localization.pairwise_counts.pair_steps"] += (
        c.shape[0] * s.shape[0] * (s.shape[1] - 1))
    t._pc_samples.add(_fingerprint(s))
    return args, kwargs


def _count_window(t: Tracer, args, kwargs):
    a, b = args[0], _arg(args, kwargs, 1, "b")
    t._mwo_pairs.add((_fingerprint(a), _fingerprint(b), int(_arg(args, kwargs, 2, "min_len"))))
    return args, kwargs


COUNTERS = {
    "lattice.field": _count_field,
    "lattice.gaussian_env": _count_env,
    "transfer.log_partitions": _count_log_partitions,
    "transfer.forward_layers": _count_table("transfer.forward_layers"),
    "transfer.backward_layers": _count_table("transfer.backward_layers"),
    "transfer.sample_paths": _count_sample_paths,
    "localization.pairwise_counts": _count_pairwise,
    "localization.min_window_overlap": _count_window,
}
