"""The benchmark's workloads: pinned polymerlab CLI commands.

Each workload is one CLI invocation; the benchmark seed becomes the CLI's
``--seed`` and every run uses ``--threads 1``.  Sizes are fixed here so a
run's cost depends on the code, not on the seed (``localize_d1`` is the
exception: how many favorite paths the greedy cover picks depends on the
sampled paths).  Why each workload is in the set is recorded in the ``why``
strings of ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    args: tuple
    ns: tuple  # N ladder as passed
    betas: tuple  # beta grid as passed
    metric_file: str  # the file whose rows rows_per_s counts
    n_samples: int = 0

    def argv(self, seed: int, out: str) -> list:
        return [self.command, *self.args, "--seed", str(seed), "--threads", "1",
                "--out", out]


def _grid(values) -> str:
    return ",".join(str(v) for v in values)


def _free_energy(name, d, ns, betas, n_disorder):
    return Workload(
        name=name, command="free-energy",
        args=("--d", str(d), "--n-grid", _grid(ns), "--beta-grid", _grid(betas),
              "--n-disorder", str(n_disorder)),
        ns=ns, betas=betas, metric_file="free_energy.csv",
    )


LOCALIZE_N, LOCALIZE_SAMPLES = 512, 500

WORKLOADS = {
    w.name: w
    for w in (
        # README command 1: field generation and the rolling line kernel
        _free_energy("free_energy_d1", 1, (64, 256, 1024), (0.5, 1, 2, 3), 4),
        # full forward/backward grid tables, the sampler, three estimators
        Workload(
            name="overlap_d2", command="overlap",
            args=("--d", "2", "--n-grid", "64,128", "--beta-grid", "0,1,2",
                  "--n-disorder", "2", "--n-pairs", "500"),
            ns=(64, 128), betas=(0, 1, 2), metric_file="overlap.csv",
        ),
        # the README localize config exactly
        Workload(
            name="localize_d1", command="localize",
            args=("--d", "1", "--n", str(LOCALIZE_N), "--beta-grid", "0,2",
                  "--delta", "0.2", "--eps", "0.1",
                  "--n-samples", str(LOCALIZE_SAMPLES), "--blocks", "4"),
            ns=(LOCALIZE_N,), betas=(0, 2), metric_file="windows.csv",
            n_samples=LOCALIZE_SAMPLES,
        ),
        # the general packed-key kernel (d >= 3)
        _free_energy("free_energy_d3", 3, (16, 32), (0.5, 1, 2, 3), 2),
    )
}
