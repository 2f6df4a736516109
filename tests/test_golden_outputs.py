"""Golden metric files: pinned tiny CLI runs must reproduce recorded bytes.

Each case runs ``cli.main`` at a small fixed config and compares the sha256
of every metric file with a digest recorded before the transfer recursion
was rebuilt around one driver (the ``free_energy_tail_d1`` and
``overlap_d1_mixed`` digests: before the free-energy beta grid and the
overlap estimators shared one pass per environment; the ``localize_d2``
digests: before the localization reports shared one coincidence tensor and
the distinguished-set induction was batched), so refactors must leave the
outputs byte-identical.  The digests were taken with Python 3.11.7 and numpy
2.4.6; other versions may round differently.  They do not depend on scipy,
which only ``verify``'s chi-square uses.  A change that alters output bits
on purpose (e.g. a new kernel) updates the digests here and says so in
CHANGES.md.  The ``free_energy_d3``, ``multi_temp_d1``, ``overlap_d1_mixed``,
``overlap_d2`` and ``overlap_d3_ladder`` digests were taken again when the
neighbour sums moved from ``np.logaddexp`` to ``transfer._logaddexp``
(last-bit changes, at most 1.4e-14 relative), and the three overlap digests
again when the exact <R> moved from a backward pass to the reverse chain
down the forward table (``exact_overlap`` and the mc ``ibp_residual`` and
``ibp_stderr`` columns: at most 4.5e-16 absolute and 3.4e-15 relative).
Every free-energy and overlap digest was taken again when the field's
inverse normal moved from scipy's ``ndtri`` to the package's AS241
(``lattice._ndtri``, within 2e-15 relative): at most 4.4e-16 absolute on
the free-energy cases and 9.6e-14 on ``overlap_d3_ladder``, in its
finite-difference columns; the localize digests did not move.

The digests also depend on the CPU: numpy dispatches float64 ``exp``,
``log`` and ``log1p`` to AVX-512 loops (target ``X86_V4``) where the CPU has
them, and those round differently in the last bit from the AVX2 and
baseline loops; the field's tail runs through that ``log``.  They were
recorded on an AVX-512 machine.  With
``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"`` set on that
machine, every free-energy and overlap case but ``free_energy_d3`` fails
here, and so does the verify digest of ``test_c10`` (before the field's
inverse normal moved: ``free_energy_d3``, ``free_energy_tail_d1``,
``overlap_d1_mixed``, ``overlap_d2``, ``overlap_d3_ladder`` and
``test_c10``; before the kernel change: ``free_energy_tail_d1``,
``multi_temp_d1``, ``overlap_d1_mixed``, ``overlap_d3_ladder`` and
``test_c10``).  So a mismatch on another runner is first checked against
the targets that ``run_record.json`` and ``numpy.show_runtime()`` report.
"""

import hashlib

import pytest

from polymerlab.cli import main

FREE_ENERGY_D1 = ["free-energy", "--d", "1", "--n-grid", "16,64", "--beta-grid", "0,0.5,2",
                  "--n-disorder", "4", "--seed", "7"]
FREE_ENERGY_D1_DIGEST = "f08140bf0c2af52905bb4859aa5894ce622bab23e6b56d1186bcb4c6ec85a751"

CASES = {
    "free_energy_d1": (FREE_ENERGY_D1, {"free_energy.csv": FREE_ENERGY_D1_DIGEST}),
    # --threads is accepted for config compatibility and has no effect
    "free_energy_d1_threads4": (
        FREE_ENERGY_D1 + ["--threads", "4"], {"free_energy.csv": FREE_ENERGY_D1_DIGEST},
    ),
    "free_energy_d3": (
        ["free-energy", "--d", "3", "--n-grid", "4,10", "--beta-grid", "0.5,2",
         "--n-disorder", "2", "--seed", "7"],
        {"free_energy.csv": "0d54c17f8ba67325b80576261559fa6cfd98b4a1d1fbb2d193ae1dd8f850313f"},
    ),
    "free_energy_tail_d1": (
        ["free-energy", "--d", "1", "--n-grid", "16,64", "--beta-grid", "0,0.5,2",
         "--n-disorder", "6", "--tail-u", "0.02,0.1,0.4", "--seed", "7"],
        {
            "free_energy.csv": "f822475cd834955b074ebc033a1a11c68898641a6fff9913e44450783eb93be9",
            "concentration.csv": "a419a9ac962ab01c1523a25906be6357b7f44d9dbb5be79f1a8d8157275f181c",
        },
    ),
    # N = 8 runs in enum mode and N = 24 in mc mode; every column but the
    # sampled pairs averages all 55 environments
    "overlap_d1_mixed": (
        ["overlap", "--d", "1", "--n-grid", "8,24", "--beta-grid", "0,0.5,1",
         "--n-disorder", "55", "--n-pairs", "50", "--seed", "7"],
        {"overlap.csv": "2c6887e4868f460928a34873db2f3ece606cb61cb478f581381f1c10f72fa216"},
    ),
    "overlap_d2": (
        ["overlap", "--d", "2", "--n-grid", "3,16", "--beta-grid", "0,1",
         "--n-disorder", "2", "--n-pairs", "100", "--seed", "7"],
        {"overlap.csv": "f39ddea59f2c8d40ad02920e8b9919221bc910e6e58cac8d2da7409de3311ea4"},
    ),
    # d = 3, an unsorted ladder with a repeated N and a beta = 0 row between
    # betas > 0, whose exact <R> comes from one reverse-chain descent per
    # (beta, environment) for the whole ladder
    "overlap_d3_ladder": (
        ["overlap", "--d", "3", "--n-grid", "12,5,12", "--beta-grid", "2,0,0.5",
         "--n-disorder", "3", "--n-pairs", "40", "--seed", "3"],
        {"overlap.csv": "fbcc42a4160aae0a599d2558d5becbc346e372481be357e6529fc61e375bcb76"},
    ),
    # block-beta mode; the digest was recorded before the block and
    # concatenation passes were batched over replicas
    "multi_temp_d1": (
        ["free-energy", "--d", "1", "--n-grid", "16,32", "--blocks", "2", "--block-betas",
         "0.5,1.5", "--n-disorder", "6", "--seed", "7"],
        {"multi_temp.csv": "4d7500a7ae485d0ac47612db6153e13eaf215fc969a40fc7fa921f1eee28bae8"},
    ),
    "localize_d1": (
        ["localize", "--d", "1", "--n", "96", "--beta-grid", "0,2", "--delta", "0.25",
         "--eps", "0.1", "--n-samples", "60", "--blocks", "3", "--seed", "5"],
        {
            "localize.jsonl": "22725fa1fa2767f68849c74bbb361c4176646add53714f98a544e02f3775f206",
            "windows.csv": "c5baff30232e35e6df442b0b8587e199a6964b9a2dcc75a3de84d15ae7d87996",
            "distinguished.json": "6bec6e22454e38c62e22c3741b883ffefc75a0d4f31fcbda1f81441b1c45e0d9",
        },
    ),
    # d = 2: bridges close gaps along two axes; 3100 distinguished paths at beta = 0
    "localize_d2": (
        ["localize", "--d", "2", "--n", "96", "--beta-grid", "0,2", "--delta", "0.25",
         "--eps", "0.1", "--n-samples", "60", "--blocks", "3", "--seed", "5"],
        {
            "localize.jsonl": "904e1bc23f9933a872ec6ee63a264a8a1833b1752e01973c901ad50b2dedf72a",
            "windows.csv": "b600f261b5533e102b2a9d119e7b80a7196e58764fb3da078b0bd87716704ae7",
            "distinguished.json": "96fa81f3abe9e1f0d95b3bfd23e258567192d4124be126f7e80e6e8705658ef1",
        },
    ),
    # d = 3: the packed-key sampler and site keys; the induction builds 1646
    # paths at beta = 0 and 1314 at beta = 2.  The digests were recorded
    # before an induction past its cap became a skipped beta
    "localize_d3": (
        ["localize", "--d", "3", "--n", "48", "--beta-grid", "0,2", "--delta", "0.5",
         "--eps", "0.1", "--n-samples", "40", "--blocks", "3", "--seed", "5"],
        {
            "localize.jsonl": "203ea72a95ce7790437217fd4107fc30255c14710036669f97254363e74870a3",
            "windows.csv": "3d0c97b7f74fbcace8a9c39f803ee2b3e6bb3c5ad7eeddf9a51339490b78d9a9",
            "distinguished.json": "6b24668fb8b3fc1ed6294b4eff3bc773ab5f18a4f059a59970abc44f6be71c44",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_metric_files_match_golden_digests(name, tmp_path):
    argv, digests = CASES[name]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in digests}
    assert got == digests
