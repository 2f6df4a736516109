import numpy as np
import pytest

from polymerlab.cli import _platform

# numpy's SIMD targets of float64 (exp, log, log1p), as run_record.json
# reports them: the golden and verify digests are recorded per target
AVX512 = ("X86_V4",) * 3
AVX2 = ("X86_V3", "X86_V3", "baseline(X86_V2)")
BASELINE = ("baseline(X86_V2)",) * 3


def random_walks(rng: np.random.Generator, n: int, N: int, d: int = 1) -> np.ndarray:
    """(n, N+1, d) independent simple random walks from the origin."""
    axes = rng.integers(0, d, size=(n, N))
    signs = rng.choice((-1, 1), size=(n, N))
    steps = np.zeros((n, N, d), dtype=np.int64)
    rows = np.repeat(np.arange(n), N)
    cols = np.tile(np.arange(N), n)
    steps[rows, cols, axes.ravel()] = signs.ravel()
    out = np.zeros((n, N + 1, d), dtype=np.int64)
    out[:, 1:] = np.cumsum(steps, axis=1)
    return out


@pytest.fixture
def rw():
    return random_walks


@pytest.fixture(scope="session")
def recorded_for_targets():
    """f(by_targets): the entry of ``by_targets`` for the SIMD targets this
    process runs numpy's float64 exp, log and log1p on; a target with no
    entry fails the test, naming it."""
    got = _platform()["float64_targets"]
    targets = (got["exp"], got["log"], got["log1p"])

    def pick(by_targets):
        if targets not in by_targets:
            pytest.fail(f"no digests recorded for numpy's float64 (exp, log, log1p) "
                        f"targets {targets}")
        return by_targets[targets]

    return pick
