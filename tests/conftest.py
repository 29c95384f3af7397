"""Shared fixtures: random stable plants and the benchmark configuration."""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads. Idle OpenBLAS worker threads
# spin and bill CPU time to the process, so on a loaded host the CPU-second
# budgets of the acceptance criteria would measure contention, not ancsim.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from ancsim import (  # noqa: E402
    ContinuousStateSpace,
    SimConfig,
    run_comparison,
    run_single,
)


def random_stable_siso(rng: np.random.Generator, max_states: int = 10) -> ContinuousStateSpace:
    """Random strictly proper stable SISO plant with up to max_states states.

    Eigenvalues are drawn directly (real or complex-conjugate pairs with a
    real-part margin), then disguised by a mild random similarity so the
    state matrix is dense. Rejection keeps the transform well conditioned.
    """
    n_target = int(rng.integers(2, max_states + 1))
    blocks = []
    n = 0
    while n < n_target:
        if n_target - n >= 2 and rng.uniform() < 0.6:
            sig = rng.uniform(0.15, 2.0)
            om = rng.uniform(0.3, 4.0)
            blocks.append(np.array([[-sig, om], [-om, -sig]]))
            n += 2
        else:
            blocks.append(np.array([[-rng.uniform(0.15, 2.0)]]))
            n += 1
    a = np.zeros((n, n))
    pos = 0
    for blk in blocks:
        w = blk.shape[0]
        a[pos : pos + w, pos : pos + w] = blk
        pos += w
    while True:
        t = np.eye(n) + 0.25 * rng.normal(size=(n, n))
        if np.linalg.cond(t) < 50.0:
            break
    a = np.linalg.solve(t, a @ t)
    b = rng.normal(size=(n, 1))
    c = rng.normal(size=(1, n))
    return ContinuousStateSpace(A=a, B=b, C=c)


@pytest.fixture(scope="session")
def default_config() -> SimConfig:
    return SimConfig()


@pytest.fixture(scope="session")
def benchmark_run(default_config):
    """The default closed-loop run, shared across tests (read-only)."""
    return run_single(default_config)


@pytest.fixture(scope="session")
def benchmark_comparison(default_config):
    return run_comparison(default_config)
