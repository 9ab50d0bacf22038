"""Test-process setup shared by ``tests/`` and ``bench/``.

BLAS is pinned to one thread before numpy loads: a second OpenBLAS thread
doubles the CPU time of the suite without making its small matrices any
faster.  A thread count already set in the environment still wins.
"""

import os

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


@pytest.fixture(scope="session")
def desk_models():
    """Session memo of trained models, keyed by ``TrainConfig`` (see
    :func:`fdl.experiments.train_models`): the slow tests that evaluate the
    same desk model share one training of it."""
    return {}
