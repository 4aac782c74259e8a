import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


@pytest.fixture
def fixtures_dir():
    return FIXTURES


def random_nnd(rng, dim, rank=None):
    """Random symmetric nonnegative definite matrix of the given rank."""
    if rank is None:
        rank = dim
    root = rng.normal(size=(dim, rank))
    return root @ root.T


def random_spd(rng, dim, lo=0.5, hi=2.0):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    lam = rng.uniform(lo, hi, size=dim)
    return (q * lam) @ q.T


def assert_same_rank_decision(report, matrix, tol):
    """``report`` decides the rank of ``matrix`` as numeric_rank does.

    LAPACK's values-only SVD and its SVD with vectors may differ in the
    last bits, so the values agree to 1e-12 relative and the default
    tolerance is the same rule, max(rows, cols) eps sigma_1, on the
    report's own sigma_1; an explicit tolerance is used as given.
    """
    from gmls import default_tolerance, numeric_rank

    direct = numeric_rank(matrix, tol=tol)
    assert (report.numeric_rank, report.deficient) == (direct.numeric_rank, direct.deficient)
    np.testing.assert_allclose(report.values, direct.values, rtol=1e-12, atol=0.0)
    if tol is None:
        assert report.tolerance == default_tolerance(*matrix.shape, report.values[0])
        assert report.tolerance == pytest.approx(direct.tolerance, rel=1e-12, abs=0.0)
    else:
        assert report.tolerance == direct.tolerance == tol
