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
