import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dtmor import DiscreteLTISystem, ExampleSpec, generate_example


def random_stable_system(seed, n, m=2, p=2, radius=0.9) -> DiscreteLTISystem:
    """Dense seeded system scaled to a target spectral radius, with uniform
    input/output maps (the same recipe the generator uses)."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    rho = max(abs(np.linalg.eigvals(A)))
    A *= radius / rho
    return DiscreteLTISystem(A, rng.random((n, m)), rng.random((p, n)))


@pytest.fixture
def scalar_system():
    return DiscreteLTISystem([[0.5]], [[1.0]], [[1.0]])


@pytest.fixture
def jacobi_small():
    return generate_example(ExampleSpec(kind="jacobi", size=6, inputs=2, outputs=2, seed=11))


@pytest.fixture
def gs_small():
    return generate_example(ExampleSpec(kind="gauss-seidel", size=5, inputs=2, outputs=2, seed=11))
