import numpy as np
import pytest

from splitkern.kernels import user_kernel


@pytest.fixture
def dense_sobolev():
    """The built-in kernel's formula wrapped as a user kernel, so every
    Gram product goes through the dense operator: the reference for the
    structured one."""
    return user_kernel(lambda x, t: np.minimum(x, t) - x * t, kappa=0.5,
                       name="sobolev-min-dense")
