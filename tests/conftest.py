import numpy as np
import pytest

from svrb.cases import (
    AffineTerm,
    UniformBox,
    assemble_problem,
    custom_case,
    gaussian9_case,
    uniform4_case,
)
from svrb.verify import build_small_rb


@pytest.fixture(scope="session")
def uniform4_8():
    return assemble_problem(uniform4_case(8))


@pytest.fixture(scope="session")
def uniform4_16():
    return assemble_problem(uniform4_case(16))


@pytest.fixture(scope="session")
def uniform4_32():
    return assemble_problem(uniform4_case(32))


@pytest.fixture(scope="session")
def gaussian9_9():
    return assemble_problem(gaussian9_case(9))


@pytest.fixture(scope="session")
def constant_problem():
    """Parameter-independent unit-diffusivity problem on a coarse mesh."""
    case = custom_case(
        8,
        diffusion=[1.0],
        load=[1.0],
        prior=UniformBox([-1.0], [1.0]),
        dim=1,
    )
    return assemble_problem(case)


@pytest.fixture(scope="session")
def rb_uniform4_16(uniform4_16):
    return build_small_rb(uniform4_16, np.random.default_rng(11), 5)


def embed(problem, v_free):
    """Zero-extend a constrained vector to all grid nodes."""
    full = np.zeros(problem.n_dofs_raw)
    full[problem.free_dofs] = v_free
    return full


def manufactured_case(n):
    """Unit diffusivity with the source term matching u = sin(pi * x2)."""
    return custom_case(
        n,
        diffusion=[1.0],
        load=[AffineTerm(
            lambda x: np.pi**2 * np.sin(np.pi * x[:, 1]),
            lambda theta: 1.0,
            lambda theta: np.zeros(1),
        )],
        prior=UniformBox([-1.0], [1.0]),
        dim=1,
    )
