import pytest

from jampack.construction import assemble_square


@pytest.fixture(scope="session")
def square1024():
    """The north-star square, N=1024 at lambda = 1/N, built once for every
    test module that reads it."""
    return assemble_square(1024, 1.0 / 1024)
