import random

import mpmath
import pytest

from palinlace.polycore import Polynomial, as_mpf, make_polynomial
from palinlace.precision import working_precision


def ge(n: int) -> Polynomial:
    return make_polynomial([1] * (n - 1), offset=1)


def approx(x, y, tol="1e-9") -> bool:
    with working_precision(256):
        return abs(as_mpf(x) - as_mpf(y)) < mpmath.mpf(tol)


def rel_close(x, y, tol="1e-9") -> bool:
    with working_precision(256):
        return abs(as_mpf(x) - as_mpf(y)) <= mpmath.mpf(tol) * (1 + abs(as_mpf(y)))


@pytest.fixture
def rng():
    return random.Random(20240817)
