import numpy as np
import pytest
from scipy.integrate import quad

from szego.rational import hardy_from_terms, simple_pole


def quad_line(fn, limit=400):
    """Integral over the real line via the tangent substitution."""
    def g(th):
        x = np.tan(th)
        return fn(x) / np.cos(th) ** 2
    re = quad(lambda th: g(th).real, -np.pi / 2, np.pi / 2, limit=limit)[0]
    im = quad(lambda th: g(th).imag, -np.pi / 2, np.pi / 2, limit=limit)[0]
    return re + 1j * im


def quad_inner(f, h, limit=400):
    """Quadrature twin of the residue inner product (tests only)."""
    return quad_line(lambda x: f.evaluate(x) * np.conj(h.evaluate(x)), limit)


@pytest.fixture
def soliton_symbol():
    return simple_pole(1.0, -1j)


@pytest.fixture
def double_eig_symbol():
    # 2/(x+i) - 4/(x+2i): the squared Hankel operator has eigenvalue 1/9 twice
    return hardy_from_terms([(-1j, [2.0]), (-2j, [-4.0])])


@pytest.fixture
def generic_m2():
    return hardy_from_terms([(-1j, [1.0]), (0.8 - 0.7j, [0.5 + 0.3j])])


@pytest.fixture
def mixed_mult():
    # one simple, one double and one triple pole: confluent Cauchy blocks
    return hardy_from_terms([
        (0.9 - 0.8j, [1.0]),
        (-1.0 - 1.0j, [0.5, 1.0]),
        (-1.5j, [0.3, 0.2, 1.0]),
    ])


# A fixed simple 8-pole symbol (poles 0.5 apart, Im p in [-1.6, -0.5]).
EIGHT_POLES = [
    (-0.03977 - 1.11150j, [-1.14492 + 0.44809j]),
    (0.77910 - 0.76247j, [2.01112 + 0.65005j]),
    (0.33390 - 1.52831j, [0.92424 - 0.64873j]),
    (1.43694 - 1.34093j, [0.34024 - 1.11579j]),
    (1.28048 - 0.71513j, [0.53058 - 0.44429j]),
    (0.89562 - 1.27814j, [1.28511 + 0.46048j]),
    (-0.86131 - 1.20254j, [-0.62360 + 1.27353j]),
    (-0.95361 - 0.65024j, [0.02747 - 0.66450j]),
]


@pytest.fixture
def eight_poles():
    return hardy_from_terms(EIGHT_POLES)
