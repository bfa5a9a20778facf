import collections

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from szego.rational import hardy_from_terms, simple_pole


def _call_counter(monkeypatch, module, names) -> collections.Counter:
    """Counts of the calls to the functions `names` of `module` from here on, by name."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


def linalg_calls(monkeypatch) -> collections.Counter:
    """Counts of the calls to every function of np.linalg from here on, by name."""
    return _call_counter(monkeypatch, np.linalg, [   # LinAlgError is a class, not a call
        name for name in np.linalg.__all__ if not isinstance(getattr(np.linalg, name), type)])


def fft_calls(monkeypatch) -> collections.Counter:
    """Counts of the calls to every function of np.fft from here on, by name."""
    return _call_counter(monkeypatch, np.fft, np.fft.__all__)


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


def pole_flow(u0, t):
    """u(t) from the pole dynamics of u0 = sum_j c_j/(x - p_j): an independent flow reference.

    Pi(|u|^2 u) is the sum of the principal parts of u^2 conj(u) at the p_j,
    so i u_t = Pi(|u|^2 u) moves the poles and residues as

        p_j' = -i c_j ubar(p_j),
        c_j' = -i (c_j^2 ubar'(p_j) + 2 c_j r_j ubar(p_j)),

    with ubar(z) = sum_k conj(c_k)/(z - conj p_k) and r_j = sum_{k != j}
    c_k/(p_j - p_k): no Hankel matrix, Gram matrix or eigensolve.  Solved
    by DOP853 at rtol 1e-13 on every component: atol sits below the smallest
    |p_j| and |c_j|, since one at the largest (rtol max|y|) leaves the
    16-pole coordinate draw 5e-9 off.  Simple poles only.  A pole collision
    along the way, or stiffness, fails the integrator, never a comparison.
    """
    assert all(term.multiplicity == 1 for term in u0.terms), "simple poles only"
    y0 = np.array([term.pole for term in u0.terms] + [term.coeffs[0] for term in u0.terms])
    n = len(u0.terms)

    def rhs(_, y):
        p, c = y[:n], y[n:]
        dz = p[:, None] - p.conj()
        ubar = (c.conj() / dz).sum(axis=1)
        dubar = -(c.conj() / dz**2).sum(axis=1)
        gap = p[:, None] - p
        np.fill_diagonal(gap, np.inf)
        r = (c / gap).sum(axis=1)
        return np.concatenate([-1j * c * ubar, -1j * (c * c * dubar + 2 * c * r * ubar)])

    sol = solve_ivp(rhs, (0.0, t), y0, method="DOP853", rtol=1e-13,
                    atol=1e-16 * np.abs(y0).min())
    assert sol.success, sol.message
    p, c = sol.y[:n, -1], sol.y[n:, -1]
    return hardy_from_terms([(pj, [cj]) for pj, cj in zip(p, c)])


def mp_l2_norm(f, dps=50):
    """||f||_L2 of f = sum_j c_j/(x - p_j) at dps digits, from its own partial fractions:
    ||f||^2 = sum_jk c_j conj(c_k) (-2 pi i)/(p_j - conj p_k).  Simple poles only."""
    assert all(term.multiplicity == 1 for term in f.terms), "simple poles only"
    with mp.workdps(dps):
        p = [mp.mpc(complex(term.pole)) for term in f.terms]
        c = [mp.mpc(complex(term.coeffs[0])) for term in f.terms]
        total = sum(c[j] * mp.conj(c[k]) * (-2j * mp.pi) / (p[j] - mp.conj(p[k]))
                    for j in range(len(p)) for k in range(len(p)))
        return float(mp.sqrt(mp.re(total)))


def mp_sobolev_norms(dec, t, ss, dps=60):
    """||u(t)||_{Hdot^s} for every s of ss from the stored decomposition dec, at dps digits.

    S(t) is `flow`'s: the closed form at the angles w = W(t) beta off the
    eigenvalue clusters, and on them the Hermitian part of `dec.shift` plus
    (i/4pi + t lambda_j^2/2pi) beta_k conj(beta_j), so the closure
    S - S^* = (i/2pi) w w^H holds exactly.  The poles of u(t) are the
    eigenvalues E_k of A = conj(S) (`mp.eig`) and its residues
    (i/2pi)(a^T V)_k (V^-1 b)_k with a = Lam conj(w), b = conj(w).  Each norm is
    the Gamma formula of `rational._sobolev_norms` for simple poles:
    2 pi Gamma(2s+1) sum c_k conj(c_j) / (i (E_k - conj E_j))^(2s+1).
    """
    with mp.workdps(dps):
        lam = [mp.mpf(float(x)) for x in dec.lambdas]
        beta = [mp.mpc(complex(b)) for b in dec.betas]
        w = [mp.exp(0.5j * mp.mpf(t) * x**2) * b for x, b in zip(lam, beta)]
        label = {k: c for c, grp in enumerate(dec.clusters) for k in grp}
        n, two_pi = dec.size, 2 * mp.pi
        S = mp.matrix(n, n)
        for k in range(n):
            for j in range(n):
                if label[k] == label[j]:
                    herm = (mp.mpc(complex(dec.shift[k, j]))
                            + mp.conj(mp.mpc(complex(dec.shift[j, k])))) / 2
                    S[k, j] = herm + (1j / (2 * two_pi) + t * lam[j]**2 / two_pi) \
                        * beta[k] * mp.conj(beta[j])
                else:
                    S[k, j] = lam[j] / (1j * two_pi * (lam[k]**2 - lam[j]**2)) * (
                        lam[j] * w[k] * mp.conj(w[j]) - lam[k] * w[j] * mp.conj(w[k]))
        A = mp.matrix([[mp.conj(S[k, j]) for j in range(n)] for k in range(n)])
        a = mp.matrix([lam[k] * mp.conj(w[k]) for k in range(n)])
        b = mp.matrix([mp.conj(w[k]) for k in range(n)])
        E, V = mp.eig(A)
        aV, Vb = V.T * a, mp.lu_solve(V, b)
        c = [1j / two_pi * aV[k] * Vb[k] for k in range(n)]
        out = []
        for s in ss:
            q = 2 * mp.mpf(s) + 1
            total = sum(c[k] * mp.conj(c[j]) / (1j * (E[k] - mp.conj(E[j]))) ** q
                        for k in range(n) for j in range(n))
            out.append(float(mp.sqrt(two_pi * mp.gamma(q) * mp.re(total))))
        return out


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
