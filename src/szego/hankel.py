"""Spectral decomposition of the finite-rank Hankel operator of a rational symbol.

The range of the operator attached to a degree-N symbol is spanned by the
partial-fraction basis 1/(x-p_j)^l.  On this basis the Gram matrix and the
matrix of the Hankel action are closed-form Cauchy matrices (confluent ones
for multiple poles), assembled by broadcasting over the poles.  We
orthonormalize through the Cholesky factor of the Gram matrix, where the
antilinear Hankel action becomes d -> K conj(d) with K complex symmetric.
The antilinear eigenrelation H e_j = lambda_j e_j with lambda_j > 0 is then
the Takagi factorization K = W diag(lambda) W^T, read off one SVD
K = U diag(lambda) V^H: conj(V) = U D with D unitary and symmetric, and
W = U sqrt(D).  D is diagonal except on clusters of equal lambda, where its
symmetric unitary square root spans the fixed real subspace of the
antiunitary involution H/lambda.

Spectral coordinates extracted here: lambda_j, beta_j = (g, e_j),
nu_j = |beta_j|, the angle 2*phi_j = arg(beta_j^2), and the generalized
angle gamma_j = Re (T e_j, e_j), where T f = x f - Lambda(f) b_u is the
infinitesimal shift on the range.

`eigendecompose` is the one place where g, T and the cluster basis are
made and checked.  The coordinates of g = 1 - b_u come in closed form from
`rational._g_coeffs` and pass the Blaschke postcondition H_u g = u as
M conj(c_g) = c_u with the Hankel matrix M.  Each eigenvalue cluster is
rotated once, so that g lies on its first vector.  T is stored in the
eigenbasis as `shift` after its closure check; the flow layer reads it
from there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, PreconditionError
from .rational import HardyRational, _g_coeffs, hardy_from_terms

GRAM_COND_LIMIT = 1e12
CLUSTER_RTOL = 1e-8       # relative gap that groups eigenvalues of H^2
RANK_RTOL = 1e-10         # lambda below this (vs. lambda_max) means rank-deficient
NU_RTOL = 1e-8            # nu below this (vs. ||g||) counts as a vanishing coordinate

__all__ = [
    "RangeBasis",
    "SpectralDecomposition",
    "TMatrix",
    "build_range_basis",
    "hankel_matrix",
    "eigendecompose",
    "t_matrix",
    "classify_genericity",
    "eigenfunction",
    "coords_to_function",
    "decomposition_to_json",
]


@dataclass(frozen=True)
class RangeBasis:
    """Partial-fraction basis of Ran(H_u) with its Gram geometry.

    `index` enumerates the basis: entry a is (pole, l) meaning 1/(x-pole)^l.
    `gram` is the Hermitian positive-definite matrix G[a, b] = (f_a, f_b).
    Coordinate vectors pair as (h1, h2) = c2^H conj(G) c1, so `chol` holds
    the lower Cholesky factor L of conj(G) and orthonormalized coordinates
    are d = L^H c.
    """

    index: tuple[tuple[complex, int], ...]
    gram: np.ndarray
    chol: np.ndarray

    @property
    def size(self) -> int:
        return len(self.index)

    def basis_fn(self, a: int) -> HardyRational:
        pole, l = self.index[a]
        return hardy_from_terms([(pole, [0.0j] * (l - 1) + [1.0 + 0.0j])])


@dataclass(frozen=True)
class TMatrix:
    """Matrix entries t[k, j] = (T e_j, e_k) and its adjoint."""

    t: np.ndarray
    t_star: np.ndarray


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendata of the squared Hankel operator plus angle coordinates.

    `evecs` columns are the phase-fixed eigenvectors in the orthonormalized
    range basis; `clusters` groups indices of (numerically) equal
    eigenvalues; `two_phis` stores 2*phi_j in [0, 2pi), the quantity that is
    insensitive to the residual e_j -> -e_j ambiguity; `shift` holds the
    entries (T e_j, e_k) of the infinitesimal shift in the eigenbasis.
    """

    u: HardyRational
    rb: RangeBasis
    lambdas: np.ndarray
    evecs: np.ndarray
    betas: np.ndarray
    nus: np.ndarray
    two_phis: np.ndarray
    gammas: np.ndarray
    shift: np.ndarray
    clusters: tuple[tuple[int, ...], ...]
    genericity: str

    @property
    def size(self) -> int:
        return len(self.lambdas)


def build_range_basis(u: HardyRational) -> RangeBasis:
    """Enumerate 1/(x-p_j)^l and assemble the Gram matrix in closed form.

    For f_a = 1/(x-p)^l and f_b = 1/(x-q)^m the integral of f_a conj(f_b)
    is -2 pi i times the residue at p of (x-p)^-l (x-conj q)^-m:

        G[a, b] = -2 pi i C(l+m-2, l-1) (-1)^(l-1) (p - conj q)^-(l+m-1),

    a Cauchy matrix for simple poles and a confluent one otherwise.
    """
    if u.is_zero():
        raise PreconditionError("undefined for zero symbol")
    index = tuple((t.pole, l) for t in u.terms for l in range(1, t.multiplicity + 1))
    p = np.array([pole for pole, _ in index])
    ls = [l for _, l in index]
    binom = np.array([[math.comb(l + m - 2, l - 1) for m in ls] for l in ls])
    sign = (-1.0) ** (np.array(ls)[:, None] - 1)
    power = np.add.outer(ls, ls) - 1
    G = -2j * math.pi * sign * binom / (p[:, None] - p.conj()[None, :]) ** power
    G = 0.5 * (G + G.conj().T)
    evals = np.linalg.eigvalsh(G)
    if evals[0] <= 0 or evals[-1] / evals[0] > GRAM_COND_LIMIT:
        raise NumericalError("ill-conditioned range basis")
    L = np.linalg.cholesky(np.conj(G))
    return RangeBasis(index, G, L)


def coords_to_function(c: np.ndarray, rb: RangeBasis) -> HardyRational:
    pairs = {}
    for a, (pole, l) in enumerate(rb.index):
        key = pole
        if key not in pairs:
            pairs[key] = []
        stack = pairs[key]
        while len(stack) < l:
            stack.append(0.0j)
        stack[l - 1] += complex(c[a])
    return hardy_from_terms(list(pairs.items()))


def hankel_matrix(u: HardyRational, rb: RangeBasis) -> np.ndarray:
    """M with H_u f_a = sum_b M[b, a] f_b; the map itself is h -> M conj(h).

    The principal part of u conj(f_a) at a pole p of u pairs the coefficients
    c_{p,k} of u with the Taylor coefficients of conj(f_a) at p, which are
    the Gram entries G[(p, r), a] / (-2 pi i).  Hence M = C G / (-2 pi i)
    with C block-diagonal per pole, C[(p, l), (p, r)] = c_{p, l+r-1} (zero
    past the multiplicity); for simple poles M[j, b] = c_j / (p_j - conj p_b).
    """
    if not {(t.pole, t.multiplicity) for t in u.terms} <= set(rb.index):
        raise NumericalError("range leakage")
    coeffs = {t.pole: t.coeffs for t in u.terms}
    C = np.zeros((rb.size, rb.size), dtype=complex)
    for a, (p, l) in enumerate(rb.index):
        cs = coeffs.get(p, ())
        for b, (q, r) in enumerate(rb.index):
            if q == p and l + r - 1 <= len(cs):
                C[a, b] = cs[l + r - 2]
    return C @ rb.gram / (-2j * math.pi)


def _cluster_indices(vals: np.ndarray) -> tuple[tuple[int, ...], ...]:
    groups = [[0]]
    for i in range(1, len(vals)):
        if vals[i] - vals[groups[-1][0]] <= CLUSTER_RTOL * max(vals[i], vals[-1] * 1e-6):
            groups[-1].append(i)
        else:
            groups.append([i])
    return tuple(tuple(g) for g in groups)


def _concentrate_g(fixed: np.ndarray, d_g: np.ndarray) -> np.ndarray:
    """Real rotation making all but the first g-coordinate of a cluster zero.

    Inside a conjugation-fixed cluster the coordinates (g, e_k) share one
    phase (their pairwise conjugate products are real), so a real orthogonal
    rotation can concentrate them on one basis vector.  This keeps the flow
    matrix drift confined to a single entry of the cluster, which preserves
    the precision of the near-real eigenvalue track for large times.
    """
    b = np.array([np.vdot(fixed[:, k], d_g) for k in range(fixed.shape[1])])
    if np.max(np.abs(b)) == 0.0:
        return fixed
    k0 = int(np.argmax(np.abs(b)))
    phase = b[k0] / abs(b[k0])
    r = (b / phase).real  # signed real coordinate vector
    m = fixed.shape[1]
    R = np.eye(m)
    R[:, 0] = r / np.linalg.norm(r)
    # complete to an orthonormal real basis
    Q, _ = np.linalg.qr(R)
    if np.dot(Q[:, 0], R[:, 0]) < 0:
        Q = -Q
    return fixed @ Q


def _t_matrix_f(rb: RangeBasis, g_coords: np.ndarray) -> np.ndarray:
    """Infinitesimal shift in the partial-fraction basis.

    T(1/(x-p)^l) = 1/(x-p)^(l-1) + p/(x-p)^l for l >= 2; for l = 1 the
    produced constant cancels against Lambda(f) b_u = Lambda(f)(1 - g),
    leaving p/(x-p) + g.
    """
    n = rb.size
    pos = {}
    for a, (pole, l) in enumerate(rb.index):
        pos[(pole, l)] = a
    T = np.zeros((n, n), dtype=complex)
    for a, (pole, l) in enumerate(rb.index):
        T[a, a] += pole
        if l >= 2:
            T[pos[(pole, l - 1)], a] += 1.0
        else:
            T[:, a] += g_coords
    return T


class _TakagiSVD(NamedTuple):
    rb: RangeBasis
    Linv: np.ndarray
    M: np.ndarray
    K: np.ndarray
    U: np.ndarray
    sigma: np.ndarray
    Vh: np.ndarray


def _takagi_svd(u: HardyRational) -> _TakagiSVD:
    """Range basis, Hankel matrix M, K = L^H M L^-T and the SVD of K.

    The singular values `sigma` (descending) are the lambda_j; the sampler
    rejects draws on them alone before paying for the rest of
    `eigendecompose`.
    """
    rb = build_range_basis(u)
    Linv = np.linalg.inv(rb.chol)
    M = hankel_matrix(u, rb)
    # the antilinear action d -> K conj(d) in the orthonormal basis; K = K^T
    K = rb.chol.conj().T @ M @ Linv.T
    return _TakagiSVD(rb, Linv, M, K, *np.linalg.svd(K))


def eigendecompose(u: HardyRational, rank_tol: float = RANK_RTOL) -> SpectralDecomposition:
    """Full spectral data of the squared Hankel operator of u.

    With the default `rank_tol` a numerically rank-deficient symbol is
    rejected.  Passing a larger tolerance instead truncates the channels
    with lambda below rank_tol * lambda_max; tangent-perturbation
    diagnostics use this to discard the O(h^2)-sized spurious channels of
    u + h * (tangent field).
    """
    rb, Linv, M, K, U, sigma, Vh = _takagi_svd(u)
    L = rb.chol
    lambdas = sigma[::-1]
    U = U[:, ::-1]
    Vbar = Vh[::-1].T  # columns conj(v_j)
    if lambdas[0] < rank_tol * lambdas[-1]:
        if rank_tol <= RANK_RTOL:
            raise PreconditionError("numerically rank-deficient symbol")
        keep = lambdas >= rank_tol * lambdas[-1]
        lambdas, U, Vbar = lambdas[keep], U[:, keep], Vbar[:, keep]
    clusters = _cluster_indices(lambdas**2)

    # Blaschke postcondition H_u g = u, in partial-fraction coordinates
    g_coords_f = _g_coeffs(u)
    u_coords = np.array([c for t in u.terms for c in t.coeffs])
    if np.max(np.abs(M @ g_coords_f.conj() - u_coords)) > 1e-10 * max(1.0, u.max_coeff()):
        raise NumericalError("Blaschke postcondition H_u(g) = u failed")
    d_g = L.conj().T @ g_coords_f

    # Takagi: conj(V) = U D with D unitary and symmetric, so W = U sqrt(D)
    # gives K = W diag(lambda) W^T, i.e. K conj(w_j) = lambda_j w_j
    evecs = U * np.sqrt(np.sum(U.conj() * Vbar, axis=0))
    ref = lambdas.copy()
    tol = np.full(len(lambdas), 1e-8 * max(1.0, lambdas[-1]))
    for grp in clusters:
        if len(grp) > 1:
            c = list(grp)
            w, X = np.linalg.eig(U[:, c].conj().T @ Vbar[:, c])
            root = (X * np.sqrt(w)) @ np.linalg.inv(X)
            evecs[:, c] = _concentrate_g(U[:, c] @ root, d_g)
            lam = float(np.mean(lambdas[c]))
            ref[c] = lam
            tol[c] = 1e-7 * max(1.0, lam)
    resid = np.linalg.norm(K @ evecs.conj() - evecs * ref, axis=0)
    if np.any(resid > tol):
        raise NumericalError("Takagi eigenvector residual too large")

    betas = evecs.conj().T @ d_g
    nus = np.abs(betas)
    gnorm = float(np.linalg.norm(d_g))
    two_phis = np.where(
        nus > NU_RTOL * max(gnorm, 1e-300),
        np.mod(2.0 * np.angle(betas), 2.0 * math.pi),
        0.0,
    )

    Tq = L.conj().T @ _t_matrix_f(rb, g_coords_f) @ Linv.conj().T
    Te = evecs.conj().T @ Tq @ evecs
    # columns of T stay inside the range basis by construction, so closure
    # is checked through the eigen-adjoint identity T - T^* = (i/2pi) beta beta^H
    gap = Te - (Te.conj().T - (1.0 / (2j * math.pi)) * np.outer(betas, betas.conj()))
    if np.max(np.abs(gap)) > 1e-8 * max(1.0, float(np.max(np.abs(Te)))):
        raise NumericalError("shift closure violated")

    dec = SpectralDecomposition(
        u=u,
        rb=rb,
        lambdas=lambdas,
        evecs=evecs,
        betas=betas,
        nus=nus,
        two_phis=two_phis,
        gammas=np.real(np.diag(Te)),
        shift=Te,
        clusters=clusters,
        genericity="",
    )
    genericity = classify_genericity(dec)
    object.__setattr__(dec, "genericity", genericity)
    return dec


def t_matrix(u: HardyRational, dec: SpectralDecomposition) -> TMatrix:
    """The shift matrix `eigendecompose` stored and checked, plus its adjoint."""
    return TMatrix(dec.shift, dec.shift.conj().T)


def classify_genericity(dec: SpectralDecomposition) -> str:
    """strongly_generic / generic / non_generic per eigenvalue and nu gaps."""
    if any(len(g) > 1 for g in dec.clusters):
        return "non_generic"
    lam2 = dec.lambdas**2
    gaps = np.diff(lam2)
    if np.any(gaps <= CLUSTER_RTOL * lam2[-1]):
        return "non_generic"
    gnorm = float(np.linalg.norm(dec.nus))
    if np.any(dec.nus <= NU_RTOL * max(gnorm, 1e-300)):
        return "non_generic"
    speeds = np.sort(lam2 * dec.nus**2)
    if np.any(np.diff(speeds) <= CLUSTER_RTOL * speeds[-1]):
        return "generic"
    return "strongly_generic"


def eigenfunction(dec: SpectralDecomposition, j: int) -> HardyRational:
    """The eigenvector e_j as an actual rational function."""
    d = dec.evecs[:, j]
    c = np.linalg.solve(dec.rb.chol.conj().T, d)
    return coords_to_function(c, dec.rb)


def decomposition_to_json(dec: SpectralDecomposition) -> dict:
    return {
        "lambda": [float(x) for x in dec.lambdas],
        "nu": [float(x) for x in dec.nus],
        "two_phi": [float(x) for x in dec.two_phis],
        "gamma": [float(x) for x in dec.gammas],
        "evecs": [
            [[z.real, z.imag] for z in dec.evecs[:, j]] for j in range(dec.size)
        ],
        "genericity": dec.genericity,
    }
