"""Spectral decomposition of the finite-rank Hankel operator of a rational symbol.

The range of the operator attached to a degree-N symbol is spanned by the
partial-fraction basis 1/(x-p_j)^l.  On this basis the Gram matrix G and the
matrix M = C G / (-2 pi i) of the Hankel action are closed-form Cauchy
matrices (confluent ones for multiple poles); G, the block-diagonal
coefficient matrix C and the shift T_f are each one broadcast over the
basis.  We orthonormalize through the Cholesky factor conj(G) = L L^H, where
the antilinear Hankel action becomes d -> K conj(d) with K complex
symmetric.  K = L^H C conj(L) / (-2 pi i) needs no L^-1: G L^-T = conj(L).
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
    p = np.array([q for q, _ in index])
    k = np.array([l - 1 for _, l in index])
    kk = k[:, None] + k
    # C(l+m-2, l-1) (-1)^(l-1) = (l+m-2)! * (-1)^(l-1) / (l-1)! * 1 / (m-1)!
    fact = np.array([float(math.factorial(i)) for i in range(2 * max(l for _, l in index) - 1)])
    row = np.array([-2j * math.pi * (-1) ** (l - 1) / math.factorial(l - 1) for _, l in index])
    G = fact[kk] * row[:, None] / fact[k] / (p[:, None] - p.conj()) ** (kk + 1)
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


def _coefficient_matrix(u: HardyRational, rb: RangeBasis) -> np.ndarray:
    """C[(p, l), (p, r)] = c_{p, l+r-1}, zero across poles and past the multiplicity."""
    coeffs = {t.pole: t.coeffs for t in u.terms}
    width = max(l for _, l in rb.index)
    # row a holds c_{p, l}, c_{p, l+1}, ... for entry a = (p, l), so C[a, b] is
    # its column r - 1 for b = (p, r); first[a] is the entry (p, 1)
    shifted, first = [], []
    for a, (p, l) in enumerate(rb.index):
        cs = coeffs.get(p, ())[l - 1 :]
        shifted += (*cs, *[0j] * (width - len(cs)))
        first.append(a - l + 1)
    first = np.array(first)
    rows = np.array(shifted, dtype=complex).reshape(-1, width)
    return rows.take(np.arange(len(first)) - first, axis=1) * (first[:, None] == first)


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
    return _coefficient_matrix(u, rb) @ rb.gram / (-2j * math.pi)


def _cluster_indices(vals: np.ndarray) -> tuple[tuple[int, ...], ...]:
    vals = vals.tolist()
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
    b = fixed.conj().T @ d_g
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
    p = np.array([q for q, _ in rb.index])
    simple = np.array([l == 1 for _, l in rb.index])
    T = g_coords[:, None] * simple
    flat = T.reshape(-1)                          # a view: its diagonals are strided slices
    flat[:: len(p) + 1] += p
    flat[1 :: len(p) + 1] += ~simple[1:]
    return T


class _TakagiSVD(NamedTuple):
    rb: RangeBasis
    M: np.ndarray
    K: np.ndarray
    U: np.ndarray
    sigma: np.ndarray
    Vh: np.ndarray


def _takagi_svd(u: HardyRational) -> _TakagiSVD:
    """Range basis, Hankel matrix M, K = L^H C conj(L) / (-2 pi i) and its SVD.

    K is the antilinear action d -> K conj(d) in the orthonormal basis, the
    L^H M L^-T of M = C G / (-2 pi i): conj(G) = L L^H gives G L^-T = conj(L),
    so K is formed without inverting L, and is more accurate for it.  The
    singular values `sigma` (descending) are the lambda_j; the sampler
    rejects draws on them alone before paying for the rest of
    `eigendecompose`.
    """
    rb = build_range_basis(u)
    M = hankel_matrix(u, rb)
    Lbar = rb.chol.conj()
    K = Lbar.T @ _coefficient_matrix(u, rb) @ Lbar / (-2j * math.pi)
    return _TakagiSVD(rb, M, K, *np.linalg.svd(K))


def eigendecompose(u: HardyRational, rank_tol: float = RANK_RTOL) -> SpectralDecomposition:
    """Full spectral data of the squared Hankel operator of u.

    With the default `rank_tol` a numerically rank-deficient symbol is
    rejected.  Passing a larger tolerance instead truncates the channels
    with lambda below rank_tol * lambda_max; tangent-perturbation
    diagnostics use this to discard the O(h^2)-sized spurious channels of
    u + h * (tangent field).
    """
    rb, M, K, U, sigma, Vh = _takagi_svd(u)
    L = rb.chol
    Lh = L.conj().T
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
    if abs(M @ g_coords_f.conj() - u_coords).max() > 1e-10 * max(1.0, u.max_coeff()):
        raise NumericalError("Blaschke postcondition H_u(g) = u failed")
    d_g = Lh @ g_coords_f

    # Takagi: conj(V) = U D with D unitary and symmetric, so W = U sqrt(D)
    # gives K = W diag(lambda) W^T, i.e. K conj(w_j) = lambda_j w_j
    evecs = U * np.sqrt((U.conj() * Vbar).sum(axis=0))
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
    resid2 = (abs(K @ evecs.conj() - evecs * ref) ** 2).sum(axis=0)   # squared column norms
    if (resid2 > tol**2).any():
        raise NumericalError("Takagi eigenvector residual too large")

    betas = evecs.conj().T @ d_g
    nus = np.abs(betas)
    gnorm = math.sqrt(np.vdot(d_g, d_g).real)
    two_phis = np.where(
        nus > NU_RTOL * max(gnorm, 1e-300),
        2.0 * np.angle(betas) % (2.0 * math.pi),
        0.0,
    )

    # (T e_j, e_k) = c_k^H conj(G) T_f c_j with c = L^-H w and conj(G) = L L^H
    Te = (L @ evecs).conj().T @ _t_matrix_f(rb, g_coords_f) @ np.linalg.solve(Lh, evecs)
    # columns of T stay inside the range basis by construction, so closure
    # is checked through the eigen-adjoint identity T - T^* = (i/2pi) beta beta^H
    gap = Te - Te.conj().T + betas[:, None] * betas.conj() / (2j * math.pi)
    if abs(gap).max() > 1e-8 * max(1.0, abs(Te).max()):
        raise NumericalError("shift closure violated")

    dec = SpectralDecomposition(
        u=u,
        rb=rb,
        lambdas=lambdas,
        evecs=evecs,
        betas=betas,
        nus=nus,
        two_phis=two_phis,
        gammas=Te.diagonal().real,
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
    if len(dec.clusters) < dec.size:
        return "non_generic"
    lam2 = dec.lambdas**2
    if (lam2[1:] - lam2[:-1] <= CLUSTER_RTOL * lam2[-1]).any():
        return "non_generic"
    gnorm = math.sqrt(dec.nus @ dec.nus)
    if (dec.nus <= NU_RTOL * max(gnorm, 1e-300)).any():
        return "non_generic"
    speeds = np.sort(lam2 * dec.nus**2)
    if (speeds[1:] - speeds[:-1] <= CLUSTER_RTOL * speeds[-1]).any():
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
