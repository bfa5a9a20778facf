"""Spectral decomposition of the finite-rank Hankel operator of a rational symbol.

The range of the operator attached to a degree-N symbol is spanned by the
partial-fraction basis 1/(x-p_j)^l.  On this basis the Gram matrix G and the
matrix M = C G / (-2 pi i) of the Hankel action are closed-form Cauchy
matrices (confluent ones for multiple poles); G and the shift T_f are each
one broadcast over the basis, and the block-diagonal coefficient matrix C
one scatter of the coefficients.  The basis is private to this module: a
`SpectralDecomposition` holds eigenvector coordinates only.  What the
assemblies read of the pole layout alone is one read-only plan per layout,
built once (`_plan`).  `_range_stack` assembles G, its conditioning test,
L and K below for a stack of symbols of one pole layout, one symbol being
a stack of one.  We orthonormalize through the Cholesky factor
conj(G) = L L^H, where the antilinear Hankel action becomes d -> K conj(d)
with K complex symmetric.  K = L^H C conj(L) / (-2 pi i) needs no L^-1:
G L^-T = conj(L).
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
made and checked, all on K and its one SVD.  The coordinates of g = 1 - b_u
come in closed form from `rational._g_coeffs` and pass the Blaschke
postcondition H_u g = u on K: with d = L^H c, K conj(d_g) - d_u is
L^H (M conj(c_g) - c_u), whose 2-norm is the L^2 norm of H_u g - u, so the
check is relative to ||u|| and never forms M.  Each eigenvalue cluster is
rotated once, so that g lies on its first vector.  `shift` is S(0) from
`_assemble_s`, which knows no time (`flow` passes it the angles and blocks
of S(t)): the closed form in (lambda, beta) off the clusters, and on the
cluster blocks T as computed in the basis, which is a check: off the
blocks it must match the closed form, on them meet the closure
T - T^* = (i/2pi) beta beta^H.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalError, PreconditionError
from .rational import HardyRational, _g_coeffs, _starts

GRAM_COND_LIMIT = 1e12
CLUSTER_RTOL = 1e-8       # relative gap that groups eigenvalues of H^2
RANK_RTOL = 1e-10         # lambda below this (vs. lambda_max) means rank-deficient
NU_RTOL = 1e-8            # nu below this (vs. ||g||) counts as a vanishing coordinate

__all__ = [
    "SpectralDecomposition",
    "TMatrix",
    "eigendecompose",
    "t_matrix",
    "classify_genericity",
    "decomposition_to_json",
]


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
    insensitive to the residual e_j -> -e_j ambiguity; `shift` holds S(0),
    the entries (T e_j, e_k) of the infinitesimal shift in the eigenbasis.
    """

    u: HardyRational
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


def _range_stack(layout: tuple[int, ...], p: np.ndarray, c: np.ndarray):
    """Gram matrices, conditioning test, Cholesky factors and K for a stack of symbols.

    The symbols share one flat layout (see `rational`): `layout` holds
    l - 1 for each basis entry 1/(x-p)^l, and `p` and `c`, shaped (..., N),
    the pole and the coefficient c_{p, l} of each entry, with leading axes
    for the stack.  For entries f_a = 1/(x-p)^l and f_b = 1/(x-q)^m the
    integral of f_a conj(f_b) is -2 pi i times the residue at p of
    (x-p)^-l (x-conj q)^-m, so the Gram matrix G[a, b] = (f_a, f_b) is

        G[a, b] = -2 pi i C(l+m-2, l-1) (-1)^(l-1) (p - conj q)^-(l+m-1),

    a Cauchy matrix for simple poles and a confluent one otherwise.
    Coordinate vectors pair as (h1, h2) = c2^H conj(G) c1, so with the lower
    Cholesky factor L of conj(G) the orthonormal coordinates are d = L^H c.
    The Hankel action is h -> M conj(h) with M = C G / (-2 pi i), C the
    block-diagonal `_coefficient_stack`: the principal part of u conj(f_a)
    at a pole p pairs u's coefficients with the Taylor coefficients of
    conj(f_a) at p, which are G[(p, r), a] / (-2 pi i).

    Returns G (..., N, N); the mask `ok` of the symbols whose G passes the
    conditioning test, 0 < e_min and e_max <= GRAM_COND_LIMIT * e_min for
    its eigenvalues; and, for those only and stacked along one axis, L and
    K = L^H C conj(L) / (-2 pi i), which is L^H M L^-T without inverting L.
    Each LAPACK call is one stacked call, so a stack of one takes the path
    of every other stack size.
    """
    plan = _plan(layout)
    G = plan.weight / (p[..., :, None] - p[..., None, :].conj()) ** plan.power
    G = 0.5 * (G + G.conj().swapaxes(-1, -2))
    evals = np.linalg.eigvalsh(G)
    ok = (evals[..., 0] > 0) & (evals[..., -1] <= GRAM_COND_LIMIT * evals[..., 0])
    L = np.linalg.cholesky(np.conj(G[ok]))
    Lbar = L.conj()
    K = Lbar.swapaxes(-1, -2) @ _coefficient_stack(layout, c[ok]) @ Lbar / (-2j * math.pi)
    return G, ok, L, K


_Plan = namedtuple("_Plan", "weight power at src simple chained")


@lru_cache(maxsize=64)
def _plan(layout: tuple[int, ...]) -> _Plan:
    """What the assemblies read of a pole layout alone, built once, arrays read-only: the
    Gram weight and exponent, the scatter C.flat[at] = c[src] and T_f's masks."""
    k, n = np.array(layout), len(layout)
    kk = k[:, None] + k
    # C(l+m-2, l-1) (-1)^(l-1) = (l+m-2)! * (-1)^(l-1) / (l-1)! * 1 / (m-1)!
    fact = np.array([float(math.factorial(i)) for i in range(2 * max(layout) + 1)])
    row = np.array([-2j * math.pi * (-1) ** l / math.factorial(l) for l in layout])
    # a pole's entries run from f (l = 1) to e: C[f+i, f+j] = c[f+i+j] for i + j < e - f
    starts = _starts(layout)
    at, src = zip(*[((f + i) * n + f + j, f + i + j) for f, e in zip(starts, starts[1:])
                    for i in range(e - f) for j in range(e - f - i)])
    plan = _Plan(fact[kk] * row[:, None] / fact[k], kk + 1, np.array(at), np.array(src),
                 k == 0, k[1:] > 0)
    for a in plan:
        a.flags.writeable = False
    return plan


def _range_basis(u: HardyRational) -> tuple[np.ndarray, np.ndarray]:
    """L and K of `_range_stack` for u, as a stack of one."""
    layout, p, c = u._flat
    if not c.any():
        raise PreconditionError("undefined for zero symbol")
    _, ok, L, K = _range_stack(layout, p[None], c[None])
    if not ok[0]:
        raise NumericalError("ill-conditioned range basis")
    return L[0], K[0]


def _coefficient_stack(layout: tuple[int, ...], c: np.ndarray) -> np.ndarray:
    """C[(p, l), (p, r)] = c_{p, l+r-1}, zero across poles and past the multiplicity,
    for the `layout` and `c` (..., N) of `_range_stack`; `_plan` holds the scatter."""
    n, plan = len(layout), _plan(layout)
    C = np.zeros(c.shape[:-1] + (n * n,), dtype=complex)
    C[..., plan.at] = c[..., plan.src]
    return C.reshape(c.shape[:-1] + (n, n))


def _cluster_indices(vals: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Clusters of the ascending vals, as index runs: the one rule, relative with no floor.
    vals[i] joins the run before it when within CLUSTER_RTOL * vals[i] of the run's first."""
    vals = vals.tolist()
    groups = [[0]]
    for i in range(1, len(vals)):
        if vals[i] - vals[groups[-1][0]] <= CLUSTER_RTOL * vals[i]:
            groups[-1].append(i)
        else:
            groups.append([i])
    return tuple(tuple(g) for g in groups)


@lru_cache(maxsize=64)
def _cluster_mask(clusters: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """same[k, j]: channels k and j share a cluster, built once per cluster layout, read-only."""
    label = np.array([c for c, grp in enumerate(clusters) for _ in grp])
    same = label[:, None] == label
    same.flags.writeable = False
    return same


def _assemble_s(lam, w, same, blocks) -> np.ndarray:
    """S(0)'s closed form at the angles w, and `blocks` where `same`; it knows no time.

    `eigendecompose` passes w = beta, its cluster mask and the basis T; the inverse
    spectral map w = beta, the identity mask and diag(gamma + i nu^2/4pi); and
    `flow._s_stack` (T, N) angles w = W(t) beta and the drifted (T, N, N) blocks."""
    lam2 = lam**2
    Y = lam * (w[..., :, None] * w.conj()[..., None, :])   # Y[k, j] = lambda_j w_k conj(w_j)
    d = lam2[:, None] - lam2 + same         # lambda_k^2 - lambda_j^2; + same keeps it finite
    wave = lam / (2j * math.pi * d) * (Y - Y.swapaxes(-1, -2))
    np.copyto(wave, blocks, where=same)
    return wave


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


def _t_matrix_f(u: HardyRational, g_coords: np.ndarray) -> np.ndarray:
    """Infinitesimal shift in the partial-fraction basis of u's range.

    T(1/(x-p)^l) = 1/(x-p)^(l-1) + p/(x-p)^l for l >= 2; for l = 1 the
    produced constant cancels against Lambda(f) b_u = Lambda(f)(1 - g),
    leaving p/(x-p) + g.
    """
    plan, p = _plan(u._flat[0]), u._flat[1]
    T = g_coords[:, None] * plan.simple
    flat = T.reshape(-1)                          # a view: its diagonals are strided slices
    flat[:: len(p) + 1] += p
    flat[1 :: len(p) + 1] += plan.chained
    return T


def eigendecompose(u: HardyRational, rank_tol: float = RANK_RTOL) -> SpectralDecomposition:
    """Full spectral data of the squared Hankel operator of u.

    With the default `rank_tol` a numerically rank-deficient symbol is
    rejected.  Passing a larger tolerance instead truncates the channels
    with lambda below rank_tol * lambda_max; tangent-perturbation
    diagnostics use this to discard the O(h^2)-sized spurious channels of
    u + h * (tangent field).
    """
    L, K = _range_basis(u)
    U, sigma, Vh = np.linalg.svd(K)     # the sampler's stacked SVD gives bitwise these lambdas
    Lh = L.conj().T
    lambdas, U, Vbar = sigma[::-1], U[:, ::-1], Vh[::-1].T     # Vbar: columns conj(v_j)
    if lambdas[0] < rank_tol * lambdas[-1]:
        if rank_tol <= RANK_RTOL:
            raise PreconditionError("numerically rank-deficient symbol")
        keep = lambdas >= rank_tol * lambdas[-1]
        lambdas, U, Vbar = lambdas[keep], U[:, keep], Vbar[:, keep]
    clusters = _cluster_indices(lambdas**2)

    # Blaschke postcondition H_u g = u on K, as an L^2 norm relative to ||u||
    g_coords_f = _g_coeffs(u)
    d_g, d_u = Lh @ g_coords_f, Lh @ u._flat[2]
    r = K @ d_g.conj() - d_u
    if np.vdot(r, r).real > 1e-20 * np.vdot(d_u, d_u).real:
        raise NumericalError("Blaschke postcondition H_u(g) = u failed")

    # Takagi: conj(V) = U D with D unitary and symmetric, so W = U sqrt(D)
    # gives K = W diag(lambda) W^T, i.e. K conj(w_j) = lambda_j w_j
    evecs = U * np.sqrt((U.conj() * Vbar).sum(axis=0))
    ref = lambdas.copy()
    tol = np.full(len(lambdas), 1e-8 * lambdas[-1])
    for grp in clusters:
        if len(grp) > 1:
            c = list(grp)
            w, X = np.linalg.eig(U[:, c].conj().T @ Vbar[:, c])
            root = (X * np.sqrt(w)) @ np.linalg.inv(X)
            evecs[:, c] = _concentrate_g(U[:, c] @ root, d_g)
            ref[c], tol[c] = np.mean(lambdas[c]), 1e-7 * lambdas[-1]
    resid2 = (abs(K @ evecs.conj() - evecs * ref) ** 2).sum(axis=0)   # squared column norms
    if (resid2 > tol**2).any():
        raise NumericalError("Takagi eigenvector residual too large")

    betas = evecs.conj().T @ d_g
    nus = np.abs(betas)
    gnorm = math.sqrt(np.vdot(d_g, d_g).real)
    angle = np.arctan2(betas.imag, betas.real)          # np.angle without its wrapper
    two_phis = np.where(nus > NU_RTOL * max(gnorm, 1e-300), 2.0 * angle % (2.0 * math.pi), 0.0)

    # (T e_j, e_k) = c_k^H conj(G) T_f c_j with c = L^-H w and conj(G) = L L^H
    Te = (L @ evecs).conj().T @ _t_matrix_f(u, g_coords_f) @ np.linalg.solve(Lh, evecs)
    shift = _assemble_s(lambdas, betas, _cluster_mask(clusters), Te)
    # on the cluster blocks shift is Te, and this is the closure T - T^* = (i/2pi) beta beta^H;
    # off them the closed form meets that identity, so this is Te - shift up to rounding
    gap = Te - shift.conj().T + betas[:, None] * betas.conj() / (2j * math.pi)
    if abs(gap).max() > 1e-8 * abs(Te).max():
        raise NumericalError("shift closure violated")

    dec = SpectralDecomposition(
        u=u,
        lambdas=lambdas,
        evecs=evecs,
        betas=betas,
        nus=nus,
        two_phis=two_phis,
        gammas=shift.diagonal().real,
        shift=shift,
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
    """non_generic when two lambda^2 share a cluster or a nu_j vanishes, generic when
    two soliton speeds lambda^2 nu^2 share one by the same rule, `_cluster_indices`."""
    nus = dec.nus
    if len(dec.clusters) < dec.size or nus.min() <= NU_RTOL * max(math.sqrt(nus @ nus), 1e-300):
        return "non_generic"
    if len(_cluster_indices(np.sort(dec.lambdas**2 * nus**2))) < dec.size:
        return "generic"
    return "strongly_generic"


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
