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
L and K below for a stack of symbols of one pole layout; a one-symbol call
(`_range_basis`, so every `eigendecompose`) is its stack of one, on the same
path as the sampler's stacks.  We orthonormalize through the Cholesky factor
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
cluster blocks the Hermitian part of the basis T plus `_closure`, so S(0)
meets T - T^* = (i/2pi) beta beta^H exactly.  The basis T is a check: off
the blocks it must match the closed form, on them meet that closure.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError, NumericalError, PreconditionError
from .rational import HardyRational, _g_coeffs, _starts

GRAM_COND_LIMIT = 1e12
CLUSTER_RTOL = 1e-8       # relative gap that groups eigenvalues of H^2
RANK_RTOL = 1e-10         # lambda below this (vs. lambda_max) means rank-deficient
NU_RTOL = 1e-8            # nu below this (vs. ||g||) counts as a vanishing coordinate
_LAMBDA_MAX = math.sqrt(np.finfo(float).max)   # above it lambda^2 overflows

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

    Returns G (..., N, N); the mask `ok` of the symbols whose DGD, D = diag(G)^-1/2,
    passes the conditioning test, 0 < e_min and e_max <= GRAM_COND_LIMIT * e_min
    for its eigenvalues (the second asks both: DGD's diagonal is 1, so e_max > 0); and,
    for those only and stacked along one axis, G's own L and
    K = L^H C conj(L) / (-2 pi i), which is L^H M L^-T without inverting L.
    Each LAPACK call is one stacked call, so a stack of one takes the path
    of every other stack size; a stack that passes whole is not copied by the mask.
    """
    plan = _plan(layout)
    D = p[..., :, None] - p[..., None, :].conj()
    G = plan.weight / (D if plan.power is None else D ** plan.power)
    G = 0.5 * (G + G.conj().swapaxes(-1, -2))
    d = G.diagonal(axis1=-2, axis2=-1).real ** -0.5
    evals = np.linalg.eigvalsh(d[..., :, None] * G * d[..., None, :])
    ok = evals[..., -1] <= GRAM_COND_LIMIT * evals[..., 0]
    G_ok, c_ok = (G, c) if np.count_nonzero(ok) == ok.size else (G[ok], c[ok])
    L = np.linalg.cholesky(np.conj(G_ok))
    Lbar = L.conj()
    K = Lbar.swapaxes(-1, -2) @ _coefficient_stack(layout, c_ok) @ Lbar / (-2j * math.pi)
    return G, ok, L, K


_Plan = namedtuple("_Plan", "weight power at src simple chained")


@lru_cache(maxsize=64)
def _plan(layout: tuple[int, ...]) -> _Plan:
    """What the assemblies read of a pole layout alone, built once, arrays read-only: the
    Gram weight and exponent (None for simple poles, where the power is the identity),
    the scatter C.flat[at] = c[src] and T_f's masks, as the complex 1s and 0s a bool casts to."""
    k, n = np.array(layout), len(layout)
    kk = k[:, None] + k
    # C(l+m-2, l-1) (-1)^(l-1) = (l+m-2)! * (-1)^(l-1) / (l-1)! * 1 / (m-1)!
    fact = np.array([float(math.factorial(i)) for i in range(2 * max(layout) + 1)])
    row = np.array([-2j * math.pi * (-1) ** l / math.factorial(l) for l in layout])
    # a pole's entries run from f (l = 1) to e: C[f+i, f+j] = c[f+i+j] for i + j < e - f
    starts = _starts(layout)
    at, src = zip(*[((f + i) * n + f + j, f + i + j) for f, e in zip(starts, starts[1:])
                    for i in range(e - f) for j in range(e - f - i)])
    plan = _Plan(fact[kk] * row[:, None] / fact[k], kk + 1 if kk.any() else None,
                 np.array(at), np.array(src), (k == 0) + 0j, (k[1:] > 0) + 0j)
    for a in plan:
        if a is not None:
            a.flags.writeable = False
    return plan


def _range_basis(u: HardyRational) -> tuple[np.ndarray, np.ndarray]:
    """L and K of `_range_stack` for u, as a stack of one."""
    layout, p, c = u._flat
    if not np.count_nonzero(c):
        raise PreconditionError("undefined for zero symbol")
    try:
        _, ok, L, K = _range_stack(layout, p[None], c[None])
    except np.linalg.LinAlgError:                  # G's Cholesky, on a DGD the test admitted
        ok = [False]
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


def _cluster_indices(vals: list[float]) -> tuple[tuple[int, ...], ...]:
    """Clusters of the ascending list vals, as index runs: the one rule, relative with no floor.
    vals[i] joins the run before it when within CLUSTER_RTOL * vals[i] of the run's first."""
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


def _closure(bb: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """(i/4pi) beta beta^H of the outer product bb = beta beta^H, with its diagonal
    i nu^2/4pi exactly, not a rounded beta conj(beta)."""
    closure = 0.25j / math.pi * bb
    closure.reshape(-1)[:: len(nu) + 1] = 1j * nu**2 / (4.0 * math.pi)   # a view: the diagonal
    return closure


def _assemble_s(lam, ww, same, blocks) -> np.ndarray:
    """S(0)'s closed form at the angles w, given as ww = w w^H, and `blocks` verbatim where
    `same`; it knows no time.

    `eigendecompose` passes w = beta (the beta beta^H `_closure` reads), its cluster mask and
    the basis T's Hermitian part plus `_closure`; the inverse spectral map w = beta, the
    identity mask and gamma plus `_closure`'s diagonal, (N,) broadcast along the rows;
    `flow._flow_stack` (T, N) angles W(t) beta and the (T, N, N) drifted blocks."""
    lam2 = lam**2
    Y = lam * ww                            # Y[k, j] = lambda_j w_k conj(w_j)
    d = lam2[:, None] - lam2 + same         # lambda_k^2 - lambda_j^2; + same keeps it finite
    wave = lam / (2j * math.pi * d) * (Y - Y.swapaxes(-1, -2))
    np.copyto(wave, blocks, where=same)
    return wave


def _concentrate_g(fixed: np.ndarray, d_g: np.ndarray) -> np.ndarray:
    """Real reflection making all but the first g-coordinate of a cluster zero.

    Inside a conjugation-fixed cluster the coordinates (g, e_k) share one
    phase (their pairwise conjugate products are real), so a real orthogonal
    map can concentrate them on one basis vector.  This keeps the flow
    matrix drift confined to a single entry of the cluster, which preserves
    the precision of the near-real eigenvalue track for large times.  The
    Householder reflection -s (I - v v^T / |v_0|), v = r/|r| + s e_1 with
    s = sign r_0, sends e_1 to r/|r| without the cancelling r_0/|r| - 1.
    """
    b = fixed.conj().T @ d_g
    if np.max(np.abs(b)) == 0.0:
        return fixed
    k0 = int(np.argmax(np.abs(b)))
    phase = b[k0] / abs(b[k0])
    v = (b / phase).real  # signed real coordinate vector r
    v /= np.linalg.norm(v)
    s = math.copysign(1.0, v[0])
    v[0] += s
    return -s * (fixed - np.outer(fixed @ v, v) / abs(v[0]))


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
    u + h * (tangent field).  A `rank_tol` outside [RANK_RTOL, 1), NaN
    included, is an `InputError`.
    """
    if not RANK_RTOL <= rank_tol < 1.0:
        raise InputError(f"rank_tol must lie in [{RANK_RTOL:g}, 1), got {rank_tol!r}")
    L, K = _range_basis(u)
    U, sigma, Vh = np.linalg.svd(K)     # the sampler's stacked SVD gives bitwise these lambdas
    lambdas, U, Vbar = sigma[::-1], U[:, ::-1], Vh[::-1].T     # Vbar: columns conj(v_j)
    if not lambdas[-1] <= _LAMBDA_MAX:
        raise NumericalError(f"eigenvalue {lambdas[-1]:.3e}: lambda^2 beyond the float range")
    if lambdas[0] < rank_tol * lambdas[-1]:
        if rank_tol <= RANK_RTOL:
            raise PreconditionError("numerically rank-deficient symbol")
        keep = lambdas >= rank_tol * lambdas[-1]
        lambdas, U, Vbar = lambdas[keep], U[:, keep], Vbar[:, keep]
    lam2 = lambdas**2
    clusters = _cluster_indices(lam2.tolist())

    # Blaschke postcondition H_u g = u on K, as an L^2 norm relative to ||u||
    g_coords_f = _g_coeffs(u)
    Lh = L.conj().T
    d_g, d_u = Lh @ g_coords_f, Lh @ u._flat[2]
    r = K @ d_g.conj() - d_u
    if not np.vdot(r, r).real <= 1e-20 * np.vdot(d_u, d_u).real:   # NaN fails
        raise NumericalError("Blaschke postcondition H_u(g) = u failed")

    # Takagi: conj(V) = U D with D unitary and symmetric, so W = U sqrt(D)
    # gives K = W diag(lambda) W^T, i.e. K conj(w_j) = lambda_j w_j
    evecs = U * np.sqrt((U.conj() * Vbar).sum(axis=0))
    ref, tol = lambdas, 1e-8 * lambdas[-1]       # a rotated cluster: its mean, to 1e-7
    for c in [list(grp) for grp in clusters if len(grp) > 1]:
        w, X = np.linalg.eig(U[:, c].conj().T @ Vbar[:, c])
        root = (X * np.sqrt(w)) @ np.linalg.inv(X)
        evecs[:, c] = _concentrate_g(U[:, c] @ root, d_g)
        if ref is lambdas:
            ref, tol = lambdas.copy(), np.full(len(lambdas), tol)
        ref[c], tol[c] = np.mean(lambdas[c]), 1e-7 * lambdas[-1]
    evecs_bar = evecs.conj()
    resid2 = (abs(K @ evecs_bar - evecs * ref) ** 2).sum(axis=0)   # squared column norms
    if np.count_nonzero(resid2 <= tol**2) < len(resid2):           # NaN fails
        raise NumericalError("Takagi eigenvector residual too large")

    betas = evecs_bar.T @ d_g
    nus = np.abs(betas)
    gnorm = math.sqrt(np.vdot(d_g, d_g).real)
    angle = np.arctan2(betas.imag, betas.real)          # np.angle without its wrapper
    two_phis = np.where(nus > NU_RTOL * max(gnorm, 1e-300), 2.0 * angle % (2.0 * math.pi), 0.0)

    # (T e_j, e_k) = c_k^H conj(G) T_f c_j with c = L^-H w and conj(G) = L L^H
    Te = (L @ evecs).conj().T @ _t_matrix_f(u, g_coords_f) @ np.linalg.solve(Lh, evecs)
    bb, same = betas[:, None] * betas.conj(), _cluster_mask(clusters)
    closure = _closure(bb, nus)
    shift = _assemble_s(lambdas, bb, same, 0.5 * (Te + Te.conj().T) + closure)
    # T - T^* = (i/2pi) beta beta^H on Te's blocks; off them shift's closed form meets it
    gap = Te - np.where(same, Te, shift).conj().T - 2.0 * closure
    if not abs(gap).max() <= 1e-8 * abs(Te).max():                 # NaN fails
        raise NumericalError("shift closure violated")

    return SpectralDecomposition(u, lambdas, evecs, betas, nus, two_phis, shift.diagonal().real,
                                 shift, clusters, _genericity(lam2, nus, clusters))


def t_matrix(u: HardyRational, dec: SpectralDecomposition) -> TMatrix:
    """The shift matrix `eigendecompose` stored and checked, plus its adjoint."""
    return TMatrix(dec.shift, dec.shift.conj().T)


def classify_genericity(dec: SpectralDecomposition) -> str:
    """non_generic when two lambda^2 share a cluster or a nu_j vanishes, generic when
    two soliton speeds lambda^2 nu^2 share one by the same rule, `_cluster_indices`."""
    return _genericity(dec.lambdas**2, dec.nus, dec.clusters)


def _genericity(lam2: np.ndarray, nus: np.ndarray, clusters) -> str:
    """`classify_genericity` of lambda^2, nu and the clusters, before a decomposition holds them."""
    if len(clusters) < len(nus) or nus.min() <= NU_RTOL * max(math.sqrt(nus @ nus), 1e-300):
        return "non_generic"
    if len(_cluster_indices(np.sort(lam2 * nus**2).tolist())) < len(nus):
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
