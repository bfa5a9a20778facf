"""Closed-form time evolution through the flow matrix S(t).

With spectral data (lambda_j, beta_j) and the shift matrix T = `dec.shift`
of the initial symbol, the flow advances the angles, beta -> W(t) beta, and
drifts the eigenvalue-cluster blocks of T by (lambda_j^2/2pi) conj(beta_j)
beta_k t.  So S(t) is S(0)'s closed form (`hankel._assemble_s`) at the
angles W(t) beta with the drifted blocks, built by `_s_stack` alone for a
stack of times (`s_matrix` is its stack of one); every point is evaluated
from it by a resolvent solve.  The solution is the resolvent pairing

    u(t, x) = -(i/2pi) * (u0, W(t) (S(t) - x I)^{-1} W(t) g0),
    W(t) = diag exp(i t lambda_j^2 / 2),

which, written out for a point z in the closed upper half-plane, is

    u(t, z) = -(i/2pi) * (Lam conj(w))^T (conj(S) - z I)^{-1} conj(w),
    w = W(t) beta,  Lam = diag(lambda).

The sign differs from some statements of the pairing in the literature; it
is pinned here by the exact single-soliton solution and is consistent with
the soliton-resolution amplitudes C_j = i lambda_j conj(beta_j)^2 / (2 pi).

The inverse spectral map of `actionangle` is this recovery at t = 0 on an
S(0) assembled from coordinates: it, `_flow_at` and `_recover_many` build
the pairing (conj S, Lam conj w, conj w) by one `_flow_pairing`.  The poles
of a pairing -(i/2pi) a^T (A - z I)^{-1} b are the eigenvalues of A,
multiple ones included, and `_from_pairing` alone factors pairings and
rejects a pole on or above the real line: over a stack, one stacked `eig`
(`_eig2x2` per matrix at N = 2) and one stacked solve give the residues.
Where eigenvalues group and the eigenvectors are too ill-conditioned for
those residues, the multiplicities are read off the pairing's values on
one circle per group instead, by the contour moments of `rational`, the
rule `pf_from_ratio` applies to the roots of B.  `_pairing` evaluates a
stack of pairings at a stack of points by one stacked solve.

u(t) is recovered as a rational function on one of two routes.  Each
checks its result at 20 points spanning +-3.3 max|p|, to RECOVER_TOL of the
largest value, against resolvent solves, which do not depend on the
eigendecomposition they check.
- `_recover_many(dec, times)`, for `remainder_norms` and `growth_fit`:
  S(t) for all times is one `_s_stack`,
  the partial fractions are one `_from_pairing` call, and the 20-point
  checks of all times are one (T, 20, N, N) `_pairing` solve.
- `recover_rational(dec, t)`, one time, for `trajectory` (a loop over its
  times) and for public callers: a stack of one through `_from_pairing`,
  checked by 20 `evolve_eval` calls.  `evolve_eval` is one `_resolvent`
  solve against the pairing (A, a, b) that `_flow_at` keeps for the last
  (decomposition, t) asked for; at one point this costs about a third of
  a stack-of-one `_pairing`.
`trajectory` and the check of `recover_rational` stay on the one-time
route only because the benchmark's tracer counts public calls
(`flow.recover_rational.calls`, 20 `evolve_eval` calls per recovery);
ROADMAP item 6, the next change to the benchmark, removes that pin.

The conservation laws need no decomposition: by H_u g = u, J_2k =
sum_j lambda_j^2k nu_j^2 = ||H_u^(k-1) u||^2, and H_u is d -> K conj(d) on
the orthonormal range coordinates d = L^H c_u (`hankel._range_basis`).
So `conserved_quantities` reads J_2k off K and a `trajectory` decomposes once.

Reachable horizon, on t = geomspace(1, 1e9, 17): strongly generic data
(the soliton 1/(x+i), 1/(x+i) + (0.5+0.3i)/(x-0.8+0.7i) and
`random_strongly_generic(3, default_rng(1))`) recovers at every t.  On the
non-generic 2/(x+i) - 4/(x+2i) one pole nears the axis like -13.5i/t^2:
recovery returns up to t = 3.5e6 and raises `NumericalError` from 4e6 on.
"""

from __future__ import annotations

import cmath
import math

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError, PreconditionError
from .hankel import SpectralDecomposition, _assemble_s, _cluster_mask, _range_basis, eigendecompose
from .rational import (LINK_RTOL, RECOVER_TOL, HardyRational, _circles, _from_moments, _NODES,
                       _on_or_above_axis, _sobolev_norms, hardy_from_terms)

__all__ = [
    "FlowMatrix",
    "s_matrix",
    "evolve_eval",
    "recover_rational",
    "conserved_quantities",
    "spectral_conserved",
    "trajectory",
]


@dataclass(frozen=True)
class FlowMatrix:
    """S(t) with the diagonal unitary W(t) and the time stamp."""

    s: np.ndarray
    w_diag: np.ndarray
    t: float


def s_matrix(dec: SpectralDecomposition, t: float) -> FlowMatrix:
    """Assemble S(t) in the eigenbasis; S(0) is the shift matrix itself."""
    return FlowMatrix(_s_stack(dec, [t])[0], np.exp(0.5j * t * dec.lambdas**2), float(t))


def _s_stack(dec: SpectralDecomposition, times) -> np.ndarray:
    """S(t) for every t of times, (T, N, N), the one place time enters S: the angles
    advance, w = W(t) beta, and the cluster blocks drift by t (lambda^2/2pi) beta beta^H."""
    ts = np.asarray(times, dtype=float)
    bad = ts[~np.isfinite(ts)]
    if bad.size:
        raise InputError(f"time must be finite, got {bad[0]}")
    lam2, beta = dec.lambdas**2, dec.betas
    blocks = lam2 / (2.0 * math.pi) * (beta[:, None] * beta.conj()) * ts[:, None, None] + dec.shift
    w = np.exp(0.5j * ts[:, None] * lam2) * beta
    return _assemble_s(dec.lambdas, w, _cluster_mask(dec.clusters), blocks)


def _resolvent(A: np.ndarray, a: np.ndarray, b: np.ndarray, x) -> complex:
    """-(i/2pi) a^T (A - x I)^{-1} b at one point x.

    The solve's residual must be within 1e-10 |b|, at b's own scale; the
    check fails closed, so a NaN residual raises as well.
    """
    M = A.astype(complex)
    M.flat[:: len(b) + 1] -= x
    try:
        y = np.linalg.solve(M, b)
    except np.linalg.LinAlgError as e:
        raise NumericalError("resolvent solve failed") from e
    r = M @ y - b
    if not (np.vdot(r, r).real <= 1e-20 * np.vdot(b, b).real):
        raise NumericalError("resolvent solve failed")
    return -0.5j / math.pi * (y @ a)


def _pairing(A: np.ndarray, a: np.ndarray, b: np.ndarray, xs) -> np.ndarray:
    """-(i/2pi) a^T (A - x I)^{-1} b at every x of xs, by one stacked solve.

    A is (..., N, N), a and b are (..., N) and xs is (..., P), with the
    leading axes broadcast; the result is (..., P).  Each point's matrix is
    A with x taken off the diagonal, as in `_resolvent`, and each point's
    residual must be within 1e-10 |b|.  The check fails closed, and
    one failed point fails the whole stack.
    """
    xs = np.asarray(xs, dtype=complex)
    n = b.shape[-1]
    lead = np.broadcast_shapes(A.shape[:-2], a.shape[:-1], b.shape[:-1], xs.shape[:-1])
    M = np.broadcast_to(A[..., None, :, :], (*lead, xs.shape[-1], n, n)).astype(complex)
    M[..., range(n), range(n)] -= xs[..., None]
    B = np.broadcast_to(b[..., None, :, None], (*M.shape[:-1], 1))
    try:
        y = np.linalg.solve(M, B)
    except np.linalg.LinAlgError as e:
        raise NumericalError("resolvent solve failed") from e
    r = (M @ y - B)[..., 0]
    if not (np.vecdot(r, r).real <= 1e-20 * np.vecdot(b, b).real[..., None]).all():
        raise NumericalError("resolvent solve failed")
    # vecdot of conj(a) sums as `_resolvent`'s y @ a does, so the values agree bitwise
    return -0.5j / math.pi * np.vecdot(a.conj()[..., None, :], y[..., 0])


def _flow_pairing(S: np.ndarray, lambdas: np.ndarray, w: np.ndarray):
    """(A, a, b) = (conj S, Lam conj w, conj w) of S (..., N, N) and w = W(t) beta (..., N)."""
    b = np.conj(w)
    return np.conj(S), lambdas * b, b


# (dec, t, (A, a, b)) of the last pairing built by _flow_at.  The
# decomposition is compared by identity; it is frozen and held here, so an
# identity cannot be reused by another object.
_last_flow: tuple = (None, None, None)


def _flow_at(dec: SpectralDecomposition, t: float) -> tuple:
    """The pairing (A, a, b) of u(t), rebuilt only when dec or t changes."""
    global _last_flow
    last_dec, last_t, pairing = _last_flow
    if last_dec is dec and last_t == t:
        return pairing
    fm = s_matrix(dec, t)
    _last_flow = (dec, t, _flow_pairing(fm.s, dec.lambdas, fm.w_diag * dec.betas))
    return _last_flow[2]


def evolve_eval(dec: SpectralDecomposition, t: float, x) -> complex:
    """Value of the solution at time t and a point x with Im x >= 0."""
    x = complex(x)
    if not cmath.isfinite(x):
        raise InputError(f"point must be finite, got {x}")
    return complex(_resolvent(*_flow_at(dec, t), x))


def _eig2x2(A: np.ndarray):
    """Eigenpairs of a 2x2 matrix via the explicit quadratic formula.

    The discriminant is formed as (a-d)^2 + 4bc, which avoids the large
    cancellation of tr^2 - 4 det when one eigenvalue drifts linearly in
    time; the accuracy of the small eigenvalue's imaginary part is what
    limits Sobolev norms of recovered symbols with a near-real pole.
    """
    (a, b), (c, d) = A.tolist()
    root = cmath.sqrt((a - d) ** 2 + 4.0 * b * c)
    if ((a - d).conjugate() * root).real < 0:
        root = -root
    denom = (a - d) + root
    if abs(denom) > 1e-30:
        delta = -2.0 * b * c / denom   # = (a-d)/2 - root/2, cancellation-free
    else:
        delta = 0.5 * (a - d) - 0.5 * root
    e1 = a - delta
    e2 = d + delta
    vecs = []
    for e in (e1, e2):
        v1 = (b, e - a)
        v2 = (e - d, c)
        v = v1 if math.hypot(*map(abs, v1)) >= math.hypot(*map(abs, v2)) else v2
        n = math.hypot(*map(abs, v))
        vecs.append((v[0] / n, v[1] / n) if n > 0 else (1.0, 0.0))
    return (e1, e2), tuple(zip(*vecs))            # eigenvectors as columns


def _eigenpairs(A: np.ndarray):
    """Eigenvalues E (T, N) and eigenvectors V (T, N, N) of a (T, N, N) stack of
    pairing matrices, as `_from_pairing` factors them: `_eig2x2` per matrix at N = 2."""
    if A.shape[-1] != 2:
        return np.linalg.eig(A)
    E, V = zip(*map(_eig2x2, A))
    return np.array(E), np.array(V)


def _from_pairing(A: np.ndarray, a: np.ndarray, b: np.ndarray) -> list[HardyRational]:
    """Partial fractions of x -> -(i/2pi) a^T (A - x I)^{-1} b for a stack of pairings.

    A is (T, N, N) and a, b are (T, N); the result holds one function per
    pairing.  Its poles are the eigenvalues E of A, multiple ones included.
    A pairing keeps the residues (i/2pi)(a^T V)_k (V^{-1} b)_k of the
    bilinear expansion, from one stacked solve, unless E has a group (single
    linkage within LINK_RTOL max|E|) and an eigenvalue on the real line or an
    eigenvector matrix V too ill-conditioned for those residues
    (eps cond V > RECOVER_TOL).  Then every principal part comes from
    contour moments (`_from_moments`) on one circle per group (`_circles`).
    The circles of the whole stack are evaluated by one `_pairing` call.  A
    pairing keeps the bilinear residues if `_circles` draws none or if its
    moments miss the values on its circles; the whole stack does if a
    circle's solve or a moment pencil fails.  The one code that factors a
    pairing: a pole on or above the real axis is a `NumericalError`.
    """
    E, V = _eigenpairs(A)
    n = E.shape[-1]
    scale = abs(E).max(axis=-1, initial=0.0)
    on_axis = _on_or_above_axis(E)
    near = abs(E[:, :, None] - E[:, None, :]) <= LINK_RTOL * scale[:, None, None]
    circles = {}                                  # row -> [(center, radius, size)] per group
    for i in np.flatnonzero(near.sum(axis=(-2, -1)) > n).tolist():   # rows with a near pair
        if (err := np.finfo(float).eps * np.linalg.cond(V[i])) > RECOVER_TOL or on_axis[i].any():
            if err == math.inf:               # a solvable stand-in; its residues fail the check
                V[i] = np.eye(n)
            if circ := _circles(E[i]):
                circles[i] = circ
    parts = {}                                    # row -> principal parts from moments
    if circles:
        rows = np.array([i for i, circ in circles.items() for _ in circ])
        z = np.array([c + r * _NODES for circ in circles.values() for c, r, _ in circ])
        try:
            f = _pairing(A[rows], a[rows], b[rows], z)
            parts = {i: pp for i in circles if (pp := _from_moments(f[rows == i], circles[i]))}
        except (NumericalError, np.linalg.LinAlgError):
            pass                                  # every row keeps its bilinear residues
        on_axis[list(parts)] = False
    if on_axis.any() or any(_on_or_above_axis(p) for pp in parts.values() for p, _ in pp):
        raise NumericalError("recovered pole on or above the real line")
    coeffs = (0.5j / math.pi * (a[:, None] @ V)[:, 0]
              * np.linalg.solve(V, b[..., None])[..., 0])
    return [hardy_from_terms(parts[i] if i in parts else [(p, [k]) for p, k in zip(e, cs)])
            for i, (e, cs) in enumerate(zip(E.tolist(), coeffs.tolist()))]


def _check_points(u: HardyRational) -> np.ndarray:
    """The 20 points of the recovery postcondition, spanning u's poles at their own scale."""
    scale = 3.3 * max(map(abs, u.poles()), default=0.0)
    return np.linspace(-scale, scale, 20)


def _checked(u: HardyRational, xs, ref, t: float) -> HardyRational:
    """u, if it matches the resolvent values ref at xs to RECOVER_TOL."""
    err = float(np.max(np.abs(u.evaluate(xs) - ref)))
    if err > RECOVER_TOL * float(np.max(np.abs(ref))):
        raise NumericalError(f"defective recovery: pointwise mismatch {err:.3e} at t={t}")
    return u


def recover_rational(dec: SpectralDecomposition, t: float) -> HardyRational:
    """The solution at time t as an exact element of the rational class."""
    A, a, b = _flow_at(dec, t)
    out = _from_pairing(A[None], a[None], b[None])[0]
    check_x = _check_points(out)
    return _checked(out, check_x, np.array([evolve_eval(dec, t, x) for x in check_x]), t)


def _recover_many(dec: SpectralDecomposition, times) -> list[HardyRational]:
    """`recover_rational` at every t of times, on stacks over the time axis.

    S(t) for all times is one broadcast, the partial fractions come from
    one `_from_pairing` call, and the 20-point postcondition is one
    stacked `_pairing` of every time's resolvent.
    """
    ts = np.asarray(times, dtype=float)
    if not ts.size:
        return []
    A, a, b = _flow_pairing(_s_stack(dec, ts), dec.lambdas,   # _s_stack checks ts first
                            np.exp(0.5j * ts[:, None] * dec.lambdas**2) * dec.betas)
    outs = _from_pairing(A, a, b)
    check_x = np.array([_check_points(u) for u in outs])
    ref = _pairing(A, a, b, check_x)
    return [_checked(*args) for args in zip(outs, check_x, ref, ts.tolist())]


def spectral_conserved(dec: SpectralDecomposition, kmax: int) -> list[float]:
    """[J_2, J_4, ..., J_{2 kmax}] from the spectral data."""
    if kmax < 1:
        raise PreconditionError("kmax must be >= 1")
    return [float(np.sum(dec.lambdas ** (2 * k) * dec.nus**2)) for k in range(1, kmax + 1)]


def conserved_quantities(u: HardyRational, kmax: int) -> list[float]:
    """J_2k(u) = ||H_u^(k-1) u||^2 = sum_j lambda_j^2k nu_j^2 for k = 1..kmax, on K:
    ||d||^2, ||K conj(d)||^2, ... with d = L^H c_u, and no decomposition of u."""
    if kmax < 1:
        raise PreconditionError("kmax must be >= 1")
    if u.is_zero():
        return [0.0] * kmax
    L, K = _range_basis(u)
    d, out = L.conj().T @ u._flat[2], []
    for _ in range(kmax):
        out.append(float(np.vdot(d, d).real))
        d = K @ d.conj()
    return out


# every observable `trajectory` tabulates; the first four are its default
_OBSERVABLES = ("poles", "coefficients", "conserved", "norms", "solitons")


def trajectory(
    u0: HardyRational,
    times,
    observables: tuple[str, ...] = _OBSERVABLES[:4],
    hs: tuple[float, ...] = (),
) -> list[dict]:
    """Evolve u0 and tabulate observables at each requested time.

    Only u0 is decomposed.  Conserved quantities (on each u(t)'s own K) and
    norms are recomputed from the recovered rational at each time, so the
    table doubles as a conservation regression.  `hs` adds homogeneous Sobolev
    norms; the norms of all times, and the soliton remainders', take one
    `_sobolev_norms` call each.
    """
    for ob in observables:
        if ob not in _OBSERVABLES:
            raise PreconditionError(f"unknown observable {ob!r}")
    dec = eigendecompose(u0)
    uts = [recover_rational(dec, float(t)) for t in times]
    if "solitons" in observables:
        from .asymptotics import _minus_solitons, soliton_params_from_spectrum

        sols = soliton_params_from_spectrum(dec)
        remainder = _sobolev_norms([_minus_solitons(ut, sols, float(t))
                                    for t, ut in zip(times, uts)], (0.0,))[:, 0].tolist()
    if "norms" in observables:
        norms = _sobolev_norms(uts, (0.0, 0.5, *hs)).tolist()
    rows = []
    for i, (t, ut) in enumerate(zip(times, uts)):
        row: dict = {"time": float(t)}
        if "poles" in observables:
            row["poles"] = ut._flat[1].tolist()
        if "coefficients" in observables:
            row["coefficients"] = ut._flat[2].tolist()
        if "conserved" in observables:
            row["J"] = conserved_quantities(ut, 4)
        if "norms" in observables:
            l2, half, *hdots = norms[i]
            row["L2"] = l2
            row["H12"] = math.sqrt(l2 * l2 + half * half)
            for s, v in zip(hs, hdots):
                row[f"Hdot{s:g}"] = v
        if "solitons" in observables:
            row["remainder_L2"] = remainder[i]
        rows.append(row)
    return rows
