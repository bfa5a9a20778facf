"""Closed-form time evolution through the flow matrix S(t).

With spectral data (lambda_j, beta_j) and the shift matrix T = `dec.shift`
of the initial symbol, S(t) is assembled by broadcasting over a cluster
mask: oscillatory off the eigenvalue cluster, linear drift
(lambda_j^2/2pi) conj(beta_j) beta_k t + (T e_j, e_k) inside it.  S(t)
depends on t only, so it is built once per time (or once for a stack of
times) and every point is evaluated from it by a resolvent solve.  The
solution is the resolvent pairing

    u(t, x) = -(i/2pi) * (u0, W(t) (S(t) - x I)^{-1} W(t) g0),
    W(t) = diag exp(i t lambda_j^2 / 2),

which, written out for a point z in the closed upper half-plane, is

    u(t, z) = -(i/2pi) * (Lam conj(w))^T (conj(S) - z I)^{-1} conj(w),
    w = W(t) beta,  Lam = diag(lambda).

The sign differs from some statements of the pairing in the literature; it
is pinned here by the exact single-soliton solution and is consistent with
the soliton-resolution amplitudes C_j = i lambda_j conj(beta_j)^2 / (2 pi).

The inverse spectral map of `actionangle` builds S(0) from coordinates by
the same `_assemble_s` and pairs it the same way.  The poles of a pairing
-(i/2pi) a^T (A - z I)^{-1} b are the eigenvalues of A.  `_from_pairing`
takes a stack of pairings: one stacked `eig` (`_eig2x2` per matrix at
N = 2) and one stacked solve give every pairing's residues, and where
eigenvalues cluster into a multiple pole the coefficients are fitted to
the pairing at Chebyshev points.  `_pairing` evaluates a stack of
pairings at a stack of points by one stacked solve.

u(t) is recovered as a rational function on one of two routes.  Each
checks its result at 20 points against resolvent solves, which do not
depend on the eigendecomposition they check.
- `_recover_many(dec, times)`, for `remainder_norms` and `growth_fit`:
  S(t) for all times is one broadcast of `_assemble_s` over a time axis,
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
"""

from __future__ import annotations

import cmath
import math

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError, PreconditionError
from .hankel import SpectralDecomposition, eigendecompose
from .rational import (
    EIG_SEP_RTOL,
    HardyRational,
    _cluster_poles,
    _from_flat,
    _layout,
    _sobolev_norms,
    hardy_from_terms,
    l2_norm,
)

RECOVER_TOL = 1e-9        # postcondition: recovered rational vs resolvent values
FIT_TOL = 1e-7            # fallback least-squares residual bound

__all__ = [
    "FlowMatrix",
    "s_matrix",
    "evolve_eval",
    "recover_rational",
    "conserved_quantities",
    "spectral_conserved",
    "trajectory",
    "fit_partial_fractions",
]


@dataclass(frozen=True)
class FlowMatrix:
    """S(t) with the diagonal unitary W(t) and the time stamp."""

    s: np.ndarray
    w_diag: np.ndarray
    t: float


def s_matrix(dec: SpectralDecomposition, t: float) -> FlowMatrix:
    """Assemble S(t) in the eigenbasis; S(0) is the shift matrix itself."""
    if not math.isfinite(t):
        raise InputError(f"time must be finite, got {t}")
    s = _assemble_s(dec.lambdas, dec.betas, _cluster_mask(dec), dec.shift, t)
    return FlowMatrix(s, np.exp(0.5j * t * dec.lambdas**2), float(t))


def _s_stack(dec: SpectralDecomposition, times) -> np.ndarray:
    """S(t) for every t of times: one (T, N, N) broadcast of `_assemble_s`."""
    ts = np.asarray(times, dtype=float)
    bad = ts[~np.isfinite(ts)]
    if bad.size:
        raise InputError(f"time must be finite, got {bad[0]}")
    return _assemble_s(dec.lambdas, dec.betas, _cluster_mask(dec), dec.shift,
                       ts[:, None, None])


def _cluster_mask(dec: SpectralDecomposition) -> np.ndarray:
    """[k, j] is True where channels k and j share an eigenvalue cluster."""
    # clusters are consecutive runs of the ascending eigenvalues
    label = np.array([c for c, grp in enumerate(dec.clusters) for _ in grp])
    return label[:, None] == label


def _assemble_s(lam, beta, same, shift, t) -> np.ndarray:
    """S(t) from (lambda, beta): drift from `shift` where `same`, oscillatory elsewhere.

    `s_matrix` passes the eigenbasis shift and its cluster mask; the inverse
    spectral map passes t = 0, the identity mask and diag(gamma + i nu^2/4pi).
    A t of shape (T, 1, 1) gives the (T, N, N) stack of S at those times.
    """
    lam2 = lam**2
    d = lam2[:, None] - lam2                      # lambda_k^2 - lambda_j^2
    bb = beta[:, None] * beta.conj()              # beta_k conj(beta_j)
    drift = lam2 / (2.0 * math.pi) * bb * t + shift
    Y = lam * np.exp(0.5j * t * d) * bb           # lambda_j osc bb; Y^T is lambda_k conj(osc bb)
    Yt = Y.swapaxes(-1, -2)
    wave = lam / (2j * math.pi * (d + same)) * (Y - Yt)    # + same: finite where masked
    return np.where(same, drift, wave)


def _resolvent(A: np.ndarray, a: np.ndarray, b: np.ndarray, x) -> complex:
    """-(i/2pi) a^T (A - x I)^{-1} b at one point x.

    The solve's residual must be within 1e-10 max(1, |b|); the check fails
    closed, so a NaN residual raises as well.
    """
    M = A.astype(complex)
    M.flat[:: len(b) + 1] -= x
    try:
        y = np.linalg.solve(M, b)
    except np.linalg.LinAlgError as e:
        raise NumericalError("resolvent solve failed") from e
    r = M @ y - b
    if not (np.vdot(r, r).real <= 1e-20 * max(1.0, np.vdot(b, b).real)):
        raise NumericalError("resolvent solve failed")
    return -0.5j / math.pi * (y @ a)


def _pairing(A: np.ndarray, a: np.ndarray, b: np.ndarray, xs) -> np.ndarray:
    """-(i/2pi) a^T (A - x I)^{-1} b at every x of xs, by one stacked solve.

    A is (..., N, N), a and b are (..., N) and xs is (..., P), with the
    leading axes broadcast; the result is (..., P).  Each point's matrix is
    A with x taken off the diagonal, as in `_resolvent`, and each point's
    residual must be within 1e-10 max(1, |b|).  The check fails closed, and
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
    bound = 1e-20 * np.maximum(1.0, np.vecdot(b, b).real)[..., None]
    if not (np.vecdot(r, r).real <= bound).all():
        raise NumericalError("resolvent solve failed")
    # vecdot of conj(a) sums as `_resolvent`'s y @ a does, so the values agree bitwise
    return -0.5j / math.pi * np.vecdot(a.conj()[..., None, :], y[..., 0])


def _flow_pairing(dec: SpectralDecomposition, fm: FlowMatrix):
    """(A, a, b) of u(t) = -(i/2pi) a^T (A - x)^{-1} b: (conj S, Lam conj w, conj w)."""
    b = np.conj(fm.w_diag * dec.betas)
    return np.conj(fm.s), dec.lambdas * b, b


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
    pairing = _flow_pairing(dec, s_matrix(dec, t))
    _last_flow = (dec, t, pairing)
    return pairing


def evolve_eval(dec: SpectralDecomposition, t: float, x) -> complex:
    """Value of the solution at time t and a point x with Im x >= 0."""
    x = complex(x)
    if not cmath.isfinite(x):
        raise InputError(f"point must be finite, got {x}")
    return complex(_resolvent(*_flow_at(dec, t), x))


def fit_partial_fractions(poles_mults, xs, values) -> HardyRational:
    """Least-squares partial fractions with prescribed poles/multiplicities."""
    centers, mults = zip(*poles_mults)
    layout = _layout(mults)
    poles = np.repeat(centers, mults)
    A = 1.0 / (np.asarray(xs, dtype=complex)[:, None] - poles) ** np.add(layout, 1)
    sol, _res, _rk, _sv = np.linalg.lstsq(A, np.asarray(values, dtype=complex),
                                          rcond=None)
    resid = np.linalg.norm(A @ sol - values)
    scale = max(1.0, float(np.linalg.norm(values)))
    if resid > FIT_TOL * scale:
        raise NumericalError(
            f"defective recovery: fit residual {resid:.3e} on scale {scale:.3e}"
        )
    return _from_flat(layout, poles, sol)


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


def _from_pairing(A: np.ndarray, a: np.ndarray, b: np.ndarray,
                  eig=None) -> list[HardyRational]:
    """Partial fractions of x -> -(i/2pi) a^T (A - x I)^{-1} b for a stack of pairings.

    A is (T, N, N) and a, b are (T, N); the result holds one function per
    pairing.  Its poles are the eigenvalues of A.  Separated eigenvalues
    give the residues (i/2pi)(a^T V)_k (V^{-1} b)_k of the bilinear
    expansion, from one stacked solve; clustered ones are merged into
    multiple poles and the coefficients fitted at 4N Chebyshev points,
    evaluated by one stacked `_pairing`.  `eig` is `_eigenpairs(A)`, for
    a caller that has already factored A.  A pole that rounding puts on
    or above the real axis is a `NumericalError`.
    """
    E, V = _eigenpairs(A) if eig is None else eig
    n = E.shape[-1]
    scale = abs(E).max(axis=-1, initial=1.0)
    seps = abs(E[:, :, None] - E[:, None, :]).reshape(len(E), -1)
    seps[:, :: n + 1] = math.inf
    apart = (seps.min(axis=-1) > EIG_SEP_RTOL * scale).tolist()
    fit = [i for i, sep in enumerate(apart) if not sep]
    clusters = [_cluster_poles(E[i]) for i in fit]
    on_axis = E.imag >= -1e-12
    if fit:                                       # a cluster's pole is its center
        on_axis[fit] = False
        V = V.copy()
        V[fit] = np.eye(n)                        # a solvable stand-in; not read
    if on_axis.any() or any(p.imag >= -1e-12 for grp in clusters for p, _ in grp):
        raise NumericalError("recovered pole on or above the real line")
    coeffs = (0.5j / math.pi * (a[:, None] @ V)[:, 0]
              * np.linalg.solve(V, b[..., None])[..., 0])
    out = [None if i in fit else hardy_from_terms([(p, [k]) for p, k in zip(e, c)])
           for i, (e, c) in enumerate(zip(E.tolist(), coeffs.tolist()))]
    if fit:
        k = np.arange(4 * n)
        xs = (2.0 * scale[fit][:, None] + 1.0) * np.cos((2 * k + 1) * math.pi / (2 * len(k)))
        values = _pairing(A[fit], a[fit], b[fit], xs)
        for i, grp, x, v in zip(fit, clusters, xs, values):
            out[i] = fit_partial_fractions(grp, x, v)
    return out


def _check_points(u: HardyRational) -> np.ndarray:
    """The 20 points of the recovery postcondition, spanning u's poles."""
    scale = max([1.0, *map(abs, u.poles())])
    return np.linspace(-2.3 * scale - 1.0, 2.3 * scale + 1.0, 20)


def _checked(u: HardyRational, xs, ref, t: float) -> HardyRational:
    """u, if it matches the resolvent values ref at xs to RECOVER_TOL."""
    err = float(np.max(np.abs(u.evaluate(xs) - ref)))
    if err > RECOVER_TOL * max(1.0, float(np.max(np.abs(ref)))):
        raise NumericalError(
            f"defective recovery: pointwise mismatch {err:.3e} at t={t}"
        )
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
    S = _s_stack(dec, ts)
    b = np.conj(np.exp(0.5j * ts[:, None] * dec.lambdas**2) * dec.betas)
    A, a = np.conj(S), dec.lambdas * b
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
    """J_{2k}(u) = sum_j lambda_j^{2k} nu_j^2 for k = 1..kmax."""
    if kmax < 1:
        raise PreconditionError("kmax must be >= 1")
    if u.is_zero():
        return [0.0] * kmax
    return spectral_conserved(eigendecompose(u), kmax)


_CORE_OBSERVABLES = ("poles", "coefficients", "conserved", "norms")


def trajectory(
    u0: HardyRational,
    times,
    observables: tuple[str, ...] = _CORE_OBSERVABLES,
    hs: tuple[float, ...] = (),
) -> list[dict]:
    """Evolve u0 and tabulate observables at each requested time.

    Conserved quantities and norms are recomputed from the recovered
    rational at each time (not copied from t=0), so the table doubles as a
    conservation regression.  `hs` adds homogeneous Sobolev norms; the
    norms of all times come from one `_sobolev_norms` call.
    """
    known = set(_CORE_OBSERVABLES) | {"solitons"}
    for ob in observables:
        if ob not in known:
            raise PreconditionError(f"unknown observable {ob!r}")
    dec = eigendecompose(u0)
    params = None
    if "solitons" in observables:
        from .asymptotics import soliton_params_from_spectrum

        params = soliton_params_from_spectrum(dec)
    uts = [recover_rational(dec, float(t)) for t in times]
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
            dect = eigendecompose(ut)
            row["J"] = spectral_conserved(dect, 4)
        if "norms" in observables:
            l2, half, *hdots = norms[i]
            row["L2"] = l2
            row["H12"] = math.sqrt(l2 * l2 + half * half)
            for s, v in zip(hs, hdots):
                row[f"Hdot{s:g}"] = v
        if "solitons" in observables:
            from .asymptotics import soliton_term

            rem = ut
            for sp in params:
                rem = rem - soliton_term(sp, float(t))
            row["remainder_L2"] = l2_norm(rem)
        rows.append(row)
    return rows
