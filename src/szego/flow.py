"""Closed-form time evolution through the flow matrix S(t).

With spectral data (lambda_j, beta_j) and the shift matrix T = `dec.shift`
of the initial symbol, S(t) is assembled by broadcasting over a cluster
mask: oscillatory off the eigenvalue cluster, linear drift
(lambda_j^2/2pi) conj(beta_j) beta_k t + (T e_j, e_k) inside it.  S(t)
depends on t only, so it is built once per time and every point is
evaluated from it by a resolvent solve.  The solution is the resolvent
pairing

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
-(i/2pi) a^T (A - z I)^{-1} b are the eigenvalues of A; `_from_pairing`
reads the residues off one `eig` of A,
or, when eigenvalues cluster into a multiple pole, fits the coefficients
to the pairing at Chebyshev points.  The 20-point postcondition of
`recover_rational` evaluates u(t) point by point through `evolve_eval`, so
it does not depend on the eigendecomposition it checks.  Both use the one
pairing (A, a, b) of the call: the last one built from S(t) is kept, keyed
on (decomposition, t), and reused while the same pair is asked for.  Every
point, here and at the Chebyshev points, is one `_resolvent` solve.
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
    # clusters are consecutive runs of the ascending eigenvalues
    label = np.array([c for c, grp in enumerate(dec.clusters) for _ in grp])
    same = label[:, None] == label                # [k, j]: one cluster
    s = _assemble_s(dec.lambdas, dec.betas, same, dec.shift, t)
    return FlowMatrix(s, np.exp(0.5j * t * dec.lambdas**2), float(t))


def _assemble_s(lam, beta, same, shift, t) -> np.ndarray:
    """S(t) from (lambda, beta): drift from `shift` where `same`, oscillatory elsewhere.

    `s_matrix` passes the eigenbasis shift and its cluster mask; the inverse
    spectral map passes t = 0, the identity mask and diag(gamma + i nu^2/4pi).
    """
    lam2 = lam**2
    d = lam2[:, None] - lam2                      # lambda_k^2 - lambda_j^2
    bb = beta[:, None] * beta.conj()              # beta_k conj(beta_j)
    drift = lam2 / (2.0 * math.pi) * bb * t + shift
    Y = lam * np.exp(0.5j * t * d) * bb           # lambda_j osc bb; Y.T is lambda_k conj(osc bb)
    wave = lam / (2j * math.pi * (d + same)) * (Y - Y.T)   # + same: finite where masked
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
    """-(i/2pi) a^T (A - x I)^{-1} b at every x of xs, one `_resolvent` each."""
    return np.array([_resolvent(A, a, b, x) for x in np.asarray(xs, dtype=complex)])


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
    cols = []
    layout = []
    xs = np.asarray(xs, dtype=complex)
    for p, m in poles_mults:
        for l in range(1, m + 1):
            cols.append(1.0 / (xs - p) ** l)
            layout.append((p, l))
    A = np.array(cols).T
    sol, _res, _rk, _sv = np.linalg.lstsq(A, np.asarray(values, dtype=complex),
                                          rcond=None)
    resid = np.linalg.norm(A @ sol - values)
    scale = max(1.0, float(np.linalg.norm(values)))
    if resid > FIT_TOL * scale:
        raise NumericalError(
            f"defective recovery: fit residual {resid:.3e} on scale {scale:.3e}"
        )
    pairs: dict[complex, list[complex]] = {}
    for (p, l), c in zip(layout, sol):
        stack = pairs.setdefault(p, [])
        while len(stack) < l:
            stack.append(0.0j)
        stack[l - 1] += complex(c)
    return hardy_from_terms(list(pairs.items()))


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
    return np.array([e1, e2]), np.array(vecs).T


def _from_pairing(A: np.ndarray, a: np.ndarray, b: np.ndarray) -> HardyRational:
    """Partial fractions of x -> -(i/2pi) a^T (A - x I)^{-1} b.

    Its poles are the eigenvalues of A.  Separated eigenvalues give the
    residues (i/2pi)(a^T V)_k (V^{-1} b)_k of the bilinear expansion;
    clustered ones are merged into multiple poles and the coefficients
    fitted at 4N Chebyshev points.
    """
    n = len(b)
    E, V = _eig2x2(A) if n == 2 else np.linalg.eig(A)
    scale = max(1.0, abs(E).max())
    seps = abs(E[:, None] - E)
    seps.reshape(-1)[:: n + 1] = math.inf
    if seps.min() > EIG_SEP_RTOL * scale:
        coeffs = 0.5j / math.pi * (a @ V) * np.linalg.solve(V, b)
        return hardy_from_terms([(e, [c]) for e, c in zip(E.tolist(), coeffs.tolist())])
    k = np.arange(4 * n)
    xs = (2.0 * scale + 1.0) * np.cos((2 * k + 1) * math.pi / (2 * len(k)))
    return fit_partial_fractions(_cluster_poles(E), xs, _pairing(A, a, b, xs))


def recover_rational(dec: SpectralDecomposition, t: float) -> HardyRational:
    """The solution at time t as an exact element of the rational class."""
    out = _from_pairing(*_flow_at(dec, t))
    scale = max([1.0, *map(abs, out.poles())])
    check_x = np.linspace(-2.3 * scale - 1.0, 2.3 * scale + 1.0, 20)
    ref = np.array([evolve_eval(dec, t, x) for x in check_x])
    got = out.evaluate(check_x)
    err = float(np.max(np.abs(got - ref)))
    if err > RECOVER_TOL * max(1.0, float(np.max(np.abs(ref)))):
        raise NumericalError(
            f"defective recovery: pointwise mismatch {err:.3e} at t={t}"
        )
    return out


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
    conservation regression.  `hs` adds homogeneous Sobolev norms.
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
    rows = []
    for t in times:
        ut = recover_rational(dec, float(t))
        row: dict = {"time": float(t)}
        if "poles" in observables or "coefficients" in observables:
            flat_poles = []
            flat_coeffs = []
            for term in ut.terms:
                for l, c in enumerate(term.coeffs, start=1):
                    flat_poles.append(term.pole)
                    flat_coeffs.append(c)
            if "poles" in observables:
                row["poles"] = flat_poles
            if "coefficients" in observables:
                row["coefficients"] = flat_coeffs
        if "conserved" in observables:
            dect = eigendecompose(ut)
            row["J"] = spectral_conserved(dect, 4)
        if "norms" in observables:
            l2, half, *hdots = _sobolev_norms(ut, (0.0, 0.5, *hs))
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
