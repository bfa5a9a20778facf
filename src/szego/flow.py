"""Closed-form time evolution through the flow matrix S(t).

With spectral data (lambda_j, beta_j) and the shift matrix T = `dec.shift`
of the initial symbol, the flow advances the angles, beta -> W(t) beta, and
drifts the eigenvalue-cluster blocks of T by (lambda_j^2/2pi) conj(beta_j)
beta_k t.  So S(t) is S(0)'s closed form (`hankel._assemble_s`) at the
angles W(t) beta with the drifted blocks, built with W(t) by `_flow_stack`
alone for a stack of times (`s_matrix` is its stack of one); every point is
evaluated from it by a resolvent solve.  The solution is the resolvent pairing

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
rejects a pole on or above the real line: over a stack, one stacked LAPACK
`eig`, at every N, and one stacked solve give the residues.
Where eigenvalues group and the eigenvectors are too ill-conditioned for
those residues, the multiplicities are read off the pairing's values on
one circle per group instead, by the contour moments of `rational`, the
rule `pf_from_ratio` applies to the roots of B.  `_pairing` evaluates a
stack of pairings at a stack of points by one stacked solve.

u(t) is recovered as a rational function on one of two routes.  Each
checks its result at 20 points spanning +-3.3 max|p| (one unit grid scaled
per row), to RECOVER_TOL of the largest value, against resolvent solves,
which do not depend on the eigendecomposition they check.  `_from_pairing`
builds the symbols of all bilinear rows in one pass of `rational`'s
stacked canonicalizer (`_canonical_rows`), and `_checked` evaluates all
rows by one broadcast over their stacked flat views (`rational._flat_stack`,
the stack the Sobolev norms are summed over).
- `_recover_many(dec, times)`, for `remainder_norms` and `growth_fit`,
  is stacked over the time axis from the pairing to the returned symbols:
  S(t) and W(t) for all times are one `_flow_stack`, the partial fractions
  one `_from_pairing` call (one `eig`, one solve, one build), and the
  checks of all times one (T, 20, N, N) `_pairing` solve.
- `recover_rational(dec, t)`, one time, for `trajectory` (a loop over its
  times) and for public callers: a stack of one through `_from_pairing`,
  whose build takes `rational._canonical`'s per-pole loop, the cheaper for
  one row, checked by 20 `evolve_eval` calls.  `evolve_eval` is one
  `_resolvent` solve against the pairing (A, a, b) that `_flow_at` keeps
  for the last (decomposition, t) asked for; at one point this costs about
  a third of a stack-of-one `_pairing`.
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
Inside it, at 1e6 (3e6), the H^{1/2} drift is 2.3e-12 (6.8e-12), and
||u(t)||_{Hdot^s} for s = 1/2, 1, 2 is within 9.0e-12 (2.7e-11) of a 60-digit
S(t) of the same decomposition; both grow like t.
"""

from __future__ import annotations

import cmath
import math
import operator

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError, PreconditionError
from .hankel import SpectralDecomposition, _assemble_s, _cluster_mask, _range_basis, eigendecompose
from .rational import (LINK_RTOL, RECOVER_TOL, HardyRational, _canonical_rows, _circles,
                       _flat_stack, _from_moments, _NODES, _on_or_above_axis, _sobolev_indices,
                       _sobolev_norms, hardy_from_terms)

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
    S, W = _flow_stack(dec, [t])
    return FlowMatrix(S[0], W[0], float(t))


def _flow_stack(dec: SpectralDecomposition, times) -> tuple[np.ndarray, np.ndarray]:
    """S(t), (T, N, N), and W(t)'s diagonal, (T, N), for every t of times, the one place time
    enters S: w = W(t) beta, and the cluster blocks drift by t (lambda^2/2pi) beta beta^H."""
    ts = np.asarray(times, dtype=float)
    bad = ts[~np.isfinite(ts)]
    if bad.size:
        raise InputError(f"time must be finite, got {bad[0]}")
    lam2, beta = dec.lambdas**2, dec.betas
    blocks = lam2 / (2.0 * math.pi) * (beta[:, None] * beta.conj()) * ts[:, None, None] + dec.shift
    W = np.exp(0.5j * ts[:, None] * lam2)
    w = W * beta
    ww = w[..., :, None] * w.conj()[..., None, :]
    return _assemble_s(dec.lambdas, ww, _cluster_mask(dec.clusters), blocks), W


def _s_stack(dec: SpectralDecomposition, times) -> np.ndarray:
    """S(t) of `_flow_stack` alone, for readers of the matrices (`nongeneric_analysis`)."""
    return _flow_stack(dec, times)[0]


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


def _from_pairing(A: np.ndarray, a: np.ndarray, b: np.ndarray) -> list[HardyRational]:
    """Partial fractions of x -> -(i/2pi) a^T (A - x I)^{-1} b for a stack of pairings.

    A is (T, N, N) and a, b are (T, N); the result holds one function per
    pairing.  Its poles are the eigenvalues E of A, multiple ones included,
    from one stacked LAPACK `eig` whatever N is.
    A pairing keeps the residues (i/2pi)(a^T V)_k (V^{-1} b)_k of the
    bilinear expansion, from one stacked solve, unless E has a group (single
    linkage within LINK_RTOL max|E|) and an eigenvalue on the real line or an
    eigenvector matrix V too ill-conditioned for those residues
    (eps cond V > RECOVER_TOL).  Then every principal part comes from
    contour moments (`_from_moments`) on one circle per group (`_circles`).
    The circles of the whole stack are evaluated by one `_pairing` call.  A
    pairing keeps the bilinear residues if `_circles` draws none or if its
    moments miss the values on its circles; the whole stack does if a
    circle's solve or a moment pencil fails.  The bilinear rows are built in
    one `_canonical_rows` pass, a moment row by `hardy_from_terms`.  The one
    code that factors a pairing: a pole on or above the real axis is a
    `NumericalError`.
    """
    E, V = np.linalg.eig(A)
    n = E.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):   # past the float range: no near pair
        scale = abs(E).max(axis=-1, initial=0.0)
        near = abs(E[:, :, None] - E[:, None, :]) <= LINK_RTOL * scale[:, None, None]
    on_axis = _on_or_above_axis(E)
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
    if parts:
        bilinear = [i not in parts for i in range(len(E))]
        E, coeffs = E[bilinear], coeffs[bilinear]
    built = iter(_canonical_rows(HardyRational, E, coeffs))
    return [hardy_from_terms(parts[i]) if i in parts else next(built) for i in range(len(A))]


# the recovery postcondition's 20 points, before scaling to each row's poles
_UNIT_POINTS = np.linspace(-1.0, 1.0, 20)


def _check_points(poles: np.ndarray) -> np.ndarray:
    """The 20 points of the recovery postcondition for each row of poles (T, n), (T, 20),
    spanning the row's poles at their own scale: +-3.3 max|p|."""
    return 3.3 * np.abs(poles).max(axis=-1, initial=0.0)[:, None] * _UNIT_POINTS


def _checked(us: list[HardyRational], flat, xs, ref, ts) -> list[HardyRational]:
    """us, recovered at the times ts, if each matches the resolvent values ref (T, 20) at its
    check points xs to RECOVER_TOL of their largest.

    All rows are one broadcast evaluation of their stacked flat views `flat`, built by
    `rational._flat_stack`.
    The first failing time raises, and so does a value that is not finite.
    """
    poles, coeffs, powers = flat
    with np.errstate(all="ignore"):
        got = (coeffs[:, None] / (xs[..., None] - poles[:, None]) ** powers[:, None]).sum(axis=-1)
        err = np.abs(got - ref).max(axis=-1)
    bad = ~(err <= RECOVER_TOL * np.abs(ref).max(axis=-1))
    if bad.any():
        i = int(bad.argmax())
        raise NumericalError(f"defective recovery: pointwise mismatch {err[i]:.3e} at t={ts[i]}")
    return us


def recover_rational(dec: SpectralDecomposition, t: float) -> HardyRational:
    """The solution at time t as an exact element of the rational class."""
    A, a, b = _flow_at(dec, t)
    out = _from_pairing(A[None], a[None], b[None])
    flat = _flat_stack(out, dec.size)
    xs = _check_points(flat[0])
    return _checked(out, flat, xs, np.array([[evolve_eval(dec, t, x) for x in xs[0]]]), [t])[0]


def _recover_many(dec: SpectralDecomposition, times) -> list[HardyRational]:
    """`recover_rational` at every t of times, on stacks over the time axis: the first route
    of the module docstring."""
    ts = np.asarray(times, dtype=float)
    if not ts.size:
        return []
    S, W = _flow_stack(dec, ts)
    A, a, b = _flow_pairing(S, dec.lambdas, W * dec.betas)
    outs = _from_pairing(A, a, b)
    flat = _flat_stack(outs, dec.size)
    xs = _check_points(flat[0])
    return _checked(outs, flat, xs, _pairing(A, a, b, xs), ts.tolist())


def _kmax(kmax) -> int:
    """The number of conserved quantities as an integer (`operator.index`), at least 1."""
    try:
        kmax = operator.index(kmax)
    except TypeError:
        raise InputError(f"kmax must be an integer, got {kmax!r}") from None
    if kmax < 1:
        raise PreconditionError("kmax must be >= 1")
    return kmax


def spectral_conserved(dec: SpectralDecomposition, kmax: int) -> list[float]:
    """[J_2, J_4, ..., J_{2 kmax}] from the spectral data."""
    kmax = _kmax(kmax)
    return [float(np.sum(dec.lambdas ** (2 * k) * dec.nus**2)) for k in range(1, kmax + 1)]


def conserved_quantities(u: HardyRational, kmax: int) -> list[float]:
    """J_2k(u) = ||H_u^(k-1) u||^2 = sum_j lambda_j^2k nu_j^2 for k = 1..kmax, on K:
    ||d||^2, ||K conj(d)||^2, ... with d = L^H c_u, and no decomposition of u."""
    kmax = _kmax(kmax)
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
    _sobolev_indices(hs)
    for ob in observables:
        if ob not in _OBSERVABLES:
            raise PreconditionError(f"unknown observable {ob!r}")
    dec = eigendecompose(u0)
    uts = [recover_rational(dec, float(t)) for t in times]
    if "solitons" in observables:
        from .asymptotics import _minus_solitons, soliton_params_from_spectrum

        sols = soliton_params_from_spectrum(dec)
        remainder = _sobolev_norms(_minus_solitons(uts, sols, times), (0.0,))[:, 0].tolist()
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
