"""Reference computations for the benchmark, made apart from szego.

Nothing here imports szego.  A symbol is given as a list of
``(pole, [c_1, ..., c_m])`` pairs meaning ``sum c_l / (x - pole)^l``; the
checkers read the program's outputs through their public fields only.

Every checker returns ``None`` when the output passes and a one-line
description of the first violation otherwise.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.integrate import quad

MP_DPS = 40
LAM2_ATOL = 1e-10        # |lambda^2 error| allowed, relative to lambda^2_max
LAM2_RTOL = 1e-8         # plus this share of the eigenvalue itself
NORM_RTOL = 1e-9         # mass, H^(1/2) and their conservation
SHIFT_TOL = 1e-7         # spectrum of the shift matrix T vs. the conjugated poles
SOLITON_TOL = 1e-10      # exact one-soliton formula (acceptance criterion 1 level)
REMAINDER_EXPONENT = (-1.5, -0.5)   # fitted decay exponent around the 1/t law
GROWTH_SLOPE_TOL = 0.05  # |slope - (2s - 1)| (acceptance criterion 6 level)
GROWTH_DRIFT_TOL = 1e-8  # H^(1/2) drift along the growth run
ORACLE_J2_TOL = 1e-12    # discrete mass drift of the RK4 oracle
ROUNDTRIP_TOL = 1e-7     # the roundtrip command's default tolerance

DOUBLE_EIG_LAM2 = (1.0 / 9.0, 1.0 / 9.0)


def is_simple(terms) -> bool:
    return all(len(cs) == 1 for _, cs in terms)


def cauchy_lambda2(poles, coeffs, dps: int = MP_DPS) -> np.ndarray:
    """Eigenvalues of M conj(M) with M[j, a] = c_j / (p_j - conj p_a), ascending.

    H_u f_a = sum_j M[j, a] f_j on the basis f_a = 1/(x - p_a), and H_u is
    antilinear, so H_u^2 acts on coordinates as M conj(M): its eigenvalues
    are the lambda_j^2.  Computed in `dps`-digit arithmetic.
    """
    n = len(poles)
    with mpmath.workdps(dps):
        p = [mpmath.mpc(z) for z in poles]
        c = [mpmath.mpc(z) for z in coeffs]
        M = mpmath.matrix(n, n)
        for j in range(n):
            for a in range(n):
                M[j, a] = c[j] / (p[j] - mpmath.conj(p[a]))
        A = M * M.conjugate()
        if n == 1:
            vals = [A[0, 0]]
        else:
            vals = mpmath.eig(A, left=False, right=False)
        return np.sort(np.array([float(mpmath.re(v)) for v in vals]))


def gram_norm2(poles, coeffs) -> float:
    """||u||^2 from the Cauchy Gram matrix (f_a, f_b) = -2 pi i / (p_a - conj p_b)."""
    p = np.asarray(poles, dtype=complex)
    c = np.asarray(coeffs, dtype=complex)
    G = -2j * math.pi / (p[:, None] - np.conj(p)[None, :])
    return float(np.real(c @ G @ np.conj(c)))


def hdot_half2(poles, coeffs) -> float:
    """||u||^2 in Hdot^(1/2): (1/2pi) int_0^oo xi |u^(xi)|^2 in closed form."""
    p = np.asarray(poles, dtype=complex)
    c = np.asarray(coeffs, dtype=complex)
    D = p[:, None] - np.conj(p)[None, :]
    return float(np.real(-2.0 * math.pi * (c @ (1.0 / D**2) @ np.conj(c))))


def evaluate(terms, x):
    """sum_l c_l / (x - p)^l at real points x."""
    x = np.asarray(x, dtype=complex)
    out = np.zeros_like(x)
    for pole, cs in terms:
        for l, c in enumerate(cs, start=1):
            out = out + c / (x - pole) ** l
    return out


def quad_norm2(terms) -> float:
    """||u||^2 by adaptive quadrature on x = tan(theta)."""
    def f(th):
        x = math.tan(th)
        return abs(complex(evaluate(terms, x))) ** 2 / math.cos(th) ** 2

    val, _err = quad(f, -math.pi / 2, math.pi / 2, limit=400,
                     epsabs=0.0, epsrel=1e-12)
    return val


def norm2(terms) -> float:
    if is_simple(terms):
        return gram_norm2([p for p, _ in terms], [cs[0] for _, cs in terms])
    return quad_norm2(terms)


def soliton(C: complex, p: complex, t: float) -> tuple[complex, complex]:
    """(pole, coefficient) at time t of the exact soliton C e^{-i w t}/(x - p - c t)."""
    omega = abs(C) ** 2 / (4.0 * p.imag**2)
    c = abs(C) ** 2 / (-2.0 * p.imag)
    return p + c * t, C * complex(np.exp(-1j * omega * t))


def _match(a, b) -> float:
    """Largest distance of a greedy one-to-one matching of two point sets."""
    rest = list(b)
    worst = 0.0
    for z in a:
        k = min(range(len(rest)), key=lambda i: abs(rest[i] - z))
        worst = max(worst, abs(rest.pop(k) - z))
    return worst


def _rel(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def _lam2_gap(got, want) -> str | None:
    got = np.sort(np.asarray(got, dtype=float))
    want = np.sort(np.asarray(want, dtype=float))
    if got.shape != want.shape:
        return f"{got.size} eigenvalues, expected {want.size}"
    tol = LAM2_ATOL * want[-1] + LAM2_RTOL * want
    bad = np.abs(got - want) > tol
    if np.any(bad):
        j = int(np.argmax(bad))
        return f"lambda^2[{j}] = {got[j]:.15g}, reference {want[j]:.15g}"
    return None


class ForwardRef:
    """What one forward input must give: lambda^2, ||u||^2 and the poles.

    lambda^2 comes from `cauchy_lambda2` for simple poles (computed on first
    use) or is given; multiple-pole symbols without a given value have none.
    """

    def __init__(self, terms, lam2=None):
        self.terms = terms
        self.norm2 = norm2(terms)
        self._lam2 = None if lam2 is None else np.asarray(lam2, dtype=float)

    def lam2(self):
        if self._lam2 is None and is_simple(self.terms):
            self._lam2 = cauchy_lambda2([p for p, _ in self.terms],
                                        [cs[0] for _, cs in self.terms])
        return self._lam2


def check_forward(ref: ForwardRef, lambdas, nus, t_matrix, coords) -> str | None:
    """Output of eigendecompose -> t_matrix -> chi (coords None when skipped)."""
    lam2 = np.asarray(lambdas, dtype=float) ** 2
    want = ref.lam2()
    if want is not None:
        msg = _lam2_gap(lam2, want)
        if msg:
            return msg
    j2 = float(np.sum(lam2 * np.asarray(nus, dtype=float) ** 2))
    if _rel(j2, ref.norm2) > NORM_RTOL:
        return f"sum lambda^2 nu^2 = {j2:.15g}, ||u||^2 = {ref.norm2:.15g}"
    scale = max(1.0, max(abs(p) for p, _ in ref.terms))
    conj_poles = [p.conjugate() for p, cs in ref.terms for _ in cs]
    T = np.asarray(t_matrix)
    trace_gap = abs(np.trace(T) - sum(conj_poles))
    if trace_gap > SHIFT_TOL * scale * len(conj_poles):
        return f"trace T off the conjugated poles by {trace_gap:.3e}"
    if is_simple(ref.terms):
        gap = _match(np.linalg.eigvals(T), conj_poles)
        if gap > SHIFT_TOL * scale:
            return f"spectrum of T off the conjugated poles by {gap:.3e}"
    if coords is not None:
        return check_coords_of(coords, lam2, ref.norm2)
    return None


def check_coords_of(coords, lam2, mass: float) -> str | None:
    """chi output: 4 pi lambda^2 actions and sum of 2 lambda^2 nu^2 = 2||u||^2."""
    msg = _lam2_gap(np.asarray(coords.actions_lambda) / (4.0 * math.pi), lam2)
    if msg:
        return "actions_lambda: " + msg
    half = 0.5 * float(np.sum(coords.actions_i))
    if _rel(half, mass) > NORM_RTOL:
        return f"sum actions_i / 2 = {half:.15g}, ||u||^2 = {mass:.15g}"
    if any(not 0.0 <= a < 2.0 * math.pi for a in coords.angles):
        return "angle outside [0, 2 pi)"
    return None


def check_inverse(coords, terms, cache: dict | None = None) -> str | None:
    """chi_inverse output: its Cauchy lambda^2 must equal actions_lambda / 4 pi."""
    if len(terms) != coords.size or not is_simple(terms):
        return f"{len(terms)} poles for {coords.size} channels, or a multiple pole"
    key = tuple((p, cs[0]) for p, cs in terms)
    lam2 = None if cache is None else cache.get(key)
    if lam2 is None:
        lam2 = cauchy_lambda2([p for p, _ in key], [c for _, c in key])
        if cache is not None:
            cache[key] = lam2
    msg = _lam2_gap(lam2, np.asarray(coords.actions_lambda) / (4.0 * math.pi))
    if msg:
        return msg
    mass = gram_norm2([p for p, _ in key], [c for _, c in key])
    half = 0.5 * float(np.sum(coords.actions_i))
    if _rel(mass, half) > NORM_RTOL:
        return f"||u||^2 = {mass:.15g}, sum actions_i / 2 = {half:.15g}"
    return None


def check_trajectory(terms, times, rows, mass: float, h12: float | None) -> str | None:
    """Rows of trajectory(..., observables=(poles, coefficients, norms))."""
    if len(rows) != len(times):
        return f"{len(rows)} rows for {len(times)} times"
    ref_l2 = math.sqrt(mass)
    for row in rows:
        if _rel(row["L2"], ref_l2) > NORM_RTOL:
            return f"L2 = {row['L2']:.15g} at t = {row['time']}, ||u0|| = {ref_l2:.15g}"
    h0 = rows[0]["H12"] if h12 is None else h12
    for row in rows:
        if _rel(row["H12"], h0) > NORM_RTOL:
            return f"H12 = {row['H12']:.15g} at t = {row['time']}, initially {h0:.15g}"
    if len(terms) == 1 and len(terms[0][1]) == 1:
        (p, (C,)), = terms
        scale = max(1.0, abs(C))
        for row in rows:
            pole, coeff = soliton(C, p, row["time"])
            if (len(row["poles"]) != 1
                    or abs(row["poles"][0] - pole) > SOLITON_TOL * max(1.0, abs(pole))
                    or abs(row["coefficients"][0] - coeff) > SOLITON_TOL * scale):
                return f"soliton off the exact formula at t = {row['time']}"
    return None


def check_remainder(report, mass: float) -> str | None:
    """Soliton resolution: remainder decays towards 1/t, masses split exactly."""
    norms = np.asarray(report.norms)
    lo, hi = REMAINDER_EXPONENT
    for k, e in enumerate(report.exponents):
        if not lo <= e <= hi:
            return f"remainder exponent {e:.3f} (s = {report.s_values[k]}) outside [{lo}, {hi}]"
    q = max(1, len(norms) // 4)
    if np.any(np.mean(norms[-q:], axis=0) >= np.mean(norms[:q], axis=0)):
        return "remainder norm does not decrease"
    split = sum(math.pi * abs(sp.amplitude) ** 2 / -sp.pole.imag for sp in report.solitons)
    if _rel(split, mass) > NORM_RTOL:
        return f"soliton masses sum to {split:.15g}, ||u0||^2 = {mass:.15g}"
    return None


def check_growth(result: dict, s: float) -> str | None:
    want = 2.0 * s - 1.0
    if abs(result["slope"] - want) > GROWTH_SLOPE_TOL:
        return f"growth slope {result['slope']:.4f} for s = {s}, expected {want}"
    if result["h_half_drift"] > GROWTH_DRIFT_TOL:
        return f"H^(1/2) drift {result['h_half_drift']:.3e}"
    return None


def check_oracle(report: dict) -> str | None:
    """l2_error within the documented (pi/L)^2 |t| floor; mass kept by RK4."""
    floor = (math.pi / report["L"]) ** 2 * abs(report["t"])
    if not report["l2_error"] <= floor:
        return f"l2_error {report['l2_error']:.3e} above the floor {floor:.3e}"
    if not report["j2_drift_oracle"] <= ORACLE_J2_TOL:
        return f"oracle mass drift {report['j2_drift_oracle']:.3e}"
    return None


def check_roundtrip(code: int, doc: dict) -> str | None:
    if code != 0:
        return f"exit code {code}"
    for key in ("max_coords_error", "max_symbol_l2_error"):
        if not doc[key] <= ROUNDTRIP_TOL:
            return f"{key} = {doc[key]:.3e}"
    return None
