"""Soliton resolution, the double-eigenvalue pathology, and Sobolev growth.

For strongly generic data the solution splits into one soliton per
eigenchannel,

    u(t, x) = sum_j e^{-i t lambda_j^2} C_j / (x - c_j t - p_j) + eps(t, x),

with amplitude C_j = i lambda_j conj(beta_j)^2 / (2 pi), center
p_j = Re (T e_j, e_j) - i nu_j^2 / (4 pi), speed c_j = lambda_j^2 nu_j^2
/ (2 pi) and frequency lambda_j^2; the remainder decays like 1/t in every
Sobolev norm.  The overall amplitude sign is anchored by the rank-one case,
where the decomposition must be exact with eps identically zero.

A degree-2 symbol whose squared Hankel operator has a double eigenvalue
behaves differently: `eigendecompose` already rotates the cluster so that
the second coordinate of g vanishes, so the flow matrix is 2x2 with a
single linear-drift entry, its discriminant D(t) = A^2 t^2 + B t + C
steers one eigenvalue to a finite limit and the other to the real axis at
rate 1/t^2, and the Sobolev norms above the conserved 1/2 level grow like
|t|^(2s-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .hankel import SpectralDecomposition, eigendecompose
from .flow import _recover_many, _s_stack
from .rational import (
    HardyRational,
    _sobolev_norms,
    as_hardy,
    h_half_norm,
    simple_pole,
)

__all__ = [
    "SolitonParams",
    "ResolutionReport",
    "NonGenericReport",
    "soliton_params_from_spectrum",
    "soliton_term",
    "remainder_norms",
    "nongeneric_analysis",
    "growth_fit",
    "fit_power_law",
]


@dataclass(frozen=True)
class SolitonParams:
    """One traveling-wave channel e^{-i omega t} C / (x - c t - p)."""

    amplitude: complex
    pole: complex
    speed: float
    frequency: float


@dataclass(frozen=True)
class ResolutionReport:
    solitons: tuple[SolitonParams, ...]
    times: tuple[float, ...]
    s_values: tuple[float, ...]
    norms: np.ndarray          # len(times) x len(s_values)
    exponents: tuple[float, ...]
    direction: str             # "forward" or "backward"


@dataclass(frozen=True)
class NonGenericReport:
    eigenvalue: float          # the double lambda^2
    soliton: SolitonParams
    drift_a: float             # A = lambda^2 nu_1^2 / (2 pi)
    disc_b: complex
    disc_c: complex
    times: tuple[float, ...]
    e1_track: tuple[complex, ...]
    e2_track: tuple[complex, ...]
    e2_imag_exponent: float    # fitted decay rate of Im E_2 (expect -2)


def soliton_params_from_spectrum(dec: SpectralDecomposition) -> tuple[SolitonParams, ...]:
    """One soliton per channel; requires strongly generic data."""
    if dec.genericity != "strongly_generic":
        raise PreconditionError("soliton resolution requires strongly generic data")
    return tuple(_soliton(float(dec.lambdas[j]), dec.betas[j], float(dec.nus[j]),
                          dec.shift[j, j].real) for j in range(dec.size))


def _soliton(lam: float, beta: complex, nu: float, gamma: float) -> SolitonParams:
    """The channel's soliton: C = i lam conj(beta)^2 / 2pi, p = gamma - i nu^2 / 4pi,
    c = lam^2 nu^2 / 2pi and omega = lam^2."""
    C = 1j * lam * np.conj(beta) ** 2 / (2.0 * math.pi)
    p = complex(gamma, -nu**2 / (4.0 * math.pi))
    return SolitonParams(complex(C), p, lam**2 * nu**2 / (2.0 * math.pi), lam**2)


def soliton_term(sp: SolitonParams, t: float) -> HardyRational:
    coeff = sp.amplitude * np.exp(-1j * sp.frequency * t)
    return simple_pole(complex(coeff), sp.pole + sp.speed * t)


def fit_power_law(times, values) -> tuple[float, float]:
    """Slope and intercept of log |value| against log |t|."""
    ts = np.log(np.abs(np.asarray(times, dtype=float)))
    vs = np.log(np.asarray(values, dtype=float))
    tbar = ts.mean()
    vbar = vs.mean()
    slope = float(np.dot(ts - tbar, vs - vbar) / np.dot(ts - tbar, ts - tbar))
    return slope, float(vbar - slope * tbar)


def _fit_decay(times, values, min_points: int = 5):
    """Power-law fit over all provided samples.

    The 1/t remainder carries bounded prefactors oscillating on the O(1)
    timescale 4 pi / (lambda gaps); log-spaced samples alias them, so the
    slope needs many samples (about a hundred over two decades) to average
    out.  An identically-zero remainder (exact soliton) reports -inf.
    """
    t = np.abs(np.asarray(times, dtype=float))
    if len(t) < min_points:
        raise PreconditionError("insufficient samples")
    vals = np.asarray(values, dtype=float)
    if np.max(vals) < 1e-13:
        return float("-inf"), float("-inf")
    return fit_power_law(t, np.maximum(vals, 1e-300))


def remainder_norms(u0: HardyRational, times, s_values) -> ResolutionReport:
    """Track ||u(t) - sum of solitons||_{H^s} and fit the decay exponents.

    The norm is the inhomogeneous sqrt(L2^2 + Hdot_s^2), the L2 norm at
    s = 0.  u(t) is recovered at every time on the time-stacked route
    (`flow._recover_many`); the solitons are subtracted time by time, and
    the norms of all remainders come from one `_sobolev_norms` call.
    """
    times = tuple(float(t) for t in times)
    if any(t == 0 for t in times):
        raise PreconditionError("remainder decay is measured at nonzero times")
    if len({t > 0 for t in times}) != 1:
        raise PreconditionError("times must share one sign (one direction tag)")
    dec = eigendecompose(u0)
    sols = soliton_params_from_spectrum(dec)
    s_values = tuple(float(s) for s in s_values)
    eps = []
    for t, ut in zip(times, _recover_many(dec, times)):
        for sp in sols:
            ut = ut - soliton_term(sp, t)
        eps.append(as_hardy(ut))
    l2, *hdots = _sobolev_norms(eps, (0.0, *s_values)).T
    norms = np.empty((len(times), len(s_values)))
    for k, (s, b) in enumerate(zip(s_values, hdots)):
        norms[:, k] = l2 if s == 0 else np.sqrt(l2 * l2 + b * b)
    exponents = tuple(
        _fit_decay(times, norms[:, k])[0] for k in range(len(s_values))
    )
    direction = "forward" if times[0] > 0 else "backward"
    return ResolutionReport(sols, times, s_values, norms, exponents, direction)


def nongeneric_analysis(u0: HardyRational, times=None) -> NonGenericReport:
    """Pole-track analysis for a degree-2 symbol with a double eigenvalue."""
    dec = eigendecompose(u0)
    if dec.size != 2 or len(dec.clusters) != 1 or len(dec.clusters[0]) != 2:
        raise PreconditionError(
            "analysis requires a degree-2 symbol with an exact double eigenvalue"
        )
    T = dec.shift
    betas = dec.betas
    if abs(betas[1]) > 1e-9 * abs(betas[0]):
        raise PreconditionError("basis rotation failed to annihilate beta_2")
    lam = float(dec.lambdas[0])
    nu1 = abs(betas[0])
    c1, c2 = T[0, 0], T[1, 0]
    d1, d2 = T[0, 1], T[1, 1]
    sol = _soliton(lam, betas[0], nu1, c1.real)
    A = sol.speed
    B = (lam**2 * nu1**2 / math.pi) * (c1 - d2)
    Cc = (c1 - d2) ** 2 + 4.0 * c2 * d1

    if times is None:
        times = tuple(float(v) for v in np.geomspace(1e2, 1e4, 17))
    times = tuple(float(t) for t in times)
    e1s, e2s = [], []
    for t in times:
        disc = (A * t) ** 2 + B * t + Cc
        root = np.sqrt(complex(disc))
        if root.real * (A * t) < 0:
            root = -root
        tr = (A * t + c1 + d2)
        e1s.append(complex((tr + root) / 2.0))
        e2s.append(complex((tr - root) / 2.0))
    # consistency with the assembled flow matrices: each has E_1 as an eigenvalue
    e1 = np.array(e1s)
    gap = abs(np.linalg.eigvals(_s_stack(dec, times)) - e1[:, None]).min(axis=-1)
    if (gap > 1e-6 * np.maximum(1.0, abs(e1))).any():
        raise PreconditionError("closed-form eigenvalue track disagrees with S(t)")
    exponent, _ = fit_power_law(times, [abs(z.imag) for z in e2s])
    return NonGenericReport(
        lam**2, sol, A, complex(B), complex(Cc),
        times, tuple(e1s), tuple(e2s), float(exponent),
    )


def growth_fit(u0: HardyRational, s: float, times) -> dict:
    """Fit the growth slope of the homogeneous H^s norm along the flow.

    Returns the fitted slope of log ||u(t)||_{Hdot^s} against log |t| plus
    the relative drift of the conserved H^(1/2) quantity over the same
    times.  For the double-eigenvalue class the slope approaches 2s-1 for
    s > 1/2 and 0 at the conserved s = 1/2.  u(t) is recovered at every
    time on the time-stacked route (`flow._recover_many`), and the norms
    of all times come from one `_sobolev_norms` call.
    """
    times = tuple(float(t) for t in times)
    if len(times) < 5:
        raise PreconditionError("insufficient samples")
    dec = eigendecompose(u0)
    l2, half, hdot = _sobolev_norms(_recover_many(dec, times), (0.0, 0.5, s)).T
    vals = hdot.tolist()
    slope, intercept = fit_power_law(times, vals)
    ref = h_half_norm(u0)
    drift = float(np.max(abs(np.sqrt(l2 * l2 + half * half) - ref))) / ref
    return {
        "s": float(s),
        "slope": slope,
        "intercept": intercept,
        "h_half_drift": float(drift),
        "norms": vals,
        "times": times,
    }
