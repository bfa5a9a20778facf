"""Soliton resolution, the double-eigenvalue pathology, and Sobolev growth.

For strongly generic data the solution splits into one soliton per
eigenchannel,

    u(t, x) = sum_j e^{-i t lambda_j^2} C_j / (x - c_j t - p_j) + eps(t, x),

with amplitude C_j = i lambda_j conj(beta_j)^2 / (2 pi), center
p_j = Re (T e_j, e_j) - i nu_j^2 / (4 pi), speed c_j = lambda_j^2 nu_j^2
/ (2 pi) and frequency lambda_j^2; the remainder decays like 1/t in every
Sobolev norm.  The overall amplitude sign is anchored by the rank-one case,
where the decomposition must be exact with eps identically zero.  Solitons
at a time, poles and coefficients, are formed only by `_solitons_at`.

A degree-2 symbol whose squared Hankel operator has a double eigenvalue
behaves differently: `eigendecompose` already rotates the cluster so that
the second coordinate of g vanishes, so the flow matrix is 2x2 with a
single linear-drift entry, S(t) = [[c1 + A t, d1], [c2, d2]].  Its
discriminant D(t) = A^2 t^2 + B t + C steers E_1 = (tr + sqrt D)/2 to a
finite limit and E_2 = det S(t) / E_1 (Vieta, exact to rounding up to
t = 1e9, where (tr - sqrt D)/2 cancels) to the real axis at rate 1/t^2,
and the Sobolev norms above the conserved 1/2 level grow like |t|^(2s-1).
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
    _canonical_rows,
    _from_flat,
    _sobolev_indices,
    _sobolev_norms,
    h_half_norm,
    simple_pole,
)

MIN_FIT_POINTS = 5        # fewest samples a remainder decay fit accepts

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


def _solitons_at(sols, times) -> tuple[np.ndarray, np.ndarray]:
    """(coefficients C e^{-i omega t}, poles p + c t), (T, J), of every soliton of sols at
    every t of times: the one place a soliton is advanced in time."""
    ts = np.asarray(times, dtype=float)[:, None]
    amp, pole, speed, freq = np.array([(sp.amplitude, sp.pole, sp.speed, sp.frequency)
                                       for sp in sols]).T
    return amp * np.exp(-1j * freq.real * ts), pole + speed.real * ts


def soliton_term(sp: SolitonParams, t: float) -> HardyRational:
    coeff, pole = _solitons_at([sp], [t])
    return simple_pole(coeff[0, 0], pole[0, 0])


def _minus_solitons(uts, sols, times) -> list[HardyRational]:
    """Each u(t) of uts minus every soliton at its time t, in one merge of both sets of entries.

    The rows of N = len(sols) simple poles, those strongly generic data recover, are one
    stacked concatenation through `_canonical_rows`; any other row is merged on its own.
    """
    coeffs, poles = _solitons_at(sols, times)
    coeffs = -coeffs
    n, layout = len(sols), (0,) * len(sols)
    rows = [i for i, ut in enumerate(uts) if ut._flat[0] == layout]

    def stacked(k, extra):
        return np.hstack((np.array([uts[i]._flat[k] for i in rows]).reshape(len(rows), n),
                          extra[rows]))

    out = dict(zip(rows, _canonical_rows(HardyRational, stacked(1, poles), stacked(2, coeffs))))
    return [out[i] if i in out else
            _from_flat(ut._flat[0] + layout, np.hstack((ut._flat[1], poles[i])),
                       np.hstack((ut._flat[2], coeffs[i])))
            for i, ut in enumerate(uts)]


def fit_power_law(times, values) -> tuple[float, float]:
    """Slope and intercept of log |value| against log |t|.

    Fails closed: a time that is 0 or not finite, fewer than two distinct |t|, or a value
    that is not positive and finite is a `PreconditionError`, never a NaN fit.
    """
    t = np.abs(np.asarray(times, dtype=float))
    v = np.asarray(values, dtype=float)
    if not (np.isfinite(t) & (t > 0)).all():
        raise PreconditionError("a power-law fit needs finite nonzero times")
    if len(np.unique(t)) < 2:
        raise PreconditionError("a power-law fit needs at least two distinct |t|")
    if not (np.isfinite(v) & (v > 0)).all():
        raise PreconditionError("a power-law fit needs positive finite values")
    ts, vs = np.log(t), np.log(v)
    tbar = ts.mean()
    vbar = vs.mean()
    slope = float(np.dot(ts - tbar, vs - vbar) / np.dot(ts - tbar, ts - tbar))
    return slope, float(vbar - slope * tbar)


def _fit_decay(times, values, scale: float):
    """Power-law fit over all provided samples, at least MIN_FIT_POINTS of them.

    The 1/t remainder carries bounded prefactors oscillating on the O(1)
    timescale 4 pi / (lambda gaps); log-spaced samples alias them, so the
    slope needs many samples (about a hundred over two decades) to average
    out.  An identically-zero remainder (exact soliton) reports -inf: one
    below 1e-13 of scale, u0's norm in the same H^s, at every time, so that
    the answer does not change under the amplitude-time scaling mu u(mu^2 t).
    """
    t = np.abs(np.asarray(times, dtype=float))
    if len(t) < MIN_FIT_POINTS:
        raise PreconditionError("insufficient samples")
    vals = np.asarray(values, dtype=float)
    if np.max(vals) < 1e-13 * scale:
        return float("-inf"), float("-inf")
    return fit_power_law(t, np.maximum(vals, 1e-300))


def remainder_norms(u0: HardyRational, times, s_values) -> ResolutionReport:
    """Track ||u(t) - sum of solitons||_{H^s} and fit the decay exponents.

    The norm is the inhomogeneous sqrt(L2^2 + Hdot_s^2), the L2 norm at
    s = 0.  u(t) is recovered at every time by `flow._recover_many`, stacked
    over the time axis from the pairing to the returned symbols; the
    solitons of every time are subtracted in one stacked concatenation
    (`_minus_solitons`, built by `rational._canonical_rows`), and the norms
    of all remainders, and u0's, come from one `_sobolev_norms` call.  A
    remainder reads as zero against u0's norm in the same H^s.
    """
    s_values = tuple(_sobolev_indices(s_values).tolist())
    times = tuple(float(t) for t in times)
    if any(t == 0 for t in times):
        raise PreconditionError("remainder decay is measured at nonzero times")
    if len({t > 0 for t in times}) != 1:
        raise PreconditionError("times must share one sign (one direction tag)")
    dec = eigendecompose(u0)
    sols = soliton_params_from_spectrum(dec)
    eps = _minus_solitons(_recover_many(dec, times), sols, times)
    l2, *hdots = _sobolev_norms([u0, *eps], (0.0, *s_values)).T
    norms = np.empty((len(times) + 1, len(s_values)))
    for k, (s, b) in enumerate(zip(s_values, hdots)):
        norms[:, k] = l2 if s == 0 else np.sqrt(l2 * l2 + b * b)
    scales, norms = norms[0], norms[1:]
    exponents = tuple(
        _fit_decay(times, norms[:, k], scales[k])[0] for k in range(len(s_values))
    )
    direction = "forward" if times[0] > 0 else "backward"
    return ResolutionReport(sols, times, s_values, norms, exponents, direction)


def nongeneric_analysis(u0: HardyRational, times=None) -> NonGenericReport:
    """Pole-track analysis for a degree-2 symbol with a double eigenvalue, in one broadcast."""
    dec = eigendecompose(u0)
    if dec.size != 2 or len(dec.clusters) != 1 or len(dec.clusters[0]) != 2:
        raise PreconditionError(
            "analysis requires a degree-2 symbol with an exact double eigenvalue"
        )
    betas = dec.betas
    if abs(betas[1]) > 1e-9 * abs(betas[0]):
        raise PreconditionError("basis rotation failed to annihilate beta_2")
    lam = float(dec.lambdas[0])
    nu1 = abs(betas[0])
    (c1, d1), (c2, d2) = dec.shift
    sol = _soliton(lam, betas[0], nu1, c1.real)
    A = sol.speed
    B = (lam**2 * nu1**2 / math.pi) * (c1 - d2)
    Cc = (c1 - d2) ** 2 + 4.0 * c2 * d1

    if times is None:
        times = tuple(float(v) for v in np.geomspace(1e2, 1e4, 17))
    times = tuple(float(t) for t in times)
    ts = np.array(times)
    At = A * ts
    root = np.sqrt(At**2 + B * ts + Cc)
    root = np.where(root.real * At < 0, -root, root)
    e1 = (At + c1 + d2 + root) / 2.0
    e2 = ((c1 + At) * d2 - d1 * c2) / e1          # det S(t) / E_1: no cancelling root
    # consistency with the assembled flow matrices: each has E_1 and E_2 as eigenvalues
    eig = np.linalg.eigvals(_s_stack(dec, times))
    gap = abs(eig[:, None, :] - np.stack((e1, e2), axis=-1)[..., None]).min(axis=-1)
    if (gap > 1e-6 * abs(e1)[:, None]).any():
        raise PreconditionError("closed-form eigenvalue track disagrees with S(t)")
    exponent, _ = fit_power_law(times, abs(e2.imag))
    return NonGenericReport(
        lam**2, sol, A, complex(B), complex(Cc),
        times, tuple(e1.tolist()), tuple(e2.tolist()), float(exponent),
    )


def growth_fit(u0: HardyRational, s: float, times) -> dict:
    """Fit the growth slope of the homogeneous H^s norm along the flow.

    Returns the fitted slope of log ||u(t)||_{Hdot^s} against log |t| plus
    the relative drift of the conserved H^(1/2) quantity over the same
    times.  For the double-eigenvalue class the slope approaches 2s-1 for
    s > 1/2 and 0 at the conserved s = 1/2.  The one-s case of `_growth_fits`.
    """
    return _growth_fits(u0, (s,), times)[0]


def _growth_fits(u0: HardyRational, svals, times) -> list[dict]:
    """`growth_fit` for every s of svals, from one recovery of u(t).

    u(t) is recovered at every time by `flow._recover_many`, stacked over
    the time axis from the pairing to the returned symbols (one build of
    every row's symbol by `rational._canonical_rows`, one check), and the
    norms of all times and all s come from one `_sobolev_norms` call; each
    s's column is the one-s call's.
    """
    _sobolev_indices(svals)
    times = tuple(float(t) for t in times)
    if len(times) < MIN_FIT_POINTS:
        raise PreconditionError("insufficient samples")
    dec = eigendecompose(u0)
    l2, half, *hdots = _sobolev_norms(_recover_many(dec, times), (0.0, 0.5, *svals)).T
    ref = h_half_norm(u0)
    drift = float(np.max(abs(np.sqrt(l2 * l2 + half * half) - ref))) / ref
    fits = []
    for s, hdot in zip(svals, hdots):
        vals = hdot.tolist()
        slope, intercept = fit_power_law(times, vals)
        fits.append({
            "s": float(s),
            "slope": slope,
            "intercept": intercept,
            "h_half_drift": float(drift),
            "norms": vals,
            "times": times,
        })
    return fits
