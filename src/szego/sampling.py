"""Seeded random symbols and coordinates for the property suites and the CLI.

Draws are rejection-sampled towards well-conditioned spectral data: poles
comfortably below the axis and apart from each other, eigenvalue ratios
bounded away from zero, and the overall scale normalized.  Finite-difference
rate checks (the Euler-step consistency suite) need this; lopsided symbols
make the smallest channel's angle rate vanish like lambda^(2n-2) and drown
the comparison in curvature error.

A draw is tested in two steps.  First the eigenvalue ratio: the lambda_j
are the singular values of one SVD of the closed-form matrix K, the same
SVD `eigendecompose` takes, and most draws fail here.  Only a draw that
passes is decomposed in full and put to the genericity and speed-gap
tests.  The accepted draws and the generator's stream are those of
decomposing every draw; the symbol returned (rescaled or not) is not
decomposed again, since every caller decomposes it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError, PreconditionError
from .hankel import _takagi_svd, eigendecompose
from .rational import HardyRational, as_hardy, hardy_from_terms
from .actionangle import ActionAngleCoords

__all__ = [
    "random_symbol",
    "random_generic",
    "random_strongly_generic",
    "random_coords",
]

_MAX_TRIES = 5000


def random_symbol(n: int, rng: np.random.Generator, min_sep: float = 0.5) -> HardyRational:
    """A degree-n symbol with simple, well-separated poles.

    Raises NumericalError when `_MAX_TRIES` draws all miss the constraints.
    """
    for _ in range(_MAX_TRIES):
        poles = [complex(rng.uniform(-1.5, 1.5), -rng.uniform(0.5, 1.6))
                 for _ in range(n)]
        ok = all(
            abs(poles[i] - poles[j]) >= min_sep
            for i in range(n) for j in range(i + 1, n)
        )
        if not ok:
            continue
        coeffs = [complex(rng.normal(), rng.normal()) for _ in range(n)]
        if any(abs(c) < 0.2 for c in coeffs):
            continue
        return hardy_from_terms([(p, [c]) for p, c in zip(poles, coeffs)])
    raise NumericalError(f"rejection sampling failed: no degree-{n} symbol in {_MAX_TRIES} tries")


def _conditioned(n, rng, want, lam_ratio, scale_to) -> HardyRational:
    for _ in range(_MAX_TRIES):
        u = random_symbol(n, rng)
        try:
            sigma = _takagi_svd(u).sigma
            if sigma[-1] < lam_ratio * sigma[0]:
                continue
            dec = eigendecompose(u)
        except (NumericalError, PreconditionError, np.linalg.LinAlgError):
            continue
        if want == "generic" and dec.genericity == "non_generic":
            continue
        if want == "strongly_generic" and dec.genericity != "strongly_generic":
            continue
        if want == "strongly_generic":
            speeds = np.sort(dec.lambdas**2 * dec.nus**2)
            if np.min(np.diff(speeds)) < 0.05 * speeds[-1]:
                continue
        if scale_to is not None:
            u = as_hardy((scale_to / dec.lambdas[-1]) * u)
        return u
    raise NumericalError("rejection sampling failed; loosen the constraints")


def random_generic(n: int, rng: np.random.Generator, lam_ratio: float = 0.05,
                   scale_to: float | None = 0.8) -> HardyRational:
    """A generic symbol with bounded eigenvalue ratio and normalized scale.

    Finite-difference rate checks should request a stronger `lam_ratio`
    (0.45 keeps the smallest channel's rates measurable); the default only
    guards against near-degenerate spectra, which matters for degrees >= 4
    where small eigenvalue ratios are the norm.
    """
    return _conditioned(n, rng, "generic", lam_ratio, scale_to)


def random_strongly_generic(n: int, rng: np.random.Generator,
                            lam_ratio: float = 0.2,
                            scale_to: float | None = 0.8) -> HardyRational:
    """Strongly generic draw with separated soliton speeds."""
    return _conditioned(n, rng, "strongly_generic", lam_ratio, scale_to)


def random_coords(n: int, rng: np.random.Generator) -> ActionAngleCoords:
    """A random point of the coordinate domain with moderate conditioning."""
    lam2 = np.cumsum(rng.uniform(0.25, 1.0, n))
    nus = rng.uniform(0.6, 1.8, n)
    return ActionAngleCoords(
        tuple(float(v) for v in 2.0 * lam2 * nus**2),
        tuple(float(v) for v in 4.0 * math.pi * lam2),
        tuple(float(v) for v in rng.uniform(0.0, 2.0 * math.pi, n)),
        tuple(float(v) for v in rng.uniform(-1.5, 1.5, n)),
    )
