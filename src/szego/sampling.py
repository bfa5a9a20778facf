"""Seeded random symbols and coordinates for the property suites and the CLI.

Draws are rejection-sampled towards well-conditioned spectral data: poles
comfortably below the axis and apart from each other, eigenvalue ratios
bounded away from zero, and the overall scale normalized.  Finite-difference
rate checks (the Euler-step consistency suite) need this; lopsided symbols
make the smallest channel's angle rate vanish like lambda^(2n-2) and drown
the comparison in curvature error.

A draw stays raw (pole, coefficient) pairs, in a symbol's (Re, Im) order,
until it passes the eigenvalue-ratio test: the lambda_j are the singular
values of the closed-form matrix K, the SVD `eigendecompose` takes, and
most draws fail here.  Only a draw that passes is built as a symbol, scaled
by scale_to / sigma_max (bitwise its lambda_max), decomposed in full (its
postconditions, the Blaschke check H_u g = u among them, read on that K) and
put to the genericity and speed-gap tests.  `_conditioned` returns that
decomposition too, which `szego roundtrip` reuses; the public samplers do not.

The ratio test runs on blocks of `_BLOCK` draws: one stacked pass of
`hankel._range_stack` (Gram matrices, conditioning, Cholesky factors, K)
and one stacked SVD, the LAPACK calls `eigendecompose` makes one draw at a
time, on the same matrices, so the singular values are bitwise the same.
The generator's state is recorded after every draw.  The draws of a block
are then tested in draw order, and on acceptance the generator is set back
to the state after the accepted draw, so the draws past it in the block
are never seen.  The accepted draws and the generator's stream are
therefore those of drawing and decomposing one symbol at a time.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, NumericalError, PreconditionError
from .hankel import SpectralDecomposition, _range_stack, eigendecompose
from .rational import HardyRational, as_hardy, hardy_from_terms
from .actionangle import ActionAngleCoords

__all__ = [
    "random_symbol",
    "random_generic",
    "random_strongly_generic",
    "random_coords",
]

_MAX_TRIES = 5000
_BLOCK = 8          # draws per stacked ratio test


def _check_degree(n: int) -> None:
    if n < 1:
        raise InputError(f"degree must be at least 1, got {n}")


def _draw(n: int, rng: np.random.Generator, min_sep: float = 0.5) -> list[tuple[complex, complex]]:
    """A draw's (pole, coefficient) pairs, sorted by (Re, Im) as `hardy_from_terms` sorts.

    A try takes its 2n uniforms, then (if the poles pass) its 2n normals, in one
    call each: the doubles and generator state of one scalar call per real part.
    Raises NumericalError when `_MAX_TRIES` tries all miss the constraints.
    """
    for _ in range(_MAX_TRIES):
        d = rng.random(2 * n).tolist()
        poles = [complex(-1.5 + 3.0 * d[i], -(0.5 + (1.6 - 0.5) * d[i + 1]))
                 for i in range(0, 2 * n, 2)]
        if not all(abs(poles[i] - poles[j]) >= min_sep
                   for i in range(n) for j in range(i + 1, n)):
            continue
        x = rng.standard_normal(2 * n).tolist()
        coeffs = [complex(x[i], x[i + 1]) for i in range(0, 2 * n, 2)]
        if any(abs(c) < 0.2 for c in coeffs):
            continue
        return sorted(zip(poles, coeffs), key=lambda pc: (pc[0].real, pc[0].imag))
    raise NumericalError(f"rejection sampling failed: no degree-{n} symbol in {_MAX_TRIES} tries")


def random_symbol(n: int, rng: np.random.Generator, min_sep: float = 0.5) -> HardyRational:
    """A degree-n symbol with simple, well-separated poles.

    Raises NumericalError when `_MAX_TRIES` draws all miss the constraints.
    """
    _check_degree(n)
    if not math.isfinite(min_sep):
        raise InputError(f"min_sep must be finite, got {min_sep}")
    return hardy_from_terms([(p, [c]) for p, c in _draw(n, rng, min_sep)])


def _sigmas(draws: list) -> list:
    """Singular values of K for each `_draw`, None where the Gram test fails.

    One stacked pass; if LAPACK fails on the stack, one pass per draw, and
    a draw it fails on is rejected, as it is when decomposed alone.
    """
    p, c = np.array(draws).transpose(2, 0, 1).copy()
    try:
        _, ok, _, K = _range_stack((0,) * p.shape[1], p, c)
        sigma = iter(np.linalg.svd(K)[1])
    except np.linalg.LinAlgError:
        if len(draws) == 1:
            return [None]
        return [s for d in draws for s in _sigmas([d])]
    return [next(sigma) if good else None for good in ok]


def _conditioned(n, rng, want, lam_ratio, scale_to) -> tuple[HardyRational, SpectralDecomposition]:
    _check_degree(n)
    if not math.isfinite(lam_ratio):
        raise InputError(f"lam_ratio must be finite, got {lam_ratio}")
    if scale_to is not None and not (math.isfinite(scale_to) and scale_to > 0):
        raise InputError(f"scale_to must be None or finite and positive, got {scale_to}")
    tries = 0
    while tries < _MAX_TRIES:
        draws, states, error = [], [], None
        while len(draws) < min(_BLOCK, _MAX_TRIES - tries):
            try:
                draws.append(_draw(n, rng))
            except Exception as e:     # raised once the draws before it are tested
                error = e
                break
            states.append(rng.bit_generator.state)
        tries += len(draws)
        for pairs, state, sigma in zip(draws, states, _sigmas(draws) if draws else []):
            if sigma is None or sigma[-1] < lam_ratio * sigma[0]:
                continue
            u = hardy_from_terms([(p, [c]) for p, c in pairs])
            if scale_to is not None:
                u = as_hardy((scale_to / sigma[0]) * u)
            try:
                dec = eigendecompose(u)
            except (NumericalError, PreconditionError, np.linalg.LinAlgError):
                continue
            if want == "generic" and dec.genericity == "non_generic":
                continue
            if want == "strongly_generic" and dec.genericity != "strongly_generic":
                continue
            if want == "strongly_generic":
                speeds = np.sort(dec.lambdas**2 * dec.nus**2)
                if np.any(np.diff(speeds) < 0.05 * speeds[-1]):
                    continue
            rng.bit_generator.state = state
            return u, dec
        if error is not None:
            raise error
    raise NumericalError("rejection sampling failed; loosen the constraints")


def random_generic(n: int, rng: np.random.Generator, lam_ratio: float = 0.05,
                   scale_to: float | None = 0.8) -> HardyRational:
    """A generic symbol with bounded eigenvalue ratio and normalized scale.

    Finite-difference rate checks should request a stronger `lam_ratio`
    (0.45 keeps the smallest channel's rates measurable); the default only
    guards against near-degenerate spectra, which matters for degrees >= 4
    where small eigenvalue ratios are the norm.

    Reach at the defaults: n = 1 to 3, and 4 but for seeds 24, 39, 40, 61 and
    99 of 0 to 99; those, and n = 5 to 8 (seeds 0 to 4), raise NumericalError.
    `chi_inverse(random_coords(n, rng))` reaches higher degrees.
    """
    return _conditioned(n, rng, "generic", lam_ratio, scale_to)[0]


def random_strongly_generic(n: int, rng: np.random.Generator,
                            lam_ratio: float = 0.2,
                            scale_to: float | None = 0.8) -> HardyRational:
    """Strongly generic draw with separated soliton speeds.

    Reach at the defaults: n = 1 to 3.  At n = 4 to 6 (seeds 0 to 4) no draw
    of `_MAX_TRIES` passes and NumericalError is raised.
    """
    return _conditioned(n, rng, "strongly_generic", lam_ratio, scale_to)[0]


def random_coords(n: int, rng: np.random.Generator) -> ActionAngleCoords:
    """A random point of the coordinate domain with moderate conditioning."""
    _check_degree(n)
    lam2 = np.cumsum(rng.uniform(0.25, 1.0, n))
    nus = rng.uniform(0.6, 1.8, n)
    return ActionAngleCoords(
        tuple(float(v) for v in 2.0 * lam2 * nus**2),
        tuple(float(v) for v in 4.0 * math.pi * lam2),
        tuple(float(v) for v in rng.uniform(0.0, 2.0 * math.pi, n)),
        tuple(float(v) for v in rng.uniform(-1.5, 1.5, n)),
    )
