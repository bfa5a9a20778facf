"""Generalized action-angle coordinates and the explicit inverse spectral map.

The forward map packages the spectral data of a generic symbol as

    chi(u) = ({2 lambda_j^2 nu_j^2}, {4 pi lambda_j^2}, {2 phi_j}, {gamma_j}),

with angles stored as 2 phi_j because phi_j itself is only defined modulo pi
(the eigenvectors carry a sign ambiguity).  The inverse assembles the shift
matrix from coordinates alone: with beta_j = nu_j e^{i phi_j} it is the flow
matrix S(0) of `flow`, built by the assembly of `s_matrix`,

    S[k, j] = (lambda_j / 2 pi i)
              * (lambda_j beta_k conj(beta_j) - lambda_k conj(beta_k) beta_j)
              / (lambda_k^2 - lambda_j^2),            k != j,
    S[j, j] = gamma_j + i nu_j^2 / (4 pi),

and u is the flow's resolvent pairing (conj S, lambda conj(beta), conj(beta)),
whose poles are the eigenvalues of conj S.  Both are quadratic in beta, so
only 2 phi_j enters.  `flow._from_pairing` reads the partial fractions off
one eigendecomposition, fitting only when poles cluster into multiple poles.
The phase/sign convention matches the forward pipeline (it is pinned by the
rank-one case, where the reconstruction must return C e^{i a}/(x-p) with
2 phi = pi/2 - a, not its conjugate).

Hierarchy flows act on coordinates as straight-line drift: under the n-th
conserved Hamiltonian the angles advance at lambda^(2n-2)/4 per phi (so
lambda^(2n-2)/2 per stored 2 phi) and the generalized angles at
(n-1) lambda^(2n-2) nu^2 / 4 pi; the physical flow is the n = 2 case at
twice the rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError, PreconditionError
from .hankel import SpectralDecomposition, eigendecompose
from .rational import (
    HardyRational,
    blaschke,
    hankel_apply,
)
from .flow import _assemble_s, _eigenpairs, _from_pairing

ROUNDTRIP_TOL = 1e-8

__all__ = [
    "ActionAngleCoords",
    "chi",
    "chi_inverse",
    "hierarchy_flow",
    "szego_flow",
    "hierarchy_vector_field",
    "toroidal_cylinder_check",
    "coords_to_json",
    "coords_from_json",
]


@dataclass(frozen=True)
class ActionAngleCoords:
    """(2 lam^2 nu^2, 4 pi lam^2, 2 phi mod 2pi, gamma) per channel."""

    actions_i: tuple[float, ...]
    actions_lambda: tuple[float, ...]
    angles: tuple[float, ...]
    gammas: tuple[float, ...]

    def __post_init__(self):
        n = len(self.actions_i)
        if not (len(self.actions_lambda) == len(self.angles) == len(self.gammas) == n):
            raise InputError("coordinate tuples must share one length")
        if n == 0:
            raise InputError("empty coordinates")
        if any(a <= 0 for a in self.actions_i):
            raise InputError("actions 2 lam^2 nu^2 must be positive")
        if any(b <= 0 for b in self.actions_lambda):
            raise InputError("actions 4 pi lam^2 must be positive")
        for a, b in zip(self.actions_lambda, self.actions_lambda[1:]):
            if b <= a:
                raise InputError("actions 4 pi lam^2 must strictly increase")

    @property
    def size(self) -> int:
        return len(self.actions_i)

    def lambdas(self) -> np.ndarray:
        return np.sqrt(np.array(self.actions_lambda) / (4.0 * math.pi))

    def nus(self) -> np.ndarray:
        lam2 = np.array(self.actions_lambda) / (4.0 * math.pi)
        return np.sqrt(np.array(self.actions_i) / (2.0 * lam2))


def chi(dec: SpectralDecomposition) -> ActionAngleCoords:
    """Action-angle coordinates of a generic spectral decomposition."""
    if dec.genericity not in ("generic", "strongly_generic"):
        raise PreconditionError("chi undefined off the generic class")
    lam2 = dec.lambdas**2
    return ActionAngleCoords(
        tuple((2.0 * lam2 * dec.nus**2).tolist()),
        tuple((4.0 * math.pi * lam2).tolist()),
        tuple(dec.two_phis.tolist()),
        tuple(dec.gammas.tolist()),
    )


def chi_inverse(coords: ActionAngleCoords) -> HardyRational:
    """Reconstruct the unique generic symbol with the given coordinates."""
    if not all(map(math.isfinite, coords.actions_i + coords.actions_lambda
                   + coords.angles + coords.gammas)):
        raise InputError("coordinates must be finite")
    lam, nu = coords.lambdas(), coords.nus()
    beta = nu * np.exp(0.5j * np.array(coords.angles))
    diag = np.diag(np.array(coords.gammas) + 1j * nu**2 / (4.0 * math.pi))
    S0 = _assemble_s(lam, beta, np.eye(coords.size, dtype=bool), diag, 0.0)
    # the poles of u are the eigenvalues of conj(S0): Im >= 0 there is Im <= 0 for S0
    A = S0.conj()[None]
    eig = _eigenpairs(A)
    if (eig[0].imag >= 0).any():
        raise NumericalError(
            "coordinates outside the admissible image: the assembled shift "
            "matrix has an eigenvalue with nonpositive imaginary part; the "
            "map is onto the coordinate domain, so this indicates numerical "
            "trouble (extreme coordinates) rather than an inadmissible input"
        )
    u = _from_pairing(A, (lam * beta.conj())[None], beta.conj()[None], eig)[0]
    back = chi(eigendecompose(u))
    err = _coords_distance(coords, back)
    if err > ROUNDTRIP_TOL:
        raise NumericalError(
            f"inverse spectral round trip off by {err:.3e} (> {ROUNDTRIP_TOL})"
        )
    return u


def _coords_distance(a: ActionAngleCoords, b: ActionAngleCoords) -> float:
    if a.size != b.size:
        return math.inf
    scale = max(1.0, max(abs(v) for v in a.actions_i + a.actions_lambda + a.gammas))
    worst = 0.0
    for x, y in zip(a.actions_i + a.actions_lambda + a.gammas,
                    b.actions_i + b.actions_lambda + b.gammas):
        worst = max(worst, abs(x - y) / scale)
    for x, y in zip(a.angles, b.angles):
        d = abs(x - y) % (2.0 * math.pi)
        worst = max(worst, min(d, 2.0 * math.pi - d))
    return worst


def hierarchy_flow(coords: ActionAngleCoords, n: int, t: float) -> ActionAngleCoords:
    """Flow of the n-th hierarchy Hamiltonian for time t, in coordinates."""
    if n < 2:
        raise PreconditionError("hierarchy flows start at n = 2")
    if not math.isfinite(t):
        raise InputError(f"time must be finite, got {t}")
    lam2 = np.array(coords.actions_lambda) / (4.0 * math.pi)
    nu2 = np.array(coords.nus()) ** 2
    rate_angle = lam2 ** (n - 1) / 2.0
    rate_gamma = (n - 1) * lam2 ** (n - 1) * nu2 / (4.0 * math.pi)
    angles = tuple(
        float((a + t * r) % (2.0 * math.pi)) for a, r in zip(coords.angles, rate_angle)
    )
    gammas = tuple(float(g + t * r) for g, r in zip(coords.gammas, rate_gamma))
    return ActionAngleCoords(coords.actions_i, coords.actions_lambda, angles, gammas)


def szego_flow(coords: ActionAngleCoords, t: float) -> ActionAngleCoords:
    """The physical flow: twice the n = 2 hierarchy flow (E = 2 J_4)."""
    return hierarchy_flow(coords, 2, 2.0 * t)


def hierarchy_vector_field(u: HardyRational, n: int) -> HardyRational:
    """Hamiltonian vector field of the n-th conserved quantity at u.

    Evaluates (1/2i) (H^{2n-1} g + sum_{k=1}^{n-1} H^{2n-2k-1} g * H^{2k} g)
    with H the Hankel operator of u and g its Blaschke complement.  The
    leading term enters bare (not multiplied by g): differentiating the
    generating series of the conserved quantities produces
    (1/2i)(w + x w H w) with w = (1 - x H^2)^{-1} u, whose x^m coefficient
    is H^{2m} u plus the convolution products; writing H^{2m} u = H^{2m+1} g
    gives the sum above.  The bare-term form is pinned numerically by the
    time derivative of the exact soliton at t = 0 under E = 2 J_4.
    """
    if n < 2:
        raise PreconditionError("hierarchy fields start at n = 2")
    g = blaschke(u).g
    pows = [g]
    for _ in range(2 * n - 1):
        pows.append(hankel_apply(u, pows[-1]))
    total = pows[2 * n - 1]
    for k in range(1, n):
        total = total + pows[2 * n - 2 * k - 1] * pows[2 * k]
    return -0.5j * total


def toroidal_cylinder_check(dec_a: SpectralDecomposition,
                            dec_b: SpectralDecomposition,
                            rtol: float = 1e-8) -> bool:
    """True iff both decompositions share eigenvalues and nu lists."""
    for dec in (dec_a, dec_b):
        if dec.genericity not in ("generic", "strongly_generic"):
            raise PreconditionError("toroidal cylinders are defined for generic data")
    if dec_a.size != dec_b.size:
        return False
    lam_ok = np.allclose(dec_a.lambdas, dec_b.lambdas,
                         rtol=rtol, atol=rtol * float(dec_a.lambdas[-1]))
    nu_scale = float(np.max(dec_a.nus))
    nu_ok = np.allclose(dec_a.nus, dec_b.nus, rtol=rtol, atol=rtol * nu_scale)
    return bool(lam_ok and nu_ok)


def coords_to_json(coords: ActionAngleCoords) -> dict:
    return {
        "actions_i": list(coords.actions_i),
        "actions_lambda": list(coords.actions_lambda),
        "angles": list(coords.angles),
        "gammas": list(coords.gammas),
    }


def coords_from_json(d: dict) -> ActionAngleCoords:
    try:
        return ActionAngleCoords(
            tuple(float(x) for x in d["actions_i"]),
            tuple(float(x) for x in d["actions_lambda"]),
            tuple(float(x) for x in d["angles"]),
            tuple(float(x) for x in d["gammas"]),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"malformed coordinates JSON: {e}") from e
