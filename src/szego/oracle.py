"""Direct pseudo-spectral integration of i u_t = P(|u|^2 u) on a periodic box.

Used only to cross-validate the closed-form evolution.  The state lives on
the staggered nonnegative frequencies xi_k = (k + 1/2) * pi / L,
k = 0..M/2, of a box [-L, L); all other frequencies are identically zero,
which realizes the Hardy constraint exactly.  Amplitudes are initialized
from the closed-form Fourier transform of the rational symbol, so there is
no spatial truncation error at startup, and the oracle and the explicit
formula share one grid representation (all comparisons are Parseval sums
over the common modes).

Why the staggered lattice: Hardy spectra of rational symbols jump at
xi = 0 (the transform is O(1) at 0+ and zero below).  An integer lattice
k*pi/L places a sample bin exactly on that jump, which caps the accuracy of
the discrete convolution at O(dxi) ~ 1e-2 for the standard box sizes; the
half-shifted lattice is midpoint quadrature, avoids the jump, restores
O(dxi^2), and is still exactly closed under the cubic nonlinearity
((k1+1/2) + (k2+1/2) - (k3+1/2) lands back on the lattice).  Uniform mode
weights keep the discrete Parseval identity, so the semi-discrete flow
conserves the discrete mass exactly.

A 2L-periodic representation cannot reproduce pointwise values of a
1/x-tailed function to spectral accuracy (the physical-space round trip is
accurate to O(1/L^2) in the box interior only), which is why quantitative
comparisons happen in the shared spectral representation.

Time stepping is classical RK4 (the equation has no stiff linear part), and
the cubic nonlinearity is dealiased by zero padding to 2M modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError, PreconditionError
from .hankel import eigendecompose
from .rational import HardyRational, spectral_density

__all__ = [
    "GridState",
    "sample_to_grid",
    "grid_physical",
    "grid_points",
    "grid_frequencies",
    "step",
    "integrate",
    "mass",
    "edge_mass_fraction",
    "compare",
    "self_convergence",
]


@dataclass(frozen=True)
class GridState:
    """Amplitudes at the staggered nonnegative frequencies of [-L, L)."""

    L: float
    M: int
    amps: np.ndarray  # length M//2 + 1, amplitudes at xi_k = (k + 1/2) pi / L
    time: float

    @property
    def dxi(self) -> float:
        return math.pi / self.L

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.M


def grid_points(L: float, M: int) -> np.ndarray:
    return -L + 2.0 * L * np.arange(M) / M


def grid_frequencies(L: float, M: int) -> np.ndarray:
    return (np.arange(M // 2 + 1) + 0.5) * math.pi / L


def sample_to_grid(u: HardyRational, L: float, M: int,
                   tail_tol: float = 2e-2) -> GridState:
    """Fill amplitudes from the closed-form transform of u.

    Checks that the spectral tail at xi_max is negligible and that the
    physical box contains the poles comfortably (|u(+-L)| <= tail_tol).
    """
    if M < 4 or M & (M - 1):
        raise InputError("mode count must be a power of two")
    amps = spectral_density(u, grid_frequencies(L, M))
    scale = float(np.max(np.abs(amps))) if amps.size else 0.0
    if scale > 0 and abs(amps[-1]) > 1e-14 * scale:
        delta = min(-t.pole.imag for t in u.terms)
        need = math.log(scale / 1e-14) / delta
        raise InputError(
            f"box too small: spectral tail {abs(amps[-1]):.2e}; "
            f"need xi_max >= {need:.1f}, e.g. L <= {M * math.pi / (2 * need):.1f} "
            f"or a larger M"
        )
    if u.terms:
        edge = max(abs(u.evaluate(1.0 * L)), abs(u.evaluate(-1.0 * L)))
        if edge > tail_tol:
            raise InputError(
                f"box too small: |u(+-L)| = {edge:.2e} exceeds {tail_tol:.2e}; "
                f"increase L"
            )
    return GridState(float(L), int(M), amps.astype(complex), 0.0)


_VEC_CACHE: dict[tuple[float, int], tuple[np.ndarray, np.ndarray]] = {}


def _vectors(L: float, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached (-1)^k mode signs and e^{i x dxi / 2} grid modulation."""
    key = (float(L), int(N))
    got = _VEC_CACHE.get(key)
    if got is None:
        k = np.fft.fftfreq(N, d=1.0 / N).astype(int)
        sign = np.where(k % 2 == 0, 1.0, -1.0)
        x = -L + 2.0 * L / N * np.arange(N)
        mod = np.exp(1j * x * (0.5 * math.pi / L))
        if len(_VEC_CACHE) > 32:
            _VEC_CACHE.clear()
        _VEC_CACHE[key] = (sign, mod)
        got = (sign, mod)
    return got


def _synthesize(amps: np.ndarray, L: float, M: int, N: int) -> np.ndarray:
    """Physical values of sum_k amps_k e^{i x (k+1/2) dxi} / (2 pi / dxi)."""
    sign, mod = _vectors(L, N)
    full = np.zeros(N, dtype=complex)
    full[: len(amps)] = amps
    full *= sign
    return np.fft.ifft(full) * (mod * (N / (2.0 * L)))


def _analyze(u: np.ndarray, L: float, N: int) -> np.ndarray:
    """Amplitudes at (k + 1/2) dxi, k = 0..N-1, of physical grid values."""
    sign, mod = _vectors(L, N)
    return (2.0 * L / N) * sign * np.fft.fft(u * np.conj(mod))


def grid_physical(state: GridState) -> np.ndarray:
    """Physical values of the grid representation at grid_points(L, M)."""
    return _synthesize(state.amps, state.L, state.M, state.M)


def _nonlinearity(amps: np.ndarray, L: float, M: int) -> np.ndarray:
    """FT of |u|^2 u restricted to the kept frequencies, dealiased on 2M."""
    u = _synthesize(amps, L, M, 2 * M)
    w = (u.real**2 + u.imag**2) * u
    what = _analyze(w, L, 2 * M)
    return what[: M // 2 + 1]


def _rhs(amps: np.ndarray, L: float, M: int) -> np.ndarray:
    return -1j * _nonlinearity(amps, L, M)


def step(state: GridState, dt: float) -> GridState:
    """One classical RK4 step; the Hardy constraint holds by construction."""
    sup = state.dxi / (2.0 * math.pi) * float(np.sum(np.abs(state.amps)))
    if sup > 0 and dt > 0.5 / sup**2:
        raise PreconditionError(
            f"dt {dt:.3e} above stability budget {0.5 / sup**2:.3e}"
        )
    a = state.amps
    L, M = state.L, state.M
    k1 = _rhs(a, L, M)
    k2 = _rhs(a + 0.5 * dt * k1, L, M)
    k3 = _rhs(a + 0.5 * dt * k2, L, M)
    k4 = _rhs(a + dt * k3, L, M)
    new = a + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(new)):
        raise NumericalError("blow-up or instability")
    return GridState(L, M, new, state.time + dt)


def integrate(state: GridState, t_final: float, dt: float) -> GridState:
    span = t_final - state.time
    n = round(span / dt)
    if n < 0 or abs(n * dt - span) > 1e-9 * max(1.0, abs(span)):
        raise InputError("time span must be a whole number of steps")
    for _ in range(n):
        state = step(state, dt)
    return state


def mass(state: GridState) -> float:
    """Discrete J_2: (dxi/2pi) * sum |amps|^2 (midpoint rule, exact Parseval)."""
    return state.dxi / (2.0 * math.pi) * float(np.sum(np.abs(state.amps) ** 2))


def edge_mass_fraction(state: GridState, frac: float = 0.05) -> float:
    """Fraction of on-grid mass within `frac` of the box edges."""
    u = grid_physical(state)
    x = grid_points(state.L, state.M)
    sel = np.abs(x) > (1.0 - frac) * state.L
    tot = float(np.sum(np.abs(u) ** 2))
    if tot == 0.0:
        return 0.0
    return float(np.sum(np.abs(u[sel]) ** 2)) / tot


def _l2_of_modes(diff: np.ndarray, dxi: float) -> float:
    return math.sqrt(dxi / (2.0 * math.pi) * float(np.sum(np.abs(diff) ** 2)))


def compare(u0: HardyRational, t: float, L: float, M: int, dt: float) -> dict:
    """Integrate u0 with the oracle and compare against the explicit formula.

    Both solutions are reduced to the shared grid representation; `l2_error`
    is the Parseval norm of the mode difference (equal to the on-grid L2
    distance of the two represented functions) and `linf_error` the maximum
    physical-space difference of the representations.

    Measured accuracy of the comparison scales like (pi/L)^2 times roughly
    the elapsed time; at L = 200, M = 2^14, dt = 1e-3, t = 1 it sits near
    1e-4 for M(2) symbols of unit scale, improving 4x per doubling of L.
    """
    if abs(t) > 5.0:
        raise PreconditionError("oracle honesty window is |t| <= 5")
    g0 = sample_to_grid(u0, L, M)
    m0 = mass(g0)
    gt = integrate(g0, t, dt) if t != 0 else g0

    dec = eigendecompose(u0)
    from .flow import recover_rational, spectral_conserved

    ut = recover_rational(dec, t)
    gex = sample_to_grid(ut, L, M)

    diff = gt.amps - gex.amps
    l2 = _l2_of_modes(diff, g0.dxi)
    linf = float(np.max(np.abs(grid_physical(gt) - grid_physical(gex))))
    per_mode = float(np.max(np.abs(diff)))
    j2_oracle = abs(mass(gt) - m0) / m0 if m0 > 0 else 0.0
    J0 = spectral_conserved(dec, 1)[0]
    Jt = spectral_conserved(eigendecompose(ut), 1)[0]
    return {
        "t": float(t),
        "L": float(L),
        "M": int(M),
        "dt": float(dt),
        "l2_error": l2,
        "linf_error": linf,
        "max_mode_error": per_mode,
        "j2_drift_oracle": float(j2_oracle),
        "j2_drift_explicit": abs(Jt - J0) / J0,
        "edge_mass_fraction": edge_mass_fraction(gt),
    }


def self_convergence(u0: HardyRational, t: float, L: float, M: int,
                     dt: float) -> dict:
    """Measured RK4 order from successive dt halvings (expect about 4)."""
    g0 = sample_to_grid(u0, L, M)
    sols = [integrate(g0, t, dt / 2**i).amps for i in range(3)]
    e01 = _l2_of_modes(sols[0] - sols[1], g0.dxi)
    e12 = _l2_of_modes(sols[1] - sols[2], g0.dxi)
    order = math.log2(e01 / e12) if e12 > 0 else float("inf")
    return {"dt": dt, "err_coarse": e01, "err_fine": e12, "order": order}
