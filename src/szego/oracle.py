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

Time stepping is classical RK4 (the equation has no stiff linear part).  The
cubic term is one zero-padded inverse FFT, a pointwise cube and one forward
FFT on n = M + max(M//8, 1) points: its triples k1 + k2 - k3 span [-M/2, M], so any
n > M keeps every alias off the kept modes 0..M/2, and the half-shift
modulation and the (-1)^k grid-offset sign cancel in |u|^2 u.

`step` and `integrate` run one RK4 routine on one workspace, allocated per
call: an n-point transform buffer and three K = M/2 + 1 stage buffers.  The
cubic term runs in place in the transform buffer: the inverse FFT is left
unnormalized, the forward FFT overwrites its input, and a single folded
constant -i/(n (2L)^2) scales the kept modes into a stage buffer.  The
caller's amplitudes are only read, and every returned state holds a fresh
array.
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
    if not (math.isfinite(L) and L > 0):
        raise InputError(f"box half-width must be positive and finite, got {L!r}")
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


def grid_physical(state: GridState) -> np.ndarray:
    """Physical values of the grid representation at grid_points(L, M).

    u(x_j) = (1/2L) sum_k amps_k e^{i x_j (k+1/2) pi/L} with x_j = -L + 2Lj/M,
    i.e. (M/2L) (-i) e^{i pi j/M} ifft((-1)^k amps_k).
    """
    L, M = state.L, state.M
    sign = (-1.0) ** np.arange(len(state.amps))
    mod = -1j * np.exp(1j * math.pi / M * np.arange(M))
    return np.fft.ifft(state.amps * sign, M) * (mod * (M / (2.0 * L)))


def _workspace(M: int) -> tuple[np.ndarray, np.ndarray]:
    """Buffers of the RK4 kernel on M modes, for one step or integrate call.

    One transform buffer of n = M + max(M//8, 1) points and three stage
    buffers of K = M//2 + 1 modes: the stage derivative, the stage input
    and the accumulated increment.
    """
    n = M + max(M // 8, 1)
    return np.empty(n, dtype=complex), np.empty((3, M // 2 + 1), dtype=complex)


def _vector_field(y: np.ndarray, L: float, buf: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    """-i FT(|u|^2 u) at the kept frequencies of y, written into out.

    The inverse transform is left unnormalized, so the cube carries n^3 and
    one constant -i / (n (2L)^2) folds the 1/n of the inverse, the (n/2L)^2
    of the sampled cube and the -i of the equation.
    """
    K = len(y)
    buf[:K] = y
    buf[K:] = 0.0
    np.fft.ifft(buf, norm="forward", out=buf)
    buf *= buf.real**2 + buf.imag**2
    np.fft.fft(buf, out=buf)
    return np.multiply(buf[:K], -1j / (len(buf) * (2.0 * L) ** 2), out=out)


def _rk4(a: np.ndarray, dt: float, L: float, dxi: float, buf: np.ndarray,
         stages: np.ndarray, out: np.ndarray) -> None:
    """One classical RK4 step from a into out; a is only read."""
    sup = dxi / (2.0 * math.pi) * float(np.sum(np.abs(a)))
    if sup > 0 and abs(dt) > 0.5 / sup**2:
        raise PreconditionError(
            f"dt {dt:.3e} above stability budget {0.5 / sup**2:.3e}"
        )
    k, y, acc = stages
    _vector_field(a, L, buf, acc)
    np.multiply(acc, 0.5 * dt, out=y)
    for c in (0.5 * dt, dt):   # k2 and k3: each feeds the next stage, weight 2
        y += a
        _vector_field(y, L, buf, k)
        np.multiply(k, c, out=y)
        k *= 2.0
        acc += k
    y += a
    _vector_field(y, L, buf, k)
    acc += k
    np.multiply(acc, dt / 6.0, out=out)
    out += a
    if not np.all(np.isfinite(out)):
        raise NumericalError("blow-up or instability")


def step(state: GridState, dt: float) -> GridState:
    """One classical RK4 step; the Hardy constraint holds by construction."""
    if not math.isfinite(dt):
        raise InputError(f"time step must be finite, got {dt!r}")
    new = np.empty(len(state.amps), dtype=complex)
    _rk4(state.amps, dt, state.L, state.dxi, *_workspace(state.M), new)
    return GridState(state.L, state.M, new, state.time + dt)


def integrate(state: GridState, t_final: float, dt: float) -> GridState:
    """Step to t_final, forward or backward, in steps of size dt > 0.

    The same RK4 step as `step`, on one workspace for the whole run.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise InputError(f"time step must be positive and finite, got {dt!r}")
    span = t_final - state.time
    if not math.isfinite(span):
        raise InputError(f"time must be finite, got {t_final!r}")
    h = math.copysign(dt, span)
    n = round(span / h)
    if abs(n * h - span) > 1e-9 * max(1.0, abs(span)):
        raise InputError("time span must be a whole number of steps")
    buf, stages = _workspace(state.M)
    a = np.array(state.amps, dtype=complex)
    new = np.empty_like(a)
    t = state.time
    for _ in range(n):
        _rk4(a, h, state.L, state.dxi, buf, stages, new)
        a, new = new, a
        t += h
    return GridState(state.L, state.M, a, t)


def mass(state: GridState) -> float:
    """Discrete J_2: (dxi/2pi) * sum |amps|^2 (midpoint rule, exact Parseval)."""
    return state.dxi / (2.0 * math.pi) * float(np.sum(np.abs(state.amps) ** 2))


def edge_mass_fraction(state: GridState, frac: float = 0.05) -> float:
    """Fraction of on-grid mass within `frac` of the box edges."""
    return _edge_fraction(grid_physical(state), state.L, frac)


def _edge_fraction(u: np.ndarray, L: float, frac: float = 0.05) -> float:
    """edge_mass_fraction of the physical grid values u on [-L, L)."""
    sel = np.abs(grid_points(L, len(u))) > (1.0 - frac) * L
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
    gt = integrate(g0, t, dt)

    dec = eigendecompose(u0)
    from .flow import recover_rational, spectral_conserved

    ut = recover_rational(dec, t)
    gex = sample_to_grid(ut, L, M)

    diff = gt.amps - gex.amps
    l2 = _l2_of_modes(diff, g0.dxi)
    ut_grid = grid_physical(gt)
    linf = float(np.max(np.abs(ut_grid - grid_physical(gex))))
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
        "edge_mass_fraction": _edge_fraction(ut_grid, gt.L),
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
