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
cubic term is sampled on exactly M points, held as two rows of M/2: the
even and the odd samples.  Modes M/2+1..M-1 are zero, so the M-point inverse
transform splits into two M/2-point ones, of y_k and of y_k e^{2 pi i k/M}
(k < M/2), with the top mode y_{M/2} added to every even sample and
subtracted from every odd one; one batched inverse FFT, a pointwise cube
and one batched forward FFT, recombined with the conjugate twiddles, give
the M-point transform of |u|^2 u.  Its triples k1 + k2 - k3 span
[-M/2, M], and on M points a triple aliases onto a kept mode 0..M/2 only
if it sums to M or to -M/2.  Each bound is reached by one triple alone,
(M/2, M/2, 0) and (0, 0, M/2), since the kept modes stop at M/2; these two
products are subtracted exactly, which leaves the alias-free convolution
without any zero padding.  The half-shift modulation and the (-1)^k
grid-offset sign cancel in |u|^2 u.

`step` and `integrate` run one RK4 routine on one workspace, allocated per
call: the (2, M/2) sample rows, the twiddles e^{2 pi i k/M} and their
conjugates, and three K = M/2 + 1 stage buffers.  The cubic term runs in
place in the sample rows: the inverse FFT is left unnormalized, the forward
FFT overwrites its input, and a single folded constant -i/(M (2L)^2) scales
the kept modes in a stage buffer.  The caller's amplitudes are only read,
and every returned state holds a fresh array.
"""

from __future__ import annotations

import math
import operator
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
    try:
        M = operator.index(M)
    except TypeError:
        raise InputError(f"mode count must be an integer, got {M!r}") from None
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


def _workspace(M: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Buffers of the RK4 kernel on M modes, for one step or integrate call.

    The (2, M/2) even and odd sample rows of the cubic term; its twiddles,
    tau_k = e^{2 pi i k/M} in row 0 and their conjugates in row 1, for
    k < M/2; and three stage buffers of K = M/2 + 1 modes: the stage
    derivative, the stage input and the accumulated increment.
    """
    h = M // 2
    tau = np.exp(2j * math.pi / M * np.arange(h))
    return (np.empty((2, h), dtype=complex), np.stack([tau, tau.conj()]),
            np.empty((3, h + 1), dtype=complex))


def _vector_field(y: np.ndarray, L: float, rows: np.ndarray, tw: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    """-i FT(|u|^2 u) at the kept frequencies of y, written into out.

    The M-point inverse transform of y, split into its even and odd samples
    (the top mode y_{M/2} is +y_{M/2} on every even sample and -y_{M/2} on
    every odd one), is left unnormalized, so the cube carries M^3.  The
    forward transform recombines the two rows, the two triples that alias
    onto kept modes are subtracted, and one constant -i / (M (2L)^2) folds
    the 1/M of the inverse, the (M/2L)^2 of the sampled cube and the -i of
    the equation.
    """
    h = len(y) - 1
    y0, top = complex(y[0]), complex(y[h])
    rows[0] = y[:h]
    np.multiply(y[:h], tw[0], out=rows[1])
    rows[0, 0] += top
    rows[1, 0] -= top
    np.fft.ifft(rows, axis=1, norm="forward", out=rows)
    rows *= rows.real**2 + rows.imag**2
    np.fft.fft(rows, axis=1, out=rows)
    np.multiply(rows[1], tw[1], out=out[:h])
    out[:h] += rows[0]
    out[h] = rows[0, 0] - rows[1, 0]
    M = 2 * h
    out[0] -= M * top * top * y0.conjugate()    # triple (M/2, M/2, 0): k = M
    out[h] -= M * y0 * y0 * top.conjugate()     # triple (0, 0, M/2): k = -M/2
    out *= -1j / (M * (2.0 * L) ** 2)
    return out


def _rk4(a: np.ndarray, dt: float, L: float, dxi: float, rows: np.ndarray,
         tw: np.ndarray, stages: np.ndarray, out: np.ndarray) -> None:
    """One classical RK4 step from a into out; a is only read."""
    sup = dxi / (2.0 * math.pi) * float(np.sum(np.abs(a)))
    if sup > 0 and abs(dt) > 0.5 / sup**2:
        raise PreconditionError(
            f"dt {dt:.3e} above stability budget {0.5 / sup**2:.3e}"
        )
    k, y, acc = stages
    _vector_field(a, L, rows, tw, acc)
    np.multiply(acc, 0.5 * dt, out=y)
    for c in (0.5 * dt, dt):   # k2 and k3: each feeds the next stage, weight 2
        y += a
        _vector_field(y, L, rows, tw, k)
        np.multiply(k, c, out=y)
        k *= 2.0
        acc += k
    y += a
    _vector_field(y, L, rows, tw, k)
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
    rows, tw, stages = _workspace(state.M)
    a = np.array(state.amps, dtype=complex)
    new = np.empty_like(a)
    t = state.time
    for _ in range(n):
        _rk4(a, h, state.L, state.dxi, rows, tw, stages, new)
        a, new = new, a
        t += h
    return GridState(state.L, state.M, a, t)


def mass(state: GridState) -> float:
    """Discrete J_2: (dxi/2pi) * sum |amps|^2 (midpoint rule, exact Parseval)."""
    return state.dxi / (2.0 * math.pi) * float(np.sum(np.abs(state.amps) ** 2))


def edge_mass_fraction(state: GridState, frac: float = 0.05) -> float:
    """Fraction of on-grid mass within `frac` (0 < frac <= 1) of the box edges."""
    if not 0.0 < frac <= 1.0:
        raise InputError(f"edge fraction must lie in (0, 1], got {frac!r}")
    return _edge_fraction(grid_physical(state), state.L, frac)


def _edge_fraction(u: np.ndarray, L: float, frac: float = 0.05) -> float:
    """edge_mass_fraction of the physical grid values u on [-L, L)."""
    sel = np.abs(grid_points(L, len(u))) >= (1.0 - frac) * L
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
    """Measured RK4 order from successive dt halvings (expect about 4).

    The order is log2 of the ratio of the two halving differences, so it is
    undefined, and a `PreconditionError` is raised, when either is exactly 0.
    """
    g0 = sample_to_grid(u0, L, M)
    if u0.is_zero():
        raise PreconditionError("undefined for zero symbol")
    sols = [integrate(g0, t, dt / 2**i).amps for i in range(3)]
    e01 = _l2_of_modes(sols[0] - sols[1], g0.dxi)
    e12 = _l2_of_modes(sols[1] - sols[2], g0.dxi)
    if e01 == 0.0 or e12 == 0.0:
        raise PreconditionError(
            f"RK4 order undefined: halving differences {e01:.3e} and {e12:.3e}"
        )
    order = math.log2(e01 / e12)
    return {"dt": dt, "err_coarse": e01, "err_fine": e12, "order": order}
