"""Partial-fraction arithmetic and residue calculus for complex rational functions.

Every function is stored as a finite sum

    f(x) = sum_j sum_{l=1}^{m_j} c_{j,l} / (x - p_j)^l

with pairwise distinct poles ``p_j``; every such function decays at infinity.
Hardy elements (class :class:`HardyRational`) have every pole strictly below
the real axis, so they are boundary values of functions holomorphic in the
upper half-plane and their Fourier transform is supported on ``[0, oo)``:

    FT[1/(x-p)^l](xi) = 2*pi*(-i)^l / (l-1)! * xi^(l-1) * exp(-i*p*xi).

Integrals of functions decaying like 1/x^2 are evaluated by residues:
``int f = -2*pi*i * (sum of first-order coefficients at poles below the
axis)``.  Products are computed exactly by truncated Laurent expansion around
each pole of the result, so no polynomial root finding enters the arithmetic.

The other modules read a function in one flat layout, its `_flat` view:
one entry per 1/(x - p_j)^l, a pole's entries consecutive for l = 1..m_j
and the poles in `terms` order, given as the tuple of l - 1 per entry (the
layout) and the arrays of the entries' poles and coefficients.  The view
is built once per object; `_from_flat` is the one way back.

Root finding enters only `pf_from_ratio`: `_cluster_poles` groups its roots
into multiple poles by the rule the flow layer applies to eigenvalues.

The coefficients of g = 1 - b_u, with b_u the Blaschke product of u, have a
closed form in the poles alone (`_g_coeffs`); the spectral layer reads them
directly, and `blaschke` regroups them into a function and checks
H_u(g) = u with the generic arithmetic above.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, NumericalError, PreconditionError

# Tolerances of the representation layer.
POLE_MERGE_RTOL = 1e-12      # arithmetic: poles this close are the same pole
COEFF_TRIM_RTOL = 5e-14      # coefficients this small (vs. the largest) are dropped
DEGREE_CAP = 64              # denominator degree cap of pf_from_ratio
# Relative separation below which computed roots or eigenvalues are one
# multiple pole.  They scatter like eps^(1/m), about 2e-8 already for a
# double pole, so the radius must sit well above that.
EIG_SEP_RTOL = 20.0 * (2.3e-16) ** (1.0 / 3.0)

__all__ = [
    "PoleTerm",
    "RationalFn",
    "HardyRational",
    "BlaschkeData",
    "FourierTerm",
    "from_terms",
    "hardy_from_terms",
    "simple_pole",
    "zero",
    "as_hardy",
    "pf_from_ratio",
    "szego_project",
    "hankel_apply",
    "lambda_functional",
    "fn_integral",
    "inner_product",
    "symplectic_form",
    "blaschke",
    "fourier_transform",
    "spectral_density",
    "homogeneous_sobolev_norm",
    "l2_norm",
    "h_half_norm",
    "to_json_dict",
    "from_json_dict",
    "load_symbol",
]


# ----------------------------------------------------------------------------
# data model


@dataclass(frozen=True)
class PoleTerm:
    """One pole with its stack of coefficients c_l for 1/(x-p)^l, l=1..mult."""

    pole: complex
    coeffs: tuple[complex, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.coeffs)

    def __post_init__(self):
        if not self.coeffs:
            raise InputError("pole term with no coefficients")
        if self.coeffs[-1] == 0:
            raise InputError("top coefficient of a pole term must be nonzero")


@dataclass(frozen=True)
class RationalFn:
    """Canonical partial-fraction form; immutable value object."""

    terms: tuple[PoleTerm, ...] = ()

    # -- structure ------------------------------------------------------

    @property
    def degree(self) -> int:
        """Total pole multiplicity (rank bookkeeping for Hardy symbols)."""
        return sum(t.multiplicity for t in self.terms)

    def is_zero(self, tol: float = 0.0) -> bool:
        mx = self.max_coeff()
        return mx <= tol

    def max_coeff(self) -> float:
        return max((abs(c) for t in self.terms for c in t.coeffs), default=0.0)

    def poles(self) -> tuple[complex, ...]:
        return tuple(t.pole for t in self.terms)

    @cached_property
    def _flat(self) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
        """(layout, poles, coefficients) in the flat layout; built once, read-only."""
        terms = self.terms
        layout = _layout([len(t.coeffs) for t in terms])
        poles = np.array([t.pole for t in terms for _ in t.coeffs], dtype=complex)
        coeffs = np.array([c for t in terms for c in t.coeffs], dtype=complex)
        poles.flags.writeable = coeffs.flags.writeable = False
        return layout, poles, coeffs

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "RationalFn") -> "RationalFn":
        pairs = [(t.pole, list(t.coeffs)) for t in self.terms]
        pairs += [(t.pole, list(t.coeffs)) for t in other.terms]
        return from_terms(pairs)

    def __sub__(self, other: "RationalFn") -> "RationalFn":
        return self + (-other)

    def __neg__(self) -> "RationalFn":
        return self.scale(-1.0)

    def scale(self, a: complex) -> "RationalFn":
        if a == 0:
            return RationalFn()
        terms = tuple(
            PoleTerm(t.pole, tuple(a * c for c in t.coeffs)) for t in self.terms
        )
        return RationalFn(terms)

    def __rmul__(self, a):
        if isinstance(a, (int, float, complex)):
            return self.scale(a)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        if isinstance(other, RationalFn):
            return _mul(self, other)
        return NotImplemented

    def conj_reflect(self) -> "RationalFn":
        """x -> conj(f(conj(x))); mirrors poles across the real axis."""
        terms = [
            (t.pole.conjugate(), [c.conjugate() for c in t.coeffs])
            for t in self.terms
        ]
        return from_terms(terms)

    # -- evaluation -----------------------------------------------------

    def __call__(self, z):
        return self.evaluate(z)

    def evaluate(self, z):
        """Direct summation of the partial fractions at z (scalar or array)."""
        layout, poles, coeffs = self._flat
        zarr = np.asarray(z, dtype=complex)
        d = zarr[..., None] - poles
        if d.size and np.min(np.abs(d)) < 1e-14:
            raise InputError("evaluation at pole")
        out = (coeffs / d ** np.add(layout, 1)).sum(axis=-1)
        if np.isscalar(z) or zarr.ndim == 0:
            return complex(out)
        return out


@dataclass(frozen=True)
class HardyRational(RationalFn):
    """Rational element of the Hardy space: decaying, poles strictly below R."""

    def __post_init__(self):
        for t in self.terms:
            if t.pole.imag >= -1e-12:
                raise InputError("pole on or above real line")


def from_terms(pairs) -> RationalFn:
    """Canonicalize (pole, coeffs) pairs: merge, trim, sort."""
    merged: list[tuple[complex, list[complex]]] = []
    for pole, coeffs in pairs:
        pole = complex(pole)
        coeffs = [complex(c) for c in coeffs]
        if not (cmath.isfinite(pole) and all(map(cmath.isfinite, coeffs))):
            raise InputError("poles and coefficients must be finite")
        tol = POLE_MERGE_RTOL * max(1.0, abs(pole))
        for mp, mc in merged:
            if abs(mp - pole) <= tol:
                while len(mc) < len(coeffs):
                    mc.append(0.0j)
                for i, c in enumerate(coeffs):
                    mc[i] += c
                break
        else:
            merged.append((pole, coeffs))
    scale = max((abs(c) for _, cs in merged for c in cs), default=0.0)
    floor = COEFF_TRIM_RTOL * scale
    out = []
    for pole, coeffs in merged:
        while coeffs and abs(coeffs[-1]) <= floor:
            coeffs.pop()
        coeffs = [0.0j if abs(c) <= floor else c for c in coeffs]
        if coeffs:
            out.append(PoleTerm(pole, tuple(coeffs)))
    out.sort(key=lambda t: (t.pole.real, t.pole.imag))
    return RationalFn(tuple(out))


def hardy_from_terms(pairs) -> HardyRational:
    f = from_terms(pairs)
    return HardyRational(f.terms)


def _layout(mults) -> tuple[int, ...]:
    """The flat layout of poles of the given multiplicities: l - 1 per entry."""
    return tuple([l for m in mults for l in range(m)])


def _from_flat(layout, poles, coeffs) -> HardyRational:
    """The Hardy element whose flat view is (layout, poles, coeffs); a pole starts at each 0."""
    starts = [a for a, l in enumerate(layout) if l == 0] + [len(layout)]
    return hardy_from_terms([(poles[f], coeffs[f:e]) for f, e in zip(starts, starts[1:])])


def as_hardy(f: RationalFn) -> HardyRational:
    return HardyRational(f.terms)


def simple_pole(coeff: complex, pole: complex) -> HardyRational:
    """The Hardy element coeff/(x - pole)."""
    return hardy_from_terms([(pole, [coeff])])


def zero() -> HardyRational:
    return HardyRational()


# ----------------------------------------------------------------------------
# polynomial helpers (ascending coefficient tuples)


def _poly_eval(coeffs, z):
    acc = np.zeros_like(np.asarray(z, dtype=complex))
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _poly_shift(coeffs, p):
    """Coefficients of q(y) = poly(p + y), by repeated synthetic division."""
    work = list(coeffs)
    res = []
    for _ in range(len(coeffs)):
        q = [0.0j] * (len(work) - 1)
        rem = work[-1]
        for i in range(len(work) - 2, -1, -1):
            q[i] = rem
            rem = work[i] + p * rem
        res.append(rem)
        work = q
        if not work:
            break
    return tuple(res)


# ----------------------------------------------------------------------------
# exact multiplication


def _taylor_of_term_at(pole, coeffs, p, order):
    """Taylor coefficients (length `order`) around p of sum_l c_l/(x-pole)^l."""
    out = [0.0j] * order
    d = p - pole
    for l, c in enumerate(coeffs, start=1):
        if c == 0:
            continue
        for n in range(order):
            out[n] += c * ((-1) ** n) * math.comb(l + n - 1, n) / d ** (l + n)
    return out


def _laurent_at(f: RationalFn, p: complex, mult_here: int, order: int):
    """Laurent coefficients of f around p for exponents -mult_here .. order-1."""
    coeffs = [0.0j] * (mult_here + order)
    tol = POLE_MERGE_RTOL * max(1.0, abs(p))
    for t in f.terms:
        if abs(t.pole - p) <= tol:
            for l, c in enumerate(t.coeffs, start=1):
                coeffs[mult_here - l] += c
        else:
            tay = _taylor_of_term_at(t.pole, t.coeffs, p, order)
            for n in range(order):
                coeffs[mult_here + n] += tay[n]
    return coeffs


def _mult_at(f: RationalFn, p: complex) -> int:
    tol = POLE_MERGE_RTOL * max(1.0, abs(p))
    for t in f.terms:
        if abs(t.pole - p) <= tol:
            return t.multiplicity
    return 0


def _mul(f: RationalFn, g: RationalFn) -> RationalFn:
    # pole set of the product with summed multiplicities
    seen: list[complex] = []
    for src in (f, g):
        for t in src.terms:
            tol = POLE_MERGE_RTOL * max(1.0, abs(t.pole))
            if not any(abs(t.pole - q) <= tol for q in seen):
                seen.append(t.pole)
    pairs = []
    for p in seen:
        mf, mg = _mult_at(f, p), _mult_at(g, p)
        m = mf + mg
        lf = _laurent_at(f, p, mf, mg)   # exponents -mf .. mg-1
        lg = _laurent_at(g, p, mg, mf)   # exponents -mg .. mf-1
        # product principal part: exponents -m .. -1
        coeffs = [0.0j] * m
        for i, a in enumerate(lf):       # exponent i - mf
            if a == 0:
                continue
            for j, b in enumerate(lg):   # exponent j - mg
                k = (i - mf) + (j - mg)
                if -m <= k <= -1:
                    coeffs[k + m] += a * b
        # coeffs[idx] holds exponent idx - m; coefficient of 1/(x-p)^l is at idx = m - l
        stack = [coeffs[m - l] for l in range(1, m + 1)]
        pairs.append((p, stack))
    return from_terms(pairs)


# ----------------------------------------------------------------------------
# construction from a ratio of polynomials


def _cluster_poles(vals: np.ndarray) -> list[tuple[complex, int]]:
    """Group computed roots or eigenvalues into (center, multiplicity).

    Values within EIG_SEP_RTOL * max(1, max |v|) of a cluster's running
    mean join it; the mean cancels the leading, symmetric part of the
    eps^(1/m) scatter of a multiple root.
    """
    tol = EIG_SEP_RTOL * max(1.0, float(np.max(np.abs(vals))))
    groups: list[tuple[complex, int]] = []
    for v in sorted(vals, key=lambda z: (z.real, z.imag)):
        for i, (c, m) in enumerate(groups):
            if abs(v - c) <= tol:
                groups[i] = ((c * m + v) / (m + 1), m + 1)
                break
        else:
            groups.append((complex(v), 1))
    return groups


def pf_from_ratio(numerator, denominator) -> HardyRational:
    """Partial fractions of A/B for a Hardy-admissible denominator.

    `numerator`, `denominator`: ascending complex coefficients.  Requires
    deg A <= deg B - 1 and all roots of B strictly below the real axis.
    """
    num = tuple(complex(c) for c in numerator)
    den = tuple(complex(c) for c in denominator)
    if not all(map(cmath.isfinite, num + den)):
        raise InputError("polynomial coefficients must be finite")
    while num and num[-1] == 0:
        num = num[:-1]
    while den and den[-1] == 0:
        den = den[:-1]
    if len(den) < 2:
        raise InputError("denominator must have degree >= 1")
    if len(num) >= len(den):
        raise InputError("numerator degree must be below denominator degree")
    if len(den) > DEGREE_CAP + 1:
        raise InputError(f"polynomial degree exceeds cap {DEGREE_CAP}")
    roots = np.roots(den[::-1])
    clusters = _cluster_poles(roots)
    for p, _m in clusters:
        if p.imag >= -1e-12:
            raise InputError("pole on or above real line")
    if num:
        for p, _m in clusters:
            scale = sum(abs(c) * max(1.0, abs(p)) ** k for k, c in enumerate(num))
            if abs(_poly_eval(num, p)) <= 1e-8 * scale:
                raise InputError("non-reduced fraction")
    lead = den[-1]
    scaled_num = tuple(c / lead for c in num)
    pairs = _pf_from_factored(scaled_num, clusters)
    return hardy_from_terms(pairs)


def _pf_from_factored(num, clusters):
    """Partial fractions of num(x)/prod (x-p)^m with a known factored base."""
    pairs = []
    for p, m in clusters:
        tay = list(_poly_shift(num, p)[:m]) if num else []
        while len(tay) < m:
            tay.append(0.0j)
        for q, mq in clusters:
            if q is p or (q == p):
                continue
            fac = _taylor_of_term_at(q, [0.0j] * (mq - 1) + [1.0 + 0.0j], p, m)
            new = [0.0j] * m
            for i in range(m):
                for j in range(m - i):
                    new[i + j] += tay[i] * fac[j]
            tay = new
        coeffs = [tay[m - l] for l in range(1, m + 1)]
        pairs.append((p, coeffs))
    return pairs


# ----------------------------------------------------------------------------
# projector, Hankel action, functionals


def szego_project(f: RationalFn) -> HardyRational:
    """Keep the partial-fraction terms with poles in the lower half-plane."""
    keep = [(t.pole, t.coeffs) for t in f.terms if t.pole.imag < 0]
    return hardy_from_terms(keep)


def hankel_apply(u: HardyRational, h: HardyRational) -> HardyRational:
    """H_u(h) = projection of u * conj(h); antilinear in h."""
    return szego_project(u * h.conj_reflect())


def lambda_functional(f: RationalFn) -> complex:
    """lim_{x->oo} x f(x): the sum of all first-order coefficients."""
    return sum((t.coeffs[0] for t in f.terms), 0.0j)


def fn_integral(f: RationalFn) -> complex:
    """Integral over R of a rational function decaying like 1/x^2."""
    scale = f.max_coeff()
    if scale == 0.0:
        return 0.0j
    if abs(lambda_functional(f)) > 1e-8 * max(1.0, scale):
        raise PreconditionError("non-integrable")
    total = 0.0j
    for t in f.terms:
        if abs(t.pole.imag) <= 1e-12:
            raise PreconditionError("non-integrable")
        if t.pole.imag < 0:
            total += t.coeffs[0]
    return -2j * math.pi * total


def inner_product(f: RationalFn, h: RationalFn) -> complex:
    """(f, h) = int f conj(h), exact by residues."""
    return fn_integral(f * h.conj_reflect())


def symplectic_form(u: RationalFn, v: RationalFn) -> float:
    """omega(u, v) = 4 Im int u conj(v)."""
    return 4.0 * inner_product(u, v).imag


def l2_norm(f: HardyRational) -> float:
    """The L^2 norm in closed form: the s = 0 homogeneous Sobolev norm."""
    return homogeneous_sobolev_norm(f, 0.0)


# ----------------------------------------------------------------------------
# Blaschke product and g = 1 - b_u


@dataclass(frozen=True)
class BlaschkeData:
    """Inner function b_u = prod ((x-conj p)/(x-p))^m and g = 1 - b_u."""

    poles: tuple[complex, ...]
    mults: tuple[int, ...]
    g: HardyRational

    def evaluate_b(self, z):
        zarr = np.asarray(z, dtype=complex)
        out = np.ones_like(zarr)
        for p, m in zip(self.poles, self.mults):
            out = out * ((zarr - p.conjugate()) / (zarr - p)) ** m
        if np.isscalar(z) or zarr.ndim == 0:
            return complex(out)
        return out


def _g_coeffs(u: HardyRational) -> np.ndarray:
    """Coefficients of g = 1 - b_u on 1/(x-p)^l, in the flat layout.

    Around a pole p of multiplicity m, b_u = (x-p)^-m h(x) with
    h(x) = (x - conj p)^m prod_{q != p} ((x - conj q)/(x - q))^(m_q), so the
    coefficient of g on 1/(x-p)^l is -h_(m-l).  The Taylor coefficients of
    h/h(p) follow from the power sums of log h,
    s_n = (-1)^(n+1)/n sum_q m_q ((p - conj q)^-n - [q != p] (p - q)^-n),
    by the exponential recursion n a_n = sum_k k s_k a_(n-k).  For a simple
    pole the coefficient is -(p - conj p) prod_{q != p} (p - conj q)/(p - q).
    """
    p = np.array([t.pole for t in u.terms])
    m = np.array([t.multiplicity for t in u.terms])
    Dbar = p[:, None] - p.conj()   # p_j - conj p_k, never zero
    D = p[:, None] - p
    D.reshape(-1)[:: len(p) + 1] = 1.0   # so D^-n - I is (p_j - p_k)^-n off the diagonal
    h0 = ((Dbar / D) ** m).prod(axis=1)
    top = max(t.multiplicity for t in u.terms)
    s = [None] + [(-1) ** (n + 1) / n * ((Dbar ** -n - D ** -n) @ m + m) for n in range(1, top)]
    a = np.ones((len(p), top), dtype=complex)   # a[j, n]: Taylor coefficients of h/h(p_j)
    for n in range(1, top):
        a[:, n] = sum(k * s[k] * a[:, n - k] for k in range(1, n + 1)) / n
    # entry (p_j, l) of the range basis is -h0_j a[j, m_j - l], at flat index `at`
    at = np.array([j * top + t.multiplicity - l for j, t in enumerate(u.terms)
                   for l in range(1, t.multiplicity + 1)])
    return -h0.take(at // top) * a.take(at)


def blaschke(u: HardyRational) -> BlaschkeData:
    """Blaschke data of the symbol; checks H_u(g) = u internally."""
    if u.is_zero():
        raise PreconditionError("undefined for zero symbol")
    layout, poles, _ = u._flat
    g = _from_flat(layout, poles, _g_coeffs(u))
    resid = hankel_apply(u, g) - u
    if resid.max_coeff() > 1e-10 * max(1.0, u.max_coeff()):
        raise NumericalError("Blaschke postcondition H_u(g) = u failed")
    return BlaschkeData(u.poles(), tuple(t.multiplicity for t in u.terms), g)


# ----------------------------------------------------------------------------
# Fourier side


@dataclass(frozen=True)
class FourierTerm:
    """One term amplitude * xi^power * exp(-i*pole*xi) of a spectral density."""

    amplitude: complex
    pole: complex
    power: int


def _fourier_arrays(f: HardyRational) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Amplitudes, poles and powers of the transform's terms, one per nonzero entry."""
    layout, poles, coeffs = f._flat
    keep = coeffs != 0
    power = np.array(layout, dtype=int)[keep]
    amp = [c * 2.0 * math.pi * (-1j) ** (k + 1) / math.factorial(k)
           for k, c in zip(power.tolist(), coeffs[keep].tolist())]
    return np.array(amp, dtype=complex), poles[keep], power


def fourier_transform(f: HardyRational) -> tuple[FourierTerm, ...]:
    """Closed-form Fourier transform on xi > 0; zero on xi < 0."""
    return tuple(map(FourierTerm, *(a.tolist() for a in _fourier_arrays(f))))


def spectral_density(f: HardyRational, xi):
    """Evaluate the closed-form transform at xi >= 0 (scalar or array)."""
    xarr = np.asarray(xi, dtype=float)
    out = np.zeros(xarr.shape, dtype=complex)
    for amp, pole, power in zip(*(a.tolist() for a in _fourier_arrays(f))):
        out += amp * xarr**power * np.exp(-1j * pole * xarr)
    if np.isscalar(xi) or xarr.ndim == 0:
        return complex(out)
    return out


def _sobolev_norms(fs, ss) -> np.ndarray:
    """Homogeneous Sobolev norms of every f of fs for every s in ss, shape (len(fs), len(ss)).

    ||f||_{Hdot^s}^2 = (1/2pi) int_0^oo xi^(2s) |fhat|^2, with every cross
    term integrating to Gamma(a+1)/c^(a+1) where c = i(p_a - conj(p_b)) has
    positive real part.  Each f's transform is built once, and the
    functions whose transforms have the same powers are one broadcast.
    """
    ss = np.asarray(ss, dtype=float)
    if np.any(ss < 0):
        raise PreconditionError("Sobolev index must be nonnegative")
    terms = [_fourier_arrays(f) for f in fs]
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, (_amp, _pol, pw) in enumerate(terms):
        groups.setdefault(tuple(pw.tolist()), []).append(i)
    jmax = 2 * max((max(key) for key in groups if key), default=0)
    gam = np.array([[math.gamma(2.0 * s + j + 1.0) for j in range(jmax + 1)] for s in ss])
    out = np.zeros((len(terms), len(ss)))
    for key, idx in groups.items():
        if not key:
            continue
        amp = np.array([terms[i][0] for i in idx])
        pol = np.array([terms[i][1] for i in idx])
        pw = terms[idx[0]][2]
        A = amp[:, :, None] * np.conj(amp[:, None, :])
        k = pw[:, None] + pw[None, :]
        n = 2.0 * ss[:, None, None] + k
        c = 1j * (pol[:, :, None] - np.conj(pol[:, None, :]))
        total = np.sum(A[:, None] * gam[:, k] / c[:, None] ** (n + 1.0), axis=(2, 3))
        out[idx] = np.sqrt(np.maximum(total.real / (2.0 * math.pi), 0.0))
    return out


def homogeneous_sobolev_norm(f: HardyRational, s: float) -> float:
    """Exact homogeneous Sobolev norm via Gamma-function integrals."""
    return float(_sobolev_norms([f], (s,))[0, 0])


def h_half_norm(f: HardyRational) -> float:
    """The conserved H^(1/2) quantity: sqrt(mass + momentum).

    Equals (||f||_L2^2 + ||f||_{Hdot^(1/2)}^2)^(1/2); this is the combination
    that the flow preserves exactly, and the convention used by trajectory
    observables and conservation tests.
    """
    a, b = _sobolev_norms([f], (0.0, 0.5))[0].tolist()
    return math.sqrt(a * a + b * b)


# ----------------------------------------------------------------------------
# JSON interchange


def to_json_dict(f: HardyRational) -> dict:
    return {
        "terms": [
            {
                "pole": [t.pole.real, t.pole.imag],
                "coeffs": [[c.real, c.imag] for c in t.coeffs],
            }
            for t in f.terms
        ]
    }


def from_json_dict(d: dict) -> HardyRational:
    try:
        pairs = []
        for td in d["terms"]:
            pole = complex(td["pole"][0], td["pole"][1])
            coeffs = [complex(c[0], c[1]) for c in td["coeffs"]]
            pairs.append((pole, coeffs))
    except (KeyError, TypeError, IndexError) as e:
        raise InputError(f"malformed symbol JSON: {e}") from e
    return hardy_from_terms(pairs)


def load_symbol(text_or_dict) -> HardyRational:
    """Accept a symbol as JSON text/dict: either partial fractions or A/B."""
    if isinstance(text_or_dict, str):
        try:
            d = json.loads(text_or_dict)
        except json.JSONDecodeError as e:
            raise InputError(f"invalid JSON: {e}") from e
    else:
        d = text_or_dict
    if not isinstance(d, dict):
        raise InputError("symbol JSON must be an object")
    if "terms" in d:
        return from_json_dict(d)
    if "numerator" in d and "denominator" in d:
        def _ascomplex(seq):
            out = []
            for c in seq:
                if isinstance(c, (list, tuple)):
                    out.append(complex(c[0], c[1]))
                else:
                    out.append(complex(c))
            return out
        try:
            num = _ascomplex(d["numerator"])
            den = _ascomplex(d["denominator"])
        except (TypeError, IndexError) as e:
            raise InputError(f"malformed polynomial spec: {e}") from e
        return pf_from_ratio(num, den)
    raise InputError("symbol JSON needs 'terms' or 'numerator'/'denominator'")
